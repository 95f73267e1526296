//! Loopback soak: hundreds of concurrent stripe readers over the
//! reactor and the multiplexed wire, with a shard backend killed in
//! mid-flight.
//!
//! The invariants under load:
//! * every read stays byte-correct, before and after the kill (the
//!   dead shard's all-absent replies degrade into the erasure-code
//!   failure domain and decode through parity);
//! * nothing deadlocks — every reader thread finishes;
//! * the store ends up reporting the dead disk, and only it, suspect;
//! * submissions in flight against the dead backend complete as
//!   all-`None` rather than hanging their completion handles.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use ecfrm_codes::RsCode;
use ecfrm_core::Scheme;
use ecfrm_net::Cluster;
use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 256;
const READERS: usize = 8;
const READS_PER_READER: usize = 40; // 320 concurrent stripe reads total
const OBJECTS: usize = 8;
const KILLED_DISK: usize = 2;

fn payload(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed * 7 + 3) % 256) as u8)
        .collect()
}

#[test]
fn soak_concurrent_stripe_reads_survive_midflight_backend_kill() {
    let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(ecfrm_core::LayoutKind::EcFrm)
        .build();
    let n = scheme.n_disks();

    // Shard backends: MemDisks, with one wrapped in a FaultyDisk armed
    // to die partway through the soak — after it has served enough
    // reads that plenty of submissions are in flight around the kill.
    let faulty = FaultyDisk::wrap(Arc::new(MemDisk::new()));
    let backends: Vec<Arc<dyn DiskBackend>> = (0..n)
        .map(|d| {
            if d == KILLED_DISK {
                Arc::clone(&faulty) as Arc<dyn DiskBackend>
            } else {
                Arc::new(MemDisk::new()) as Arc<dyn DiskBackend>
            }
        })
        .collect();
    let cluster = Cluster::spawn_over(
        backends,
        &ecfrm_net::RemoteDiskConfig::builder().low_latency().build(),
    )
    .unwrap();
    let store = Arc::new(ObjectStore::with_array(
        scheme.clone(),
        ELEMENT,
        ThreadedArray::from_backends(cluster.backends()),
    ));

    // A couple of stripes per object so each read is a real vectored
    // fan-out across every disk.
    let want: Vec<Vec<u8>> = (0..OBJECTS)
        .map(|i| payload(i, scheme.data_per_stripe() * ELEMENT * 2 + 97 * i))
        .collect();
    let extents: Vec<_> = want.iter().map(|data| store.append(data)).collect();
    store.flush();

    // Die mid-soak: the puts already pushed the tally up, so arm the
    // kill relative to the current count — ~1/3 into the read phase.
    let reads_at_start = faulty.reads();
    faulty.arm(
        FaultKind::Kill,
        reads_at_start + (READERS * READS_PER_READER / 3) as u64,
    );

    let failures = Arc::new(AtomicUsize::new(0));
    thread::scope(|scope| {
        for r in 0..READERS {
            let store = Arc::clone(&store);
            let (want, extents) = (&want, &extents);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for k in 0..READS_PER_READER {
                    let i = (r + k) % OBJECTS;
                    match store.read(extents[i]) {
                        Ok((got, _)) if got == want[i] => {}
                        Ok(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("reader {r} iter {k}: wrong bytes for obj{i}");
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("reader {r} iter {k}: obj{i} failed: {e:?}");
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::Relaxed),
        0,
        "every concurrent read must stay byte-correct across the kill"
    );
    assert!(
        faulty.fired(),
        "the kill must actually have happened mid-soak"
    );
    assert_eq!(
        store.stats().suspect_disks,
        vec![KILLED_DISK],
        "the dead disk ends up flagged suspect"
    );

    // In-flight submissions against the dead backend complete as
    // all-absent — the completion handles must never hang.
    let offsets: Vec<u64> = (0..16).collect();
    let handles: Vec<_> = (0..32).map(|_| faulty.submit_read_many(&offsets)).collect();
    for h in handles {
        assert_eq!(h.wait(), vec![None; offsets.len()]);
    }

    // Reads still work degraded after the soak, and the engine's books
    // balance: everything submitted has completed.
    let (got, stats) = store.read(extents[0]).unwrap();
    assert_eq!(got, want[0]);
    assert!(stats.degraded);
    let io = store.array().io_stats().snapshot();
    assert_eq!(io.submitted, io.completed, "{io:?}");
    assert_eq!(io.inflight, 0, "{io:?}");
}
