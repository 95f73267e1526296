//! The write path over a real loopback cluster: what a seal costs in
//! RPCs, what a dead shard costs a seal, and what a shard that hangs up
//! on writes costs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::protocol::{read_request, write_response};
use ecfrm_net::{Cluster, RemoteDisk, RemoteDiskConfig, Request, Response};
use ecfrm_sim::{DiskBackend, MemDisk, ThreadedArray};
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 512;

fn payload(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed * 17) % 251) as u8)
        .collect()
}

/// RS(6,3) in the EC-FRM layout: 9 disks, 3 rows and 27 cells a stripe.
fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn counter(store: &ObjectStore, name: &str) -> u64 {
    let snap = store.recorder().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

fn served(disk: &RemoteDisk, name: &str) -> u64 {
    let stats = disk.stats().unwrap();
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

#[test]
fn a_seal_is_one_write_rpc_per_disk_whatever_its_stripe_count() {
    let stripe_bytes = scheme().data_per_stripe() * ELEMENT;
    // The counts are a function of the shape alone: every seed agrees.
    for seed in 0..3 {
        let cluster = Cluster::spawn(9).unwrap();
        let array = ThreadedArray::from_backends(cluster.backends());
        let store = ObjectStore::with_array(scheme(), ELEMENT, array);
        let mut seals = 0;
        let mut extents = Vec::new();
        for (i, stripes) in [1usize, 5, 16].into_iter().enumerate() {
            let data = payload(stripes * stripe_bytes, seed + i);
            extents.push(store.append(&data));
            seals += 1;
            assert_eq!(counter(&store, "write.rpcs"), 9 * seals, "seed {seed}");
            assert_eq!(counter(&store, "write.runs"), 9 * seals);
            for d in 0..9 {
                assert_eq!(served(cluster.client(d), "serve.put_many"), seals);
            }
        }
        assert_eq!(counter(&store, "write.batch_elems"), 27 * (1 + 5 + 16));
        for (i, extent) in extents.into_iter().enumerate() {
            let want = payload([1usize, 5, 16][i] * stripe_bytes, seed + i);
            assert_eq!(store.read(extent).unwrap().0, want);
        }
        // A repair write-back goes out in runs too: stripe 3's three
        // cells of disk 4 are one run in one request.
        store.repair_stripe(4, 3).unwrap();
        assert_eq!(counter(&store, "write.rpcs"), 9 * seals + 1);
        assert_eq!(counter(&store, "write.runs"), 9 * seals + 1);
        assert_eq!(served(cluster.client(4), "serve.put_many"), seals + 1);
    }
}

#[test]
fn a_dead_shard_costs_a_seal_one_failed_request_and_readers_get_their_turn() {
    let cfg = RemoteDiskConfig::default();
    let mut cluster = Cluster::spawn_with(9, &cfg).unwrap();
    let array = ThreadedArray::from_backends(cluster.backends());
    let store = Arc::new(ObjectStore::with_array(scheme(), ELEMENT, array));
    let stripe_bytes = scheme().data_per_stripe() * ELEMENT;
    let sealed = payload(4 * stripe_bytes, 1);
    let extent = store.append(&sealed);

    cluster.kill(2);
    // Plan reads around the dead disk, so only writes still dial it.
    store.fail_disk(2).unwrap();
    let dead = cluster.client(2);
    let failed_before = dead.net_stats().unwrap().failed_requests;

    const PUTS: u64 = 12;
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (store, done, want) = (Arc::clone(&store), Arc::clone(&done), sealed.clone());
        std::thread::spawn(move || {
            let mut reads_meanwhile = 0u64;
            while !done.load(Ordering::Acquire) {
                assert_eq!(store.read(extent).unwrap().0, want);
                reads_meanwhile += 1;
            }
            reads_meanwhile
        })
    };
    let t0 = Instant::now();
    // Four stripes: twelve cells for the dead disk in each seal.
    let extents: Vec<_> = (0..PUTS)
        .map(|i| store.append(&payload(4 * stripe_bytes, i as usize)))
        .collect();
    let elapsed = t0.elapsed();
    done.store(true, Ordering::Release);
    let reads_meanwhile = reader.join().unwrap();

    // A seal's one frame for the dead shard is a refused connect, twice
    // at most, and nothing sleeps.
    assert!(
        elapsed < Duration::from_millis(1500),
        "{PUTS} seals with a dead shard took {elapsed:?}"
    );
    let failed = dead.net_stats().unwrap().failed_requests - failed_before;
    assert!(
        (PUTS..=2 * PUTS).contains(&failed),
        "{failed} failed requests for {PUTS} seals of 12 cells each"
    );
    // The store lock is held for a seal, not for the whole outage:
    // sealed objects stayed readable between and during the puts.
    assert!(reads_meanwhile >= 1, "no read completed during the puts");
    // Everything written is readable through parity.
    for (i, extent) in extents.into_iter().enumerate() {
        let want = payload(4 * stripe_bytes, i);
        assert_eq!(store.read(extent).unwrap().0, want);
    }
}

/// A shard that hangs up on every write: a `PutMany` costs it the
/// connection, whatever else was in flight on it. Reads and health
/// probes are served.
fn spawn_putless_server(backend: Arc<MemDisk>) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let disk = Arc::clone(&backend);
            std::thread::spawn(move || loop {
                let Ok((id, req)) = read_request(&mut stream) else {
                    return;
                };
                let resp = match req {
                    Request::PutMany { .. } => return,
                    Request::Read { runs } => {
                        let offsets: Vec<u64> = runs
                            .iter()
                            .flat_map(|&(start, count)| start..start + u64::from(count))
                            .collect();
                        Response::Cells(disk.read_many(&offsets))
                    }
                    Request::Health => Response::Health {
                        elements: disk.len() as u64,
                    },
                    _ => Response::Error("unsupported".into()),
                };
                if write_response(&mut stream, id, &resp).is_err() {
                    return;
                }
            });
        }
    });
    addr
}

#[test]
fn shards_that_drop_put_many_are_failed_counted_writes_covered_by_parity() {
    let cfg = RemoteDiskConfig::builder().low_latency().build();
    let cluster = Cluster::spawn_with(9, &cfg).unwrap();
    // m = 3 of the nine shards drop every write.
    let putless = [1usize, 4, 7];
    let backends: Vec<Arc<dyn DiskBackend>> = (0..9)
        .map(|d| {
            if !putless.contains(&d) {
                return Arc::clone(cluster.client(d)) as Arc<dyn DiskBackend>;
            }
            let addr = spawn_putless_server(Arc::new(MemDisk::new()));
            Arc::new(RemoteDisk::new(addr, cfg.clone())) as Arc<dyn DiskBackend>
        })
        .collect();
    let array = ThreadedArray::from_backends(backends.clone());
    let store = ObjectStore::with_array(scheme(), ELEMENT, array);
    let t0 = Instant::now();
    let objects: Vec<Vec<u8>> = (0..4).map(|i| payload(20_000 + 7_000 * i, i)).collect();
    let extents: Vec<_> = objects.iter().map(|data| store.append(data)).collect();
    store.flush();
    let seals = counter(&store, "write.rpcs") / 9;
    assert!(seals >= 4);
    // Nothing latches and nothing falls back: every seal's frame to such
    // a shard is one more failed request, and that is all it is.
    for &d in &putless {
        let stats = backends[d].net_stats().unwrap();
        assert_eq!(stats.failed_requests, seals, "disk {d}: {stats:?}");
        assert_eq!(backends[d].len(), 0, "disk {d} stored nothing");
    }
    for d in (0..9).filter(|d| !putless.contains(d)) {
        assert_eq!(backends[d].net_stats().unwrap().failed_requests, 0);
    }
    // Three erasures per row is what RS(6,3) covers: every byte is back.
    for (i, (extent, data)) in extents.into_iter().zip(&objects).enumerate() {
        assert_eq!(&store.read(extent).unwrap().0, data, "object {i}");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "nothing may hang on a shard that drops writes ({:?})",
        t0.elapsed()
    );
}
