//! Front-door acceptance scenarios that need the whole store underneath:
//! cache coherence across corruption, repair rewrites, and disk
//! rebuilds; and QoS isolation — a throttled bulk tenant must not be
//! able to starve a latency tenant.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore, QosClass, StoreError, TenantSpec};

const ELEMENT: usize = 512;

fn payload(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + seed) % 256) as u8).collect()
}

fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

/// A front door over `FaultyDisk`-wrapped shards, so tests can corrupt
/// and kill disks underneath the cache.
fn faulty_front() -> (Arc<FrontDoor>, Vec<Arc<FaultyDisk>>) {
    let sch = scheme();
    let faulty: Vec<Arc<FaultyDisk>> = (0..sch.n_disks())
        .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
        .collect();
    let backends: Vec<Arc<dyn DiskBackend>> = faulty
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
        .collect();
    let store = Arc::new(ObjectStore::with_array(
        sch,
        ELEMENT,
        ThreadedArray::from_backends(backends),
    ));
    (FrontDoor::new(store, FrontConfig::default()), faulty)
}

fn counter(front: &FrontDoor, name: &str) -> u64 {
    front
        .store()
        .recorder()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// The cache must never serve stale bytes across the two mutation paths
/// a stripe has: a lying disk forcing degraded decode, and a repair /
/// full-rebuild rewriting elements. Every read below is compared
/// byte-for-byte against the reference copy.
#[test]
fn cache_stays_byte_correct_across_corrupt_then_repair() {
    let (front, faulty) = faulty_front();
    let data = payload(60_000, 7);
    front.put("web", "asset", &data).unwrap();

    // Warm the cache: second read must hit.
    assert_eq!(front.read("web", "asset").unwrap(), data);
    let hits_before = counter(&front, "cache.hit");
    assert_eq!(front.read("web", "asset").unwrap(), data);
    assert!(
        counter(&front, "cache.hit") > hits_before,
        "hot reread must be served by the cache"
    );

    // Disk 2 starts lying. Cached elements are decoded *data* elements
    // verified on the way in, so cached answers stay correct; cold
    // elements take the degraded path and must also come back correct.
    faulty[2].arm(FaultKind::FlipCorrupt, 0);
    assert_eq!(front.read("web", "asset").unwrap(), data);
    faulty[2].clear();

    // Repair rewrites disk 2's stripes: every rewrite fires a
    // `StripeEvent::Rewritten` which drops that stripe's cached
    // elements — the conservative coherence fence.
    let inv_before = counter(&front, "cache.invalidate");
    let stripes = front.store().stats().stripes;
    for s in 0..stripes {
        front.store().repair_stripe(2, s).unwrap();
    }
    assert!(
        counter(&front, "cache.invalidate") > inv_before,
        "repair rewrites must invalidate cached elements of the stripe"
    );
    assert_eq!(front.read("web", "asset").unwrap(), data);

    // Full disk rebuild: kill a disk, rebuild it. The rebuild rewrites
    // every sealed stripe, each rewrite is a `Rewritten`, and so every
    // cached element goes — nothing stale outlives it.
    front.store().fail_disk(4).unwrap();
    assert_eq!(front.read("web", "asset").unwrap(), data, "degraded read");
    let cache_bytes = || front.store().recorder().snapshot().gauges["cache.bytes"];
    assert!(cache_bytes() > 0, "the object is cached going in");
    front.store().recover_disk(4).unwrap();
    assert_eq!(cache_bytes(), 0, "the rebuild left no cached element");
    assert_eq!(front.read("web", "asset").unwrap(), data);
    // And the cache goes hot again afterwards.
    let hits_before = counter(&front, "cache.hit");
    assert_eq!(front.read("web", "asset").unwrap(), data);
    assert!(counter(&front, "cache.hit") > hits_before);
}

/// Growing an object invalidates the stripes its new extents seal, so
/// reads spanning old + new extents are byte-correct with a warm cache.
#[test]
fn growing_object_stays_correct_through_seal_invalidation() {
    let (front, _faulty) = faulty_front();
    let a = payload(20_000, 1);
    let b = payload(30_000, 2);

    front.put("web", "log", &a).unwrap();
    assert_eq!(front.read("web", "log").unwrap(), a); // cache warms on `a`
    front.write("web", "log", &b).unwrap();

    let mut want = a.clone();
    want.extend_from_slice(&b);
    assert_eq!(front.read("web", "log").unwrap(), want);
    // Range crossing the extent seam, served partly from cache.
    assert_eq!(
        front.read_range("web", "log", 19_990, 20).unwrap(),
        &want[19_990..20_010]
    );
    assert_eq!(front.stat("web", "log").unwrap().extents, 2);
}

/// QoS isolation: a bulk tenant hammering reads against a tiny rate
/// budget gets delayed and rejected; the latency tenant sharing the
/// store sees zero queueing, zero rejections, byte-correct answers,
/// and a sane tail while the flood runs.
#[test]
fn bulk_flood_cannot_starve_latency_tenant() {
    let (front, _faulty) = faulty_front();
    front.register_tenant(TenantSpec::new("web", QosClass::Latency));
    // 1 KiB/s: the flood's first 4 KiB read overdraws the bucket by
    // four seconds of rate — far past the 500 ms bulk deadline — so
    // everything after it rejects instantly.
    front.register_tenant(TenantSpec::new("scan", QosClass::Bulk).rate(1024));

    let web_data = payload(4096, 3);
    let scan_data = payload(4096, 4);
    front.put("web", "obj", &web_data).unwrap();
    front.put("scan", "obj", &scan_data).unwrap();

    // Flood from two bulk threads while the latency tenant reads.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flood: Vec<_> = (0..2)
        .map(|_| {
            let front = Arc::clone(&front);
            let stop = Arc::clone(&stop);
            let want = scan_data.clone();
            std::thread::spawn(move || {
                let mut throttled = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match front.read("scan", "obj") {
                        Ok(bytes) => assert_eq!(bytes, want),
                        Err(StoreError::Throttled(_)) => throttled += 1,
                        Err(e) => panic!("unexpected flood error: {e}"),
                    }
                }
                throttled
            })
        })
        .collect();

    let mut lat = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        assert_eq!(front.read("web", "obj").unwrap(), web_data);
        lat.push(t0.elapsed());
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let throttled: u64 = flood.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(throttled > 0, "the flood must actually hit the limiter");
    assert_eq!(
        counter(&front, "tenant.web.delayed"),
        0,
        "latency-class requests are never queued"
    );
    assert_eq!(counter(&front, "tenant.web.rejected"), 0);
    assert_eq!(counter(&front, "tenant.web.reads"), 200);

    // A generous tripwire, not a benchmark: in-memory reads are tens of
    // microseconds, so a p99 in the tens of milliseconds means bulk
    // queueing leaked into the latency tenant's path (e.g. an admission
    // sleep under a shared lock).
    lat.sort();
    let p99 = lat[lat.len() * 99 / 100 - 1];
    assert!(
        p99 < Duration::from_millis(50),
        "latency tenant p99 {p99:?} under bulk flood"
    );
}
