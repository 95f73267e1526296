//! Front-door acceptance scenarios that need the whole store underneath:
//! the cache's contract (immutable elements: still right and still hot
//! across corruption, repair rewrites, disk rebuilds and the flush
//! padding seam); and QoS isolation — a throttled bulk tenant must not be
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

fn cache_bytes(front: &FrontDoor) -> i64 {
    front.store().recorder().snapshot().gauges["cache.bytes"]
}

/// Re-read the warmed `asset` and require that the cache alone served
/// it: byte-equal, hits grew, nothing was refilled (`reads` is the
/// store's count of planned reads) and nothing had left the cache.
fn assert_served_from_cache(front: &FrontDoor, data: &[u8], warm_bytes: i64, after: &str) {
    let (hits, reads) = (counter(front, "cache.hit"), counter(front, "reads"));
    assert_eq!(front.read("web", "asset").unwrap(), data, "{after}");
    assert!(counter(front, "cache.hit") > hits, "{after}: no cache hit");
    assert_eq!(counter(front, "reads"), reads, "{after}: a refill");
    assert!(cache_bytes(front) >= warm_bytes, "{after}: cache shrank");
}

/// The cache's contract, executable: it holds decoded data elements
/// that passed their footer on the way in, keyed by an index into an
/// append-only stream — so a lying disk, a repair rewriting every
/// stripe and a whole-disk rebuild all leave it byte-correct *and hot*.
/// Every read below is compared byte-for-byte against the reference
/// copy; any entry evicted by a repair would show as a refill.
#[test]
fn cache_stays_byte_correct_across_corrupt_then_repair() {
    let (front, faulty) = faulty_front();
    let data = payload(60_000, 7);
    front.put("web", "asset", &data).unwrap();

    // Warm the cache: second read must hit.
    assert_eq!(front.read("web", "asset").unwrap(), data);
    let warm_bytes = cache_bytes(&front);
    assert!(warm_bytes >= data.len() as i64, "the object is cached");
    assert_served_from_cache(&front, &data, warm_bytes, "hot reread");

    // Disk 2 starts lying. Cached elements are decoded *data* elements
    // verified on the way in, so cached answers stay correct.
    faulty[2].arm(FaultKind::FlipCorrupt, 0);
    assert_eq!(front.read("web", "asset").unwrap(), data);
    faulty[2].clear();

    // Repair rewrites disk 2's cells in every stripe — byte-identical
    // cells, so no cached element has anything to be told.
    for s in 0..front.store().stats().stripes {
        front.store().repair_stripe(2, s).unwrap();
    }
    assert_served_from_cache(
        &front,
        &data,
        warm_bytes,
        "after repair_stripe of every stripe",
    );

    // Full disk rebuild: kill a disk, rebuild it. Reads in between and
    // afterwards are still the cache's.
    front.store().fail_disk(4).unwrap();
    assert_served_from_cache(&front, &data, warm_bytes, "with disk 4 down");
    front.store().recover_disk(4).unwrap();
    assert_served_from_cache(&front, &data, warm_bytes, "after recover_disk");

    // And what is on the disks is right too: read past the cache (the
    // asset was the fresh store's first append, so it sits at offset 0).
    let extent = ecfrm_store::ObjectMeta {
        offset: 0,
        len: data.len() as u64,
    };
    let (bytes, _) = front
        .store()
        .read_extent(extent, 0, extent.len, &ecfrm_store::ReadOpts::default())
        .unwrap();
    assert_eq!(bytes, data, "the rebuilt disks hold the sealed bytes");
}

/// The one place "sealed elements never change" could be wrong: the
/// partly filled tail element a read-forced `flush` seals with zero
/// padding. It is cached; the next put's extent starts *after* the
/// padding and never reuses it, so the cached tail stays right and
/// stays put.
#[test]
fn a_later_put_starts_after_the_flush_padding_seam() {
    let (front, _faulty) = faulty_front();
    let a = payload(20_000, 1);
    let b = payload(30_000, 2);

    front.put("web", "a", &a).unwrap();
    assert_eq!(front.read("web", "a").unwrap(), a); // flushes; cache warms on `a`
    front.put("web", "b", &b).unwrap();

    // Either side of the seam: `a`'s padded tail element is a hit (the
    // seal of `b` dropped nothing), `b`'s first element is the one
    // store read.
    let (hits, reads) = (counter(&front, "cache.hit"), counter(&front, "reads"));
    let tail = a.len() - 10;
    assert_eq!(
        front.read_range("web", "a", tail as u64, 10).unwrap(),
        &a[tail..]
    );
    assert_eq!(counter(&front, "cache.hit"), hits + 1, "old tail element");
    assert_eq!(counter(&front, "reads"), reads, "old tail element");
    assert_eq!(front.read_range("web", "b", 0, 10).unwrap(), &b[..10]);
    assert_eq!(counter(&front, "reads"), reads + 1, "new head element");

    // Both whole: every element of `a` is still a hit.
    let hits = counter(&front, "cache.hit");
    assert_eq!(front.read("web", "a").unwrap(), a);
    let a_elements = a.len().div_ceil(ELEMENT) as u64;
    assert_eq!(counter(&front, "cache.hit"), hits + a_elements);
    assert_eq!(front.read("web", "b").unwrap(), b);
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

    // The flood is on only once it has been shed: on a loaded host the
    // 200 reads below can finish before a flood thread is ever scheduled.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&front, "tenant.scan.rejected") == 0 {
        assert!(Instant::now() < deadline, "the flood never started");
        std::thread::yield_now();
    }
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
