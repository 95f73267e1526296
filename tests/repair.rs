//! Integration test for the background repair subsystem: kill one disk
//! *mid-workload* under foreground load, verify the foreground stays
//! degraded-but-correct throughout, and verify background repair
//! restores full redundancy — after which reads of the repaired disk
//! need zero decodes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ecfrm::codes::RsCode;
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
use ecfrm::store::{ObjectStore, ReadOpts, RepairConfig, RepairManager};

fn blob(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed as usize * 17 + 3) % 256) as u8)
        .collect()
}

/// Build an RS(6,3) EC-FRM store over fault-injectable disks.
fn faulty_store() -> (Arc<ObjectStore>, Vec<Arc<FaultyDisk>>) {
    let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build();
    let faulty: Vec<Arc<FaultyDisk>> = (0..scheme.n_disks())
        .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
        .collect();
    let backends: Vec<Arc<dyn DiskBackend>> = faulty
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
        .collect();
    let store = Arc::new(ObjectStore::with_array(
        scheme,
        64,
        ThreadedArray::from_backends(backends),
    ));
    (store, faulty)
}

#[test]
fn kill_mid_workload_foreground_correct_and_redundancy_restored() {
    let (store, faulty) = faulty_store();
    let data = blob(60_000, 1);
    store.put("obj", &data).unwrap();
    store.flush();
    let stripes = store.stats().stripes;
    assert!(stripes >= 20, "enough stripes to repair: {stripes}");

    // Background repair with a replacement-disk factory: a killed node
    // comes back as a fresh empty disk that repair fills.
    let cfg = RepairConfig {
        workers: 2,
        rate_limit: None,
        replacer: Some(Arc::new(|_d| {
            Arc::new(MemDisk::new()) as Arc<dyn DiskBackend>
        })),
    };
    let mgr = RepairManager::spawn(Arc::clone(&store), cfg);

    // Foreground load: two readers hammering the object while the fault
    // fires. Every read must return correct bytes, killed disk or not.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let want = data.clone();
            std::thread::spawn(move || {
                let mut reads = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let start = (reads * 977 + r * 4099) % (want.len() - 512);
                    let got = store.get_range("obj", start as u64, 512).unwrap();
                    assert_eq!(got, &want[start..start + 512], "foreground read corrupt");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Let the workload run, then kill disk 3 mid-flight: it stops
    // answering after 40 more served element reads.
    std::thread::sleep(Duration::from_millis(20));
    faulty[3].arm(FaultKind::Kill, 40);

    // The pipeline must detect the kill, replace the disk, rebuild every
    // stripe, and heal — all under continuing foreground load.
    let t0 = std::time::Instant::now();
    while !faulty[3].fired() && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(faulty[3].fired(), "workload never tripped the fault");
    while mgr.progress().disks_restored == 0 && t0.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(mgr.progress().disks_restored, 1, "kill detected, repaired");
    assert!(
        mgr.wait_idle(Duration::from_secs(60)),
        "repair did not finish: {:?}",
        mgr.progress()
    );
    stop.store(true, Ordering::Release);
    for r in readers {
        let reads = r.join().expect("foreground reader died");
        assert!(reads > 0);
    }

    // Full redundancy restored.
    assert!(store.stats().failed_disks.is_empty());
    assert!(store.stats().suspect_disks.is_empty());
    let progress = mgr.progress();
    assert_eq!(
        progress.stripes_done, stripes,
        "every sealed stripe repaired exactly once"
    );
    assert_eq!(progress.disks_restored, 1);
    assert_eq!(progress.queue_depth, 0);

    // The counters made it into the store's registry too.
    let snap = store.recorder().snapshot();
    assert_eq!(
        snap.counters.get("repair.stripes_done").copied(),
        Some(stripes)
    );
    assert!(snap.counters.get("repair.bytes").copied().unwrap_or(0) > 0);
    assert!(
        snap.gauges
            .get("repair.time_to_redundancy_ms")
            .copied()
            .unwrap_or(-1)
            >= 0,
        "time-to-full-redundancy recorded"
    );

    // A subsequent read is fully normal: no degraded planning, zero
    // repair (decode) fetches, no replans.
    let (bytes, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(bytes, data);
    assert!(!stats.degraded, "read after repair must plan normally");
    assert_eq!(stats.repair_elements, 0, "zero decodes after repair");
    assert_eq!(stats.replans, 0);

    // And the replaced disk physically holds its full share again.
    assert!(!store.array().disk(3).is_empty());
    assert!(store.scrub().unwrap().is_clean());
    mgr.shutdown();
}

#[test]
fn degraded_read_hints_repair_hot_stripes_first() {
    let (store, faulty) = faulty_store();
    let data = blob(60_000, 2);
    store.put("obj", &data).unwrap();
    store.flush();

    // Pause the pipeline so detection/promotion is deterministic, kill a
    // disk, and issue one degraded read of a small hot range.
    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            replacer: Some(Arc::new(|_d| {
                Arc::new(MemDisk::new()) as Arc<dyn DiskBackend>
            })),
            ..RepairConfig::default()
        },
    );
    mgr.pause();
    faulty[5].arm(FaultKind::Kill, 0);
    let extent = store.meta("obj").unwrap();
    let (got, stats) = store
        .read_extent(extent, 0, 512, &ReadOpts::default())
        .unwrap();
    assert_eq!(got, &data[..512]);
    assert!(stats.degraded);
    assert!(
        store.disks().hint_count() > 0,
        "degraded read staged priority hints"
    );
    mgr.resume();

    assert!(
        mgr.wait_idle(Duration::from_secs(60)),
        "repair did not finish: {:?}",
        mgr.progress()
    );
    assert!(store.stats().failed_disks.is_empty());
    assert_eq!(mgr.progress().stripes_done, store.stats().stripes);
    let (bytes, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(bytes, data);
    assert!(!stats.degraded);
}

#[test]
fn transient_suspect_is_cleared_without_repair_traffic() {
    let (store, faulty) = faulty_store();
    let data = blob(30_000, 3);
    store.put("obj", &data).unwrap();
    store.flush();

    // A disk that goes quiet for one read and comes back before the
    // probe: the detector withdraws the suspicion and no reconstruction
    // happens.
    faulty[6].arm(FaultKind::Kill, 0);
    assert_eq!(store.get("obj").unwrap(), data);
    assert_eq!(store.stats().suspect_disks, vec![6]);
    faulty[6].clear(); // healthy — the probe will get an answer
    let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
    assert!(mgr.wait_idle(Duration::from_secs(10)));
    assert!(store.stats().suspect_disks.is_empty());
    assert_eq!(mgr.progress().stripes_done, 0, "no repair traffic");
    assert_eq!(mgr.progress().disks_restored, 0);
    assert!(store.stats().failed_disks.is_empty());
    let (bytes, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(bytes, data);
    assert!(!stats.degraded);
}

#[test]
fn a_corrupting_disk_is_caught_promoted_rebuilt_and_healed() {
    let (store, faulty) = faulty_store();
    let data = blob(60_000, 7);
    store.put("obj", &data).unwrap();
    store.flush();
    let stripes = store.stats().stripes;
    let counter = |name: &str| {
        let snap = store.recorder().snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    };

    // At 1 B/s the lone worker rebuilds one stripe and parks on the
    // limiter, so the disk stays promoted until the fault is cleared.
    let throttled = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            workers: 1,
            rate_limit: Some(1),
            replacer: None,
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let want = data.clone();
        std::thread::spawn(move || {
            let mut reads = 0usize;
            while !stop.load(Ordering::Acquire) {
                let start = (reads * 977) % (want.len() - 512);
                let got = store.get_range("obj", start as u64, 512).unwrap();
                assert_eq!(got, &want[start..start + 512], "a lie reached a reader");
                reads += 1;
            }
            reads
        })
    };

    // Disk 2 keeps answering, every cell with one bit flipped:
    // verify-on-read makes it a suspect, and the detector's probe checks
    // the footer, so it is promoted instead of vouched for.
    faulty[2].arm(FaultKind::FlipCorrupt, 0);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !store.stats().failed_disks.contains(&2) {
        assert!(std::time::Instant::now() < deadline, "never promoted");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(counter("integrity.verify_fail") > 0);
    assert_eq!(throttled.progress().active_disks, vec![2]);

    // The disk stops lying; a new manager resumes the record.
    faulty[2].clear();
    throttled.shutdown();
    let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
    assert!(
        mgr.wait_idle(Duration::from_secs(60)),
        "{:?}",
        mgr.progress()
    );
    stop.store(true, Ordering::Release);
    mgr.shutdown();
    assert!(reader.join().expect("foreground reader died") > 0);
    assert!(store.stats().failed_disks.is_empty(), "the disk healed");
    assert_eq!(counter("repair.stripes_done"), stripes);
    assert_eq!(counter("repair.disks_restored"), 1);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn rate_limited_repair_still_completes() {
    let (store, _faulty) = faulty_store();
    let data = blob(40_000, 4);
    store.put("obj", &data).unwrap();
    store.flush();
    store.fail_disk(1).unwrap();
    store.array().disk(1).wipe();

    // ~1 MB/s budget: enough for this dataset's repair traffic within
    // the timeout, but every stripe passes through the token bucket.
    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            rate_limit: Some(1_000_000),
            ..RepairConfig::default()
        },
    );
    assert!(
        mgr.wait_idle(Duration::from_secs(60)),
        "rate-limited repair did not finish: {:?}",
        mgr.progress()
    );
    assert!(store.stats().failed_disks.is_empty());
    assert_eq!(store.get("obj").unwrap(), data);
    assert!(store.scrub().unwrap().is_clean());
}

#[test]
fn stopping_a_manager_mid_rate_limit_wait_charges_no_attempt() {
    let (store, _faulty) = faulty_store();
    // 32 stripes: one is rebuilt per manager generation below.
    let data = blob(32 * 18 * 64, 6);
    store.put("obj", &data).unwrap();
    store.flush();
    let stripes = store.stats().stripes;
    store.fail_disk(1).unwrap();
    store.array().disk(1).wipe();
    let counter = |name: &str| {
        let snap = store.recorder().snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    };

    // At 1 B/s a fresh bucket admits one stripe and then parks the lone
    // worker on the limiter. Stopping the manager there must leave the
    // queue as it was: were the next stripe charged an attempt it never
    // had, the one that keeps coming second would run out of attempts
    // long before this loop ends, and the disk would be given up on.
    for generation in 1..stripes {
        let mgr = RepairManager::spawn(
            Arc::clone(&store),
            RepairConfig {
                workers: 1,
                rate_limit: Some(1),
                replacer: None,
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while counter("repair.stripes_done") < generation {
            assert!(
                std::time::Instant::now() < deadline,
                "generation {generation} stuck"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10)); // the worker parks
        mgr.shutdown();
    }

    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            ..RepairConfig::default()
        },
    );
    assert!(
        mgr.wait_idle(Duration::from_secs(60)),
        "{:?}",
        mgr.progress()
    );
    assert_eq!(counter("repair.abandoned_stripes"), 0);
    assert!(store.stats().failed_disks.is_empty(), "the disk healed");
    assert_eq!(counter("repair.stripes_done"), stripes);
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn wait_idle_never_reports_idle_while_a_disk_is_being_promoted() {
    let (store, _faulty) = faulty_store();
    store.put("obj", &blob(12_000, 5)).unwrap();
    store.flush();
    let stripes = store.stats().stripes;
    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            replacer: Some(Arc::new(|_d| {
                Arc::new(MemDisk::new()) as Arc<dyn DiskBackend>
            })),
            ..RepairConfig::default()
        },
    );

    // `owed` is what `stripes_done` reads once every disk lost so far is
    // rebuilt. It is raised only after a read has found the disk
    // missing, so a watcher that saw the new value and then an idle
    // pipeline short of it caught `wait_idle` answering mid-repair.
    let owed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut early = 0;
            while !stop.load(Ordering::SeqCst) {
                let owed = owed.load(Ordering::SeqCst);
                if mgr.wait_idle(Duration::ZERO) && mgr.progress().stripes_done < owed {
                    early += 1;
                }
            }
            early
        });
        for round in 1..=200u64 {
            // The disk comes back empty: a read finds it so, the probe
            // finds nothing at offset 0 and the detector promotes it.
            store.array().disk(4).wipe();
            assert_eq!(store.get("obj").unwrap(), blob(12_000, 5));
            owed.store(round * stripes, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while mgr.progress().disks_restored < round {
                assert!(std::time::Instant::now() < deadline, "round {round} stuck");
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::SeqCst);
        assert_eq!(watcher.join().unwrap(), 0, "idle reported mid-promotion");
    });
    assert_eq!(mgr.progress().stripes_done, 200 * stripes);
    assert_eq!(store.get("obj").unwrap(), blob(12_000, 5));
}
