//! Kill-mid-load repair: foreground tail latency vs repair throughput
//! at several rate limits.
//!
//! One disk of a sleeping-disk RS(6,3) store is wiped; foreground
//! readers keep issuing small random reads while the background
//! `RepairManager` rebuilds it. Each trial runs the pipeline at a
//! different token-bucket rate limit (on total repair traffic, source
//! reads + rebuilt writes) and records the foreground latency *during*
//! repair, repair throughput, and time to full redundancy. The
//! trade-off the limiter exists for is visible directly: unlimited
//! repair floods the per-disk queues and the foreground median nearly
//! doubles; throttled repair takes proportionally longer but leaves the
//! median at the `baseline` row (same degraded store, no repair
//! running). The p99 barely moves at these rates — the reads that
//! collide with a repair batch *are* the top percent — so `check` tests
//! the median.
//!
//! One more row, `combined`, rebuilds the victim over a real loopback
//! cluster, where every helper is a dialable shard and pre-sums
//! server-side over `CombineRange`: its `wire_bytes` are the bytes of
//! the lost disk, 1/k of what fetching every source element would move
//! at RS(6,3) (asserted exactly in `crates/net/tests/combined_repair.rs`;
//! `e2e` reports it as `store.repair.wire_bytes_per_lost_byte`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_bench::cells;
use ecfrm_bench::report::{pct, Report, Row, Value};
use ecfrm_net::Cluster;
use ecfrm_sim::{DiskBackend, ThreadedArray};
use ecfrm_store::{ObjectStore, ReadOpts, RepairConfig, RepairManager};
use ecfrm_util::Rng;

use crate::{bytes, counter, rs63, sleepy_store, DISK_LATENCY};

const ELEMENT: usize = 4096;
const FG_READERS: usize = 2;
const FG_READ_BYTES: u64 = 4 * ELEMENT as u64;
const VICTIM: usize = 0;

/// What runs against the degraded store while the foreground reads.
enum Background {
    /// Nothing, for this long: the latency the limiter defends.
    Idle(Duration),
    /// The repair pipeline at this rate limit, until redundancy is back.
    Repair(Option<u64>),
}

/// One kill-and-read trial: ingest, lose the victim for real, then run
/// `background` under `FG_READERS` random small readers. A repair is
/// verified byte-for-byte before its row is published.
fn trial(label: &str, background: Background, stripes: usize, r: &mut Report) {
    let store = Arc::new(sleepy_store(ELEMENT));
    let data = bytes(stripes * store.scheme().data_per_stripe() * ELEMENT, 7);
    let obj = store.append(&data);
    store.flush();
    store.fail_disk(VICTIM).unwrap();
    store.array().disk(VICTIM).wipe();

    let stop = AtomicBool::new(false);
    let mut ttr_ms = f64::NAN;
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..FG_READERS)
            .map(|i| {
                let (store, stop) = (&store, &stop);
                let span = data.len() as u64 - FG_READ_BYTES;
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(i as u64);
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let t = Instant::now();
                        store
                            .read_extent(
                                obj,
                                rng.bounded(span),
                                FG_READ_BYTES,
                                &ReadOpts::default(),
                            )
                            .expect("foreground read failed");
                        lat.push(t.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        match background {
            Background::Idle(window) => std::thread::sleep(window),
            Background::Repair(rate_limit) => {
                let cfg = RepairConfig {
                    workers: 2,
                    rate_limit,
                    replacer: None,
                };
                let mgr = RepairManager::spawn(Arc::clone(&store), cfg);
                let idle = mgr.wait_idle(Duration::from_secs(600));
                assert!(
                    idle,
                    "{label}: repair did not converge: {} of {stripes} stripes rebuilt",
                    counter(&store, "repair.stripes_done")
                );
                let snap = store.recorder().snapshot();
                ttr_ms = snap.gauges["repair.time_to_redundancy_ms"] as f64;
                mgr.shutdown();
            }
        }
        stop.store(true, Ordering::Release);
        let joined = readers.into_iter().map(|h| h.join().expect("reader died"));
        joined.flatten().collect()
    });
    lat.sort_unstable();

    let mut rate_limit = Value::Num(f64::NAN);
    if let Background::Repair(limit) = background {
        let (got, stats) = store.read(obj).unwrap();
        assert_eq!(got, data, "{label}: repaired store returned wrong bytes");
        assert!(!stats.degraded, "{label}: store still degraded");
        assert_eq!(stats.repair_elements, 0, "{label}: reads still decoding");
        let done = counter(&store, "repair.stripes_done");
        assert_eq!(done, stripes as u64, "{label}: stripe count mismatch");
        rate_limit = limit.map_or(rate_limit, Value::Int);
    }
    r.row(cells! {
        "rate": label,
        "rate_limit_bytes_per_s": rate_limit,
        "repair_mb_per_s": counter(&store, "repair.bytes") as f64 / 1e3 / ttr_ms,
        "fg_reads": lat.len(),
        "fg_p50_us": pct(&lat, 0.50),
        "fg_p99_us": pct(&lat, 0.99),
        "wire_bytes": counter(&store, "repair.wire_bytes"),
        "time_to_redundancy_ms": ttr_ms,
    });
}

/// Repair traffic over a real loopback cluster: wipe the victim shard
/// and rebuild it stripe by stripe with `repair_stripe`, pricing the
/// bytes the rebuilder ingested off the wire. Every helper is a
/// dialable shard, so helpers pre-sum server-side over `CombineRange`
/// and only the lost regions cross per stripe.
fn wire_trial(stripes: usize, r: &mut Report) {
    let scheme = rs63();
    let data = bytes(stripes * scheme.data_per_stripe() * ELEMENT, 7);
    let cluster = Cluster::spawn(scheme.n_disks()).expect("spawn loopback cluster");
    let array = ThreadedArray::from_backends(cluster.backends());
    let store = ObjectStore::with_array(scheme, ELEMENT, array);
    let obj = store.append(&data);
    store.flush();
    cluster.client(VICTIM).wipe();

    let t = Instant::now();
    let rebuilt: u64 = (0..stripes as u64)
        .map(|s| {
            store
                .repair_stripe(VICTIM, s)
                .expect("stripe repair failed")
        })
        .map(|done| done.bytes_written)
        .sum();
    let ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(store.read(obj).unwrap().0, data, "combined: wrong bytes");
    let combined = counter(&store, "repair.combined_stripes");
    assert_eq!(combined, stripes as u64, "a stripe left the combined path");
    let wire_bytes = counter(&store, "repair.wire_bytes");
    assert_eq!(
        wire_bytes, rebuilt,
        "the rebuilder ingests exactly the lost bytes"
    );
    r.row(cells! {
        "rate": "combined",
        "rate_limit_bytes_per_s": f64::NAN,
        "repair_mb_per_s": rebuilt as f64 / 1e3 / ms,
        "fg_reads": 0u64, "fg_p50_us": 0u64, "fg_p99_us": 0u64,
        "wire_bytes": wire_bytes,
        "time_to_redundancy_ms": ms,
    });
}

pub fn run(quick: bool) -> Report {
    let (stripes, wire_stripes, window) = if quick {
        (96, 48, 250)
    } else {
        (256, 128, 500)
    };
    let shape = cells! {
        "stripes": stripes, "combined_stripes": wire_stripes, "element": ELEMENT,
        "disk_latency_us": DISK_LATENCY.as_micros() as u64, "readers": FG_READERS,
    };
    let mut r = Report::new("repair", quick, "mem", shape);
    let idle = Background::Idle(Duration::from_millis(window));
    trial("baseline", idle, stripes, &mut r);
    for (label, rate) in [
        ("unlimited", None),
        ("40MB/s", Some(40_000_000)),
        ("10MB/s", Some(10_000_000)),
    ] {
        trial(label, Background::Repair(rate), stripes, &mut r);
    }
    wire_trial(wire_stripes, &mut r);
    r
}

/// At least two limited trials ran beside `unlimited`, the tightest
/// limit brings the foreground median below unlimited repair's (the
/// p99 is a colliding read at any limit; EXPERIMENTS.md's repair section
/// has the runs), and the `combined` row moved bytes and restored
/// redundancy (its exact 1/k ratio is pinned by the `combined_repair`
/// integration tests).
pub fn check(r: &Report) -> Result<(), String> {
    let unlimited = r.find(&[("rate", "unlimited")])?.num("fg_p50_us")?;
    let limit = |row: &Row| row.num("rate_limit_bytes_per_s").map(|l| l as u64).ok();
    let limited: Vec<&Row> = r.rows().iter().filter(|row| limit(row).is_some()).collect();
    ensure!(
        limited.len() >= 2,
        "{} rate-limited rows, need 2",
        limited.len()
    );
    let tight = limited
        .iter()
        .min_by_key(|row| limit(row))
        .expect("two or more");
    let tight = tight.num("fg_p50_us")?;
    ensure!(
        tight < unlimited,
        "tightest limit's fg p50 {tight} us is not below unlimited's {unlimited} us"
    );
    let combined = r.find(&[("rate", "combined")])?;
    ensure!(
        combined.num("wire_bytes")? > 0.0,
        "combined row moved no bytes"
    );
    ensure!(
        combined.num("time_to_redundancy_ms")? > 0.0,
        "combined row took no time"
    );
    Ok(())
}
