//! Kill-mid-load repair benchmark: foreground tail latency vs repair
//! throughput at several rate limits.
//!
//! ```text
//! repair [--quick] [--no-json]
//! ```
//!
//! An RS(6,3) EC-FRM store runs over latency-injected `MemDisk`s (so
//! disk service time, not memcpy, is the contended resource — as on a
//! real array). One disk is wiped; foreground readers keep issuing
//! small random reads while the background `RepairManager` rebuilds the
//! lost disk. Each trial runs the pipeline at a different token-bucket
//! rate limit and records:
//!
//! * the foreground read latency distribution *during* repair (p50/p99),
//! * repair throughput (rebuilt bytes per second of wall clock), and
//! * time to full redundancy.
//!
//! The trade-off the limiter exists for is visible directly: unlimited
//! repair floods the per-disk queues and foreground p99 balloons;
//! throttled repair takes proportionally longer to restore redundancy
//! but leaves the foreground's tail close to its no-repair baseline
//! (the `baseline` row, measured degraded with repair paused). The
//! JSON lands in `BENCH_repair.json`.
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

use ecfrm_bench::report::pct;
use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::Cluster;
use ecfrm_sim::{DiskBackend, ThreadedArray};
use ecfrm_store::{ObjectStore, RepairConfig, RepairManager};

const ELEMENT: usize = 4096;
const DISK_LATENCY: Duration = Duration::from_micros(200);
const FG_READERS: usize = 2;
const FG_READ_ELEMENTS: u64 = 4;
const VICTIM: usize = 0;

fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn payload(stripes: usize, dps: usize) -> Vec<u8> {
    (0..stripes * dps * ELEMENT)
        .map(|i| ((i * 131 + 7) % 251) as u8)
        .collect()
}

struct Trial {
    label: String,
    rate_limit: Option<u64>,
    repair_secs: f64,
    repair_mb_per_s: f64,
    fg_reads: usize,
    fg_p50_us: u64,
    fg_p99_us: u64,
    /// Bytes the rebuilder ingested off the wire (`repair.wire_bytes`).
    wire_bytes: u64,
    /// Wall clock from first lost stripe to full redundancy.
    time_to_redundancy_ms: f64,
}

/// Foreground readers: random small reads until `stop`, per-read
/// latency in µs.
fn spawn_readers(
    store: &Arc<ObjectStore>,
    data_len: u64,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<u64>>> {
    (0..FG_READERS)
        .map(|r| {
            let store = Arc::clone(store);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                let size = FG_READ_ELEMENTS * ELEMENT as u64;
                let mut x = ((r as u64 + 1) * 0x9E37_79B9_7F4A_7C15) | 1;
                while !stop.load(Ordering::Acquire) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let start = x % (data_len - size);
                    let t = Instant::now();
                    store
                        .get_range("obj", start, size)
                        .expect("foreground read failed");
                    lat.push(t.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect()
}

/// One kill-and-repair trial at `rate_limit`. Returns the trial row
/// after verifying the repaired store byte-for-byte.
fn run_trial(label: &str, rate_limit: Option<u64>, stripes: usize) -> Trial {
    let scheme = scheme();
    let dps = scheme.data_per_stripe();
    let data = payload(stripes, dps);
    let store = Arc::new(ObjectStore::with_array(
        scheme.clone(),
        ELEMENT,
        ThreadedArray::with_latency(scheme.n_disks(), DISK_LATENCY),
    ));
    store.put("obj", &data).unwrap();
    store.flush();

    // Lose the victim for real, then let the pipeline restore it while
    // the foreground hammers the store.
    store.fail_disk(VICTIM).unwrap();
    store.array().disk(VICTIM).wipe();
    let mgr = RepairManager::spawn(
        Arc::clone(&store),
        RepairConfig {
            workers: 2,
            rate_limit,
            poll: Duration::from_millis(1),
            replacer: None,
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&store, data.len() as u64, &stop);
    assert!(
        mgr.wait_idle(Duration::from_secs(600)),
        "repair did not converge at {label}: {:?}",
        mgr.progress()
    );
    stop.store(true, Ordering::Release);
    let mut lat: Vec<u64> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader died"))
        .collect();
    lat.sort_unstable();

    // Correctness gate: never publish numbers for a repair that did not
    // actually restore the data.
    let (bytes, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(bytes, data, "{label}: repaired store returned wrong bytes");
    assert!(!stats.degraded, "{label}: store still degraded");
    assert_eq!(stats.repair_elements, 0, "{label}: reads still decoding");
    let snap = store.recorder().snapshot();
    assert_eq!(
        snap.counters.get("repair.stripes_done").copied(),
        Some(stripes as u64),
        "{label}: stripe count mismatch"
    );

    let ttr_ms = snap
        .gauges
        .get("repair.time_to_redundancy_ms")
        .map(|ms| *ms as f64)
        .unwrap_or(f64::NAN);
    let repair_secs = (ttr_ms / 1e3).max(1e-4);
    let rebuilt = snap.counters.get("repair.bytes").copied().unwrap_or(0);
    let trial = Trial {
        label: label.to_string(),
        rate_limit,
        repair_secs,
        repair_mb_per_s: rebuilt as f64 / 1e6 / repair_secs,
        fg_reads: lat.len(),
        fg_p50_us: pct(&lat, 0.50),
        fg_p99_us: pct(&lat, 0.99),
        wire_bytes: snap.counters.get("repair.wire_bytes").copied().unwrap_or(0),
        time_to_redundancy_ms: ttr_ms,
    };
    mgr.shutdown();
    trial
}

/// No-repair reference: same degraded store, pipeline paused, same
/// foreground workload for `window` — the p99 the limiter defends.
fn run_baseline(stripes: usize, window: Duration) -> Trial {
    let scheme = scheme();
    let data = payload(stripes, scheme.data_per_stripe());
    let store = Arc::new(ObjectStore::with_array(
        scheme.clone(),
        ELEMENT,
        ThreadedArray::with_latency(scheme.n_disks(), DISK_LATENCY),
    ));
    store.put("obj", &data).unwrap();
    store.flush();
    store.fail_disk(VICTIM).unwrap();
    store.array().disk(VICTIM).wipe();

    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&store, data.len() as u64, &stop);
    std::thread::sleep(window);
    stop.store(true, Ordering::Release);
    let mut lat: Vec<u64> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader died"))
        .collect();
    lat.sort_unstable();
    Trial {
        label: "baseline".into(),
        rate_limit: None,
        repair_secs: f64::NAN,
        repair_mb_per_s: 0.0,
        fg_reads: lat.len(),
        fg_p50_us: pct(&lat, 0.50),
        fg_p99_us: pct(&lat, 0.99),
        wire_bytes: 0,
        time_to_redundancy_ms: f64::NAN,
    }
}

/// Repair-traffic trial over a real loopback cluster: wipe the victim
/// shard and rebuild it stripe by stripe with `repair_stripe`, pricing
/// the bytes the rebuilder ingested off the wire. Every helper is a
/// dialable shard, so helpers pre-sum server-side over `CombineRange`
/// and only `rows` sealed regions cross per stripe.
fn run_wire_trial(label: &str, stripes: usize) -> Trial {
    let scheme = scheme();
    let data = payload(stripes, scheme.data_per_stripe());
    let cluster = Cluster::spawn(scheme.n_disks()).expect("spawn loopback cluster");
    let store = ObjectStore::with_array(
        scheme.clone(),
        ELEMENT,
        ThreadedArray::from_backends(cluster.backends()),
    );
    store.put("obj", &data).unwrap();
    store.flush();
    cluster.client(VICTIM).wipe();

    let t = Instant::now();
    let mut rebuilt = 0u64;
    for s in 0..stripes as u64 {
        rebuilt += store
            .repair_stripe(VICTIM, s)
            .expect("stripe repair failed")
            .bytes_written;
    }
    let elapsed = t.elapsed();

    // Correctness gate, same as the rate-limit trials.
    assert_eq!(
        store.get("obj").unwrap(),
        data,
        "{label}: repaired store returned wrong bytes"
    );
    let snap = store.recorder().snapshot();
    assert_eq!(
        snap.counters.get("repair.combined_stripes").copied(),
        Some(stripes as u64),
        "{label}: not every stripe took the combined path"
    );
    assert_eq!(
        snap.counters.get("repair.wire_bytes").copied(),
        Some(rebuilt),
        "{label}: the rebuilder ingested exactly the lost bytes"
    );
    let secs = elapsed.as_secs_f64().max(1e-9);
    Trial {
        label: label.to_string(),
        rate_limit: None,
        repair_secs: secs,
        repair_mb_per_s: rebuilt as f64 / 1e6 / secs,
        fg_reads: 0,
        fg_p50_us: 0,
        fg_p99_us: 0,
        wire_bytes: snap.counters.get("repair.wire_bytes").copied().unwrap_or(0),
        time_to_redundancy_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_json = args.iter().any(|a| a == "--no-json");
    let stripes = if quick { 96 } else { 256 };

    // Unlimited, then two throttles. Limits are on total repair traffic
    // (source reads + rebuilt writes), in bytes/second.
    let settings: &[(&str, Option<u64>)] = &[
        ("unlimited", None),
        ("40MB/s", Some(40_000_000)),
        ("10MB/s", Some(10_000_000)),
    ];

    println!(
        "repair: RS(6,3) ec-frm, {stripes} stripes x {ELEMENT} B elements, \
         disk latency {DISK_LATENCY:?}, kill disk {VICTIM} under {FG_READERS} readers"
    );
    let mut rows = vec![run_baseline(
        stripes,
        if quick {
            Duration::from_millis(250)
        } else {
            Duration::from_millis(500)
        },
    )];
    for &(label, rate) in settings {
        rows.push(run_trial(label, rate, stripes));
    }
    // Repair-traffic row: same shape, real loopback cluster,
    // server-side CombineRange partial sums.
    let wire_stripes = if quick { 48 } else { 128 };
    rows.push(run_wire_trial("combined", wire_stripes));

    println!(
        "\n  {:<10} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}",
        "rate", "repair s", "repair MB/s", "fg reads", "p50 us", "p99 us", "wire MB"
    );
    for r in &rows {
        println!(
            "  {:<10} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}",
            r.label,
            if r.repair_secs.is_finite() {
                format!("{:.3}", r.repair_secs)
            } else {
                "-".into()
            },
            if r.repair_mb_per_s > 0.0 {
                format!("{:.1}", r.repair_mb_per_s)
            } else {
                "-".into()
            },
            r.fg_reads,
            r.fg_p50_us,
            r.fg_p99_us,
            if r.wire_bytes > 0 {
                format!("{:.2}", r.wire_bytes as f64 / 1e6)
            } else {
                "-".into()
            },
        );
    }
    let unlimited = rows.iter().find(|r| r.label == "unlimited").unwrap();
    let tightest = rows.iter().find(|r| r.label == "10MB/s").unwrap();
    println!(
        "\nrate limiting: p99 {} us (unlimited) -> {} us (at {}), \
         repair {:.1} MB/s -> {:.1} MB/s",
        unlimited.fg_p99_us,
        tightest.fg_p99_us,
        tightest.label,
        unlimited.repair_mb_per_s,
        tightest.repair_mb_per_s,
    );
    let combined = rows.iter().find(|r| r.label == "combined").unwrap();
    println!(
        "repair traffic: {:.2} MB on the wire for {wire_stripes} lost stripes \
         (1 byte per lost byte; fetching every source would move 6)",
        combined.wire_bytes as f64 / 1e6,
    );

    if no_json {
        return;
    }
    let mut body = String::from("{\n  \"bench\": \"repair\",\n");
    body.push_str(&format!(
        "  \"shape\": {{\"stripes\": {stripes}, \"element\": {ELEMENT}, \
         \"disk_latency_us\": {}, \"readers\": {FG_READERS}}},\n",
        DISK_LATENCY.as_micros()
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"rate\": \"{}\", \"rate_limit_bytes_per_s\": {}, \
             \"repair_secs\": {}, \"repair_mb_per_s\": {}, \
             \"fg_reads\": {}, \"fg_p50_us\": {}, \"fg_p99_us\": {}, \
             \"wire_bytes\": {}, \"time_to_redundancy_ms\": {}}}{}\n",
            r.label,
            r.rate_limit
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".into()),
            json_f(r.repair_secs),
            json_f(r.repair_mb_per_s),
            r.fg_reads,
            r.fg_p50_us,
            r.fg_p99_us,
            r.wire_bytes,
            json_f(r.time_to_redundancy_ms),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write("BENCH_repair.json", &body).expect("write BENCH_repair.json");
    println!("wrote BENCH_repair.json");
}
