//! Multi-tenant front-door benchmark: QoS admission and the
//! parity-aware read cache under a zipfian mixed workload.
//!
//! ```text
//! multitenant [--quick] [--no-json] [--assert-fairness]
//! ```
//!
//! An RS(6,3) EC-FRM store runs over latency-injected `MemDisk`s (disk
//! service time, not memcpy, is the contended resource), with a
//! [`FrontDoor`] on top: a latency-class tenant (`web`) reads a zipfian
//! hot set of small objects while a bulk-class tenant (`scan`) cycles
//! large sequential reads. Three phases:
//!
//! * `solo` — the web tenant alone: the latency baseline.
//! * `mixed-off` — scan floods with no rate limit registered: the bulk
//!   tenant is free to fill every disk queue and the web tail balloons.
//! * `mixed-on` — same flood with scan re-registered at its rate: it is
//!   held to its token bucket (queued up to the bulk deadline, then
//!   rejected), and the web tail must come back near its solo
//!   baseline.
//!
//! Each phase reports per-tenant p50/p99, per-tenant throughput, the
//! fairness ratio (max/min tenant throughput), and the cache hit rate.
//! Every read is compared byte-for-byte against a reference copy —
//! wrong bytes abort the bench. `--assert-fairness` turns the headline
//! claims into hard assertions (the CI smoke gate): with scan limited,
//! web p99 stays within 2x its solo p99 and the zipf-hot cache serves
//! more than half the element lookups. The JSON lands in
//! `BENCH_multitenant.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_bench::report::pct;
use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::ThreadedArray;
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore, QosClass, StoreError, TenantSpec};

const ELEMENT: usize = 4096;
const DISK_LATENCY: Duration = Duration::from_micros(200);
const WEB_READERS: usize = 2;
const SCAN_READERS: usize = 3;
const WEB_OBJECTS: usize = 256;
const WEB_OBJECT_BYTES: usize = 32 * 1024;
/// Scan object small enough to stay cache-resident, so the bulk loop
/// measures admission (not cache-pollution) effects.
const SCAN_OBJECT_BYTES: usize = 512 * 1024;
/// Bulk read size: one admitted chunk occupies each disk for only a
/// couple of element services, so a *throttled* scan cannot park a
/// whole stripe's worth of work in front of a latency read.
const SCAN_CHUNK: usize = 64 * 1024;
/// How long a bulk reader backs off after a rejection. Spinning on
/// rejects would turn the limiter into a CPU-contention bench.
const SCAN_BACKOFF: Duration = Duration::from_millis(2);
/// Cache sized at ~25% of the web data set: the zipf head fits, the
/// tail misses — hit rate is a property of the skew, not of an
/// everything-fits cache.
const CACHE_BYTES: usize = 2 * 1024 * 1024;
/// Bulk budget: ~1% of the array's aggregate service rate, so a
/// throttled scan is negligible interference by construction.
const SCAN_RATE: u64 = 2_000_000;
const ZIPF_S: f64 = 1.2;

fn scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn blob(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed * 17 + 7) % 251) as u8)
        .collect()
}

/// Cumulative zipf(s) weights over `n` ranks, for inverse sampling.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Phase {
    label: String,
    web_reads: usize,
    web_p50_us: u64,
    web_p99_us: u64,
    web_mbps: f64,
    scan_ok: u64,
    scan_throttled: u64,
    scan_delayed: u64,
    scan_mbps: f64,
    fairness: f64,
    cache_hit_rate: f64,
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

/// One phase: `scan_threads` bulk readers flooding (0 = solo), the scan
/// tenant registered at `scan_rate` bytes/second (`None` = unlimited),
/// while the web readers sample the zipf hot set, all for `window`.
/// Wrong bytes panic on the spot.
fn run_phase(
    front: &Arc<FrontDoor>,
    label: &str,
    window: Duration,
    scan_threads: usize,
    scan_rate: Option<u64>,
    web_data: &Arc<Vec<Vec<u8>>>,
    scan_data: &Arc<Vec<u8>>,
) -> Phase {
    front.register_tenant(TenantSpec {
        rate_limit: scan_rate,
        ..TenantSpec::new("scan", QosClass::Bulk)
    });
    let (hit0, miss0) = front.cache_stats();
    let delayed0 = counter(front, "tenant.scan.delayed");
    let stop = Arc::new(AtomicBool::new(false));

    let scanners: Vec<_> = (0..scan_threads)
        .map(|_| {
            let front = Arc::clone(front);
            let stop = Arc::clone(&stop);
            let want = Arc::clone(scan_data);
            std::thread::spawn(move || {
                let (mut ok, mut throttled, mut bytes) = (0u64, 0u64, 0u64);
                let mut off = 0usize;
                while !stop.load(Ordering::Acquire) {
                    match front.read_range("scan", "bulk", off as u64, SCAN_CHUNK as u64) {
                        Ok(b) => {
                            assert_eq!(
                                b,
                                want[off..off + SCAN_CHUNK],
                                "scan read returned wrong bytes"
                            );
                            ok += 1;
                            bytes += b.len() as u64;
                            off = (off + SCAN_CHUNK) % SCAN_OBJECT_BYTES;
                        }
                        Err(StoreError::Throttled(_)) => {
                            throttled += 1;
                            std::thread::sleep(SCAN_BACKOFF);
                        }
                        Err(e) => panic!("scan read failed: {e}"),
                    }
                }
                (ok, throttled, bytes)
            })
        })
        .collect();

    let readers: Vec<_> = (0..WEB_READERS)
        .map(|r| {
            let front = Arc::clone(front);
            let stop = Arc::clone(&stop);
            let data = Arc::clone(web_data);
            std::thread::spawn(move || {
                let cdf = zipf_cdf(WEB_OBJECTS, ZIPF_S);
                let mut rng = XorShift(((r as u64 + 1) * 0x9E37_79B9_7F4A_7C15) | 1);
                let mut lat = Vec::new();
                let mut bytes = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let u = rng.unit();
                    let obj = cdf.partition_point(|&c| c < u).min(WEB_OBJECTS - 1);
                    let t = Instant::now();
                    let b = front
                        .read("web", &format!("o{obj}"))
                        .expect("web read failed");
                    lat.push(t.elapsed().as_micros() as u64);
                    assert_eq!(b, data[obj], "web read returned wrong bytes");
                    bytes += b.len() as u64;
                }
                (lat, bytes)
            })
        })
        .collect();

    std::thread::sleep(window);
    stop.store(true, Ordering::Release);
    let mut scan_ok = 0u64;
    let mut scan_throttled = 0u64;
    let mut scan_bytes = 0u64;
    for s in scanners {
        let (ok, th, by) = s.join().expect("scan thread died");
        scan_ok += ok;
        scan_throttled += th;
        scan_bytes += by;
    }
    let mut lat = Vec::new();
    let mut web_bytes = 0u64;
    for r in readers {
        let (l, b) = r.join().expect("web thread died");
        lat.extend(l);
        web_bytes += b;
    }
    lat.sort_unstable();

    let secs = window.as_secs_f64();
    let (hit1, miss1) = front.cache_stats();
    let (dh, dm) = (hit1 - hit0, miss1 - miss0);
    let web_mbps = web_bytes as f64 / 1e6 / secs;
    let scan_mbps = scan_bytes as f64 / 1e6 / secs;
    let fairness = if scan_threads > 0 && web_mbps > 0.0 && scan_mbps > 0.0 {
        web_mbps.max(scan_mbps) / web_mbps.min(scan_mbps)
    } else {
        f64::NAN
    };
    Phase {
        label: label.to_string(),
        web_reads: lat.len(),
        web_p50_us: pct(&lat, 0.50),
        web_p99_us: pct(&lat, 0.99),
        web_mbps,
        scan_ok,
        scan_throttled,
        scan_delayed: counter(front, "tenant.scan.delayed") - delayed0,
        scan_mbps,
        fairness,
        cache_hit_rate: if dh + dm > 0 {
            dh as f64 / (dh + dm) as f64
        } else {
            0.0
        },
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
    let assert_fairness = args.iter().any(|a| a == "--assert-fairness");
    let window = if quick {
        Duration::from_millis(600)
    } else {
        Duration::from_millis(2000)
    };

    let sch = scheme();
    let store = Arc::new(ObjectStore::with_array(
        sch.clone(),
        ELEMENT,
        ThreadedArray::with_latency(sch.n_disks(), DISK_LATENCY),
    ));
    let front = FrontDoor::new(
        store,
        FrontConfig::builder().cache_bytes(CACHE_BYTES).build(),
    );
    front.register_tenant(TenantSpec::new("web", QosClass::Latency));

    // Ingest: 256 x 32 KiB web objects (the zipf universe) and one
    // 512 KiB scan object.
    let web_data: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..WEB_OBJECTS)
            .map(|i| blob(WEB_OBJECT_BYTES, i))
            .collect(),
    );
    for (i, d) in web_data.iter().enumerate() {
        front.put("web", &format!("o{i}"), d).expect("web ingest");
    }
    let scan_data = Arc::new(blob(SCAN_OBJECT_BYTES, 9001));
    front.put("scan", "bulk", &scan_data).expect("scan ingest");
    front.store().flush();

    println!(
        "multitenant: {} over {} disks ({DISK_LATENCY:?} service time), \
         {WEB_OBJECTS} x {WEB_OBJECT_BYTES} B zipf(s={ZIPF_S}) hot set, \
         {} B cache, scan budget {:.1} MB/s, {window:?} per phase",
        sch.name(),
        sch.n_disks(),
        CACHE_BYTES,
        SCAN_RATE as f64 / 1e6,
    );

    let rows = vec![
        run_phase(&front, "solo", window, 0, None, &web_data, &scan_data),
        run_phase(
            &front,
            "mixed-off",
            window,
            SCAN_READERS,
            None,
            &web_data,
            &scan_data,
        ),
        run_phase(
            &front,
            "mixed-on",
            window,
            SCAN_READERS,
            Some(SCAN_RATE),
            &web_data,
            &scan_data,
        ),
    ];

    println!(
        "\n  {:<10} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "phase",
        "web rd",
        "p50 us",
        "p99 us",
        "web MB/s",
        "scan ok",
        "throttld",
        "scan MB/s",
        "fairness",
        "hit%"
    );
    for r in &rows {
        println!(
            "  {:<10} {:>9} {:>8} {:>8} {:>9.1} {:>9} {:>9} {:>9.1} {:>9} {:>6.1}",
            r.label,
            r.web_reads,
            r.web_p50_us,
            r.web_p99_us,
            r.web_mbps,
            r.scan_ok,
            r.scan_throttled,
            r.scan_mbps,
            if r.fairness.is_finite() {
                format!("{:.1}", r.fairness)
            } else {
                "-".into()
            },
            r.cache_hit_rate * 100.0,
        );
    }

    let solo = &rows[0];
    let off = &rows[1];
    let on = &rows[2];
    println!(
        "\nadmission: web p99 {} us solo -> {} us under unthrottled flood -> {} us throttled \
         (scan held to {:.1} MB/s, {} delayed, {} rejected)",
        solo.web_p99_us,
        off.web_p99_us,
        on.web_p99_us,
        on.scan_mbps,
        on.scan_delayed,
        on.scan_throttled,
    );
    println!(
        "cache: {:.1}% hit rate on the zipf-hot set (mixed-on phase)",
        on.cache_hit_rate * 100.0
    );
    if assert_fairness {
        assert!(
            on.web_p99_us <= 2 * solo.web_p99_us.max(500),
            "admission failed to defend the latency tenant: p99 {} us vs solo {} us",
            on.web_p99_us,
            solo.web_p99_us,
        );
        assert!(
            on.cache_hit_rate > 0.5,
            "zipf-hot cache hit rate {:.1}% <= 50%",
            on.cache_hit_rate * 100.0
        );
        assert!(
            on.scan_throttled + on.scan_delayed > 0,
            "the flood never hit the limiter — the phase proves nothing"
        );
        println!("assert-fairness: OK (p99 within 2x solo, cache hit rate > 50%)");
    }

    if no_json {
        return;
    }
    let mut body = String::from("{\n  \"bench\": \"multitenant\",\n");
    body.push_str(&format!(
        "  \"shape\": {{\"objects\": {WEB_OBJECTS}, \"object_bytes\": {WEB_OBJECT_BYTES}, \
         \"zipf_s\": {ZIPF_S}, \"cache_bytes\": {CACHE_BYTES}, \
         \"scan_rate_bytes_per_s\": {SCAN_RATE}, \"element\": {ELEMENT}, \
         \"disk_latency_us\": {}, \"web_readers\": {WEB_READERS}, \
         \"scan_readers\": {SCAN_READERS}}},\n",
        DISK_LATENCY.as_micros()
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"phase\": \"{}\", \"web_reads\": {}, \"web_p50_us\": {}, \
             \"web_p99_us\": {}, \"web_mb_per_s\": {}, \"scan_ok\": {}, \
             \"scan_throttled\": {}, \"scan_delayed\": {}, \"scan_mb_per_s\": {}, \
             \"fairness_max_over_min\": {}, \"cache_hit_rate\": {}}}{}\n",
            r.label,
            r.web_reads,
            r.web_p50_us,
            r.web_p99_us,
            json_f(r.web_mbps),
            r.scan_ok,
            r.scan_throttled,
            r.scan_delayed,
            json_f(r.scan_mbps),
            json_f(r.fairness),
            json_f(r.cache_hit_rate),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write("BENCH_multitenant.json", &body).expect("write BENCH_multitenant.json");
    println!("wrote BENCH_multitenant.json");
}
