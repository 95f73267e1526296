//! The front door under a zipfian mixed workload: QoS admission and the
//! scan-resistant read cache.
//!
//! A [`FrontDoor`] sits on a sleeping-disk RS(6,3) store: a
//! latency-class tenant (`web`) reads a zipfian hot set of small
//! objects while a bulk-class tenant (`scan`) cycles large sequential
//! reads. Four phases:
//!
//! * `solo` — the web tenant alone: the latency and hit-rate baseline.
//! * `cold-scan` — one unthrottled scan thread reads a cold object set
//!   of [`COLD_OBJECTS`] × [`SCAN_OBJECT_BYTES`] (8× the cache) once,
//!   and the phase lasts exactly as long as that takes: what the cache
//!   policy is for. The web tenant's hit rate must not notice.
//! * `mixed-off` — scan floods with no rate limit registered: the bulk
//!   tenant is free to fill every disk queue and the web tail balloons.
//! * `mixed-on` — same flood with scan re-registered at its rate: it is
//!   held to its token bucket (queued up to the bulk deadline, then
//!   rejected), and the web tail must come back near its solo baseline.
//!
//! Every read is compared byte-for-byte against a reference copy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_bench::cells;
use ecfrm_bench::report::{pct, Report};
use ecfrm_sim::Zipf;
use ecfrm_store::{FrontConfig, FrontDoor, QosClass, StoreError, TenantSpec};
use ecfrm_util::Rng;

use crate::{bytes, counter, sleepy_store, DISK_LATENCY};

const ELEMENT: usize = 4096;
const WEB_READERS: usize = 2;
const SCAN_READERS: usize = 3;
const WEB_OBJECTS: usize = 256;
const WEB_OBJECT_BYTES: usize = 32 * 1024;
/// The object the mixed phases' bulk loop cycles: a quarter of the
/// cache. It is admitted unvisited like any other miss, and at this
/// churn the eviction hand comes round before the loop does, so the
/// flood stays a flood of misses — on the disks, not in the cache.
const SCAN_OBJECT_BYTES: usize = 512 * 1024;
/// Cold objects the `cold-scan` phase reads once: 8× [`CACHE_BYTES`].
const COLD_OBJECTS: usize = 32;
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

/// The reference copies every read is compared against.
struct Objects {
    web: Vec<Vec<u8>>,
    /// `bulk0` is the object the floods cycle; `bulk1..` are the cold
    /// set, read by nothing but the `cold-scan` phase.
    scan: Vec<Vec<u8>>,
}

/// What the `scan` tenant does during a phase.
#[derive(Clone, Copy)]
enum Scan {
    /// Nothing: the web tenant alone.
    Idle,
    /// [`SCAN_READERS`] threads cycle `bulk0` for the whole window,
    /// registered at this rate (`None` = unlimited).
    Flood(Option<u64>),
    /// One unlimited thread reads the cold set once, then ends the
    /// phase.
    ColdOnce,
}

/// One phase: the scan tenant doing `scan` while the web readers sample
/// the zipf hot set, for `window` or until a [`Scan::ColdOnce`] is done.
fn phase(
    label: &str,
    scan: Scan,
    window: Duration,
    front: &FrontDoor,
    objects: &Objects,
    r: &mut Report,
) {
    let (scan_threads, scan_rate, scan_set) = match scan {
        Scan::Idle => (0, None, 0..0),
        Scan::Flood(rate) => (SCAN_READERS, rate, 0..1),
        Scan::ColdOnce => (1, None, 1..objects.scan.len()),
    };
    let scan_set = &scan_set;
    front.register_tenant(TenantSpec {
        rate_limit: scan_rate,
        ..TenantSpec::new("scan", QosClass::Bulk)
    });
    let (hit0, miss0) = front.cache_stats();
    let delayed0 = counter(front.store(), "tenant.scan.delayed");
    let stop = AtomicBool::new(false);
    let stop = &stop;

    let (scanned, mut lat, web_bytes, ran) = std::thread::scope(|s| {
        let scanners: Vec<_> = (0..scan_threads)
            .map(|_| {
                s.spawn(move || {
                    let (mut ok, mut throttled, mut bytes, mut at) = (0u64, 0u64, 0u64, 0usize);
                    while !stop.load(Ordering::Acquire) {
                        let obj = scan_set.start + at / SCAN_OBJECT_BYTES;
                        if obj == scan_set.end {
                            match scan {
                                Scan::ColdOnce => stop.store(true, Ordering::Release),
                                _ => at = 0,
                            }
                            continue;
                        }
                        let (name, off) = (format!("bulk{obj}"), at % SCAN_OBJECT_BYTES);
                        match front.read_range("scan", &name, off as u64, SCAN_CHUNK as u64) {
                            Ok(got) => {
                                let want = &objects.scan[obj][off..off + SCAN_CHUNK];
                                assert_eq!(got, want, "scan read returned wrong bytes");
                                ok += 1;
                                bytes += got.len() as u64;
                                at += SCAN_CHUNK;
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
            .map(|i| {
                s.spawn(move || {
                    let zipf = Zipf::new(WEB_OBJECTS, ZIPF_S);
                    let mut rng = Rng::seed_from_u64(i as u64);
                    let (mut lat, mut bytes) = (Vec::new(), 0u64);
                    while !stop.load(Ordering::Acquire) {
                        let obj = zipf.sample(&mut rng);
                        let t = Instant::now();
                        let got = front.read("web", &format!("o{obj}"));
                        lat.push(t.elapsed().as_micros() as u64);
                        let got = got.expect("web read failed");
                        assert_eq!(got, objects.web[obj], "web read returned wrong bytes");
                        bytes += got.len() as u64;
                    }
                    (lat, bytes)
                })
            })
            .collect();

        let start = Instant::now();
        while start.elapsed() < window && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        let ran = start.elapsed();
        let scanned = scanners
            .into_iter()
            .map(|h| h.join().expect("scan thread died"))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
        let (mut lat, mut web_bytes) = (Vec::new(), 0u64);
        for h in readers {
            let (l, b) = h.join().expect("web thread died");
            lat.extend(l);
            web_bytes += b;
        }
        (scanned, lat, web_bytes, ran)
    });
    let (scan_ok, scan_throttled, scan_bytes) = scanned;
    lat.sort_unstable();

    let (hit1, miss1) = front.cache_stats();
    // Each cold element is looked up once, a miss by construction:
    // left out, so the rate is the web tenant's own.
    let cold_lookups = match scan {
        Scan::ColdOnce => scan_bytes / ELEMENT as u64,
        _ => 0,
    };
    let (hits, lookups) = (hit1 - hit0, (hit1 - hit0) + (miss1 - miss0) - cold_lookups);
    let web_mbps = web_bytes as f64 / 1e6 / ran.as_secs_f64();
    let scan_mbps = scan_bytes as f64 / 1e6 / ran.as_secs_f64();
    // Non-finite (no scan, or a side moved nothing) reads "not measured".
    let fairness = web_mbps.max(scan_mbps) / web_mbps.min(scan_mbps);
    r.row(cells! {
        "phase": label,
        "web_reads": lat.len(),
        "web_p50_us": pct(&lat, 0.50),
        "web_p99_us": pct(&lat, 0.99),
        "web_mb_per_s": web_mbps,
        "scan_ok": scan_ok,
        "scan_throttled": scan_throttled,
        "scan_delayed": counter(front.store(), "tenant.scan.delayed") - delayed0,
        "scan_mb_per_s": scan_mbps,
        "fairness_max_over_min": fairness,
        "cache_hit_rate": hits as f64 / lookups.max(1) as f64,
    });
}

pub fn run(quick: bool) -> Report {
    let window = Duration::from_millis(if quick { 600 } else { 2000 });
    let cfg = FrontConfig::builder().cache_bytes(CACHE_BYTES).build();
    let front = FrontDoor::new(Arc::new(sleepy_store(ELEMENT)), cfg);
    front.register_tenant(TenantSpec::new("web", QosClass::Latency));

    let objects = Objects {
        web: (0..WEB_OBJECTS)
            .map(|i| bytes(WEB_OBJECT_BYTES, i))
            .collect(),
        scan: (0..=COLD_OBJECTS)
            .map(|i| bytes(SCAN_OBJECT_BYTES, 9001 + i))
            .collect(),
    };
    for (i, object) in objects.web.iter().enumerate() {
        front
            .put("web", &format!("o{i}"), object)
            .expect("web ingest");
    }
    for (i, object) in objects.scan.iter().enumerate() {
        front
            .put("scan", &format!("bulk{i}"), object)
            .expect("scan ingest");
    }
    front.store().flush();

    let shape = cells! {
        "objects": WEB_OBJECTS, "object_bytes": WEB_OBJECT_BYTES, "zipf_s": ZIPF_S,
        "cache_bytes": CACHE_BYTES, "scan_rate_bytes_per_s": SCAN_RATE, "element": ELEMENT,
        "disk_latency_us": DISK_LATENCY.as_micros() as u64, "web_readers": WEB_READERS,
        "scan_readers": SCAN_READERS, "phase_ms": window.as_millis() as u64,
        "cold_scan_bytes": COLD_OBJECTS * SCAN_OBJECT_BYTES,
    };
    let mut r = Report::new("multitenant", quick, "mem", shape);
    for (label, scan) in [
        ("solo", Scan::Idle),
        ("cold-scan", Scan::ColdOnce),
        ("mixed-off", Scan::Flood(None)),
        ("mixed-on", Scan::Flood(Some(SCAN_RATE))),
    ] {
        phase(label, scan, window, &front, &objects, &mut r);
    }
    r
}

/// The four phases ran; a whole cold set scanned once through the cache
/// left the web tenant's hit rate within 0.03 of its solo rate; with
/// scan limited, admission defends the latency tenant (web p99 within 2x
/// its solo p99, with a small absolute floor for runner noise), the zipf
/// head lives in the cache, and the flood was actually held back — or
/// the phase proves nothing.
pub fn check(r: &Report) -> Result<(), String> {
    let phases: Vec<_> = r
        .rows()
        .iter()
        .filter_map(|row| row.text("phase"))
        .collect();
    ensure!(
        phases == ["solo", "cold-scan", "mixed-off", "mixed-on"],
        "phases are {phases:?}"
    );
    let (solo, cold, on) = (
        r.find(&[("phase", "solo")])?,
        r.find(&[("phase", "cold-scan")])?,
        r.find(&[("phase", "mixed-on")])?,
    );
    let (solo_hit, cold_hit) = (solo.num("cache_hit_rate")?, cold.num("cache_hit_rate")?);
    ensure!(
        cold.num("scan_ok")? * SCAN_CHUNK as f64 >= 2.0 * CACHE_BYTES as f64,
        "the cold scan was cut short of twice the cache"
    );
    ensure!(
        cold_hit >= solo_hit - 0.03,
        "a cold scan took the web hit rate from {solo_hit} to {cold_hit}"
    );
    let (solo_p99, on_p99) = (solo.num("web_p99_us")?, on.num("web_p99_us")?);
    ensure!(
        on_p99 <= 2.0 * solo_p99.max(500.0),
        "admission failed to defend the latency tenant: p99 {on_p99} us vs solo {solo_p99} us"
    );
    let hit_rate = on.num("cache_hit_rate")?;
    ensure!(
        hit_rate > 0.5,
        "zipf-hot cache hit rate {hit_rate} is not above 0.5"
    );
    ensure!(
        on.num("scan_throttled")? + on.num("scan_delayed")? > 0.0,
        "the flood never hit the limiter"
    );
    Ok(())
}
