//! The front door under a zipfian mixed workload: QoS admission and the
//! parity-aware read cache.
//!
//! A [`FrontDoor`] sits on a sleeping-disk RS(6,3) store: a
//! latency-class tenant (`web`) reads a zipfian hot set of small
//! objects while a bulk-class tenant (`scan`) cycles large sequential
//! reads. Three phases:
//!
//! * `solo` — the web tenant alone: the latency baseline.
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

/// The reference copies every read is compared against.
struct Objects {
    web: Vec<Vec<u8>>,
    scan: Vec<u8>,
}

/// One phase: `scan_threads` bulk readers flooding (0 = solo), the scan
/// tenant registered at `scan_rate` bytes/second (`None` = unlimited),
/// while the web readers sample the zipf hot set, all for `window`.
fn phase(
    label: &str,
    (scan_threads, scan_rate): (usize, Option<u64>),
    window: Duration,
    front: &FrontDoor,
    objects: &Objects,
    r: &mut Report,
) {
    front.register_tenant(TenantSpec {
        rate_limit: scan_rate,
        ..TenantSpec::new("scan", QosClass::Bulk)
    });
    let (hit0, miss0) = front.cache_stats();
    let delayed0 = counter(front.store(), "tenant.scan.delayed");
    let stop = AtomicBool::new(false);
    let stop = &stop;

    let ((scan_ok, scan_throttled, scan_bytes), mut lat, web_bytes) = std::thread::scope(|s| {
        let scanners: Vec<_> = (0..scan_threads)
            .map(|_| {
                s.spawn(move || {
                    let (mut ok, mut throttled, mut bytes, mut off) = (0u64, 0u64, 0u64, 0usize);
                    while !stop.load(Ordering::Acquire) {
                        match front.read_range("scan", "bulk", off as u64, SCAN_CHUNK as u64) {
                            Ok(got) => {
                                let want = &objects.scan[off..off + SCAN_CHUNK];
                                assert_eq!(got, want, "scan read returned wrong bytes");
                                ok += 1;
                                bytes += got.len() as u64;
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

        std::thread::sleep(window);
        stop.store(true, Ordering::Release);
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
        (scanned, lat, web_bytes)
    });
    lat.sort_unstable();

    let (hit1, miss1) = front.cache_stats();
    let (hits, lookups) = (hit1 - hit0, (hit1 - hit0) + (miss1 - miss0));
    let web_mbps = web_bytes as f64 / 1e6 / window.as_secs_f64();
    let scan_mbps = scan_bytes as f64 / 1e6 / window.as_secs_f64();
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
        scan: bytes(SCAN_OBJECT_BYTES, 9001),
    };
    for (i, object) in objects.web.iter().enumerate() {
        front
            .put("web", &format!("o{i}"), object)
            .expect("web ingest");
    }
    front
        .put("scan", "bulk", &objects.scan)
        .expect("scan ingest");
    front.store().flush();

    let shape = cells! {
        "objects": WEB_OBJECTS, "object_bytes": WEB_OBJECT_BYTES, "zipf_s": ZIPF_S,
        "cache_bytes": CACHE_BYTES, "scan_rate_bytes_per_s": SCAN_RATE, "element": ELEMENT,
        "disk_latency_us": DISK_LATENCY.as_micros() as u64, "web_readers": WEB_READERS,
        "scan_readers": SCAN_READERS, "phase_ms": window.as_millis() as u64,
    };
    let mut r = Report::new("multitenant", quick, "mem", shape);
    for (label, scan) in [
        ("solo", (0, None)),
        ("mixed-off", (SCAN_READERS, None)),
        ("mixed-on", (SCAN_READERS, Some(SCAN_RATE))),
    ] {
        phase(label, scan, window, &front, &objects, &mut r);
    }
    r
}

/// The three phases ran; with scan limited, admission defends the
/// latency tenant (web p99 within 2x its solo p99, with a small absolute
/// floor for runner noise), the zipf head lives in the cache, and the
/// flood was actually held back — or the phase proves nothing.
pub fn check(r: &Report) -> Result<(), String> {
    let phases: Vec<_> = r
        .rows()
        .iter()
        .filter_map(|row| row.text("phase"))
        .collect();
    ensure!(
        phases == ["solo", "mixed-off", "mixed-on"],
        "phases are {phases:?}"
    );
    let (solo, on) = (
        r.find(&[("phase", "solo")])?,
        r.find(&[("phase", "mixed-on")])?,
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
