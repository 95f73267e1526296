//! Cold-cache file I/O microbenchmark: blocking sorted-pass reads vs
//! the io_uring backend, across queue depths.
//!
//! ```text
//! file_io [--quick] [--no-json]
//! ```
//!
//! One flat `FileDisk` file of 64 KiB elements is ingested once, then
//! read back in randomized stripe-shaped batches (8 scattered elements
//! per batch, every element exactly once per pass, a fresh permutation
//! each pass so neither backend can ride the previous pass's order).
//! Before every pass the kernel page cache for the file is dropped
//! (`posix_fadvise(DONTNEED)` via `FileDisk::drop_cache`), so both
//! backends pay real disk time — the regime EC-FRM cares about, since
//! degraded and repair reads land on cold data.
//!
//! For each queue depth in {1, 8, 32, 128} two rows are produced:
//!
//! * **blocking** — `qd` reader threads over the sorted single-pass
//!   backend. The per-disk file lock serializes them (one submitter
//!   keeps exactly one hardware queue slot busy), which is precisely
//!   the limitation the uring backend removes.
//! * **uring** — a single submitter keeping a window of batches in
//!   flight on a ring of depth `qd` (`O_DIRECT` where the filesystem
//!   allows it).
//!
//! Every pass is correctness-gated: each element is compared against
//! the deterministic ingest pattern byte-for-byte. Results land in
//! `BENCH_file_io.json` with a `uring_supported` flag so CI can demand
//! uring rows exactly when the kernel can produce them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ecfrm_bench::report::pct;
use ecfrm_sim::{DiskBackend, FileDisk, FileIoConfig};

const ELEMENT: usize = 65536;
const BATCH_ELEMS: usize = 8;
const DEPTHS: [u32; 4] = [1, 8, 32, 128];

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Shared element body: every element carries this pattern after a
/// 16-byte per-offset header, so verification is two slice compares
/// (memcmp speed) instead of regenerating 64 KiB per element — the
/// submitter thread must never become the bottleneck being measured.
fn body() -> &'static [u8] {
    static BODY: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BODY.get_or_init(|| (0..ELEMENT).map(|i| ((i * 131 + 7) % 251) as u8).collect())
}

fn header(offset: u64) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&offset.to_le_bytes());
    h[8..].copy_from_slice(&(offset ^ 0x9E37_79B9_7F4A_7C15).to_le_bytes());
    h
}

/// Deterministic per-element payload, so every pass can verify bytes.
fn element_bytes(offset: u64) -> Vec<u8> {
    let mut e = body().to_vec();
    e[..16].copy_from_slice(&header(offset));
    e
}

/// Every element exactly once, shuffled, chunked into batches.
fn batches(n_elems: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut order: Vec<u64> = (0..n_elems).collect();
    let mut x = seed | 1;
    for i in (1..order.len()).rev() {
        order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
    }
    order.chunks(BATCH_ELEMS).map(<[u64]>::to_vec).collect()
}

struct Row {
    backend: &'static str,
    qd: u32,
    gb_per_s: f64,
    p50_us: u64,
    p99_us: u64,
}

fn verify(batch: &[u64], got: &[Option<Vec<u8>>]) {
    for (o, g) in batch.iter().zip(got) {
        let g = g
            .as_deref()
            .unwrap_or_else(|| panic!("element {o} missing"));
        assert!(
            g[..16] == header(*o) && g[16..] == body()[16..],
            "element {o} read back wrong"
        );
    }
}

/// Blocking backend: `qd` threads pull batches from a shared cursor;
/// the disk's file lock serializes the actual I/O.
fn blocking_pass(disk: &FileDisk, batches: &[Vec<u64>], qd: u32) -> Row {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..qd)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = batches.get(i) else {
                            return lat;
                        };
                        let t = Instant::now();
                        let got = disk.read_many(batch);
                        lat.push(t.elapsed().as_micros() as u64);
                        verify(batch, &got);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader died"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    Row {
        backend: "blocking",
        qd,
        gb_per_s: (batches.len() * BATCH_ELEMS * ELEMENT) as f64 / 1e9 / elapsed,
        p50_us: pct(&lat, 0.50),
        p99_us: pct(&lat, 0.99),
    }
}

/// Uring backend: one submitter keeps a window of batches in flight on
/// a ring of depth `qd`; completions are awaited oldest-first.
fn uring_pass(disk: &FileDisk, batches: &[Vec<u64>], qd: u32) -> Row {
    // Enough concurrent batches to keep ~qd runs inside the ring.
    let window = (qd as usize).div_ceil(BATCH_ELEMS).max(1) * 2;
    let mut inflight: VecDeque<(Instant, usize, ecfrm_sim::IoHandle)> = VecDeque::new();
    let mut lat: Vec<u64> = Vec::with_capacity(batches.len());
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        if inflight.len() == window {
            let (t, j, handle) = inflight.pop_front().expect("window nonempty");
            let got = handle.wait();
            lat.push(t.elapsed().as_micros() as u64);
            verify(&batches[j], &got);
        }
        inflight.push_back((Instant::now(), i, disk.submit_read_many(batch)));
    }
    for (t, j, handle) in inflight {
        let got = handle.wait();
        lat.push(t.elapsed().as_micros() as u64);
        verify(&batches[j], &got);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    Row {
        backend: "uring",
        qd,
        gb_per_s: (batches.len() * BATCH_ELEMS * ELEMENT) as f64 / 1e9 / elapsed,
        p50_us: pct(&lat, 0.50),
        p99_us: pct(&lat, 0.99),
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
    let n_elems: u64 = if quick { 1024 } else { 8192 };

    // An explicit ECFRM_FORCE_FILE_IO would silently re-route the
    // per-pass configs, mislabeling rows — run only the matching side.
    let forced = std::env::var("ECFRM_FORCE_FILE_IO").ok();
    let run_blocking = forced.as_deref() != Some("uring");
    let run_uring = forced.is_none() && ecfrm_sim::uring::supported();
    if let Some(f) = &forced {
        println!("ECFRM_FORCE_FILE_IO={f} set: benching only that backend");
    }

    let path = std::env::temp_dir().join(format!("ecfrm-bench-fileio-{}", std::process::id()));
    {
        let ingest =
            FileDisk::create_with(&path, ELEMENT, FileIoConfig::blocking()).expect("create file");
        for o in 0..n_elems {
            ingest.write(o, element_bytes(o));
        }
        ingest.drop_cache().expect("flush ingest");
    }
    println!(
        "file_io: {n_elems} x {ELEMENT} B elements ({} MiB), batches of {BATCH_ELEMS} \
         scattered elements, cold cache before every pass",
        n_elems as usize * ELEMENT / (1 << 20)
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut seed = 0xEC_F12;
    for qd in DEPTHS {
        if run_blocking {
            seed += 1;
            let disk =
                FileDisk::open_with(&path, ELEMENT, FileIoConfig::blocking()).expect("open file");
            assert_eq!(
                disk.io_backend(),
                "blocking",
                "pass label must match backend"
            );
            disk.drop_cache().expect("drop cache");
            rows.push(blocking_pass(&disk, &batches(n_elems, seed), qd));
        }
        if run_uring {
            seed += 1;
            let disk =
                FileDisk::open_with(&path, ELEMENT, FileIoConfig::uring(qd)).expect("open file");
            assert!(
                disk.io_backend().starts_with("uring"),
                "pass label must match backend"
            );
            disk.drop_cache().expect("drop cache");
            rows.push(uring_pass(&disk, &batches(n_elems, seed), qd));
        }
    }

    println!(
        "\n  {:<10} {:>4} {:>10} {:>9} {:>9}",
        "backend", "qd", "GB/s", "p50 us", "p99 us"
    );
    for r in &rows {
        println!(
            "  {:<10} {:>4} {:>10.3} {:>9} {:>9}",
            r.backend, r.qd, r.gb_per_s, r.p50_us, r.p99_us
        );
    }
    let find = |backend: &str, qd: u32| {
        rows.iter()
            .find(|r| r.backend == backend && r.qd == qd)
            .map(|r| r.gb_per_s)
    };
    let speedup_qd32 = match (find("blocking", 32), find("uring", 32)) {
        (Some(b), Some(u)) if b > 0.0 => Some(u / b),
        _ => None,
    };
    if let Some(s) = speedup_qd32 {
        println!("  uring speedup over blocking at qd 32: {s:.2}x");
    }

    if no_json {
        return;
    }
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"backend\": \"{}\", \"qd\": {}, \"gb_per_s\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}}}",
                r.backend,
                r.qd,
                json_f(r.gb_per_s),
                r.p50_us,
                r.p99_us
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"bench\": \"file_io\",\n\
         \x20 \"shape\": {{\"elements\": {n_elems}, \"element\": {ELEMENT}, \
         \"batch_elems\": {BATCH_ELEMS}}},\n\
         \x20 \"uring_supported\": {},\n\
         \x20 \"speedup_qd32\": {},\n\
         \x20 \"rows\": [\n{}\n  ]\n}}\n",
        run_uring,
        speedup_qd32.map_or("null".into(), json_f),
        row_json.join(",\n"),
    );
    std::fs::write("BENCH_file_io.json", &body).expect("write BENCH_file_io.json");
    println!("wrote BENCH_file_io.json");
    let _ = std::fs::remove_file(&path);
}
