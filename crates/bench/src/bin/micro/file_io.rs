//! Cold-cache file I/O: blocking sorted-pass reads vs the io_uring
//! backend, across queue depths.
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
//! For each queue depth two rows are produced:
//!
//! * **blocking** — `qd` reader threads over the sorted single-pass
//!   backend. The per-disk file lock serializes them (one submitter
//!   keeps exactly one hardware queue slot busy), which is precisely
//!   the limitation the uring backend removes.
//! * **uring** — a single submitter keeping a window of batches in
//!   flight on a ring of depth `qd` (`O_DIRECT` where the filesystem
//!   allows it) — exactly when the kernel can produce them; the last
//!   row says whether it could.
//!
//! Every element read is compared against the deterministic ingest
//! pattern byte-for-byte.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ecfrm_bench::cells;
use ecfrm_bench::report::{pct, Report};
use ecfrm_sim::{DiskBackend, FileDisk, FileIoConfig, IoHandle};
use ecfrm_util::Rng;

use crate::bytes;

const ELEMENT: usize = 65536;
const BATCH_ELEMS: usize = 8;
const DEPTHS: [u32; 4] = [1, 8, 32, 128];

/// Shared element body: every element carries this pattern after an
/// 8-byte per-offset header, so verification is two slice compares
/// (memcmp speed) instead of regenerating 64 KiB per element — the
/// submitter thread must never become the bottleneck being measured.
fn body() -> &'static [u8] {
    static BODY: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BODY.get_or_init(|| bytes(ELEMENT, 7))
}

fn verify(batch: &[u64], got: &[Option<Vec<u8>>]) {
    for (o, g) in batch.iter().zip(got) {
        let g = g
            .as_deref()
            .unwrap_or_else(|| panic!("element {o} missing"));
        let intact = g[..8] == o.to_le_bytes() && g[8..] == body()[8..];
        assert!(intact, "element {o} read back wrong");
    }
}

/// One pass's row: throughput over the whole pass, latency per batch.
fn pass_row(backend: &str, qd: u32, batches: usize, secs: f64, mut lat: Vec<u64>, r: &mut Report) {
    lat.sort_unstable();
    r.row(cells! {
        "backend": backend,
        "qd": qd,
        "gb_per_s": (batches * BATCH_ELEMS * ELEMENT) as f64 / 1e9 / secs,
        "p50_us": pct(&lat, 0.50),
        "p99_us": pct(&lat, 0.99),
    });
}

/// Blocking backend: `qd` threads pull batches from a shared cursor;
/// the disk's file lock serializes the actual I/O.
fn blocking_pass(disk: &FileDisk, batches: &[&[u64]], qd: u32, r: &mut Report) {
    assert_eq!(
        disk.io_backend(),
        "blocking",
        "row label must match backend"
    );
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..qd)
            .map(|_| {
                s.spawn(|| {
                    let mut lat = Vec::new();
                    while let Some(batch) = batches.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t = Instant::now();
                        let got = disk.read_many(batch);
                        lat.push(t.elapsed().as_micros() as u64);
                        verify(batch, &got);
                    }
                    lat
                })
            })
            .collect();
        let joined = readers.into_iter().map(|h| h.join().expect("reader died"));
        joined.flatten().collect()
    });
    pass_row(
        "blocking",
        qd,
        batches.len(),
        t0.elapsed().as_secs_f64(),
        lat,
        r,
    );
}

/// Uring backend: one submitter keeps a window of batches in flight on
/// a ring of depth `qd`; completions are awaited oldest-first.
fn uring_pass(disk: &FileDisk, batches: &[&[u64]], qd: u32, r: &mut Report) {
    let ring = disk.io_backend().starts_with("uring");
    assert!(ring, "row label must match backend");
    // Enough concurrent batches to keep ~qd runs inside the ring.
    let window = (qd as usize).div_ceil(BATCH_ELEMS).max(1) * 2;
    let mut inflight: VecDeque<(Instant, &[u64], IoHandle)> = VecDeque::new();
    let mut lat: Vec<u64> = Vec::with_capacity(batches.len());
    let mut reap = |(t, batch, handle): (Instant, &[u64], IoHandle)| {
        let got = handle.wait();
        lat.push(t.elapsed().as_micros() as u64);
        verify(batch, &got);
    };
    let t0 = Instant::now();
    for &batch in batches {
        if inflight.len() == window {
            reap(inflight.pop_front().expect("window nonempty"));
        }
        inflight.push_back((Instant::now(), batch, disk.submit_read_many(batch)));
    }
    inflight.into_iter().for_each(&mut reap);
    pass_row(
        "uring",
        qd,
        batches.len(),
        t0.elapsed().as_secs_f64(),
        lat,
        r,
    );
}

pub fn run(quick: bool) -> Report {
    let n_elems: u64 = if quick { 1024 } else { 8192 };
    // An explicit ECFRM_FORCE_FILE_IO would silently re-route the
    // per-pass configs, mislabeling rows — run only the matching side.
    let forced = std::env::var("ECFRM_FORCE_FILE_IO").ok();
    let run_blocking = forced.as_deref() != Some("uring");
    let run_uring = forced.as_deref() != Some("blocking") && ecfrm_sim::uring::supported();
    let ran = match (run_blocking, run_uring) {
        (true, true) => "blocking+uring",
        (true, false) => "blocking",
        (false, true) => "uring",
        (false, false) => "none",
    };
    let shape = cells! {"elements": n_elems, "element": ELEMENT, "batch_elems": BATCH_ELEMS};
    let mut r = Report::new("file_io", quick, ran, shape);

    let path = std::env::temp_dir().join(format!("ecfrm-bench-fileio-{}", std::process::id()));
    {
        let ingest =
            FileDisk::create_with(&path, ELEMENT, FileIoConfig::blocking()).expect("create file");
        for o in 0..n_elems {
            let mut e = body().to_vec();
            e[..8].copy_from_slice(&o.to_le_bytes());
            ingest.write(o, e);
        }
        ingest.drop_cache().expect("flush ingest");
    }
    let mut rng = Rng::seed_from_u64(0xEC_F12);
    let mut order: Vec<u64> = (0..n_elems).collect();
    for qd in DEPTHS {
        let mut pass = |cfg, run: fn(&FileDisk, &[&[u64]], u32, &mut Report)| {
            rng.shuffle(&mut order);
            let batches: Vec<&[u64]> = order.chunks(BATCH_ELEMS).collect();
            let disk = FileDisk::open_with(&path, ELEMENT, cfg).expect("open file");
            disk.drop_cache().expect("drop cache");
            run(&disk, &batches, qd, &mut r);
        };
        if run_blocking {
            pass(FileIoConfig::blocking(), blocking_pass);
        }
        if run_uring {
            pass(FileIoConfig::uring(qd), uring_pass);
        }
    }
    let _ = std::fs::remove_file(&path);

    let at_qd32 = |backend| {
        let row = r.find(&[("backend", backend), ("qd", "32")]);
        row.and_then(|row| row.num("gb_per_s")).unwrap_or(f64::NAN)
    };
    let speedup_qd32 = at_qd32("uring") / at_qd32("blocking");
    r.row(cells! {"uring_supported": u64::from(run_uring), "speedup_qd32": speedup_qd32});
    r
}

/// The blocking rows are always there; uring rows, and the speed-up at
/// queue depth 32, exactly when the kernel can produce them.
pub fn check(r: &Report) -> Result<(), String> {
    r.find(&[("backend", "blocking"), ("qd", "32")])?;
    let summary = r.rows().last().ok_or("empty report")?;
    if summary.num("uring_supported")? > 0.0 {
        r.find(&[("backend", "uring"), ("qd", "32")])?;
        summary.num("speedup_qd32")?;
    }
    Ok(())
}
