//! The per-layer microbenchmarks, one driver:
//!
//! ```text
//! micro <kernels|read_path|repair|scrub|multitenant|file_io|all> [--quick]
//! ```
//!
//! Each bench is a module with a `run(quick) -> Report` and a
//! `check(&Report)`: the rows go to one [`Report`], which prints the
//! table and writes the JSON from the same cells, and the bench's
//! pass/fail rules run over that report at the end of every run, beside
//! the code that produced the rows. A violated rule exits non-zero, so
//! CI runs `micro <name> --quick` and reads nothing back. Only a full
//! run replaces the committed `BENCH_<name>.json`; a `--quick` report
//! lands under `target/micro/`.
//!
//! Every bench gates its own correctness first (bytes compared against
//! what was written, repairs verified, scrubs clean): a path that
//! returns wrong bytes panics before it can publish a number.

/// Fail a `check` with a formatted reason unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($why)+));
        }
    };
}

mod file_io;
mod kernels;
mod multitenant;
mod read_path;
mod repair;
mod scrub;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_bench::report::Report;
use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::ThreadedArray;
use ecfrm_store::ObjectStore;

/// A bench: its name, its run, and the rules its report must satisfy.
type Bench = (
    &'static str,
    fn(bool) -> Report,
    fn(&Report) -> Result<(), String>,
);

const BENCHES: [Bench; 6] = [
    ("kernels", kernels::run, kernels::check),
    ("read_path", read_path::run, read_path::check),
    ("repair", repair::run, repair::check),
    ("scrub", scrub::run, scrub::check),
    ("multitenant", multitenant::run, multitenant::check),
    ("file_io", file_io::run, file_io::check),
];

/// Service time of the sleeping `MemDisk`s under the store benches:
/// disk time, not memcpy, is the contended resource, as on a real array.
const DISK_LATENCY: Duration = Duration::from_micros(200);

/// Mean seconds per call of `f`: warm up for a fifth of `budget`, then
/// repeat until `budget` is spent — at least one call each, so a zero
/// budget times exactly one warm call.
fn measure(budget: Duration, mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    f();
    while warm.elapsed() < budget / 5 {
        f();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if start.elapsed() >= budget {
            return start.elapsed().as_secs_f64() / calls as f64;
        }
    }
}

/// `len` deterministic bytes, different per `seed`.
fn bytes(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed * 7 + 1) % 251) as u8)
        .collect()
}

/// The scheme every store bench runs: RS(6,3) in the EC-FRM layout.
fn rs63() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

/// An [`rs63`] store of `element`-byte cells over sleeping `MemDisk`s.
fn sleepy_store(element: usize) -> ObjectStore {
    let scheme = rs63();
    let array = ThreadedArray::with_latency(scheme.n_disks(), DISK_LATENCY);
    ObjectStore::with_array(scheme, element, array)
}

/// A counter of `store`'s recorder, 0 before its first increment.
fn counter(store: &ObjectStore, name: &str) -> u64 {
    let snap = store.recorder().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

fn main() {
    let names: Vec<&str> = BENCHES.iter().map(|b| b.0).collect();
    let usage = format!("usage: micro <{}|all> [--quick]", names.join("|"));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, quick) = match args.as_slice() {
        [name] => (name.as_str(), false),
        [name, flag] if flag == "--quick" => (name.as_str(), true),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Bench> = BENCHES
        .iter()
        .filter(|b| name == "all" || b.0 == name)
        .collect();
    if chosen.is_empty() {
        eprintln!("unknown bench {name:?}\n{usage}");
        std::process::exit(2);
    }
    let mut violated = false;
    for (name, run, check) in chosen {
        let report = run(quick);
        report.publish().expect("write the report");
        if let Err(why) = check(&report) {
            eprintln!("{name}: check failed: {why}");
            violated = true;
        }
    }
    if violated {
        std::process::exit(1);
    }
}

/// Every `check` against hand-built reports: the passing fixture, then
/// one edit per rule that must fail it — a rule no fixture can violate
/// guards nothing.
#[cfg(test)]
mod tests {
    use super::*;
    use ecfrm_bench::cells;
    use ecfrm_bench::report::{Cells, Value};

    type Edit<'a> = &'a dyn Fn(&mut Vec<Cells>);

    fn pins(name: &str, good: Vec<Cells>, edits: &[Edit]) {
        let check = BENCHES.iter().find(|b| b.0 == name).expect("a bench").2;
        let report = |rows: &[Cells]| {
            let mut r = Report::new("fixture", true, "mem", Vec::new());
            rows.iter().for_each(|row| r.row(row.clone()));
            r
        };
        assert_eq!(check(&report(&good)), Ok(()), "{name}: the good fixture");
        for (i, edit) in edits.iter().enumerate() {
            let mut rows = good.clone();
            edit(&mut rows);
            let verdict = check(&report(&rows));
            assert!(verdict.is_err(), "{name}: edit {i} passed the check");
        }
    }

    fn set(rows: &mut [Cells], row: usize, col: &str, v: impl Into<Value>) {
        let cell = rows[row].iter_mut().find(|c| c.0 == col).expect("a column");
        cell.1 = v.into();
    }

    #[test]
    fn kernels_needs_the_active_backends_speedup() {
        let active = ecfrm_gf::kernel::active().name;
        let good = vec![cells! {"speedup_mul_add_64k": active, "vs_scalar": 9.5}];
        pins(
            "kernels",
            good,
            &[&|r| set(r, 0, "speedup_mul_add_64k", "warp-drive"), &|r| {
                set(r, 0, "vs_scalar", f64::NAN)
            }],
        );
    }

    #[test]
    fn read_path_bounds_the_tail_at_128_in_flight() {
        let good = vec![
            cells! {"setting": "remote", "us_per_read": 300.0, "mb_per_s": 900.0},
            cells! {"level": 1u64, "p50_us": 900_000.0, "p99_us": 900_000.0},
            cells! {"level": 128u64, "p50_us": 5_000.0, "p99_us": 6_000.0},
            cells! {"level": 10_000u64, "p50_us": 1_000.0, "p99_us": 13_000.0},
        ];
        pins(
            "read_path",
            good,
            &[
                &|r| set(r, 0, "setting", "local"),
                &|r| {
                    set(r, 2, "level", 64u64);
                    set(r, 3, "level", 127u64);
                },
                &|r| {
                    set(r, 2, "p50_us", 240_000.0);
                    set(r, 2, "p99_us", 250_000.0);
                },
                &|r| set(r, 2, "p99_us", 40_001.0),
            ],
        );
    }

    #[test]
    fn repair_needs_the_limiter_to_lower_the_median() {
        let row = |rate: &str, limit: f64, p50: u64, wire: u64, ttr: f64| {
            cells! {
                "rate": rate, "rate_limit_bytes_per_s": limit, "fg_p50_us": p50,
                "wire_bytes": wire, "time_to_redundancy_ms": ttr,
            }
        };
        let good = vec![
            row("unlimited", f64::NAN, 900, 7, 80.0),
            row("40MB/s", 4e7, 950, 7, 200.0),
            row("10MB/s", 1e7, 500, 7, 800.0),
            row("combined", f64::NAN, 0, 5, 60.0),
        ];
        pins(
            "repair",
            good,
            &[
                &|r| set(r, 0, "rate", "flat-out"),
                &|r| set(r, 1, "rate_limit_bytes_per_s", f64::NAN),
                &|r| set(r, 2, "fg_p50_us", 900u64),
                &|r| set(r, 3, "wire_bytes", 0u64),
                &|r| set(r, 3, "time_to_redundancy_ms", 0.0),
            ],
        );
    }

    #[test]
    fn scrub_needs_both_throughputs() {
        let good = vec![
            cells! {"scrub": "merkle", "mb_per_s": 1200.0},
            cells! {"scrub": "decode", "mb_per_s": 1300.0},
        ];
        pins(
            "scrub",
            good,
            &[&|r| set(r, 0, "mb_per_s", 0.0), &|r| {
                set(r, 1, "mb_per_s", 0.0)
            }],
        );
    }

    #[test]
    fn multitenant_needs_admission_cache_and_a_held_flood() {
        let row = |phase: &str, p99: u64, hit: f64, throttled: u64| {
            cells! {
                "phase": phase, "web_p99_us": p99, "cache_hit_rate": hit,
                "scan_throttled": throttled, "scan_delayed": 0u64, "scan_ok": 64u64,
            }
        };
        let good = vec![
            row("solo", 700, 0.8, 0),
            row("cold-scan", 2000, 0.78, 0),
            row("mixed-off", 3500, 0.9, 0),
            row("mixed-on", 1400, 0.8, 3),
        ];
        pins(
            "multitenant",
            good,
            &[
                &|r| drop(r.remove(2)),
                &|r| set(r, 1, "cache_hit_rate", 0.76),
                &|r| set(r, 1, "scan_ok", 63u64),
                &|r| set(r, 3, "web_p99_us", 1401u64),
                &|r| set(r, 3, "cache_hit_rate", 0.5),
                &|r| set(r, 3, "scan_throttled", 0u64),
            ],
        );
        // The absolute floor: a quiet solo run does not tighten the bound.
        let quiet = vec![
            row("solo", 100, 0.8, 0),
            row("cold-scan", 1, 0.8, 0),
            row("mixed-off", 1, 0.8, 0),
            row("mixed-on", 1000, 0.8, 3),
        ];
        pins(
            "multitenant",
            quiet,
            &[&|r| set(r, 3, "web_p99_us", 1001u64)],
        );
    }

    #[test]
    fn file_io_needs_uring_rows_exactly_when_supported() {
        let row = |backend: &str| cells! {"backend": backend, "qd": 32u32, "gb_per_s": 1.0};
        let good = vec![
            row("blocking"),
            row("uring"),
            cells! {"uring_supported": 1u64, "speedup_qd32": 2.0},
        ];
        pins(
            "file_io",
            good,
            &[
                &|r| set(r, 0, "qd", 8u32),
                &|r| set(r, 1, "qd", 8u32),
                &|r| set(r, 2, "speedup_qd32", f64::NAN),
            ],
        );
        let unsupported = vec![
            row("blocking"),
            cells! {"uring_supported": 0u64, "speedup_qd32": f64::NAN},
        ];
        pins("file_io", unsupported, &[&|r| drop(r.remove(0))]);
    }
}
