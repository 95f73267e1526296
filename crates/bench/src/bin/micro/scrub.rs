//! Scrub throughput: the merkle scrub (recompute each element's
//! checksum, fold the leaf hashes, compare one root per stripe) against
//! the decode scrub (re-encode every stripe and compare parity), over
//! the same sealed sleeping-disk RS(6,3) store — the same bytes scanned
//! either way, and both must come back clean. The two passes alternate
//! which goes first, round by round, and each reports its median —
//! beside the share of that median the disks spent asleep (every disk
//! sleeps its service time per cell, the stripes of a pass go one
//! batched read after another), which is the part of a pass neither
//! hashing nor algebra can move.
//!
//! What verify-on-read costs a foreground read is not measured here:
//! verification is not optional, so there is no unverified pass to
//! compare with. `e2e` reports it per layer (`store.read.verify_p50_us`
//! beside `store.read.p50_us`, the hash alone as `integrity.footer_mb_s`).

use std::time::Duration;

use ecfrm_bench::cells;
use ecfrm_bench::report::{pct, Report};

use crate::{bytes, measure, sleepy_store, DISK_LATENCY};

const ELEMENT: usize = 65536;

pub fn run(quick: bool) -> Report {
    let (stripes, rounds) = if quick { (16, 5) } else { (64, 9) };
    let store = sleepy_store(ELEMENT);
    let data = bytes(stripes * store.scheme().data_per_stripe() * ELEMENT, 7);
    store.put("obj", &data).unwrap();
    store.flush();
    let cells_per_stripe = store.manifest(0).expect("sealed").n_elements();
    let scanned_mb = (stripes * cells_per_stripe * ELEMENT) as f64 / 1e6;
    let cells_per_disk = stripes * cells_per_stripe / store.scheme().n_disks();
    let sleep_us = cells_per_disk as u64 * DISK_LATENCY.as_micros() as u64;

    let merkle = || assert!(store.scrub().expect("merkle scrub failed").is_clean());
    let decode = || {
        assert!(store
            .scrub_decode()
            .expect("decode scrub failed")
            .is_clean())
    };
    let passes: [(&str, &dyn Fn()); 2] = [("merkle", &merkle), ("decode", &decode)];
    // `measure` with no budget is one warm pass, then one timed pass.
    let mut us = [Vec::new(), Vec::new()];
    for round in 0..rounds {
        for i in [round % 2, 1 - round % 2] {
            us[i].push((measure(Duration::ZERO, passes[i].1) * 1e6) as u64);
        }
    }
    us.iter_mut().for_each(|v| v.sort_unstable());

    let shape = cells! {
        "stripes": stripes, "element": ELEMENT, "rounds": rounds,
        "disk_latency_us": DISK_LATENCY.as_micros() as u64,
        "disk_sleep_ms_per_pass": sleep_us as f64 / 1e3,
    };
    let mut r = Report::new("scrub", quick, "mem", shape);
    for ((scrub, _), us) in passes.iter().zip(&us) {
        let median_us = pct(us, 0.50);
        r.row(cells! {
            "scrub": *scrub,
            "mb_per_s": scanned_mb / (median_us as f64 / 1e6),
            "median_ms": median_us as f64 / 1e3,
            "min_ms": us[0] as f64 / 1e3,
            "max_ms": us[us.len() - 1] as f64 / 1e3,
            "disk_sleep_share": sleep_us as f64 / median_us as f64,
        });
    }
    let ratio = pct(&us[1], 0.50) as f64 / pct(&us[0], 0.50) as f64;
    r.row(cells! {"decode_over_merkle_time": ratio});
    r
}

/// Both scrubs scanned the store and reported a throughput.
pub fn check(r: &Report) -> Result<(), String> {
    for scrub in ["merkle", "decode"] {
        let rate = r.find(&[("scrub", scrub)])?.num("mb_per_s")?;
        ensure!(rate > 0.0, "{scrub} scrub reports {rate} MB/s");
    }
    Ok(())
}
