//! Integrity microbenchmark: scrub throughput.
//!
//! ```text
//! scrub [--quick] [--no-json]
//! ```
//!
//! An RS(6,3) EC-FRM store runs over latency-injected `MemDisk`s (so
//! disk service time, not memcpy, dominates — as on a real array). The
//! merkle scrub (recompute each element's checksum, fold the leaf
//! hashes, compare one root per stripe) is timed against the decode
//! scrub (re-encode every stripe and compare parity), both over the
//! same sealed store, and both must come back clean. The JSON lands in
//! `BENCH_scrub.json`.
//!
//! What verify-on-read costs a foreground read is not measured here:
//! verification is not optional, so there is no unverified pass to
//! compare with. The `e2e` benchmark reports it per layer
//! (`store.read.verify_p50_us` beside `store.read.p50_us`, and the hash
//! alone as `integrity.footer_mb_s`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::ThreadedArray;
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 65536;
const DISK_LATENCY: Duration = Duration::from_micros(200);

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
    let stripes = if quick { 16 } else { 64 };

    let scheme = scheme();
    let store = ObjectStore::with_array(
        scheme.clone(),
        ELEMENT,
        ThreadedArray::with_latency(scheme.n_disks(), DISK_LATENCY),
    );
    store
        .put("obj", &payload(stripes, scheme.data_per_stripe()))
        .unwrap();
    store.flush();
    println!(
        "scrub: RS(6,3) ec-frm, {stripes} stripes x {ELEMENT} B elements, \
         disk latency {DISK_LATENCY:?}"
    );

    // Merkle (hash every cell, compare roots) vs decode (re-encode
    // every stripe, compare parity). Same bytes scanned either way —
    // one cell per disk per stripe.
    let cells_per_stripe = store
        .manifest(0)
        .map_or(scheme.data_per_stripe(), |m| m.n_elements());
    let scanned = (stripes * cells_per_stripe * ELEMENT) as f64;
    let t = Instant::now();
    let merkle = store.scrub().expect("merkle scrub failed");
    let merkle_s = t.elapsed().as_secs_f64().max(1e-9);
    assert!(
        merkle.is_clean(),
        "merkle scrub found corruption: {merkle:?}"
    );
    let t = Instant::now();
    let decode = store.scrub_decode().expect("decode scrub failed");
    let decode_s = t.elapsed().as_secs_f64().max(1e-9);
    assert!(
        decode.is_clean(),
        "decode scrub found corruption: {decode:?}"
    );
    let merkle_mb = scanned / 1e6 / merkle_s;
    let decode_mb = scanned / 1e6 / decode_s;
    println!(
        "\n  merkle scrub: {merkle_mb:.1} MB/s   decode scrub: {decode_mb:.1} MB/s   \
         (decode/merkle time ratio {:.2})",
        decode_s / merkle_s
    );

    if no_json {
        return;
    }
    let body = format!(
        "{{\n  \"bench\": \"scrub\",\n\
         \x20 \"shape\": {{\"stripes\": {stripes}, \"element\": {ELEMENT}, \
         \"disk_latency_us\": {}}},\n\
         \x20 \"scrub\": {{\"merkle_mb_per_s\": {}, \"decode_mb_per_s\": {}, \
         \"decode_over_merkle_time\": {}}}\n}}\n",
        DISK_LATENCY.as_micros(),
        json_f(merkle_mb),
        json_f(decode_mb),
        json_f(decode_s / merkle_s),
    );
    std::fs::write("BENCH_scrub.json", &body).expect("write BENCH_scrub.json");
    println!("wrote BENCH_scrub.json");
}
