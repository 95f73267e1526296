//! Read-path microbenchmark: the batched stripe read, local and remote.
//!
//! ```text
//! read_path [--quick] [--no-json]
//! ```
//!
//! Reads the address pattern of EC-FRM stripe reads under RS(6,3) —
//! every disk serving one contiguous run of element offsets — as one
//! vectored request per disk: over a local `MemDisk` array (one
//! `read_many` per disk) and over a real loopback TCP cluster (one
//! `Read` frame per disk). The per-element baseline this path replaced
//! in PR 4 has done its job and is gone; and since the wire has one read
//! op, "batched" and "coalesced" are the same request, so the remote
//! setting has one row. A concurrency sweep over the multiplexed wire
//! follows. The JSON lands in `BENCH_read_path.json`.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_net::{Cluster, RemoteDiskConfig};
use ecfrm_sim::{Address, ThreadedArray};

const N_DISKS: usize = 9; // RS(6,3): 6 data + 3 parity shards
const ELEMENT: usize = 4096;
const ROWS_PER_READ: u64 = 8; // elements per disk per stripe-shaped read

fn element(d: usize, o: u64) -> Vec<u8> {
    let seed = d * 1_000 + o as usize;
    (0..ELEMENT)
        .map(|i| ((i * 131 + seed) % 256) as u8)
        .collect()
}

/// The stripe-read address list: every disk serves offsets `0..rows`
/// as one ascending run, the shape EC-FRM's sequential layout produces
/// for the data rows of consecutive stripes.
fn stripe_addrs(rows: u64) -> Vec<Address> {
    let mut addrs = Vec::with_capacity(N_DISKS * rows as usize);
    for o in 0..rows {
        for d in 0..N_DISKS {
            addrs.push((d, o));
        }
    }
    addrs
}

fn populate(array: &ThreadedArray, rows: u64) {
    let items = stripe_addrs(rows)
        .into_iter()
        .map(|(d, o)| ((d, o), element(d, o)))
        .collect();
    array.write_batch(items);
}

/// Mean seconds per call of `f` after a warm-up pass.
fn measure(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(5).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn check(got: &[Option<Vec<u8>>], addrs: &[Address]) {
    assert_eq!(got.len(), addrs.len());
    for (e, &(d, o)) in got.iter().zip(addrs) {
        assert_eq!(e.as_deref(), Some(&element(d, o)[..]), "disk {d} off {o}");
    }
}

struct Row {
    setting: &'static str,
    secs_per_read: f64,
}

impl Row {
    fn mbps(&self) -> f64 {
        (N_DISKS as u64 * ROWS_PER_READ * ELEMENT as u64) as f64 / 1e6 / self.secs_per_read
    }
}

fn bench_array(setting: &'static str, array: &ThreadedArray, iters: u32) -> Row {
    let addrs = stripe_addrs(ROWS_PER_READ);
    // Correctness gate: never publish numbers for a path that returns
    // wrong bytes.
    check(&array.read_batch(&addrs), &addrs);
    let secs_per_read = measure(iters, || {
        black_box(array.read_batch(black_box(&addrs)));
    });
    let row = Row {
        setting,
        secs_per_read,
    };
    println!(
        "  {setting:<16} {:>9.1} us/read {:>9.1} MB/s",
        secs_per_read * 1e6,
        row.mbps(),
    );
    row
}

/// One concurrency level's latency summary.
struct ConcRow {
    level: usize,
    p50_us: f64,
    p99_us: f64,
}

/// Small cells for the concurrency sweep: latency under load is about
/// request-count pipelining, not payload bandwidth.
const C_ELEMENT: usize = 64;
const C_OFFSETS: u64 = 64;

/// The concurrency axis: `level` stripe-shaped reads in flight at once
/// over the multiplexed wire — each read is one single-element
/// submission per disk, completed by the demux engine as responses
/// land. Latency is submit-to-last-completion per read, stamped in the
/// completion callback.
fn bench_concurrency(levels: &[usize]) -> Vec<ConcRow> {
    // Generous deadline: at 10k in-flight reads the *queueing* delay is
    // the thing being measured, and it must not trip the sweep.
    let cfg = RemoteDiskConfig::builder()
        .request_timeout(Duration::from_secs(30))
        .build();
    let cluster = Cluster::spawn_with(N_DISKS, &cfg).unwrap();
    let backends = cluster.backends();
    for (d, disk) in backends.iter().enumerate() {
        for o in 0..C_OFFSETS {
            let seed = d * 1_000 + o as usize;
            disk.write(
                o,
                (0..C_ELEMENT)
                    .map(|i| ((i * 131 + seed) % 256) as u8)
                    .collect(),
            );
        }
    }
    // Warm each client's connection so the sweep measures steady-state
    // submissions, not the first dial.
    for disk in &backends {
        assert!(disk.read(0).is_some());
    }

    let mut out = Vec::new();
    for &level in levels {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
        let mut submit_at = Vec::with_capacity(level);
        for i in 0..level {
            let o = i as u64 % C_OFFSETS;
            let remaining = Arc::new(AtomicUsize::new(N_DISKS));
            submit_at.push(Instant::now());
            for disk in &backends {
                let remaining = Arc::clone(&remaining);
                let tx = tx.clone();
                disk.submit_read_many(&[o]).on_complete(move |r| {
                    assert!(r[0].is_some(), "concurrency read must not fail");
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = tx.send((i, Instant::now()));
                    }
                });
            }
        }
        drop(tx);
        let mut lat_us = vec![0.0f64; level];
        for (i, done) in rx {
            lat_us[i] = done.duration_since(submit_at[i]).as_secs_f64() * 1e6;
        }
        lat_us.sort_by(f64::total_cmp);
        let p50 = lat_us[(level - 1) / 2];
        let p99 = lat_us[(((level - 1) as f64) * 0.99).round() as usize];
        println!("  concurrency {level:>6} in-flight: p50 {p50:>10.1} us   p99 {p99:>10.1} us");
        out.push(ConcRow {
            level,
            p50_us: p50,
            p99_us: p99,
        });
    }
    out
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
    let (local_iters, remote_iters) = if quick { (200, 30) } else { (2_000, 200) };

    println!(
        "read_path: RS(6,3) stripe reads, {N_DISKS} disks x {ROWS_PER_READ} \
         elements x {ELEMENT} B"
    );
    // Local: thread-per-disk over MemDisk, with a small per-access
    // latency.
    let local = ThreadedArray::with_latency(N_DISKS, Duration::from_micros(20));
    populate(&local, ROWS_PER_READ);
    let mut rows = vec![bench_array("local", &local, local_iters)];

    // Loopback remote: the per-disk run ships as one Read frame.
    let cluster =
        Cluster::spawn_with(N_DISKS, &RemoteDiskConfig::builder().low_latency().build()).unwrap();
    let remote = ThreadedArray::from_backends(cluster.backends());
    populate(&remote, ROWS_PER_READ);
    rows.push(bench_array("remote", &remote, remote_iters));
    let frames: u64 = (0..N_DISKS)
        .map(|i| {
            let stats = cluster.client(i).stats().unwrap();
            stats
                .iter()
                .find(|(k, _)| k == "serve.read")
                .map_or(0, |(_, v)| *v)
        })
        .sum();
    println!("  the remote reads shipped {frames} Read frames in all, one per disk per read");

    // The concurrency axis: in-flight stripe reads over the mux engine.
    println!("\nconcurrency sweep ({C_ELEMENT} B cells, mux transport):");
    let levels: &[usize] = if quick {
        &[1, 16, 128]
    } else {
        &[1, 64, 512, 2048, 10_000]
    };
    let conc = bench_concurrency(levels);

    if no_json {
        return;
    }
    let mut body = String::from("{\n  \"bench\": \"read_path\",\n");
    body.push_str(
        "  \"note\": \"one read op on the wire (protocol v2): the per_element baseline is \
         deleted, and remote batched and coalesced are the same Read frame, so one row\",\n",
    );
    body.push_str(&format!(
        "  \"shape\": {{\"disks\": {N_DISKS}, \"rows\": {ROWS_PER_READ}, \"element\": {ELEMENT}}},\n"
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"setting\": \"{}\", \"strategy\": \"batched\", \"us_per_read\": {}, \"mb_per_s\": {}}}{}\n",
            r.setting,
            json_f(r.secs_per_read * 1e6),
            json_f(r.mbps()),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"concurrency\": [\n");
    for (i, c) in conc.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"level\": {}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            c.level,
            json_f(c.p50_us),
            json_f(c.p99_us),
            if i + 1 == conc.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write("BENCH_read_path.json", &body).expect("write BENCH_read_path.json");
    println!("wrote BENCH_read_path.json");
}
