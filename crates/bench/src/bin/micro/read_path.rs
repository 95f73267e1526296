//! The batched stripe read, local and remote, then a concurrency sweep.
//!
//! Reads the address pattern of EC-FRM stripe reads under RS(6,3) —
//! every disk serving one contiguous run of element offsets — as one
//! vectored request per disk: over a local `MemDisk` array (one
//! `read_many` per disk) and over a real loopback TCP cluster (one
//! `Read` frame per disk; the wire has one read op, so "batched" and
//! "coalesced" are the same request and the remote setting has one
//! row). The sweep then keeps `level` stripe-shaped reads in flight over
//! the multiplexed wire.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_bench::cells;
use ecfrm_bench::report::{pct, Report, Row};
use ecfrm_net::{Cluster, RemoteDiskConfig};
use ecfrm_sim::{Address, ThreadedArray};

use crate::{bytes, measure};

const N_DISKS: usize = 9; // RS(6,3): 6 data + 3 parity shards
const ELEMENT: usize = 4096;
const ROWS_PER_READ: u64 = 8; // elements per disk per stripe-shaped read

/// Small cells for the concurrency sweep: latency under load is about
/// request-count pipelining, not payload bandwidth.
const C_ELEMENT: usize = 64;
const C_OFFSETS: u64 = 64;

fn element(len: usize, d: usize, o: u64) -> Vec<u8> {
    bytes(len, d * 1_000 + o as usize)
}

/// Populate `array` with the stripe-read shape — every disk holds
/// offsets `0..ROWS_PER_READ`, the run EC-FRM's sequential layout
/// produces for the data rows of consecutive stripes — check that it
/// reads back, then time one batched read of all of it.
fn array_row(setting: &str, array: &ThreadedArray, budget: Duration, r: &mut Report) {
    let addrs: Vec<Address> = (0..ROWS_PER_READ)
        .flat_map(|o| (0..N_DISKS).map(move |d| (d, o)))
        .collect();
    array.write_batch(
        addrs
            .iter()
            .map(|&(d, o)| ((d, o), element(ELEMENT, d, o)))
            .collect(),
    );
    for (got, &(d, o)) in array.read_batch(&addrs).iter().zip(&addrs) {
        let want = element(ELEMENT, d, o);
        assert_eq!(got.as_deref(), Some(&want[..]), "disk {d} off {o}");
    }
    let secs = measure(budget, || {
        black_box(array.read_batch(black_box(&addrs)));
    });
    r.row(cells! {
        "setting": setting,
        "us_per_read": secs * 1e6,
        "mb_per_s": (addrs.len() * ELEMENT) as f64 / 1e6 / secs,
    });
}

/// `level` stripe-shaped reads in flight at once over the multiplexed
/// wire — each read is one single-element submission per disk,
/// completed by the demux engine as responses land. Latency is
/// submit-to-last-completion per read, stamped in the completion
/// callback.
fn concurrency_rows(levels: &[usize], r: &mut Report) {
    // Generous deadline: at 10k in-flight reads the *queueing* delay is
    // the thing being measured, and it must not trip the sweep.
    let cfg = RemoteDiskConfig::builder()
        .request_timeout(Duration::from_secs(30))
        .build();
    let cluster = Cluster::spawn_with(N_DISKS, &cfg).expect("spawn loopback cluster");
    let backends = cluster.backends();
    for (d, disk) in backends.iter().enumerate() {
        for o in 0..C_OFFSETS {
            disk.write(o, element(C_ELEMENT, d, o));
        }
        // Warm the connection: the sweep measures steady-state
        // submissions, not the first dial.
        assert!(disk.read(0).is_some());
    }

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
                disk.submit_read_many(&[o]).on_complete(move |got| {
                    assert!(got[0].is_some(), "concurrency read must not fail");
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let _ = tx.send((i, Instant::now()));
                    }
                });
            }
        }
        drop(tx);
        let mut lat_ns: Vec<u64> = rx
            .iter()
            .map(|(i, done)| done.duration_since(submit_at[i]).as_nanos() as u64)
            .collect();
        assert_eq!(lat_ns.len(), level, "every read completes");
        lat_ns.sort_unstable();
        r.row(cells! {
            "level": level,
            "p50_us": pct(&lat_ns, 0.50) as f64 / 1e3,
            "p99_us": pct(&lat_ns, 0.99) as f64 / 1e3,
        });
    }
}

pub fn run(quick: bool) -> Report {
    let budget = Duration::from_millis(if quick { 40 } else { 400 });
    let shape = cells! {
        "disks": N_DISKS, "rows": ROWS_PER_READ, "element": ELEMENT,
        "local_disk_latency_us": 20u64, "concurrency_element": C_ELEMENT,
    };
    let mut r = Report::new("read_path", quick, "mem", shape);

    // Local: thread-per-disk over MemDisk, with a small per-access
    // latency.
    let local = ThreadedArray::with_latency(N_DISKS, Duration::from_micros(20));
    array_row("local", &local, budget, &mut r);
    // Loopback remote: the per-disk run ships as one Read frame.
    let cfg = RemoteDiskConfig::builder().low_latency().build();
    let cluster = Cluster::spawn_with(N_DISKS, &cfg).expect("spawn loopback cluster");
    let remote = ThreadedArray::from_backends(cluster.backends());
    array_row("remote", &remote, budget, &mut r);

    let levels: &[usize] = if quick {
        &[1, 16, 128]
    } else {
        &[1, 64, 512, 2048, 10_000]
    };
    concurrency_rows(levels, &mut r);
    r
}

/// Both settings ran, and at modest concurrency — the first level of
/// the sweep with at least 128 reads in flight, which is where `--quick`
/// tops out — the completion engine keeps the tail bounded and tied to
/// the median: pipelining, not head-of-line stalls. (Deeper levels are
/// reported, not gated: at 10 000 in flight a read's latency is mostly
/// how early in the submission loop it was issued.)
pub fn check(r: &Report) -> Result<(), String> {
    r.find(&[("setting", "remote")])?;
    let level = |row: &Row| row.num("level").map_or(0, |l| l as u64);
    let rows = r.rows().iter().filter(|row| level(row) >= 128);
    let gate = rows
        .min_by_key(|row| level(row))
        .ok_or("the sweep never reaches 128 reads in flight")?;
    let (level, p50, p99) = (level(gate), gate.num("p50_us")?, gate.num("p99_us")?);
    // Generous absolute bound (CI runners are noisy); locally ~4 ms.
    ensure!(
        p99 < 250_000.0,
        "p99 {p99} us at {level} in flight, not below 250 ms"
    );
    ensure!(
        p99 <= 8.0 * p50,
        "p99 {p99} us exceeds 8x p50 {p50} us at {level} in flight"
    );
    Ok(())
}
