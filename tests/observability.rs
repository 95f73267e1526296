//! Observability integration: the paper's Figure 8 mechanism as a
//! regression test. EC-FRM's whole point is that sequential reads spread
//! over all `n` disks instead of piling onto the `k` data disks, so the
//! store's `disk_load` board must show a strictly tighter max/mean
//! spread for EC-FRM than for the standard form — and the latency
//! histograms must actually populate on the read path.

use std::sync::Arc;

use ecfrm::codes::RsCode;
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::store::{ObjectStore, ReadOpts};

const ELEMENT: usize = 512;
const STRIPES: usize = 32;

/// Ingest one object and sweep it with sequential 8-element reads (the
/// paper's Figure 3/7 request shape), returning the store afterwards.
fn store_after_sequential_reads(kind: LayoutKind) -> ObjectStore {
    let code = Arc::new(RsCode::vandermonde(6, 3));
    let scheme = Scheme::builder(code).layout(kind).build();
    let store = ObjectStore::new(scheme, ELEMENT);
    let total = ELEMENT * 6 * STRIPES;
    let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let obj = store.append(&data);
    let window = (8 * ELEMENT) as u64;
    let mut off = 0u64;
    while off + window <= total as u64 {
        let (got, _) = store
            .read_extent(obj, off, window, &ReadOpts::default())
            .unwrap();
        assert_eq!(got.len(), window as usize);
        off += window;
    }
    store
}

fn load_imbalance(store: &ObjectStore) -> f64 {
    let snap = store.recorder().snapshot();
    let board = snap.boards.get("disk_load").expect("disk_load board");
    assert!(board.max_elements() > 0, "reads must register disk load");
    board.imbalance()
}

#[test]
fn ecfrm_load_spread_strictly_tighter_than_standard() {
    let std_imb = load_imbalance(&store_after_sequential_reads(LayoutKind::Standard));
    let ec_imb = load_imbalance(&store_after_sequential_reads(LayoutKind::EcFrm));
    // Standard reads never touch the m parity disks, so max/mean is at
    // least n/k = 1.5 here; EC-FRM spreads the same reads evenly.
    assert!(std_imb >= 1.4, "standard imbalance {std_imb:.3}");
    assert!(
        ec_imb < std_imb,
        "EC-FRM imbalance {ec_imb:.3} must be strictly tighter than standard {std_imb:.3}"
    );
    assert!(
        ec_imb < 1.2,
        "EC-FRM spread should be near-even, got {ec_imb:.3}"
    );
}

#[test]
fn read_path_populates_latency_histograms() {
    let store = store_after_sequential_reads(LayoutKind::EcFrm);
    let snap = store.recorder().snapshot();

    let reads = snap.counters.get("reads").copied().unwrap_or(0);
    assert!(reads > 0, "read counter must count the sweep");

    for name in ["plan_us", "read_us"] {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name} histogram missing"));
        assert_eq!(h.count, reads, "{name} records once per read");
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max);
    }

    // The flattened wire/JSON form carries the percentile columns.
    let flat = snap.flatten();
    for key in ["read_us.p50", "read_us.p95", "read_us.p99", "read_us.max"] {
        assert!(
            flat.iter().any(|(k, _)| k == key),
            "flatten() missing {key}"
        );
    }
    let json = snap.to_json();
    assert!(json.contains("disk_load") && json.contains("read_us"));
}
