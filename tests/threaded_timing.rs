//! Physical timing test: the paper's bottleneck argument demonstrated in
//! wall-clock time on the threaded engine, not just in the analytic
//! model.
//!
//! Every disk sleeps a fixed latency per element read. An 8-element read
//! over standard (6,2,2) LRC double-loads a disk (Figure 3a) and must
//! take ≥ 2 latencies; the same read over EC-FRM-LRC loads every disk at
//! most once (Figure 7a) and completes in ~1 latency. Generous margins
//! keep the test robust on loaded machines.

use std::sync::Arc;
use std::time::Duration;

use ecfrm::codes::LrcCode;
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::sim::ThreadedArray;
use ecfrm::store::{ObjectMeta, ObjectStore};

const LATENCY: Duration = Duration::from_millis(20);
const ELEMENT: usize = 1024;

fn store_with_latency(scheme: Scheme) -> ObjectStore {
    let array = ThreadedArray::with_latency(scheme.n_disks(), LATENCY);
    ObjectStore::with_array(scheme, ELEMENT, array)
}

/// An extent spanning exactly 8 elements, starting at element 0, and
/// its bytes.
fn eight_element_object(store: &ObjectStore) -> (ObjectMeta, Vec<u8>) {
    let data: Vec<u8> = (0..8 * ELEMENT).map(|i| (i % 251) as u8).collect();
    let eight = store.append(&data);
    store.flush();
    (eight, data)
}

#[test]
fn standard_layout_pays_two_latencies() {
    let code = Arc::new(LrcCode::new(6, 2, 2));
    let store = store_with_latency(Scheme::builder(code).build());
    let (eight, data) = eight_element_object(&store);
    let (bytes, stats) = store.read(eight).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(stats.max_disk_load, 2, "Figure 3(a): double-loaded disk");
    assert!(
        stats.elapsed >= 2 * LATENCY,
        "two same-disk accesses must serialise: {:?}",
        stats.elapsed
    );
}

#[test]
fn ecfrm_layout_pays_one_latency() {
    let code = Arc::new(LrcCode::new(6, 2, 2));
    let store = store_with_latency(Scheme::builder(code).layout(LayoutKind::EcFrm).build());
    let (eight, data) = eight_element_object(&store);
    let (bytes, stats) = store.read(eight).unwrap();
    assert_eq!(bytes, data);
    assert_eq!(stats.max_disk_load, 1, "Figure 7(a): no disk loaded twice");
    assert!(
        stats.elapsed >= LATENCY,
        "physics: at least one access happened"
    );
    assert!(
        stats.elapsed < 2 * LATENCY,
        "all 8 accesses should overlap across 8 disks: {:?}",
        stats.elapsed
    );
}

#[test]
fn ecfrm_is_faster_in_wall_clock_across_many_reads() {
    let code = Arc::new(LrcCode::new(6, 2, 2));
    let std_store = store_with_latency(Scheme::builder(code.clone()).build());
    let ec_store = store_with_latency(Scheme::builder(code).layout(LayoutKind::EcFrm).build());
    let (e1, d1) = eight_element_object(&std_store);
    let (e2, d2) = eight_element_object(&ec_store);
    assert_eq!(d1, d2);

    let mut std_total = Duration::ZERO;
    let mut ec_total = Duration::ZERO;
    for _ in 0..5 {
        std_total += std_store.read(e1).unwrap().1.elapsed;
        ec_total += ec_store.read(e2).unwrap().1.elapsed;
    }
    assert!(
        ec_total < std_total,
        "EC-FRM {ec_total:?} should beat standard {std_total:?} in wall clock"
    );
}

#[test]
fn degraded_read_wall_clock_still_bounded() {
    // With one disk down, the EC-FRM degraded read of 8 elements still
    // finishes in a small number of latencies (repair reads overlap with
    // demand reads on distinct disks).
    let code = Arc::new(LrcCode::new(6, 2, 2));
    let store = store_with_latency(Scheme::builder(code).layout(LayoutKind::EcFrm).build());
    let (eight, data) = eight_element_object(&store);
    store.fail_disk(0).unwrap();
    let (bytes, stats) = store.read(eight).unwrap();
    assert_eq!(bytes, data);
    assert!(stats.degraded);
    assert!(
        stats.elapsed < 4 * LATENCY,
        "degraded read over-serialised: {:?} (max load {})",
        stats.elapsed,
        stats.max_disk_load
    );
}
