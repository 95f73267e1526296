//! Failure drill: the §II-D failure taxonomy exercised on a live store.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```
//!
//! Runs the three failure scenarios the paper's metrics target, over
//! EC-FRM-RS(6,3):
//!
//! 1. **transient failure** (>90% of data-centre failures — upgrades,
//!    reboots): fail a disk, serve degraded reads, heal it;
//! 2. **permanent single-disk loss** (99.75% of recoveries): wipe a disk
//!    and rebuild it group by group;
//! 3. **multi-disk loss up to the MDS limit**: three disks gone at once,
//!    reads still served, then all three rebuilt.

use std::sync::Arc;

use ecfrm::codes::{CandidateCode, RsCode};
use ecfrm::core::{DiskRecovery, LayoutKind, Scheme};
use ecfrm::store::ObjectStore;

fn main() {
    let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
    let scheme = Scheme::builder(code).layout(LayoutKind::EcFrm).build();
    println!("scheme: {} (tolerates any 3 of 9 disks)\n", scheme.name());

    let store = ObjectStore::new(scheme.clone(), 8192);
    let payload: Vec<u8> = (0..2_000_000u32)
        .map(|i| ((i * 7 + 13) % 256) as u8)
        .collect();
    let volume = store.append(&payload);
    store.flush();

    // --- Scenario 1: transient failure -------------------------------
    println!("scenario 1: transient failure of disk 5 (no data lost)");
    store.fail_disk(5).expect("fail");
    let plan = store.scheme().degraded_read_plan(0, 12, &[5]);
    println!(
        "  degraded 12-element read: max load {}, cost {:.3} (extra reads: {})",
        plan.max_load(),
        plan.cost(),
        plan.repair_fetched()
    );
    assert_eq!(store.read(volume).expect("degraded read").0, payload);
    store.heal_disk(5).expect("heal");
    println!("  disk healed, no rebuild needed\n");

    // --- Scenario 2: permanent single-disk loss ----------------------
    println!("scenario 2: permanent loss of disk 1");
    let recovery = DiskRecovery::plan(&scheme, 1, store.stats().stripes);
    println!(
        "  rebuild plan: {} elements from {} reads; per-disk read load {:?}",
        recovery.total_rebuilt(),
        recovery.total_reads(),
        recovery.read_load()
    );
    store.fail_disk(1).expect("fail");
    let rebuilt = store.recover_disk(1).expect("recover");
    println!("  rebuilt {rebuilt} elements; verifying reads...");
    assert_eq!(store.read(volume).expect("read").0, payload);
    println!("  ok\n");

    // --- Scenario 3: triple failure (MDS limit) ----------------------
    println!("scenario 3: disks 0, 4, 8 all lost (the RS(6,3) limit)");
    for d in [0, 4, 8] {
        store.fail_disk(d).expect("fail");
    }
    assert_eq!(store.read(volume).expect("triple-degraded read").0, payload);
    println!("  triple-degraded read ok; rebuilding one disk at a time");
    for d in [0, 4, 8] {
        let n = store.recover_disk(d).expect("recover");
        println!("  disk {d}: {n} elements rebuilt");
    }
    assert_eq!(store.read(volume).expect("read").0, payload);
    println!("  all healthy again — drill complete");
}
