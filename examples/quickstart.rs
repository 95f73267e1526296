//! Quickstart: transform a code with EC-FRM and store/read data with it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the paper's pipeline end to end: pick a candidate code, bind it
//! to the EC-FRM layout, inspect a read plan, then use the full object
//! store — normal read, degraded read, disk recovery.

use std::sync::Arc;

use ecfrm::codes::{CandidateCode, LrcCode};
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::store::ObjectStore;

fn main() {
    // 1. A candidate code: the paper's running example, (6,2,2) LRC
    //    (6 data + 2 local parity + 2 global parity disks).
    let code: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
    println!("candidate code : {}", code.name());
    println!("disks          : {}", code.n());
    println!("fault tolerance: any {} disks\n", code.fault_tolerance());

    // 2. Bind it to layouts and compare the bottleneck of an 8-element
    //    read (paper Figure 3 vs Figure 7(a)).
    for scheme in [
        Scheme::builder(code.clone()).build(),
        Scheme::builder(code.clone())
            .layout(LayoutKind::Rotated)
            .build(),
        Scheme::builder(code.clone())
            .layout(LayoutKind::EcFrm)
            .build(),
    ] {
        let plan = scheme.normal_read_plan(0, 8);
        println!(
            "{:<18} 8-element read: max load {} across {} disks",
            scheme.name(),
            plan.max_load(),
            plan.disks_touched()
        );
    }
    println!();

    // 3. The full storage system over the EC-FRM form.
    let store = ObjectStore::new(
        Scheme::builder(code).layout(LayoutKind::EcFrm).build(),
        4096,
    );
    let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    let dataset = store.append(&payload);
    let read = store.read(dataset).expect("normal read").0;
    assert_eq!(read, payload);
    println!("stored + read back {} bytes (normal read ok)", read.len());

    // 4. Degraded read: fail a disk, read again — reconstruction is
    //    transparent.
    store.fail_disk(2).expect("fail disk 2");
    let read = store.read(dataset).expect("degraded read").0;
    assert_eq!(read, payload);
    println!("degraded read with disk 2 down: ok");

    // 5. Permanent loss: wipe the disk and rebuild it from survivors.
    let rebuilt = store.recover_disk(2).expect("recovery");
    println!("recovered disk 2: {rebuilt} elements rebuilt");
    let read = store.read(dataset).expect("read after recovery").0;
    assert_eq!(read, payload);
    println!("read after recovery: ok");
}
