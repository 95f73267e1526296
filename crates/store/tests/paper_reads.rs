//! Figures 8 and 9 through the store, in counts: the paper's normal
//! reads (§VI-B: uniform start, 1–20 elements) and degraded reads
//! (§VI-C: the same, with one uniformly chosen failed disk) replayed
//! through `ObjectStore::read`, for the standard, rotated and EC-FRM
//! layouts of RS(6,3) and LRC(6,2,2). Every read must be one round that
//! asks each disk for exactly the cells its plan gives that disk. The
//! figures score a read by its plan's per-disk loads alone, so the
//! store's gain is then the model's gain, cell for cell.

use std::sync::Arc;

use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::{DegradedReadWorkload, NormalReadWorkload, ReadRequest};
use ecfrm_store::{ObjectMeta, ObjectStore, Outcome};

const ELEMENT: usize = 32;
const ADDRESS_SPACE: u64 = 600;
const TRIALS: usize = 300;

/// Read `req` through `store` and check its record against `plan_load`,
/// the per-disk load of the plan the request should run on.
fn check(store: &ObjectStore, data: &[u8], req: ReadRequest, plan_load: &[usize]) {
    let scheme = store.scheme().name();
    let es = ELEMENT as u64;
    let extent = ObjectMeta {
        offset: req.start * es,
        len: req.size as u64 * es,
    };
    let (bytes, stats) = store.read(extent).unwrap();
    let span = extent.offset as usize..(extent.offset + extent.len) as usize;
    assert!(bytes == data[span], "{scheme} {req:?}: wrong bytes");
    let [round] = &stats.rounds[..] else {
        panic!("{scheme} {req:?}: {} rounds", stats.rounds.len())
    };
    let mut cells = vec![0; plan_load.len()];
    for &(asked, outcome) in &round.disks {
        assert_eq!(outcome, Outcome::Verified, "{scheme} {req:?}: {asked:?}");
        cells[asked.disk] = asked.cells;
    }
    for (disk, (&got, &want)) in cells.iter().zip(plan_load).enumerate() {
        assert_eq!(got, want, "{scheme} {req:?}: disk {disk} cells");
    }
}

#[test]
fn every_paper_read_is_one_round_of_its_plans_cells() {
    let codes: [Arc<dyn CandidateCode>; 2] = [
        Arc::new(RsCode::vandermonde(6, 3)),
        Arc::new(LrcCode::new(6, 2, 2)),
    ];
    let layouts = [LayoutKind::Standard, LayoutKind::Rotated, LayoutKind::EcFrm];
    for code in codes {
        for layout in layouts {
            let scheme = Scheme::builder(Arc::clone(&code)).layout(layout).build();
            let n_disks = scheme.n_disks();
            let store = ObjectStore::new(scheme, ELEMENT);
            let elements = ADDRESS_SPACE as usize + 20;
            let data: Vec<u8> = (0..elements * ELEMENT).map(|i| (i * 7 + 3) as u8).collect();
            store.append(&data);
            store.flush();

            let normal = NormalReadWorkload {
                trials: TRIALS,
                ..NormalReadWorkload::paper(ADDRESS_SPACE)
            };
            for req in normal.generate(8) {
                let plan = store.scheme().normal_read_plan(req.start, req.size);
                check(&store, &data, req, &plan.per_disk_load());
            }

            let degraded = DegradedReadWorkload {
                trials: TRIALS,
                ..DegradedReadWorkload::paper(ADDRESS_SPACE, n_disks)
            };
            for req in degraded.generate(9) {
                let failed = req.failed_disk.expect("a degraded trial fails a disk");
                let plan = store
                    .scheme()
                    .degraded_read_plan(req.start, req.size, &[failed]);
                store.fail_disk(failed).unwrap();
                check(&store, &data, req, &plan.per_disk_load());
                store.heal_disk(failed).unwrap();
            }
        }
    }
}
