//! Cross-crate integration tests: the full stack (gf → codes → layout →
//! core → sim → store) exercised over the code × layout matrix.

use std::sync::Arc;

use ecfrm::codes::{CandidateCode, LrcCode, RsCode, XorCode};
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::store::{ObjectMeta, ObjectStore, ReadOpts, StoreError};

fn all_codes() -> Vec<Arc<dyn CandidateCode>> {
    vec![
        Arc::new(RsCode::vandermonde(6, 3)),
        Arc::new(RsCode::cauchy(8, 4)),
        Arc::new(LrcCode::new(6, 2, 2)),
        Arc::new(LrcCode::new(10, 2, 4)),
        Arc::new(XorCode::new(5)),
    ]
}

fn all_forms(code: Arc<dyn CandidateCode>) -> Vec<Scheme> {
    vec![
        Scheme::builder(code.clone()).build(),
        Scheme::builder(code.clone())
            .layout(LayoutKind::Rotated)
            .build(),
        Scheme::builder(code.clone())
            .layout(LayoutKind::EcFrm)
            .build(),
        Scheme::builder(code)
            .layout(LayoutKind::Shuffled)
            .seed(3)
            .build(),
    ]
}

fn blob(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + seed as usize * 41 + 17) % 256) as u8)
        .collect()
}

#[test]
fn full_matrix_put_get() {
    for code in all_codes() {
        for scheme in all_forms(code) {
            let name = scheme.name();
            let store = ObjectStore::new(scheme, 256);
            let data = blob(40_000, 1);
            let obj = store.append(&data);
            assert_eq!(store.read(obj).unwrap().0, data, "{name}");
        }
    }
}

#[test]
fn full_matrix_degraded_get_single_failure() {
    for code in all_codes() {
        for scheme in all_forms(code) {
            let name = scheme.name();
            let n = scheme.n_disks();
            let store = ObjectStore::new(scheme, 128);
            let data = blob(20_000, 2);
            let obj = store.append(&data);
            for d in 0..n {
                store.fail_disk(d).unwrap();
                assert_eq!(store.read(obj).unwrap().0, data, "{name} disk {d}");
                store.heal_disk(d).unwrap();
            }
        }
    }
}

#[test]
fn full_matrix_recover_every_disk() {
    for code in all_codes() {
        for scheme in all_forms(code) {
            let name = scheme.name();
            let n = scheme.n_disks();
            let store = ObjectStore::new(scheme, 128);
            let data = blob(15_000, 3);
            let obj = store.append(&data);
            store.flush();
            for d in 0..n {
                store.fail_disk(d).unwrap();
                store.recover_disk(d).unwrap();
                assert_eq!(store.read(obj).unwrap().0, data, "{name} disk {d}");
            }
        }
    }
}

#[test]
fn max_tolerance_degraded_reads() {
    // Fail exactly `fault_tolerance` disks for each code and read through
    // the EC-FRM form.
    for code in all_codes() {
        let t = code.fault_tolerance();
        let n = code.n();
        let scheme = Scheme::builder(code).layout(LayoutKind::EcFrm).build();
        let name = scheme.name();
        let store = ObjectStore::new(scheme, 128);
        let data = blob(25_000, 4);
        let obj = store.append(&data);
        // A few adversarial subsets: leading, trailing, strided.
        let subsets: Vec<Vec<usize>> = vec![
            (0..t).collect(),
            (n - t..n).collect(),
            (0..t).map(|i| (i * 2) % n).collect(),
        ];
        for disks in subsets {
            let mut uniq = disks.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() < disks.len() {
                continue;
            }
            for &d in &disks {
                store.fail_disk(d).unwrap();
            }
            assert_eq!(store.read(obj).unwrap().0, data, "{name} failed {disks:?}");
            for &d in &disks {
                store.heal_disk(d).unwrap();
            }
        }
    }
}

#[test]
fn many_small_objects_across_stripes() {
    let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
        .layout(LayoutKind::EcFrm)
        .build();
    let store = ObjectStore::new(scheme, 64);
    let objects: Vec<(ObjectMeta, Vec<u8>)> = (0..100)
        .map(|i| {
            let data = blob(37 * (i + 1), i as u8);
            (store.append(&data), data)
        })
        .collect();
    // Interleave failures with reads.
    store.fail_disk(7).unwrap();
    for (i, (extent, data)) in objects.iter().enumerate().rev() {
        assert_eq!(&store.read(*extent).unwrap().0[..], &data[..], "o{i}");
    }
}

#[test]
fn range_reads_cross_stripe_boundaries() {
    let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build();
    let store = ObjectStore::new(scheme.clone(), 100);
    let stripe_bytes = scheme.data_per_stripe() * 100;
    let data = blob(stripe_bytes * 3 + 57, 5);
    let span = store.append(&data);
    // Ranges straddling each stripe boundary.
    for b in 1..=3usize {
        let mid = b * stripe_bytes;
        let (got, _) = store
            .read_extent(span, (mid - 50) as u64, 100, &ReadOpts::default())
            .unwrap();
        assert_eq!(&got[..], &data[mid - 50..mid + 50], "boundary {b}");
    }
}

#[test]
fn data_loss_is_an_error_never_garbage() {
    let scheme = Scheme::builder(Arc::new(XorCode::new(4))).build();
    let store = ObjectStore::new(scheme, 64);
    let data = blob(5_000, 6);
    let obj = store.append(&data);
    store.read(obj).unwrap();
    store.fail_disk(0).unwrap();
    store.fail_disk(1).unwrap();
    match store.read(obj) {
        Err(StoreError::DataLoss(_)) => {}
        other => panic!("expected DataLoss, got {other:?}"),
    }
}

#[test]
fn facade_reexports_work() {
    // The facade crate exposes the whole stack coherently.
    assert_eq!(ecfrm::VERSION, "0.1.0");
    let x = ecfrm::gf::Gf8;
    let _ = x;
    let m = ecfrm::gf::Matrix::<ecfrm::gf::Gf8>::identity(3);
    assert!(m.is_nonsingular());
    let l = ecfrm::layout::EcFrmLayout::new(10, 6);
    use ecfrm::layout::Layout;
    assert_eq!(l.rows_per_stripe(), 5);
}
