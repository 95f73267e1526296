//! Randomised tests over the whole stack.
//!
//! Property-style: seeded pseudo-random sweeps of codes, layouts, data
//! and failure patterns (fixed seeds, so failures replay exactly); the
//! properties are the paper's structural invariants:
//!
//! * layout mappings are bijective and group-column-disjoint for ANY
//!   `(n, k)`, not just Table I's;
//! * encode→erase→decode is the identity whenever the erasure pattern is
//!   within tolerance;
//! * read planners fetch what they claim and never touch failed disks;
//! * the store's byte interface is exact for arbitrary object sizes and
//!   ranges.

use std::collections::HashMap;
use std::sync::Arc;

use ecfrm::codes::{CandidateCode, LrcCode, RsCode, XorCode};
use ecfrm::core::{LayoutKind, ReadCtx, Scheme};
use ecfrm::layout::{EcFrmLayout, Layout, Loc, RotatedLayout, ShuffledLayout, StandardLayout};
use ecfrm::store::{ObjectStore, ReadOpts};
use ecfrm::util::Rng;

/// Any valid (n, k) pair with n ≤ 24 (keeps exhaustive sub-checks fast).
fn nk(rng: &mut Rng) -> (usize, usize) {
    let n = rng.random_range(2usize..=24);
    (n, rng.random_range(1usize..n))
}

/// A layout of any kind over a random (n, k).
fn any_layout(rng: &mut Rng) -> Box<dyn Layout> {
    let (n, k) = nk(rng);
    match rng.random_range(0usize..4) {
        0 => Box::new(StandardLayout::new(n, k)),
        1 => Box::new(RotatedLayout::new(n, k)),
        2 => Box::new(EcFrmLayout::new(n, k)),
        _ => Box::new(ShuffledLayout::new(n, k, rng.random())),
    }
}

/// A small candidate code (RS, Cauchy-RS, LRC or XOR).
fn any_code(rng: &mut Rng) -> Arc<dyn CandidateCode> {
    match rng.random_range(0usize..4) {
        0 => {
            let k = rng.random_range(2usize..=8);
            let m = rng.random_range(1usize..=4);
            Arc::new(RsCode::vandermonde(k, m))
        }
        1 => {
            let k = rng.random_range(2usize..=8);
            let m = rng.random_range(1usize..=4);
            Arc::new(RsCode::cauchy(k, m))
        }
        2 => {
            let g = rng.random_range(1usize..=4);
            let l = rng.random_range(1usize..=2);
            let m = rng.random_range(1usize..=3);
            Arc::new(LrcCode::new(g * l, l, m))
        }
        _ => Arc::new(XorCode::new(rng.random_range(2usize..=8))),
    }
}

fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xFF) as u8
        })
        .collect()
}

/// data_location / element_at are mutually inverse for every layout.
#[test]
fn layout_data_mapping_inverts() {
    let mut rng = Rng::seed_from_u64(0x1A1);
    for _ in 0..64 {
        let layout = any_layout(&mut rng);
        for _ in 0..32 {
            let idx = rng.random_range(0u64..10_000);
            let loc = layout.data_location(idx);
            assert!(loc.disk < layout.n_disks());
            let se = layout.element_at(loc);
            let (stripe, row, pos) = layout.data_coordinates(idx);
            assert_eq!((se.stripe, se.row, se.pos), (stripe, row, pos));
        }
    }
}

/// parity_location / element_at are mutually inverse.
#[test]
fn layout_parity_mapping_inverts() {
    let mut rng = Rng::seed_from_u64(0x1A2);
    for _ in 0..64 {
        let layout = any_layout(&mut rng);
        let stripe = rng.random_range(0u64..200);
        let n = layout.code_n();
        let k = layout.code_k();
        for row in 0..layout.rows_per_stripe() {
            for p in 0..n - k {
                let loc = layout.parity_location(stripe, row, p);
                let se = layout.element_at(loc);
                assert_eq!((se.stripe, se.row, se.pos), (stripe, row, k + p));
            }
        }
    }
}

/// Every candidate row of every layout occupies n distinct disks — the
/// property Lemma 1's fault-tolerance argument rests on.
#[test]
fn rows_hit_distinct_disks() {
    let mut rng = Rng::seed_from_u64(0x1A3);
    for _ in 0..64 {
        let layout = any_layout(&mut rng);
        let stripe = rng.random_range(0u64..50);
        for row in 0..layout.rows_per_stripe() {
            let locs = layout.row_locations(stripe, row);
            let mut disks: Vec<usize> = locs.iter().map(|l| l.disk).collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), layout.code_n());
        }
    }
}

/// Distinct data elements never collide physically.
#[test]
fn data_locations_injective() {
    let mut rng = Rng::seed_from_u64(0x1A4);
    for _ in 0..64 {
        let layout = any_layout(&mut rng);
        let base = rng.random_range(0u64..5_000);
        let span = (layout.data_per_stripe() * 2) as u64;
        let mut seen = std::collections::HashSet::new();
        for idx in base..base + span {
            assert!(seen.insert(layout.data_location(idx)), "collision at {idx}");
        }
    }
}

/// Encode → erase within tolerance → decode restores everything, for
/// every code.
#[test]
fn code_roundtrip_within_tolerance() {
    let mut rng = Rng::seed_from_u64(0x1A5);
    for _ in 0..64 {
        let code = any_code(&mut rng);
        let seed: u64 = rng.random();
        let len = rng.random_range(1usize..128);
        let k = code.k();
        let n = code.n();
        let t = code.fault_tolerance();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| xorshift_bytes(seed.wrapping_add(i as u64), len))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; code.m()];
        code.encode(&refs, &mut parity);
        let full: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        // Erase t random positions.
        let mut shards = full.clone();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &e in &order[..t] {
            shards[e] = None;
        }
        code.decode(&mut shards, len).unwrap();
        for (i, want) in full.iter().enumerate() {
            assert_eq!(shards[i].as_ref(), want.as_ref());
        }
    }
}

/// Degraded plans never touch failed disks and always cover the
/// requested elements.
#[test]
fn degraded_plans_sound() {
    let mut rng = Rng::seed_from_u64(0x1A6);
    for _ in 0..48 {
        let code = any_code(&mut rng);
        let start = rng.random_range(0u64..2_000);
        let count = rng.random_range(1usize..24);
        let n = code.n();
        let failed = rng.random_range(0usize..n);
        for scheme in [
            Scheme::builder(code.clone()).build(),
            Scheme::builder(code.clone())
                .layout(LayoutKind::Rotated)
                .build(),
            Scheme::builder(code.clone())
                .layout(LayoutKind::EcFrm)
                .build(),
        ] {
            let plan = scheme.degraded_read_plan(start, count, &[failed]);
            assert!(plan.unreadable.is_empty());
            for f in &plan.fetches {
                assert_ne!(f.loc.disk, failed);
            }
            // No duplicate fetches.
            let mut locs: Vec<Loc> = plan.fetches.iter().map(|f| f.loc).collect();
            let total = locs.len();
            locs.sort_unstable();
            locs.dedup();
            assert_eq!(locs.len(), total, "duplicate fetch in plan");
            // Demand fetches = requested elements not on the failed disk.
            let lost = (0..count as u64)
                .filter(|i| scheme.layout().data_location(start + i).disk == failed)
                .count();
            let demand = plan
                .fetches
                .iter()
                .filter(|f| f.purpose == ecfrm::core::Purpose::Demand)
                .count();
            assert_eq!(demand, count - lost);
        }
    }
}

/// Executing a degraded plan and assembling yields the original data.
#[test]
fn degraded_execution_correct() {
    let mut rng = Rng::seed_from_u64(0x1A7);
    for _ in 0..48 {
        let code = any_code(&mut rng);
        let seed: u64 = rng.random();
        let start_frac: f64 = rng.random_range(0.0..1.0);
        let count = rng.random_range(1usize..16);
        let scheme = Scheme::builder(code).layout(LayoutKind::EcFrm).build();
        let dps = scheme.data_per_stripe();
        let stripes = 3u64;
        let len = 16usize;
        let total = stripes as usize * dps;
        let data: Vec<Vec<u8>> = (0..total)
            .map(|i| xorshift_bytes(seed.wrapping_add(i as u64), len))
            .collect();
        let mut all: HashMap<Loc, Vec<u8>> = HashMap::new();
        for s in 0..stripes {
            let refs: Vec<&[u8]> = data[s as usize * dps..(s as usize + 1) * dps]
                .iter()
                .map(|v| v.as_slice())
                .collect();
            for (loc, bytes) in scheme.encode_stripe(s, &refs).iter() {
                all.insert(loc, bytes.to_vec());
            }
        }
        let count = count.min(total); // tiny codes have small stripes
        let max_start = (total - count) as u64;
        let start = (start_frac * max_start as f64) as u64;
        let failed = rng.random_range(0usize..scheme.n_disks());
        let plan = scheme.degraded_read_plan(start, count, &[failed]);
        let fetched: HashMap<Loc, Vec<u8>> = plan
            .fetches
            .iter()
            .map(|f| (f.loc, all[&f.loc].clone()))
            .collect();
        let got = scheme
            .assemble_read(start, count, &fetched, ReadCtx::default())
            .unwrap();
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &data[start as usize + i]);
        }
    }
}

/// The store's byte interface is exact for arbitrary sizes/ranges.
#[test]
fn store_roundtrip_bytes() {
    let mut rng = Rng::seed_from_u64(0x1A8);
    for _ in 0..16 {
        let len = rng.random_range(0usize..30_000);
        let range_frac: f64 = rng.random_range(0.0..1.0);
        let range_len_frac: f64 = rng.random_range(0.0..1.0);
        let element_size = [64usize, 100, 256, 1000][rng.random_range(0usize..4)];
        let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
            .layout(LayoutKind::EcFrm)
            .build();
        let store = ObjectStore::new(scheme, element_size);
        let data: Vec<u8> = (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect();
        let obj = store.append(&data);
        assert_eq!(&store.read(obj).unwrap().0[..], &data[..]);
        if len > 0 {
            let start = (range_frac * (len - 1) as f64) as u64;
            let max_len = len as u64 - start;
            let rlen = (range_len_frac * max_len as f64) as u64;
            let (got, _) = store
                .read_extent(obj, start, rlen, &ReadOpts::default())
                .unwrap();
            assert_eq!(&got[..], &data[start as usize..(start + rlen) as usize]);
        }
    }
}
