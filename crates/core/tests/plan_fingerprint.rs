//! Plans are pinned: one seeded sweep over the degraded-read planner and
//! the stripe-repair planner hashes every fetch and every repair task it
//! produces, and the hash is a constant. A change to how a lost element's
//! helpers are chosen — in either planner — moves it.
//!
//! The grid is RS(6,3) and LRC(6,2,2), each under the standard, rotated
//! and EC-FRM layouts, with one rack and with three, and a seeded sweep
//! of `(start, count, failed)` per scheme (one to three failed disks, so
//! unreadable elements and unrecoverable stripes are covered too).

use std::sync::Arc;

use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
use ecfrm_core::{DiskRecovery, LayoutKind, Purpose, Scheme};

/// The fingerprint of the sweep below, as the planners produce it.
const PLAN_FINGERPRINT: u64 = 0x48f3_58fa_6b32_bbc2;

/// FNV-1a over 64-bit words: stable across toolchains, unlike std's
/// hasher.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: the sweep's seeded draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    /// One to three distinct disks out of `n`.
    fn failed(&mut self, n: usize) -> Vec<usize> {
        let want = 1 + self.next(3) as usize;
        let mut failed = Vec::with_capacity(want);
        while failed.len() < want {
            let d = self.next(n as u64) as usize;
            if !failed.contains(&d) {
                failed.push(d);
            }
        }
        failed
    }
}

fn grid() -> Vec<Scheme> {
    let codes: [Arc<dyn CandidateCode>; 2] = [
        Arc::new(RsCode::vandermonde(6, 3)),
        Arc::new(LrcCode::new(6, 2, 2)),
    ];
    let mut schemes = Vec::new();
    for code in codes {
        for kind in [LayoutKind::Standard, LayoutKind::Rotated, LayoutKind::EcFrm] {
            for racks in [1, 3] {
                schemes.push(
                    Scheme::builder(Arc::clone(&code))
                        .layout(kind)
                        .racks(racks)
                        .build(),
                );
            }
        }
    }
    schemes
}

fn hash_degraded(h: &mut Fnv, scheme: &Scheme, start: u64, count: usize, failed: &[usize]) {
    let plan = scheme.degraded_read_plan(start, count, failed);
    h.word(plan.fetches.len() as u64);
    for f in &plan.fetches {
        h.word(f.loc.disk as u64);
        h.word(f.loc.offset);
        h.word(f.stripe);
        h.word(f.row as u64);
        h.word(f.pos as u64);
        h.word(u64::from(f.purpose == Purpose::Repair));
    }
    h.word(plan.unreadable.len() as u64);
    for &idx in &plan.unreadable {
        h.word(idx);
    }
}

fn hash_recovery(h: &mut Fnv, scheme: &Scheme, failed: &[usize], stripes: &[u64]) {
    let Ok(rec) = DiskRecovery::plan_stripes(scheme, failed[0], failed, stripes) else {
        h.word(u64::MAX);
        return;
    };
    h.word(rec.tasks.len() as u64);
    for t in &rec.tasks {
        h.word(t.stripe);
        h.word(t.row as u64);
        h.word(t.pos as u64);
        h.word(t.target.disk as u64);
        h.word(t.target.offset);
        h.word(t.sources.len() as u64);
        for (p, loc) in &t.sources {
            h.word(*p as u64);
            h.word(loc.disk as u64);
            h.word(loc.offset);
        }
    }
}

#[test]
fn every_planned_fetch_and_repair_task_matches_the_pinned_fingerprint() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut draw = Draw(0x5eed_ec0f);
    for scheme in grid() {
        let n = scheme.n_disks();
        let dps = scheme.data_per_stripe() as u64;
        for _ in 0..200 {
            let start = draw.next(3 * dps);
            let count = 1 + draw.next(24) as usize;
            let failed = draw.failed(n);
            hash_degraded(&mut h, &scheme, start, count, &failed);
            let stripes: Vec<u64> = (0..1 + draw.next(4))
                .map(|_| draw.next(2 * n as u64))
                .collect();
            hash_recovery(&mut h, &scheme, &failed, &stripes);
        }
    }
    assert_eq!(
        h.0, PLAN_FINGERPRINT,
        "a planner now picks different helpers: {:#018x}",
        h.0
    );
}

/// One rule picks helpers: with nothing fetched yet and no load anywhere,
/// a one-element degraded read of a stripe's first lost element reads
/// exactly the sources the stripe-repair planner's first task names.
#[test]
fn a_one_element_degraded_read_names_the_repair_planners_helpers() {
    let mut checked = 0;
    for scheme in grid() {
        let k = scheme.code().k();
        let dps = scheme.data_per_stripe() as u64;
        for failed in 0..scheme.n_disks() {
            for stripe in 0..scheme.n_disks() as u64 {
                let rec =
                    DiskRecovery::plan_stripes(&scheme, failed, &[failed], &[stripe]).unwrap();
                let first = &rec.tasks[0];
                if first.pos >= k {
                    continue; // a parity cell: no read names it
                }
                let idx = stripe * dps + (first.row * k + first.pos) as u64;
                let plan = scheme.degraded_read_plan(idx, 1, &[failed]);
                let mut read: Vec<_> = plan.fetches.iter().map(|f| (f.pos, f.loc)).collect();
                let mut named = first.sources.clone();
                read.sort_unstable();
                named.sort_unstable();
                assert_eq!(
                    read,
                    named,
                    "{} disk {failed} stripe {stripe}",
                    scheme.name()
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} cases had a data element first"
    );
}
