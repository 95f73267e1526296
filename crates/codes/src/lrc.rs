//! Azure-style Local Reconstruction Codes `(k, l, m)` — the second
//! candidate code of the paper (Huang et al., USENIX ATC'12; paper §II-C
//! and Eq. (5)–(8)).
//!
//! The `k` data elements split into `l` equal local groups. Each local
//! parity is the XOR of its group (Eq. (5)–(6)); each global parity `j`
//! is `Σᵢ cᵢ^(j+1)·dᵢ` over all data with distinct non-zero coefficients
//! `cᵢ` (the `a`/`b` and squared-`a`/`b` coefficients of Eq. (7)–(8)
//! generalised to arbitrary `m`). With distinct coefficients the decoding
//! matrix of the paper's triple-failure case study (Eq. (12)) is a
//! Vandermonde block and therefore non-singular.
//!
//! Degraded reads of a single lost data element touch only the
//! `k/l` surviving members of its local group — the property the paper
//! credits LRC for and which EC-FRM-LRC preserves.

use crate::decode::solved_sources;
use crate::traits::{CandidateCode, ElementClass, RepairSpec};
use ecfrm_gf::{Field, Gf8, Matrix};

/// Azure LRC `(k, l, m)` over `GF(2^8)`: `k` data, `l` XOR local
/// parities, `m` Galois global parities.
///
/// ```
/// use ecfrm_codes::{CandidateCode, LrcCode, RepairSpec};
///
/// let lrc = LrcCode::new(6, 2, 2);
/// assert_eq!(lrc.n(), 10);
/// assert_eq!(lrc.fault_tolerance(), 3); // any 3 erasures decode
/// // A single lost data element repairs from its local group only.
/// let spec = lrc.repair_spec(4, &[4]).unwrap();
/// assert_eq!(spec, RepairSpec::Exact { read: vec![3, 5, 7] });
/// ```
#[derive(Debug, Clone)]
pub struct LrcCode {
    k: usize,
    l: usize,
    m: usize,
    parity: Matrix<Gf8>,
    generator: Matrix<Gf8>,
}

impl LrcCode {
    /// Construct an LRC. Data element `i` has global-parity coefficient
    /// `α^(i+1)` (distinct, non-zero), and global parity `j` uses those
    /// coefficients raised to the `j+1`-th power.
    ///
    /// # Panics
    /// Panics unless `l >= 1`, `m >= 1`, `l` divides `k`, and the
    /// coefficients stay distinct (`k <= 254`).
    pub fn new(k: usize, l: usize, m: usize) -> Self {
        assert!(k > 0 && l > 0 && m > 0, "LRC requires k, l, m > 0");
        assert!(
            k.is_multiple_of(l),
            "LRC requires l | k (equal local groups)"
        );
        assert!(k <= 254, "LRC(k,l,m) needs k <= 254 distinct coefficients");
        let n = k + l + m;
        let mut parity = Matrix::<Gf8>::zero(l + m, k);
        let group = k / l;
        // Local parities: XOR of each group (Eq. (5)-(6)).
        for g in 0..l {
            for j in 0..group {
                parity[(g, g * group + j)] = 1;
            }
        }
        // Global parities: powers of distinct non-zero coefficients
        // (Eq. (7)-(8) generalised).
        for j in 0..m {
            for i in 0..k {
                let c = Gf8::exp((i + 1) as u32);
                parity[(l + j, i)] = Gf8::pow(c, (j + 1) as u32);
            }
        }
        let generator = Matrix::<Gf8>::identity(k).vstack(&parity);
        debug_assert_eq!(generator.rows(), n);
        Self {
            k,
            l,
            m,
            parity,
            generator,
        }
    }

    /// Number of local parity elements.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Data elements per local group (`k / l`).
    pub fn group_size(&self) -> usize {
        self.k / self.l
    }

    /// Which local group data element `idx` (`0..k`) belongs to.
    ///
    /// # Panics
    /// Panics if `idx >= k`.
    pub fn local_group_of(&self, idx: usize) -> usize {
        assert!(idx < self.k, "local_group_of takes a data index");
        idx / self.group_size()
    }

    /// All members of local group `g`: its data elements plus its local
    /// parity (position `k + g`).
    ///
    /// # Panics
    /// Panics if `g >= l`.
    pub fn local_members(&self, g: usize) -> Vec<usize> {
        assert!(g < self.l, "group index out of range");
        let gs = self.group_size();
        let mut v: Vec<usize> = (g * gs..(g + 1) * gs).collect();
        v.push(self.k + g);
        v
    }

    /// Verify by exhaustive enumeration that every erasure pattern of
    /// exactly `t` elements decodes. Exponential in `n choose t`; meant
    /// for tests and one-off construction validation.
    pub fn verify_tolerance(&self, t: usize) -> bool {
        let n = self.n();
        let mut idx: Vec<usize> = (0..t).collect();
        if t > n {
            return false;
        }
        loop {
            if !self.is_recoverable(&idx) {
                return false;
            }
            let mut i = t;
            let mut advanced = false;
            while i > 0 {
                i -= 1;
                if idx[i] != i + n - t {
                    idx[i] += 1;
                    for j in i + 1..t {
                        idx[j] = idx[j - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return true;
            }
        }
    }
}

impl CandidateCode for LrcCode {
    fn k(&self) -> usize {
        self.k
    }

    fn m(&self) -> usize {
        self.l + self.m
    }

    fn name(&self) -> String {
        format!("LRC({},{},{})", self.k, self.l, self.m)
    }

    fn parity_matrix(&self) -> &Matrix<Gf8> {
        &self.parity
    }

    fn generator(&self) -> &Matrix<Gf8> {
        &self.generator
    }

    fn classify(&self, idx: usize) -> ElementClass {
        if idx < self.k {
            ElementClass::Data
        } else if idx < self.k + self.l {
            ElementClass::LocalParity(idx - self.k)
        } else {
            ElementClass::GlobalParity
        }
    }

    fn fault_tolerance(&self) -> usize {
        // Any m+1 erasures decode (verified exhaustively in tests for the
        // paper's parameters): worst case is m+1 data erasures inside one
        // local group, where the local parity plus the m global parities
        // form a Vandermonde system with exponents 0..m.
        self.m + 1
    }

    /// LRC repair: a single lost member of a local group is rebuilt from
    /// the group's other members (the paper's "significantly reduce the
    /// I/O accesses on degraded reads"); anything else falls back to
    /// solving the global system.
    fn repair_spec(&self, target: usize, erased: &[usize]) -> Option<RepairSpec> {
        let n = self.n();
        debug_assert!(target < n);
        let is_erased = |i: usize| erased.contains(&i);

        // Local fast path: target is in a local group whose other members
        // all survive.
        let group = match self.classify(target) {
            ElementClass::Data => Some(self.local_group_of(target)),
            ElementClass::LocalParity(g) => Some(g),
            ElementClass::GlobalParity => None,
        };
        if let Some(g) = group {
            let members = self.local_members(g);
            let others: Vec<usize> = members.iter().copied().filter(|&i| i != target).collect();
            if others.iter().all(|&i| !is_erased(i)) {
                return Some(RepairSpec::Exact { read: others });
            }
        }

        // Global parity with all data alive: recompute from the k data.
        if matches!(self.classify(target), ElementClass::GlobalParity)
            && (0..self.k).all(|i| !is_erased(i))
        {
            return Some(RepairSpec::Exact {
                read: (0..self.k).collect(),
            });
        }

        // Generic fallback: solve for any spanning combination.
        let avail: Vec<usize> = (0..n).filter(|&i| i != target && !is_erased(i)).collect();
        let read = solved_sources(self.generator(), target, &avail)?;
        Some(RepairSpec::Exact { read })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::CodeError;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 13 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn encode_all(code: &LrcCode, data: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; code.m()];
        code.encode(&refs, &mut parity);
        parity
    }

    #[test]
    fn local_parity_is_group_xor() {
        let code = LrcCode::new(6, 2, 2);
        let len = 32;
        let data = sample_data(6, len);
        let parity = encode_all(&code, &data, len);
        // l0 = d0 + d1 + d2 (paper Eq. (5)).
        let l0: Vec<u8> = (0..len)
            .map(|j| data[0][j] ^ data[1][j] ^ data[2][j])
            .collect();
        assert_eq!(parity[0], l0);
        // l1 = d3 + d4 + d5 (paper Eq. (6)).
        let l1: Vec<u8> = (0..len)
            .map(|j| data[3][j] ^ data[4][j] ^ data[5][j])
            .collect();
        assert_eq!(parity[1], l1);
    }

    #[test]
    fn layout_matches_paper_figure_2() {
        // (6,2,2): 6 data, 2 local parities, 2 global parities = 10.
        let code = LrcCode::new(6, 2, 2);
        assert_eq!(code.n(), 10);
        assert_eq!(code.classify(0), ElementClass::Data);
        assert_eq!(code.classify(6), ElementClass::LocalParity(0));
        assert_eq!(code.classify(7), ElementClass::LocalParity(1));
        assert_eq!(code.classify(8), ElementClass::GlobalParity);
        assert_eq!(code.classify(9), ElementClass::GlobalParity);
        assert_eq!(code.local_members(0), vec![0, 1, 2, 6]);
        assert_eq!(code.local_members(1), vec![3, 4, 5, 7]);
    }

    #[test]
    fn single_failure_repairs_locally() {
        let code = LrcCode::new(6, 2, 2);
        // A lost data element reads its 2 group-mates + local parity.
        let spec = code.repair_spec(1, &[1]).unwrap();
        assert_eq!(
            spec,
            RepairSpec::Exact {
                read: vec![0, 2, 6]
            }
        );
        // A lost local parity reads its 3 data elements.
        let spec = code.repair_spec(7, &[7]).unwrap();
        assert_eq!(
            spec,
            RepairSpec::Exact {
                read: vec![3, 4, 5]
            }
        );
        // A lost global parity recomputes from all 6 data elements.
        let spec = code.repair_spec(8, &[8]).unwrap();
        assert_eq!(
            spec,
            RepairSpec::Exact {
                read: (0..6).collect()
            }
        );
    }

    #[test]
    fn degraded_repair_cost_is_group_size() {
        // The headline LRC win: single-failure repair reads k/l elements,
        // not k.
        for (k, l, m) in [(6usize, 2usize, 2usize), (8, 2, 3), (10, 2, 4)] {
            let code = LrcCode::new(k, l, m);
            let spec = code.repair_spec(0, &[0]).unwrap();
            assert_eq!(spec.read_count(), k / l, "LRC({k},{l},{m})");
        }
    }

    #[test]
    fn repair_falls_back_to_global_when_group_broken() {
        let code = LrcCode::new(6, 2, 2);
        // d0 and d1 both erased: local group 0 has two holes, so d0 must
        // be repaired globally.
        let spec = code.repair_spec(0, &[0, 1]).unwrap();
        match spec {
            RepairSpec::Exact { read } => {
                assert!(!read.contains(&0) && !read.contains(&1));
                // Must use at least one global parity.
                assert!(
                    read.iter().any(|&i| i >= 8),
                    "needs a global parity: {read:?}"
                );
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn paper_case_study_triple_failure_decodes() {
        // Paper §IV-E / Fig 6: d3, d4, d5 (one whole local group) lost —
        // Eq. (9)-(12): the system from l1, m0, m1 must be solvable.
        let code = LrcCode::new(6, 2, 2);
        let len = 24;
        let data = sample_data(6, len);
        let parity = encode_all(&code, &data, len);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        shards[3] = None;
        shards[4] = None;
        shards[5] = None;
        code.decode(&mut shards, len).unwrap();
        for i in 3..6 {
            assert_eq!(shards[i].as_deref().unwrap(), &data[i][..]);
        }
    }

    #[test]
    fn tolerates_any_m_plus_one_failures_paper_params() {
        // (6,2,2) tolerates any 3 (paper: "can be recovered from any
        // kinds of triple disk failures").
        assert!(LrcCode::new(6, 2, 2).verify_tolerance(3));
        // Generalisation: any m+1 for the other tested parameters.
        assert!(LrcCode::new(8, 2, 3).verify_tolerance(4));
        assert!(LrcCode::new(10, 2, 4).verify_tolerance(5));
    }

    #[test]
    fn not_mds_some_larger_patterns_fail() {
        let code = LrcCode::new(6, 2, 2);
        // 4 parities' worth of redundancy but NOT any-4-recoverable:
        // e.g. losing d0,d1,d2 and l0 kills local group 0 beyond what the
        // two globals can restore.
        assert!(!code.is_recoverable(&[0, 1, 2, 6]));
        // Azure reports ~86% of 4-failure patterns recoverable.
        let patterns: Vec<Vec<usize>> = (0u32..1 << code.n())
            .filter(|mask| mask.count_ones() == 4)
            .map(|mask| (0..code.n()).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        let ok = patterns.iter().filter(|p| code.is_recoverable(p)).count();
        let frac = ok as f64 / patterns.len() as f64;
        assert!(frac > 0.80 && frac < 0.95, "fraction = {frac}");
    }

    #[test]
    fn unrecoverable_decode_reports_error() {
        let code = LrcCode::new(6, 2, 2);
        let len = 8;
        let data = sample_data(6, len);
        let parity = encode_all(&code, &data, len);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        for i in [0, 1, 2, 6] {
            shards[i] = None;
        }
        let err = code.decode(&mut shards, len).unwrap_err();
        assert!(matches!(err, CodeError::Unrecoverable { .. }));
    }

    #[test]
    fn partial_repair_of_survivable_target() {
        // With [0,1,2,6] lost, group 1's elements remain repairable even
        // though the pattern as a whole is dead.
        let code = LrcCode::new(6, 2, 2);
        assert!(!code.is_recoverable(&[0, 1, 2, 6, 3]));
        assert!(code.is_recoverable_target(3, &[0, 1, 2, 6, 3]));
        let spec = code.repair_spec(3, &[0, 1, 2, 6, 3]).unwrap();
        assert_eq!(
            spec,
            RepairSpec::Exact {
                read: vec![4, 5, 7]
            }
        );
    }

    #[test]
    fn storage_overhead_matches_parameters() {
        for (k, l, m) in [(6usize, 2usize, 2usize), (8, 2, 3), (10, 2, 4)] {
            let code = LrcCode::new(k, l, m);
            assert_eq!(code.n(), k + l + m);
            assert_eq!(code.m(), l + m);
            assert_eq!(code.k(), k);
        }
    }

    #[test]
    fn roundtrip_all_paper_parameters_random_tolerable_patterns() {
        for (k, l, m) in [(6usize, 2usize, 2usize), (8, 2, 3), (10, 2, 4)] {
            let code = LrcCode::new(k, l, m);
            let len = 16;
            let data = sample_data(k, len);
            let parity = encode_all(&code, &data, len);
            let n = code.n();
            // Erase m+1 consecutive positions starting at various offsets.
            for start in 0..n {
                let erased: Vec<usize> = (0..m + 1).map(|i| (start + i) % n).collect();
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                for &e in &erased {
                    shards[e] = None;
                }
                code.decode(&mut shards, len)
                    .unwrap_or_else(|e| panic!("LRC({k},{l},{m}) {erased:?}: {e}"));
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(shards[i].as_deref().unwrap(), &d[..]);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn l_must_divide_k() {
        LrcCode::new(7, 2, 2);
    }
}
