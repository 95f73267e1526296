//! The EC-FRM layout (paper §IV-B, Eq. (1)–(4)).
//!
//! For an `(n, k)` candidate code let `r = gcd(n, k)`. One EC-FRM stripe
//! is an `n/r × n` grid (one column per disk): data elements fill the
//! first `k/r` rows **row-major** — so logically sequential data is
//! physically sequential across *all* `n` disks — and parities fill the
//! remaining `(n-k)/r` rows.
//!
//! Elements regroup into `n/r` *groups* `G_i`, each one candidate-code
//! row:
//!
//! * `D_i` (Eq. (1)) — data elements `i·k .. i·k+k-1` (sequential), which
//!   land in columns `<i·k>_n .. <i·k+k-1>_n`;
//! * `P_{i,j}` (Eq. (2)) — parity chunk `j` of group `i`: `r` elements in
//!   parity row `k/r + j`, continuing the group's column sequence, i.e.
//!   columns `<i·k + k + j·r>_n .. <i·k + k + j·r + r - 1>_n`;
//! * `G_i = D_i ∪ P_i` (Eq. (3)–(4)).
//!
//! Each group therefore covers `n` *consecutive-mod-n* columns — `n`
//! distinct disks — so per group the candidate code's layout assumptions
//! hold and fault tolerance is preserved (paper Lemma 1, §IV-C).
//!
//! (The paper's Eq. (2) prints the column start as `i·k + k + j·i`; the
//! worked examples, Figure 4, and the step-2 identification rule all use
//! `i·k + k + j·r`, so the `j·i` is a typo we do not reproduce.)

use crate::gcd;
use crate::traits::{Layout, Loc, StoredElement};

/// The paper's EC-FRM placement for an `(n, k)` candidate code.
///
/// ```
/// use ecfrm_layout::{EcFrmLayout, Layout, Loc};
///
/// // (6,2,2) LRC as a (10,6) candidate: 5 rows × 10 columns per stripe.
/// let l = EcFrmLayout::new(10, 6);
/// assert_eq!(l.rows_per_stripe(), 5);
/// // Data element 7 lands on disk 7, row 0 (Figure 4's d0,7)...
/// assert_eq!(l.data_location(7), Loc::new(7, 0));
/// // ...and group 1's first local parity on disk 2, row 3 (p3,2).
/// assert_eq!(l.parity_location(0, 1, 0), Loc::new(2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct EcFrmLayout {
    n: usize,
    k: usize,
    r: usize,
}

impl EcFrmLayout {
    /// Create an EC-FRM layout over `n` disks with `k` data elements per
    /// candidate row.
    ///
    /// # Panics
    /// Panics unless `0 < k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0 && k < n, "EC-FRM layout requires 0 < k < n");
        Self { n, k, r: gcd(n, k) }
    }

    /// The paper's `r = gcd(n, k)`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of data rows per stripe (`k/r`).
    pub fn data_rows(&self) -> usize {
        self.k / self.r
    }

    /// Number of parity rows per stripe (`(n-k)/r`).
    pub fn parity_rows(&self) -> usize {
        (self.n - self.k) / self.r
    }

    /// Column of element `pos` (`0..n`) of group `i`: the group occupies
    /// `n` consecutive columns mod `n` starting at `<i·k>_n`.
    pub fn group_column(&self, group: usize, pos: usize) -> usize {
        debug_assert!(group < self.n / self.r && pos < self.n);
        (group * self.k + pos) % self.n
    }
}

impl Layout for EcFrmLayout {
    fn name(&self) -> &'static str {
        "ecfrm"
    }

    fn n_disks(&self) -> usize {
        self.n
    }

    fn code_n(&self) -> usize {
        self.n
    }

    fn code_k(&self) -> usize {
        self.k
    }

    fn rows_per_stripe(&self) -> usize {
        self.n / self.r
    }

    fn data_location(&self, idx: u64) -> Loc {
        let dps = self.data_per_stripe() as u64; // k·n/r
        let stripe = idx / dps;
        let w = (idx % dps) as usize; // row-major within the data rows
        let row = w / self.n;
        let col = w % self.n;
        Loc::new(col, stripe * self.offsets_per_stripe() + row as u64)
    }

    fn parity_location(&self, stripe: u64, row: usize, p: usize) -> Loc {
        // `row` is the group index i; `p` is the parity position within
        // the candidate row (0..n-k).
        debug_assert!(row < self.rows_per_stripe());
        debug_assert!(p < self.n - self.k);
        let col = self.group_column(row, self.k + p);
        let prow = self.data_rows() + p / self.r;
        Loc::new(col, stripe * self.offsets_per_stripe() + prow as u64)
    }

    fn element_at(&self, loc: Loc) -> StoredElement {
        debug_assert!(loc.disk < self.n);
        let ops = self.offsets_per_stripe();
        let stripe = loc.offset / ops;
        let grid_row = (loc.offset % ops) as usize;
        if grid_row < self.data_rows() {
            // Data: row-major index within the stripe's data region.
            let w = grid_row * self.n + loc.disk;
            StoredElement {
                stripe,
                row: w / self.k, // group
                pos: w % self.k,
            }
        } else {
            // Parity: find the unique (group, parity position) whose
            // chunk covers this column in this parity row.
            let j = grid_row - self.data_rows();
            for s in 0..self.r {
                // Column of chunk start must be col - s (mod n) and the
                // chunk start for group i is <i·k + k + j·r>_n.
                let start = (loc.disk + self.n - (self.k + j * self.r + s) % self.n) % self.n;
                if !start.is_multiple_of(self.r) {
                    continue;
                }
                // Solve i·k ≡ start (mod n); i is unique in 0..n/r.
                if let Some(i) = (0..self.n / self.r).find(|&i| (i * self.k) % self.n == start) {
                    return StoredElement {
                        stripe,
                        row: i,
                        pos: self.k + j * self.r + s,
                    };
                }
            }
            unreachable!(
                "parity rows partition into group chunks; ({}, {}) unmatched",
                loc.disk, loc.offset
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: (6,2,2) LRC as a (10,6) candidate.
    fn paper_layout() -> EcFrmLayout {
        EcFrmLayout::new(10, 6)
    }

    #[test]
    fn paper_parameters() {
        let l = paper_layout();
        assert_eq!(l.r(), 2);
        assert_eq!(l.rows_per_stripe(), 5);
        assert_eq!(l.data_rows(), 3);
        assert_eq!(l.parity_rows(), 2);
        assert_eq!(l.data_per_stripe(), 30);
        assert_eq!(l.total_per_stripe(), 50);
    }

    #[test]
    fn figure_4_group_0() {
        // D0 = {d0,0 .. d0,5}; P0,0 = {p3,6, p3,7}; P0,1 = {p4,8, p4,9}.
        let l = paper_layout();
        for t in 0..6u64 {
            assert_eq!(l.data_location(t), Loc::new(t as usize, 0));
        }
        assert_eq!(l.parity_location(0, 0, 0), Loc::new(6, 3));
        assert_eq!(l.parity_location(0, 0, 1), Loc::new(7, 3));
        assert_eq!(l.parity_location(0, 0, 2), Loc::new(8, 4));
        assert_eq!(l.parity_location(0, 0, 3), Loc::new(9, 4));
    }

    #[test]
    fn paper_group_1_example() {
        // §IV-E: G1 = {d0,6, d0,7, d0,8, d0,9, d1,0, d1,1,
        //              p3,2, p3,3, p4,4, p4,5}.
        let l = paper_layout();
        let want_data = [(6usize, 0u64), (7, 0), (8, 0), (9, 0), (0, 1), (1, 1)];
        for (t, (col, row)) in want_data.iter().enumerate() {
            assert_eq!(l.data_location(6 + t as u64), Loc::new(*col, *row));
        }
        assert_eq!(l.parity_location(0, 1, 0), Loc::new(2, 3));
        assert_eq!(l.parity_location(0, 1, 1), Loc::new(3, 3));
        assert_eq!(l.parity_location(0, 1, 2), Loc::new(4, 4));
        assert_eq!(l.parity_location(0, 1, 3), Loc::new(5, 4));
    }

    #[test]
    fn paper_group_3_example() {
        // §IV-B step 2: last data element of D3 is d2,3, P3,0 = {p3,4,
        // p3,5}, P3,1 = {p4,6, p4,7}.
        let l = paper_layout();
        assert_eq!(l.data_location(23), Loc::new(3, 2)); // d2,3 = element 23
        assert_eq!(l.parity_location(0, 3, 0), Loc::new(4, 3));
        assert_eq!(l.parity_location(0, 3, 1), Loc::new(5, 3));
        assert_eq!(l.parity_location(0, 3, 2), Loc::new(6, 4));
        assert_eq!(l.parity_location(0, 3, 3), Loc::new(7, 4));
    }

    #[test]
    fn paper_group_2_example() {
        // §IV-B: G2's parities are {p3,8, p3,9, p4,0, p4,1}.
        let l = paper_layout();
        assert_eq!(l.parity_location(0, 2, 0), Loc::new(8, 3));
        assert_eq!(l.parity_location(0, 2, 1), Loc::new(9, 3));
        assert_eq!(l.parity_location(0, 2, 2), Loc::new(0, 4));
        assert_eq!(l.parity_location(0, 2, 3), Loc::new(1, 4));
    }

    #[test]
    fn each_group_covers_n_distinct_disks() {
        for (n, k) in [(10usize, 6usize), (9, 6), (12, 8), (15, 10), (7, 3), (5, 4)] {
            let l = EcFrmLayout::new(n, k);
            for g in 0..l.rows_per_stripe() {
                let locs = l.row_locations(0, g);
                assert_eq!(locs.len(), n);
                let mut disks: Vec<usize> = locs.iter().map(|l| l.disk).collect();
                disks.sort_unstable();
                disks.dedup();
                assert_eq!(disks.len(), n, "({n},{k}) group {g}");
            }
        }
    }

    #[test]
    fn stripe_grid_is_partitioned_by_groups() {
        // Every (row, col) cell of the stripe grid is owned by exactly
        // one (group, pos).
        for (n, k) in [(10usize, 6usize), (9, 6), (12, 8), (15, 10), (7, 3)] {
            let l = EcFrmLayout::new(n, k);
            let rows = l.rows_per_stripe();
            let mut owner = vec![vec![None; n]; rows];
            for g in 0..rows {
                for (pos, loc) in l.row_locations(0, g).iter().enumerate() {
                    let row = loc.offset as usize;
                    assert!(
                        owner[row][loc.disk].is_none(),
                        "({n},{k}): cell ({row},{}) claimed twice",
                        loc.disk
                    );
                    owner[row][loc.disk] = Some((g, pos));
                }
            }
            for (row, cells) in owner.iter().enumerate() {
                for (col, cell) in cells.iter().enumerate() {
                    assert!(cell.is_some(), "({n},{k}): cell ({row},{col}) empty");
                }
            }
        }
    }

    #[test]
    fn element_at_inverts_all_mappings() {
        for (n, k) in [(10usize, 6usize), (9, 6), (12, 8), (15, 10), (5, 4), (7, 3)] {
            let l = EcFrmLayout::new(n, k);
            let dps = l.data_per_stripe() as u64;
            for idx in 0..(3 * dps) {
                let se = l.element_at(l.data_location(idx));
                let (stripe, row, pos) = l.data_coordinates(idx);
                assert_eq!(
                    se,
                    StoredElement { stripe, row, pos },
                    "({n},{k}) idx={idx}"
                );
            }
            for stripe in 0..3u64 {
                for g in 0..l.rows_per_stripe() {
                    for p in 0..n - k {
                        let se = l.element_at(l.parity_location(stripe, g, p));
                        assert_eq!(
                            se,
                            StoredElement {
                                stripe,
                                row: g,
                                pos: k + p
                            },
                            "({n},{k}) stripe={stripe} g={g} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_data_spreads_over_all_disks() {
        // The paper's normal-read argument: any n consecutive data
        // elements occupy n distinct disks.
        let l = paper_layout();
        for start in 0..60u64 {
            let mut disks: Vec<usize> = (start..start + 10)
                .map(|i| l.data_location(i).disk)
                .collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(disks.len(), 10, "start={start}");
        }
    }

    #[test]
    fn figure_7a_eight_element_read_max_load_one() {
        // Figure 7(a): an 8-element normal read loads no disk twice
        // (contrast with Figure 3's standard/rotated max load of 2).
        let l = paper_layout();
        let mut load = vec![0usize; 10];
        for idx in 0..8u64 {
            load[l.data_location(idx).disk] += 1;
        }
        assert_eq!(*load.iter().max().unwrap(), 1, "load = {load:?}");
    }

    #[test]
    fn works_when_gcd_is_one() {
        // (7,3): r = 1, 7 rows, 3 data rows, 4 parity rows; parity chunks
        // are single elements.
        let l = EcFrmLayout::new(7, 3);
        assert_eq!(l.r(), 1);
        assert_eq!(l.rows_per_stripe(), 7);
        assert_eq!(l.data_rows(), 3);
        assert_eq!(l.parity_rows(), 4);
    }

    #[test]
    fn works_when_k_divides_n() {
        // (12,6): r = 6, 2 rows, 1 data row, 1 parity row.
        let l = EcFrmLayout::new(12, 6);
        assert_eq!(l.r(), 6);
        assert_eq!(l.rows_per_stripe(), 2);
        assert_eq!(l.data_rows(), 1);
        assert_eq!(l.parity_rows(), 1);
        // Group 0: data cols 0..5, parity cols 6..11; group 1: data cols
        // 6..11, parity cols 0..5.
        assert_eq!(l.parity_location(0, 1, 0), Loc::new(0, 1));
    }

    #[test]
    fn group_column_matches_locations() {
        for (n, k) in [(10usize, 6usize), (9, 6), (7, 3)] {
            let l = EcFrmLayout::new(n, k);
            for g in 0..l.rows_per_stripe() {
                for (pos, loc) in l.row_locations(0, g).iter().enumerate() {
                    assert_eq!(
                        l.group_column(g, pos),
                        loc.disk,
                        "({n},{k}) g={g} pos={pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_parameters_beyond_gf8_limit() {
        // The layout math is code-agnostic: a (300, 240) EC-FRM grid is
        // arithmetic in (n, k), past the 255 elements a GF(2^8) code
        // can span.
        let l = EcFrmLayout::new(300, 240);
        assert_eq!(l.r(), 60);
        assert_eq!(l.rows_per_stripe(), 5);
        let locs = l.row_locations(0, 3);
        let mut disks: Vec<usize> = locs.iter().map(|l| l.disk).collect();
        disks.sort_unstable();
        disks.dedup();
        assert_eq!(disks.len(), 300);
        // Inversion still holds at this scale.
        for idx in [0u64, 239, 240, 1199, 1200, 3599] {
            let se = l.element_at(l.data_location(idx));
            let (stripe, row, pos) = l.data_coordinates(idx);
            assert_eq!(se, StoredElement { stripe, row, pos });
        }
    }

    #[test]
    fn offsets_advance_per_stripe() {
        let l = paper_layout();
        let first_of_stripe_1 = l.data_location(30);
        assert_eq!(first_of_stripe_1, Loc::new(0, 5));
    }
}
