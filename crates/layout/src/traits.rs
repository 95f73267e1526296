//! The [`Layout`] trait and physical-location types.
//!
//! A layout answers two questions, in both directions:
//!
//! 1. *Where does logical data element `i` live?* The logical address
//!    space is the paper's append-only write model: data elements are
//!    numbered sequentially as they are written, and contiguous elements
//!    should land on different disks to exploit parallel I/O (§III-A's
//!    standing assumption, shared with Khan et al., FAST'12).
//! 2. *What lives at physical location `(disk, offset)`?* Needed for
//!    failure handling: when a disk dies, every element stored on it is
//!    identified by walking its offsets.
//!
//! Layouts are purely arithmetic — no I/O — so they are cheap to query in
//! planners and easy to test exhaustively.

/// Physical location of one element: a disk (column) and an element-sized
/// offset within that disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// Disk index, `0..n_disks`.
    pub disk: usize,
    /// Offset on the disk, in element units.
    pub offset: u64,
}

impl Loc {
    /// Convenience constructor.
    pub fn new(disk: usize, offset: u64) -> Self {
        Self { disk, offset }
    }
}

/// Identity of the element stored at some physical location, expressed in
/// code coordinates: which stripe, which candidate row of that stripe,
/// and which position within the row (`0..k` data, `k..n` parity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoredElement {
    /// Layout stripe index.
    pub stripe: u64,
    /// Candidate-code row within the stripe (the paper's *group* index
    /// for EC-FRM layouts; always 0 for one-row layouts).
    pub row: usize,
    /// Position within the candidate row: `0..k` data, `k..n` parity.
    pub pos: usize,
}

/// A mapping between the logical element address space of an `(n, k)`
/// candidate code and physical `(disk, offset)` locations.
///
/// Invariants every implementation upholds (and the test suites check):
///
/// * the `n` elements of one candidate row map to `n` **distinct disks**;
/// * `data_location` and `parity_location` never collide;
/// * `element_at` inverts both.
pub trait Layout: Send + Sync + std::fmt::Debug {
    /// Short name used in reports, e.g. `"standard"`, `"rotated"`,
    /// `"ecfrm"`.
    fn name(&self) -> &'static str;

    /// Total number of disks (= `n`, one column per disk).
    fn n_disks(&self) -> usize;

    /// Elements per candidate row (`n`).
    fn code_n(&self) -> usize;

    /// Data elements per candidate row (`k`).
    fn code_k(&self) -> usize;

    /// Candidate rows per layout stripe (1 for standard/rotated,
    /// `n/gcd(n,k)` for EC-FRM).
    fn rows_per_stripe(&self) -> usize;

    /// Data elements per layout stripe (`k · rows_per_stripe`).
    fn data_per_stripe(&self) -> usize {
        self.code_k() * self.rows_per_stripe()
    }

    /// Total elements per layout stripe (`n · rows_per_stripe`).
    fn total_per_stripe(&self) -> usize {
        self.code_n() * self.rows_per_stripe()
    }

    /// Offsets (element units) each disk advances per layout stripe.
    fn offsets_per_stripe(&self) -> u64 {
        self.rows_per_stripe() as u64
    }

    /// Physical location of global data element `idx`.
    fn data_location(&self, idx: u64) -> Loc;

    /// Physical location of parity `p` (`0..n-k`) of candidate row `row`
    /// of layout stripe `stripe`.
    fn parity_location(&self, stripe: u64, row: usize, p: usize) -> Loc;

    /// Inverse mapping: what is stored at `loc`?
    fn element_at(&self, loc: Loc) -> StoredElement;

    /// Locations of all `n` elements of candidate row `row` of stripe
    /// `stripe`, indexed by row position (data `0..k`, parity `k..n`).
    fn row_locations(&self, stripe: u64, row: usize) -> Vec<Loc> {
        let k = self.code_k();
        let n = self.code_n();
        let base = self.data_index(stripe, row, 0);
        let mut locs: Vec<Loc> = (0..k as u64)
            .map(|t| self.data_location(base + t))
            .collect();
        locs.extend((0..n - k).map(|p| self.parity_location(stripe, row, p)));
        locs
    }

    /// The stripe and candidate row that contain global data element
    /// `idx` — `(stripe, row, pos_in_row)`.
    fn data_coordinates(&self, idx: u64) -> (u64, usize, usize) {
        let dps = self.data_per_stripe() as u64;
        let stripe = idx / dps;
        let within = (idx % dps) as usize;
        let k = self.code_k();
        (stripe, within / k, within % k)
    }

    /// Inverse of [`Self::data_coordinates`]: the global index of data
    /// element `pos` (`0..k`) of candidate row `row` of stripe `stripe`.
    fn data_index(&self, stripe: u64, row: usize, pos: usize) -> u64 {
        stripe * self.data_per_stripe() as u64 + (row * self.code_k() + pos) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StandardLayout;

    #[test]
    fn loc_ordering_and_ctor() {
        let a = Loc::new(0, 5);
        let b = Loc::new(1, 0);
        assert!(a < b);
        assert_eq!(a, Loc { disk: 0, offset: 5 });
    }

    #[test]
    fn data_coordinates_consistency() {
        let l = StandardLayout::new(9, 6);
        let (stripe, row, pos) = l.data_coordinates(20);
        assert_eq!((stripe, row, pos), (3, 0, 2));
        assert_eq!(l.data_index(stripe, row, pos), 20);
    }
}
