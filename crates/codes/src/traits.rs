//! The [`CandidateCode`] trait: what EC-FRM requires of a code it
//! integrates, plus the error and repair-plan types shared by all codes.

use ecfrm_gf::{Gf8, Matrix};

/// Errors produced by encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The erasure pattern cannot be decoded: the surviving generator rows
    /// do not span the data space.
    Unrecoverable {
        /// Indices (stripe positions `0..n`) of the erased elements.
        erased: Vec<usize>,
    },
    /// Shard vector length, shard sizes, or element index was inconsistent
    /// with the code parameters.
    Shape(String),
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::Unrecoverable { erased } => {
                write!(f, "erasure pattern {erased:?} is not recoverable")
            }
            CodeError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for CodeError {}

/// The role an element plays inside one candidate-code row.
///
/// Positions `0..k` are always data; `k..n` are parities whose flavour the
/// concrete code defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementClass {
    /// Original user data.
    Data,
    /// A parity computed from a subset of the row (LRC local parity); the
    /// payload is the local-group index.
    LocalParity(usize),
    /// A parity computed from the whole row (RS parity, LRC global parity).
    GlobalParity,
}

/// A plan describing which surviving elements must be read to reconstruct
/// one erased element, as reported by [`CandidateCode::repair_spec`].
///
/// Read planners use this to choose sources that minimise the load on the
/// most-loaded disk (the paper's bottleneck metric, §III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairSpec {
    /// Any `count` elements of `from` suffice (MDS-style repair: for
    /// Reed–Solomon, any `k` surviving elements of the row).
    AnyOf {
        /// Candidate source positions (all surviving).
        from: Vec<usize>,
        /// How many of them are required.
        count: usize,
    },
    /// Exactly these elements must be read (LRC local repair reads its
    /// local group, nothing else helps).
    Exact {
        /// Required source positions.
        read: Vec<usize>,
    },
}

impl RepairSpec {
    /// Number of elements a planner will end up reading for this repair.
    pub fn read_count(&self) -> usize {
        match self {
            RepairSpec::AnyOf { count, .. } => *count,
            RepairSpec::Exact { read } => read.len(),
        }
    }
}

/// A systematic one-row erasure code that EC-FRM can integrate
/// ("candidate code", paper §IV-A).
///
/// Element positions within a row are `0..n`: data at `0..k`, parity at
/// `k..n`. The code is fully described by its `n × k` generator matrix
/// `[I_k; P]` — every element is a known linear combination of the `k`
/// data elements, which is what makes the generic matrix decoder and the
/// EC-FRM group transformation possible.
pub trait CandidateCode: Send + Sync + std::fmt::Debug {
    /// Number of data elements per row.
    fn k(&self) -> usize;

    /// Number of parity elements per row.
    fn m(&self) -> usize;

    /// Total elements per row (`k + m`).
    fn n(&self) -> usize {
        self.k() + self.m()
    }

    /// Human-readable name, e.g. `"RS(6,3)"` or `"LRC(6,2,2)"`.
    fn name(&self) -> String;

    /// The `m × k` parity coefficient block: parity `i` is
    /// `Σ_j P[i][j] · d_j` over `GF(2^8)`.
    fn parity_matrix(&self) -> &Matrix<Gf8>;

    /// The full `n × k` generator `[I_k; P]`.
    fn generator(&self) -> &Matrix<Gf8>;

    /// Classify element `idx` (data / local parity / global parity).
    fn classify(&self, idx: usize) -> ElementClass {
        if idx < self.k() {
            ElementClass::Data
        } else {
            ElementClass::GlobalParity
        }
    }

    /// Number of simultaneous erasures this code is *guaranteed* to
    /// tolerate (any pattern of that size decodes). MDS codes tolerate
    /// `m`; LRC tolerates fewer than its parity count in the worst case.
    fn fault_tolerance(&self) -> usize;

    /// Compute all `m` parities from the `k` data regions in one fused
    /// streaming pass (each data block is read once while cache-hot
    /// instead of once per parity).
    ///
    /// # Panics
    /// Panics if slice arities or lengths mismatch the code parameters.
    fn encode(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) {
        let mut dsts: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        self.encode_into(data, &mut dsts);
    }

    /// [`Self::encode`] into regions the caller placed — e.g. the cells
    /// of a stripe's parities inside the buffers that go to the disks.
    ///
    /// # Panics
    /// Panics if slice arities or lengths mismatch the code parameters.
    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) {
        assert_eq!(data.len(), self.k(), "encode expects k data regions");
        assert_eq!(parity.len(), self.m(), "encode expects m parity regions");
        let pm = self.parity_matrix();
        let rows: Vec<Vec<u8>> = (0..self.m())
            .map(|i| pm.row(i).iter().map(|&c| c as u8).collect())
            .collect();
        let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        ecfrm_gf::region::dot_region_multi(&row_refs, data, parity);
    }

    /// Reconstruct every `None` shard in place. `len` is the region size
    /// in bytes (used to allocate reconstructed shards).
    fn decode(&self, shards: &mut [Option<Vec<u8>>], len: usize) -> Result<(), CodeError> {
        crate::decode::matrix_decode(self.generator(), shards, len)
    }

    /// True when the erasure pattern (positions in `0..n`) is decodable.
    fn is_recoverable(&self, erased: &[usize]) -> bool {
        crate::decode::pattern_recoverable(self.generator(), erased)
    }

    /// How to reconstruct the single element `target` when the elements in
    /// `erased` (which should include `target`) are unavailable. Returns
    /// `None` when the pattern makes `target` unrecoverable.
    ///
    /// The default is the MDS plan: any `k` surviving elements.
    fn repair_spec(&self, target: usize, erased: &[usize]) -> Option<RepairSpec> {
        let n = self.n();
        debug_assert!(target < n);
        if !self.is_recoverable_target(target, erased) {
            return None;
        }
        let from: Vec<usize> = (0..n)
            .filter(|i| *i != target && !erased.contains(i))
            .collect();
        if from.len() < self.k() {
            return None;
        }
        Some(RepairSpec::AnyOf {
            from,
            count: self.k(),
        })
    }

    /// True when `target` specifically can be reconstructed under the
    /// erasure pattern (weaker than full-pattern recoverability for
    /// non-MDS codes; equal to it for MDS codes).
    fn is_recoverable_target(&self, target: usize, erased: &[usize]) -> bool {
        crate::decode::target_recoverable(self.generator(), target, erased)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_spec_read_count() {
        let a = RepairSpec::AnyOf {
            from: vec![1, 2, 3, 4],
            count: 3,
        };
        assert_eq!(a.read_count(), 3);
        let e = RepairSpec::Exact { read: vec![5, 6] };
        assert_eq!(e.read_count(), 2);
    }

    #[test]
    fn code_error_display() {
        let e = CodeError::Unrecoverable { erased: vec![0, 3] };
        assert!(e.to_string().contains("[0, 3]"));
        let s = CodeError::Shape("bad".into());
        assert!(s.to_string().contains("bad"));
    }
}
