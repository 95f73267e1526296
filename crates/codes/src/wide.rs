//! Wide-stripe Reed–Solomon over `GF(2^16)`: stripes beyond the
//! 255-element reach of byte symbols.
//!
//! The [`CandidateCode`](crate::CandidateCode) trait (and everything the
//! evaluation needs) is byte-symbol `GF(2^8)`, matching the paper's
//! Jerasure `w = 8` setup. [`WideRs`] is the substrate extension for
//! deployments with hundreds-to-thousands of devices per stripe — the
//! regime Jerasure's `w = 16` covers. It reuses the generic
//! [`Matrix`] machinery (Vandermonde derivation, Gauss–Jordan solving)
//! instantiated at [`Gf16`], and the byte-pair region kernels of
//! [`ecfrm_gf::region16`].
//!
//! EC-FRM's layout math is code-agnostic — [`EcFrmLayout`] accepts any
//! `(n, k)` — so wide stripes get the same sequential-data placement;
//! only the planner/scheme plumbing (which is `GF(2^8)`-typed) stops at
//! 255. The example below shows a (300, 240) stripe.
//!
//! Backs DESIGN §5 "GF(2^16) wide stripes" (`examples/wide_stripe.rs`);
//! ROADMAP's parked cascaded-parity wide-stripe layout starts from it.
//!
//! ```
//! use ecfrm_codes::wide::WideRs;
//!
//! let rs = WideRs::new(40, 10); // any 10 of 50 elements may vanish
//! let data: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 32]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
//! let mut parity = vec![vec![0u8; 32]; 10];
//! rs.encode(&refs, &mut parity);
//! ```
//!
//! [`Matrix`]: ecfrm_gf::Matrix
//! [`Gf16`]: ecfrm_gf::Gf16
//! [`EcFrmLayout`]: https://docs.rs/ecfrm-layout

use ecfrm_gf::region16::{dot_region_multi16, mul_add_region16};
use ecfrm_gf::{Gf16, Matrix};

use crate::traits::CodeError;

/// Systematic Reed–Solomon `(k, m)` over `GF(2^16)` (symbols = LE byte
/// pairs). MDS: any `m` erasures decode. Supports `k + m` up to 65535.
#[derive(Debug, Clone)]
pub struct WideRs {
    k: usize,
    m: usize,
    parity: Matrix<Gf16>,
    generator: Matrix<Gf16>,
}

impl WideRs {
    /// Construct via the systematic-Vandermonde derivation at width 16.
    ///
    /// # Panics
    /// Panics if `k == 0`, `m == 0`, or `k + m > 65535`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k > 0 && m > 0, "WideRs requires k > 0 and m > 0");
        assert!(k + m <= 65535, "WideRs(k,m) needs k+m <= 65535");
        let parity = Matrix::<Gf16>::systematic_vandermonde_parity(k, m);
        let generator = Matrix::<Gf16>::identity(k).vstack(&parity);
        Self {
            k,
            m,
            parity,
            generator,
        }
    }

    /// Data symbols per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity symbols per stripe.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total elements per stripe.
    pub fn n(&self) -> usize {
        self.k + self.m
    }

    /// The `m × k` parity coefficient block.
    pub fn parity_matrix(&self) -> &Matrix<Gf16> {
        &self.parity
    }

    /// The full `n × k` generator `[I_k; P]` over `GF(2^16)`.
    pub fn generator(&self) -> &Matrix<Gf16> {
        &self.generator
    }

    /// Rebuild exactly one element from `sources` (`(position, region)`
    /// pairs). MDS: any `k` sources suffice; returns `None` with fewer.
    ///
    /// # Panics
    /// Panics if a source region's length differs from `len`.
    pub fn reconstruct_one(
        &self,
        target: usize,
        sources: &[(usize, &[u8])],
        len: usize,
    ) -> Option<Vec<u8>> {
        if sources.len() < self.k {
            return None;
        }
        let picked = &sources[..self.k];
        let rows: Vec<usize> = picked.iter().map(|(p, _)| *p).collect();
        let a = self.generator.select_rows(&rows);
        let ainv = a.invert()?; // always Some for distinct rows (MDS)
        let trow = Matrix::<Gf16>::from_data(1, self.k, self.generator.row(target).to_vec());
        let coeffs = trow.mul(&ainv);
        let mut out = vec![0u8; len];
        for (j, (_, region)) in picked.iter().enumerate() {
            assert_eq!(region.len(), len, "source region length mismatch");
            let c = coeffs[(0, j)] as u16;
            if c != 0 {
                mul_add_region16(c, region, &mut out);
            }
        }
        Some(out)
    }

    /// Compute all parities from the `k` data regions (byte lengths must
    /// be even: one symbol per byte pair) in one fused streaming pass.
    ///
    /// # Panics
    /// Panics on arity/length mismatches.
    pub fn encode(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) {
        assert_eq!(data.len(), self.k, "encode expects k data regions");
        assert_eq!(parity.len(), self.m, "encode expects m parity regions");
        let rows: Vec<Vec<u16>> = (0..self.m)
            .map(|i| self.parity.row(i).iter().map(|&c| c as u16).collect())
            .collect();
        let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let mut dsts: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        dot_region_multi16(&row_refs, data, &mut dsts);
    }

    /// True when the erasure pattern decodes (always, for ≤ m erasures —
    /// MDS).
    pub fn is_recoverable(&self, erased: &[usize]) -> bool {
        erased.iter().filter(|&&e| e < self.n()).count() <= self.m
    }

    /// Reconstruct every `None` shard in place.
    ///
    /// # Errors
    /// [`CodeError::Unrecoverable`] beyond `m` erasures;
    /// [`CodeError::Shape`] on inconsistent shapes.
    pub fn decode(&self, shards: &mut [Option<Vec<u8>>], len: usize) -> Result<(), CodeError> {
        let n = self.n();
        if shards.len() != n {
            return Err(CodeError::Shape(format!(
                "expected {n} shards, got {}",
                shards.len()
            )));
        }
        if !len.is_multiple_of(2) {
            return Err(CodeError::Shape(
                "GF(2^16) regions must be even-length".into(),
            ));
        }
        let erased: Vec<usize> = (0..n).filter(|&i| shards[i].is_none()).collect();
        if erased.is_empty() {
            return Ok(());
        }
        if erased.len() > self.m {
            return Err(CodeError::Unrecoverable { erased });
        }
        // Select the first k surviving rows (any k suffice: MDS), invert,
        // and express each erased element over them.
        let avail: Vec<usize> = (0..n)
            .filter(|&i| shards[i].is_some())
            .take(self.k)
            .collect();
        let a = self.generator.select_rows(&avail);
        let ainv = a.invert().ok_or(CodeError::Unrecoverable {
            erased: erased.clone(),
        })?;
        // Coefficients of element e over the selected survivors:
        // row_e(G) · A⁻¹ — one row per erased element, replayed through
        // the fused kernel so each survivor region streams once.
        let coeff_rows: Vec<Vec<u16>> = erased
            .iter()
            .map(|&e| {
                let ge = self.generator.row(e).to_vec();
                let row = Matrix::<Gf16>::from_data(1, self.k, ge);
                let coeffs = row.mul(&ainv);
                (0..self.k).map(|j| coeffs[(0, j)] as u16).collect()
            })
            .collect();
        let mut outs: Vec<Vec<u8>> = erased.iter().map(|_| vec![0u8; len]).collect();
        {
            let row_refs: Vec<&[u16]> = coeff_rows.iter().map(Vec::as_slice).collect();
            let srcs: Vec<&[u8]> = avail
                .iter()
                .map(|&i| shards[i].as_deref().unwrap())
                .collect();
            let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            dot_region_multi16(&row_refs, &srcs, &mut out_refs);
        }
        for (&e, out) in erased.iter().zip(outs) {
            shards[e] = Some(out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 29 + j * 13 + 1) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn encode_all(rs: &WideRs, data: &[Vec<u8>], len: usize) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; rs.m()];
        rs.encode(&refs, &mut parity);
        parity
    }

    #[test]
    fn roundtrip_small() {
        let rs = WideRs::new(6, 3);
        let len = 32;
        let data = sample(6, len);
        let parity = encode_all(&rs, &data, len);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        for e in [0usize, 4, 7] {
            shards[e] = None;
        }
        rs.decode(&mut shards, len).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_deref().unwrap(), &d[..]);
        }
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(shards[6 + i].as_deref().unwrap(), &p[..]);
        }
    }

    #[test]
    fn wide_stripe_beyond_gf8_limit() {
        // (240, 60): n = 300 > 255 — impossible at w = 8, fine at w = 16.
        let rs = WideRs::new(240, 60);
        let len = 8;
        let data = sample(240, len);
        let parity = encode_all(&rs, &data, len);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        // Erase 60 elements spread over data and parity.
        for i in 0..60 {
            shards[i * 5] = None;
        }
        rs.decode(&mut shards, len).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(shards[i].as_deref().unwrap(), &d[..], "element {i}");
        }
    }

    #[test]
    fn beyond_m_erasures_fails() {
        let rs = WideRs::new(4, 2);
        let len = 8;
        let data = sample(4, len);
        let parity = encode_all(&rs, &data, len);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        for e in [0usize, 1, 2] {
            shards[e] = None;
        }
        assert!(matches!(
            rs.decode(&mut shards, len),
            Err(CodeError::Unrecoverable { .. })
        ));
        assert!(!rs.is_recoverable(&[0, 1, 2]));
        assert!(rs.is_recoverable(&[0, 5]));
    }

    #[test]
    fn odd_region_length_rejected() {
        let rs = WideRs::new(2, 1);
        let mut shards = vec![Some(vec![0u8; 3]), Some(vec![0u8; 3]), None];
        assert!(matches!(
            rs.decode(&mut shards, 3),
            Err(CodeError::Shape(_))
        ));
    }
}
