//! Region operations over `GF(2^16)`: buffers hold one field element per
//! little-endian byte pair.
//!
//! These are the wide-symbol counterparts of [`crate::region`], used by
//! codes whose stripe exceeds the 255-element reach of `GF(2^8)`
//! (GF-Complete's `w = 16` case). Multiplication dispatches to the
//! runtime-selected split-table backend in [`crate::kernel`] — four
//! nibble tables per coefficient, byte-shuffled 16 or 32 symbols at a
//! time on SIMD backends, log/antilog per symbol only in the scalar
//! baseline.
//!
//! Backs EXPERIMENTS.md "GF kernel backends", rows `mul_region16` /
//! `mul_add_region16`; [`dot_region16`] is the tests' reference.

use crate::kernel;
use crate::region::MULTI_BLOCK;

/// `dst = c * src` over `GF(2^16)`, element-wise on byte-pair symbols.
///
/// # Panics
/// Panics if lengths differ or are odd.
pub fn mul_region16(c: u16, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_region16 length mismatch");
    assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold whole symbols");
    kernel::active().mul_region16(c, src, dst);
}

/// `dst ^= c * src` over `GF(2^16)`.
///
/// # Panics
/// Panics if lengths differ or are odd.
pub fn mul_add_region16(c: u16, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_add_region16 length mismatch");
    assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold whole symbols");
    kernel::active().mul_add_region16(c, src, dst);
}

/// Dot-product encode kernel over `GF(2^16)`: `dst = Σᵢ coeffs[i]·srcs[i]`.
/// The first nonzero term overwrites `dst` directly, so no zero-fill pass
/// precedes the accumulation.
///
/// # Panics
/// Panics on arity or length mismatches.
pub fn dot_region16(coeffs: &[u16], srcs: &[&[u8]], dst: &mut [u8]) {
    assert_eq!(coeffs.len(), srcs.len(), "dot_region16 arity mismatch");
    let mut started = false;
    for (&c, src) in coeffs.iter().zip(srcs) {
        if started {
            mul_add_region16(c, src, dst);
        } else if c != 0 {
            mul_region16(c, src, dst);
            started = true;
        } else {
            assert_eq!(dst.len(), src.len(), "dot_region16 length mismatch");
        }
    }
    if !started {
        dst.fill(0);
    }
}

/// Fused multi-output dot kernel over `GF(2^16)`: all output regions in
/// one blocked streaming pass over the sources (see
/// [`crate::region::dot_region_multi`] for the rationale).
///
/// # Panics
/// Panics on arity mismatches, length mismatches, or odd region lengths.
pub fn dot_region_multi16(coeff_rows: &[&[u16]], srcs: &[&[u8]], dsts: &mut [&mut [u8]]) {
    assert_eq!(
        coeff_rows.len(),
        dsts.len(),
        "dot_region_multi16 row/output arity mismatch"
    );
    let len = dsts.first().map_or(0, |d| d.len());
    assert_eq!(len % 2, 0, "GF(2^16) regions hold whole symbols");
    for d in dsts.iter() {
        assert_eq!(d.len(), len, "dot_region_multi16 output length mismatch");
    }
    for s in srcs {
        assert_eq!(s.len(), len, "dot_region_multi16 source length mismatch");
    }
    for row in coeff_rows {
        assert_eq!(
            row.len(),
            srcs.len(),
            "dot_region_multi16 coefficient arity mismatch"
        );
    }
    let k = kernel::active();
    // MULTI_BLOCK is a multiple of 2, so block boundaries never split a
    // symbol.
    let mut off = 0;
    while off < len {
        let end = (off + MULTI_BLOCK).min(len);
        for (row, dst) in coeff_rows.iter().zip(dsts.iter_mut()) {
            let db = &mut dst[off..end];
            let mut started = false;
            for (&c, src) in row.iter().zip(srcs) {
                if started {
                    k.mul_add_region16(c, &src[off..end], db);
                } else if c != 0 {
                    k.mul_region16(c, &src[off..end], db);
                    started = true;
                }
            }
            if !started {
                db.fill(0);
            }
        }
        off = end;
    }
}

/// Reference (scalar, unoptimised) implementations used by tests to pin
/// down the optimised kernels — the `GF(2^16)` counterpart of
/// [`crate::region::reference`].
pub mod reference {
    use crate::field::Field;
    use crate::gf16::Gf16;

    /// Symbol-at-a-time `dst = c*src` over little-endian byte pairs.
    ///
    /// # Panics
    /// Panics if lengths differ or are odd.
    pub fn mul_region16(c: u16, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "reference mul_region16 length mismatch"
        );
        assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold whole symbols");
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let v = u16::from_le_bytes([s[0], s[1]]);
            let p = Gf16::mul(c as u32, v as u32) as u16;
            d.copy_from_slice(&p.to_le_bytes());
        }
    }

    /// Symbol-at-a-time `dst ^= c*src` over little-endian byte pairs.
    ///
    /// # Panics
    /// Panics if lengths differ or are odd.
    pub fn mul_add_region16(c: u16, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            dst.len(),
            src.len(),
            "reference mul_add_region16 length mismatch"
        );
        assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold whole symbols");
        for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let v = u16::from_le_bytes([s[0], s[1]]);
            let p = Gf16::mul(c as u32, v as u32) as u16;
            let cur = u16::from_le_bytes([d[0], d[1]]);
            d.copy_from_slice(&(cur ^ p).to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::gf16::Gf16;

    fn pseudo(len: usize, seed: u64) -> Vec<u8> {
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

    #[test]
    fn mul_region_matches_reference() {
        // Includes "unaligned" even lengths that exercise the SIMD tail
        // (SIMD bodies step 32/64 bytes; 510 and 66 leave remainders).
        for len in [0usize, 2, 6, 30, 34, 66, 510, 512] {
            let src = pseudo(len, 3);
            for c in [0u16, 1, 2, 0x1234, 0xFFFF] {
                let mut dst = vec![0xAAu8; len];
                let mut want = vec![0u8; len];
                mul_region16(c, &src, &mut dst);
                reference::mul_region16(c, &src, &mut want);
                assert_eq!(dst, want, "c={c:#x} len={len}");
            }
        }
    }

    #[test]
    fn mul_by_inverse_roundtrips() {
        let src = pseudo(128, 5);
        for c in [3u16, 0x101, 0xABCD] {
            let mut mid = vec![0u8; 128];
            let mut back = vec![0u8; 128];
            mul_region16(c, &src, &mut mid);
            let cinv = Gf16::inv(c as u32) as u16;
            mul_region16(cinv, &mid, &mut back);
            assert_eq!(back, src, "c={c:#x}");
        }
    }

    #[test]
    fn mul_add_matches_reference() {
        for len in [0usize, 2, 30, 66, 510] {
            let src = pseudo(len, 7);
            let init = pseudo(len, 8);
            for c in [0u16, 1, 0x55AA, 0xFFFF] {
                let mut dst = init.clone();
                let mut want = init.clone();
                mul_add_region16(c, &src, &mut dst);
                reference::mul_add_region16(c, &src, &mut want);
                assert_eq!(dst, want, "c={c:#x} len={len}");
            }
        }
    }

    #[test]
    fn dot_region_is_linear_combination() {
        let a = pseudo(96, 10);
        let b = pseudo(96, 11);
        let mut dst = pseudo(96, 12); // must be overwritten
        dot_region16(&[2, 3], &[&a, &b], &mut dst);
        let mut want = vec![0u8; 96];
        reference::mul_add_region16(2, &a, &mut want);
        reference::mul_add_region16(3, &b, &mut want);
        assert_eq!(dst, want);
    }

    #[test]
    fn dot_region_all_zero_coeffs_zeroes_dst() {
        let a = pseudo(64, 13);
        let mut dst = pseudo(64, 14);
        dot_region16(&[0, 0], &[&a, &a], &mut dst);
        assert_eq!(dst, vec![0u8; 64]);
    }

    #[test]
    fn dot_region_leading_zero_coeffs() {
        let a = pseudo(64, 15);
        let b = pseudo(64, 16);
        let mut dst = pseudo(64, 17);
        dot_region16(&[0, 0x0102], &[&a, &b], &mut dst);
        let mut want = vec![0u8; 64];
        reference::mul_add_region16(0x0102, &b, &mut want);
        assert_eq!(dst, want);
    }

    #[test]
    fn dot_region_multi_matches_independent_dots() {
        let srcs: Vec<Vec<u8>> = (0..3).map(|i| pseudo(MULTI_BLOCK + 98, 20 + i)).collect();
        let src_refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let rows: Vec<Vec<u16>> = vec![vec![1, 1, 1], vec![0, 0, 0], vec![0x1234, 0, 0xFFFF]];
        let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        let len = srcs[0].len();
        let mut outs: Vec<Vec<u8>> = (0..rows.len())
            .map(|i| pseudo(len, 30 + i as u64))
            .collect();
        {
            let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            dot_region_multi16(&row_refs, &src_refs, &mut out_refs);
        }
        for (row, got) in rows.iter().zip(&outs) {
            let mut want = vec![0u8; len];
            dot_region16(row, &src_refs, &mut want);
            assert_eq!(got, &want, "row={row:?}");
        }
    }

    #[test]
    #[should_panic]
    fn odd_length_rejected() {
        let mut d = vec![0u8; 3];
        mul_region16(2, &[0u8; 3], &mut d);
    }

    #[test]
    #[should_panic]
    fn reference_odd_length_rejected() {
        let mut d = vec![0u8; 3];
        reference::mul_region16(2, &[0u8; 3], &mut d);
    }
}
