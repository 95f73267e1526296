//! Bulk "region" operations: the hot loops of erasure encoding/decoding.
//!
//! A *region* is a byte buffer holding one `GF(2^8)` element per byte.
//! Encoding a parity element is a dot product of coefficient × data-region
//! terms; decoding is the same with inverted-matrix coefficients. These
//! kernels correspond to GF-Complete's `multiply_region` family:
//!
//! * [`xor_region`] — `dst ^= src`, processed 64 bits at a time;
//! * [`mul_region`] / [`mul_add_region`] — multiply a region by a constant
//!   (optionally accumulating), dispatched to the runtime-selected
//!   split-table backend in [`crate::kernel`] (SSSE3/AVX2/NEON byte
//!   shuffles where the CPU has them, the scalar product-row loop
//!   otherwise);
//! * [`dot_region`] — the full encode kernel: `dst = Σ cᵢ·srcᵢ`;
//! * [`dot_region_multi`] — the fused variant producing all parity
//!   regions in one streaming pass over the data regions.
//!
//! Constants 0 and 1 are special-cased (skip / plain XOR), which matters in
//! practice because XOR-heavy codes such as LRC local parities hit those
//! paths on every element.

use crate::kernel;

/// Block size (bytes) for the fused multi-output kernels: large enough to
/// amortise per-call overhead, small enough that one block of every
/// output plus one source stays L1/L2-resident while streaming.
pub const MULTI_BLOCK: usize = 32 * 1024;

/// `dst ^= src` over equal-length regions, 8 bytes at a time. Tails
/// shorter than a word are folded into one overlapping unaligned word
/// whose already-processed bytes are masked out of the source.
///
/// # Panics
/// Panics if `dst.len() != src.len()`.
pub fn xor_region(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_region length mismatch");
    let len = dst.len();
    let n = len / 8 * 8;
    let mut i = 0;
    while i < n {
        let a = u64::from_le_bytes(dst[i..i + 8].try_into().unwrap());
        let b = u64::from_le_bytes(src[i..i + 8].try_into().unwrap());
        dst[i..i + 8].copy_from_slice(&(a ^ b).to_le_bytes());
        i += 8;
    }
    let tail = len - n;
    if tail > 0 {
        if len >= 8 {
            // One overlapping word at the end: the low `8 - tail` bytes
            // were already XORed above, so mask them out of the source —
            // a zero contribution leaves them untouched.
            let w = len - 8;
            let a = u64::from_le_bytes(dst[w..].try_into().unwrap());
            let b = u64::from_le_bytes(src[w..].try_into().unwrap());
            let mask = !0u64 << (8 * (8 - tail));
            dst[w..].copy_from_slice(&(a ^ (b & mask)).to_le_bytes());
        } else {
            for (d, s) in dst[n..].iter_mut().zip(&src[n..]) {
                *d ^= *s;
            }
        }
    }
}

/// `dst = c * src` over `GF(2^8)`, element-wise.
///
/// # Panics
/// Panics if `dst.len() != src.len()`.
pub fn mul_region(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_region length mismatch");
    kernel::active().mul_region8(c, src, dst);
}

/// `dst ^= c * src` over `GF(2^8)`, element-wise (multiply–accumulate).
///
/// # Panics
/// Panics if `dst.len() != src.len()`.
pub fn mul_add_region(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len(), "mul_add_region length mismatch");
    kernel::active().mul_add_region8(c, src, dst);
}

/// Dot-product encode kernel: `dst = Σᵢ coeffs[i] · srcs[i]`.
///
/// This is the inner loop of every parity computation: one output region
/// accumulated from `k` input regions with per-input coefficients — the
/// one-row case of [`dot_region_multi`].
///
/// # Panics
/// Panics if `coeffs.len() != srcs.len()`, or any source length differs
/// from `dst`.
pub fn dot_region(coeffs: &[u8], srcs: &[&[u8]], dst: &mut [u8]) {
    dot_region_multi(&[coeffs], srcs, &mut [dst]);
}

/// Fused multi-output dot kernel: `dsts[r] = Σᵢ coeff_rows[r][i]·srcs[i]`
/// for every output row `r`, in one blocked streaming pass.
///
/// Computing all `m` parities per block means each source block is read
/// once while hot instead of `m` times from DRAM — for `(k, m)` encode
/// this cuts memory traffic from `m·k` source reads to `k`, the trick
/// behind ISA-L's `ec_encode_data`. Each row's first nonzero term is
/// written with a straight multiply (overwriting its output block), so
/// no zero-fill pass touches the outputs beforehand.
///
/// # Panics
/// Panics if `coeff_rows.len() != dsts.len()`, any coefficient row's
/// arity differs from `srcs.len()`, or any region length differs.
pub fn dot_region_multi(coeff_rows: &[&[u8]], srcs: &[&[u8]], dsts: &mut [&mut [u8]]) {
    assert_eq!(
        coeff_rows.len(),
        dsts.len(),
        "dot_region_multi row/output arity mismatch"
    );
    let len = dsts.first().map_or(0, |d| d.len());
    for d in dsts.iter() {
        assert_eq!(d.len(), len, "dot_region_multi output length mismatch");
    }
    for s in srcs {
        assert_eq!(s.len(), len, "dot_region_multi source length mismatch");
    }
    for row in coeff_rows {
        assert_eq!(
            row.len(),
            srcs.len(),
            "dot_region_multi coefficient arity mismatch"
        );
    }
    let k = kernel::active();
    let mut off = 0;
    while off < len {
        let end = (off + MULTI_BLOCK).min(len);
        for (row, dst) in coeff_rows.iter().zip(dsts.iter_mut()) {
            let db = &mut dst[off..end];
            let mut started = false;
            for (&c, src) in row.iter().zip(srcs) {
                if started {
                    k.mul_add_region8(c, &src[off..end], db);
                } else if c != 0 {
                    k.mul_region8(c, &src[off..end], db);
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
/// down the optimised kernels.
pub mod reference {
    use crate::field::Field;
    use crate::gf8::Gf8;

    /// Byte-at-a-time `dst = c*src`.
    pub fn mul_region(c: u8, src: &[u8], dst: &mut [u8]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Gf8::mul(c as u32, s as u32) as u8;
        }
    }

    /// Byte-at-a-time `dst ^= c*src`.
    pub fn mul_add_region(c: u8, src: &[u8], dst: &mut [u8]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= Gf8::mul(c as u32, s as u32) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_bytes(len: usize, seed: u64) -> Vec<u8> {
        // Tiny deterministic generator: keeps the tests free of external
        // RNG plumbing while still covering varied byte values.
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
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
    fn xor_region_matches_scalar() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let a = pseudo_bytes(len, 1);
            let b = pseudo_bytes(len, 2);
            let mut got = a.clone();
            xor_region(&mut got, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn xor_region_self_inverse() {
        let a = pseudo_bytes(777, 3);
        let b = pseudo_bytes(777, 4);
        let mut buf = a.clone();
        xor_region(&mut buf, &b);
        xor_region(&mut buf, &b);
        assert_eq!(buf, a);
    }

    #[test]
    fn mul_region_matches_reference() {
        for c in [0u8, 1, 2, 3, 0x1D, 0x80, 0xFF] {
            for len in [0usize, 1, 5, 8, 100, 4096] {
                let src = pseudo_bytes(len, c as u64 + 10);
                let mut got = vec![0u8; len];
                let mut want = vec![0u8; len];
                mul_region(c, &src, &mut got);
                reference::mul_region(c, &src, &mut want);
                assert_eq!(got, want, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_add_region_matches_reference() {
        for c in [0u8, 1, 2, 0xA5, 0xFF] {
            let src = pseudo_bytes(513, 20);
            let init = pseudo_bytes(513, 21);
            let mut got = init.clone();
            let mut want = init.clone();
            mul_add_region(c, &src, &mut got);
            reference::mul_add_region(c, &src, &mut want);
            assert_eq!(got, want, "c={c}");
        }
    }

    #[test]
    fn mul_region_by_inverse_roundtrips() {
        use crate::field::Field;
        use crate::gf8::Gf8;
        let src = pseudo_bytes(256, 30);
        for c in [2u8, 7, 0x1D, 0xEE] {
            let mut mid = vec![0u8; src.len()];
            let mut back = vec![0u8; src.len()];
            mul_region(c, &src, &mut mid);
            mul_region(Gf8::inv(c as u32) as u8, &mid, &mut back);
            assert_eq!(back, src, "c={c}");
        }
    }

    #[test]
    fn dot_region_is_linear_combination() {
        let s0 = pseudo_bytes(300, 40);
        let s1 = pseudo_bytes(300, 41);
        let s2 = pseudo_bytes(300, 42);
        let coeffs = [3u8, 0, 0x7C];
        let mut got = vec![0u8; 300];
        dot_region(&coeffs, &[&s0, &s1, &s2], &mut got);
        let mut want = vec![0u8; 300];
        reference::mul_add_region(3, &s0, &mut want);
        reference::mul_add_region(0x7C, &s2, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn dot_region_overwrites_dst() {
        // dst contents must never leak into the result, even without a
        // zero-fill pass.
        let s = pseudo_bytes(64, 50);
        let mut dst = pseudo_bytes(64, 51);
        dot_region(&[1], &[&s], &mut dst);
        assert_eq!(dst, s);
    }

    #[test]
    fn dot_region_all_zero_coeffs_zeroes_dst() {
        let s = pseudo_bytes(64, 52);
        let mut dst = pseudo_bytes(64, 53);
        dot_region(&[0, 0], &[&s, &s], &mut dst);
        assert_eq!(dst, vec![0u8; 64]);
    }

    #[test]
    fn dot_region_leading_zero_coeffs() {
        // The first nonzero coefficient may appear anywhere in the row.
        let s0 = pseudo_bytes(100, 54);
        let s1 = pseudo_bytes(100, 55);
        let mut got = pseudo_bytes(100, 56);
        dot_region(&[0, 7], &[&s0, &s1], &mut got);
        let mut want = vec![0u8; 100];
        reference::mul_add_region(7, &s1, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn dot_region_multi_matches_independent_dots() {
        let srcs: Vec<Vec<u8>> = (0..4)
            .map(|i| pseudo_bytes(MULTI_BLOCK + 97, 60 + i))
            .collect();
        let src_refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let rows: Vec<Vec<u8>> = vec![
            vec![1, 1, 1, 1],
            vec![0, 0, 0, 0],
            vec![2, 0, 0x1D, 0xFF],
            vec![0, 9, 0, 0],
        ];
        let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let len = srcs[0].len();
        let mut outs: Vec<Vec<u8>> = (0..rows.len())
            .map(|i| pseudo_bytes(len, 70 + i as u64))
            .collect();
        {
            let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            dot_region_multi(&row_refs, &src_refs, &mut out_refs);
        }
        for (row, got) in rows.iter().zip(&outs) {
            let mut want = vec![0u8; len];
            dot_region(row, &src_refs, &mut want);
            assert_eq!(got, &want, "row={row:?}");
        }
    }

    #[test]
    fn dot_region_multi_no_outputs_or_sources() {
        // m = 0 is a no-op; k = 0 zero-fills every output.
        dot_region_multi(&[], &[], &mut []);
        let mut out = pseudo_bytes(33, 80);
        let row: &[u8] = &[];
        dot_region_multi(&[row], &[], &mut [&mut out]);
        assert_eq!(out, vec![0u8; 33]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut d = [0u8; 4];
        xor_region(&mut d, &[0u8; 5]);
    }

    #[test]
    #[should_panic]
    fn dot_region_mismatched_source_panics() {
        let s0 = [0u8; 4];
        let s1 = [0u8; 5];
        let mut d = [0u8; 4];
        dot_region(&[0, 1], &[&s0, &s1], &mut d);
    }
}
