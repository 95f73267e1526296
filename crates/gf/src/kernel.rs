//! Runtime-dispatched region-multiply kernels built on 4-bit split tables.
//!
//! This is the workspace's substitute for GF-Complete's `SPLIT w,4`
//! implementations — the kernels behind Jerasure 1.2's headline speed.
//! The idea: a product `c·b` over `GF(2^8)` splits by linearity into
//! `c·(b_lo) ⊕ c·(b_hi·16)`, so two 16-entry tables (one per nibble)
//! fully describe multiplication by `c`. Sixteen entries is exactly the
//! reach of the byte-shuffle instructions every modern ISA ships
//! (`pshufb` / `vpshufb` / `tbl`), which turns the per-byte table lookup
//! into a 16- or 32-wide parallel lookup. `GF(2^16)` splits the same way
//! into four nibbles, each contributing a 16-bit partial product.
//!
//! Four backends are compiled (per architecture) and one is selected at
//! first use:
//!
//! | name       | arch     | technique                                   |
//! |------------|----------|---------------------------------------------|
//! | `avx2`     | x86_64   | 32-wide `_mm256_shuffle_epi8` nibble lookup |
//! | `ssse3`    | x86_64   | 16-wide `_mm_shuffle_epi8` nibble lookup    |
//! | `neon`     | aarch64  | 16-wide `vqtbl1q_u8` nibble lookup          |
//! | `scalar`   | any      | 256-byte product-row stream (the reference) |
//!
//! Selection order is top to bottom (first supported wins); the
//! `ECFRM_FORCE_KERNEL` environment variable overrides it by name, which
//! is how CI pins the differential suite to each backend in turn.
//! Forcing a backend the CPU cannot run (or a name that does not exist)
//! panics at first use — a test-harness override must never silently
//! degrade.
//!
//! All backends implement the same contract and are pinned against the
//! byte-at-a-time references in [`crate::region::reference`] and
//! [`crate::region16::reference`] by `tests/kernel_backends.rs`.

use std::sync::OnceLock;

use crate::field::Field;
use crate::gf16::Gf16;
use crate::gf8::Gf8;

/// The two 16-entry split tables for `GF(2^8)` multiplication by `c`:
/// `lo[n] = c·n` and `hi[n] = c·(n·16)`, so `c·b = lo[b & 15] ⊕ hi[b >> 4]`.
#[inline]
pub(crate) fn split_tables8(c: u8) -> ([u8; 16], [u8; 16]) {
    let row = Gf8::mul_row(c);
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for n in 0..16 {
        lo[n] = row[n];
        hi[n] = row[n << 4];
    }
    (lo, hi)
}

/// The four 16-entry split tables for `GF(2^16)` multiplication by `c`:
/// `t[j][n] = c·(n·16^j)`, so a symbol's product is the XOR of four
/// nibble lookups.
#[inline]
pub(crate) fn split_tables16(c: u16) -> [[u16; 16]; 4] {
    let mut t = [[0u16; 16]; 4];
    for (j, table) in t.iter_mut().enumerate() {
        for (n, entry) in table.iter_mut().enumerate() {
            *entry = Gf16::mul(c as u32, (n << (4 * j)) as u32) as u16;
        }
    }
    t
}

/// One region-multiply backend. The function pointers must be correct
/// for **every** coefficient (including 0 and 1); the public wrappers in
/// [`crate::region`] / [`crate::region16`] shortcut 0 and 1 before
/// dispatching, so backends only see `c >= 2` in practice.
pub struct Kernel {
    /// Backend name as accepted by `ECFRM_FORCE_KERNEL`.
    pub name: &'static str,
    supported: fn() -> bool,
    mul8: fn(u8, &[u8], &mut [u8]),
    mul_add8: fn(u8, &[u8], &mut [u8]),
    mul16: fn(u16, &[u8], &mut [u8]),
    mul_add16: fn(u16, &[u8], &mut [u8]),
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

impl Kernel {
    /// True when the running CPU can execute this backend.
    pub fn is_supported(&self) -> bool {
        (self.supported)()
    }

    /// `dst = c·src` over `GF(2^8)`. Lengths must match (checked by the
    /// callers in [`crate::region`]).
    #[inline]
    pub fn mul_region8(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => (self.mul8)(c, src, dst),
        }
    }

    /// `dst ^= c·src` over `GF(2^8)`.
    #[inline]
    pub fn mul_add_region8(&self, c: u8, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match c {
            0 => {}
            1 => crate::region::xor_region(dst, src),
            _ => (self.mul_add8)(c, src, dst),
        }
    }

    /// `dst = c·src` over `GF(2^16)` (LE byte-pair symbols, even length).
    #[inline]
    pub fn mul_region16(&self, c: u16, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => (self.mul16)(c, src, dst),
        }
    }

    /// `dst ^= c·src` over `GF(2^16)`.
    #[inline]
    pub fn mul_add_region16(&self, c: u16, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        match c {
            0 => {}
            1 => crate::region::xor_region(dst, src),
            _ => (self.mul_add16)(c, src, dst),
        }
    }
}

// ---------------------------------------------------------------------------
// scalar backend: the original 256-byte product-row stream. Kept both as
// the universally-available baseline the benches compare against and as
// the tail loop every wider backend falls back to.
// ---------------------------------------------------------------------------

fn scalar_mul8(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = Gf8::mul_row(c);
    // Unrolled by 4: the bound checks vanish and the table row stays in
    // L1 for the whole region.
    let mut i = 0;
    let n4 = src.len() / 4 * 4;
    while i < n4 {
        dst[i] = row[src[i] as usize];
        dst[i + 1] = row[src[i + 1] as usize];
        dst[i + 2] = row[src[i + 2] as usize];
        dst[i + 3] = row[src[i + 3] as usize];
        i += 4;
    }
    while i < src.len() {
        dst[i] = row[src[i] as usize];
        i += 1;
    }
}

fn scalar_mul_add8(c: u8, src: &[u8], dst: &mut [u8]) {
    let row = Gf8::mul_row(c);
    let mut i = 0;
    let n4 = src.len() / 4 * 4;
    while i < n4 {
        dst[i] ^= row[src[i] as usize];
        dst[i + 1] ^= row[src[i + 1] as usize];
        dst[i + 2] ^= row[src[i + 2] as usize];
        dst[i + 3] ^= row[src[i + 3] as usize];
        i += 4;
    }
    while i < src.len() {
        dst[i] ^= row[src[i] as usize];
        i += 1;
    }
}

fn scalar_mul16(c: u16, src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let v = u16::from_le_bytes([s[0], s[1]]);
        let p = Gf16::mul(c as u32, v as u32) as u16;
        d.copy_from_slice(&p.to_le_bytes());
    }
}

fn scalar_mul_add16(c: u16, src: &[u8], dst: &mut [u8]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let v = u16::from_le_bytes([s[0], s[1]]);
        let p = Gf16::mul(c as u32, v as u32) as u16;
        let cur = u16::from_le_bytes([d[0], d[1]]);
        d.copy_from_slice(&(cur ^ p).to_le_bytes());
    }
}

/// Panic unless a SIMD kernel may run: its CPU `feature` is present
/// (std caches the detection, so this is a load) and `src` and `dst` have
/// equal lengths — together the whole safety contract of every
/// `unsafe fn` kernel below.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn runnable(feature: bool, src: &[u8], dst: &[u8]) {
    assert!(feature, "SIMD kernel called on a CPU without its feature");
    assert_eq!(src.len(), dst.len(), "region lengths differ");
}

static SCALAR: Kernel = Kernel {
    name: "scalar",
    supported: || true,
    mul8: scalar_mul8,
    mul_add8: scalar_mul_add8,
    mul16: scalar_mul16,
    mul_add16: scalar_mul_add16,
};

// ---------------------------------------------------------------------------
// x86_64 backends: SSSE3 (pshufb, 16-wide) and AVX2 (vpshufb, 32-wide).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    // -- GF(2^8) ------------------------------------------------------

    /// # Safety
    /// The CPU must support SSSE3, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 16 bytes at `i` for every `i + 16 <= src.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul8_ssse3(c: u8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = split_tables8(c);
        let lo_t = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let n = src.len() / 16 * 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let s = _mm_loadu_si128(sp.add(i) as *const __m128i);
            let l = _mm_shuffle_epi8(lo_t, _mm_and_si128(s, mask));
            let h = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            let mut p = _mm_xor_si128(l, h);
            if accumulate {
                p = _mm_xor_si128(p, _mm_loadu_si128(dp.add(i) as *const __m128i));
            }
            _mm_storeu_si128(dp.add(i) as *mut __m128i, p);
            i += 16;
        }
        if accumulate {
            scalar_mul_add8(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul8(c, &src[n..], &mut dst[n..]);
        }
    }

    /// # Safety
    /// The CPU must support AVX2, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 32 bytes at `i` for every `i + 32 <= src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn mul8_avx2(c: u8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = split_tables8(c);
        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr() as *const __m128i));
        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr() as *const __m128i));
        let mask = _mm256_set1_epi8(0x0f);
        let n = src.len() / 32 * 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let l = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, mask));
            let h = _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            let mut p = _mm256_xor_si256(l, h);
            if accumulate {
                p = _mm256_xor_si256(p, _mm256_loadu_si256(dp.add(i) as *const __m256i));
            }
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, p);
            i += 32;
        }
        if accumulate {
            scalar_mul_add8(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul8(c, &src[n..], &mut dst[n..]);
        }
    }

    // -- GF(2^16) -----------------------------------------------------
    //
    // Memory holds interleaved little-endian byte pairs. Each iteration
    // deinterleaves a run of symbols into a low-byte plane and a
    // high-byte plane, runs four nibble lookups per output plane, and
    // re-interleaves on store. This is GF-Complete's SPLIT 16,4 without
    // the ALTMAP layout change (regions stay plain byte-pair buffers).

    /// Build the eight 16-byte lookup tables for the planes: for split
    /// table `j`, `[j][0]` maps a nibble to the low result byte and
    /// `[j][1]` to the high result byte.
    #[inline]
    fn plane_tables16(c: u16) -> [[[u8; 16]; 2]; 4] {
        let t = split_tables16(c);
        let mut planes = [[[0u8; 16]; 2]; 4];
        for j in 0..4 {
            for n in 0..16 {
                let [l, h] = t[j][n].to_le_bytes();
                planes[j][0][n] = l;
                planes[j][1][n] = h;
            }
        }
        planes
    }

    /// # Safety
    /// The CPU must support SSSE3, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 32 bytes at `i` for every `i + 32 <= src.len()`. (An even length
    /// is what makes the result right, not what makes it safe: a trailing
    /// odd byte is left alone.)
    #[target_feature(enable = "ssse3")]
    unsafe fn mul16_ssse3(c: u16, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let planes = plane_tables16(c);
        let t: [__m128i; 8] = [
            _mm_loadu_si128(planes[0][0].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[0][1].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[1][0].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[1][1].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[2][0].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[2][1].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[3][0].as_ptr() as *const __m128i),
            _mm_loadu_si128(planes[3][1].as_ptr() as *const __m128i),
        ];
        let mask = _mm_set1_epi8(0x0f);
        // Even-byte / odd-byte extraction masks for deinterleaving.
        let even = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1);
        let odd = _mm_setr_epi8(1, 3, 5, 7, 9, 11, 13, 15, -1, -1, -1, -1, -1, -1, -1, -1);
        let n = src.len() / 32 * 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v0 = _mm_loadu_si128(sp.add(i) as *const __m128i);
            let v1 = _mm_loadu_si128(sp.add(i + 16) as *const __m128i);
            // 16 low-plane bytes and 16 high-plane bytes of 16 symbols.
            let lo = _mm_unpacklo_epi64(_mm_shuffle_epi8(v0, even), _mm_shuffle_epi8(v1, even));
            let hi = _mm_unpacklo_epi64(_mm_shuffle_epi8(v0, odd), _mm_shuffle_epi8(v1, odd));
            let n0 = _mm_and_si128(lo, mask);
            let n1 = _mm_and_si128(_mm_srli_epi64(lo, 4), mask);
            let n2 = _mm_and_si128(hi, mask);
            let n3 = _mm_and_si128(_mm_srli_epi64(hi, 4), mask);
            let rlo = _mm_xor_si128(
                _mm_xor_si128(_mm_shuffle_epi8(t[0], n0), _mm_shuffle_epi8(t[2], n1)),
                _mm_xor_si128(_mm_shuffle_epi8(t[4], n2), _mm_shuffle_epi8(t[6], n3)),
            );
            let rhi = _mm_xor_si128(
                _mm_xor_si128(_mm_shuffle_epi8(t[1], n0), _mm_shuffle_epi8(t[3], n1)),
                _mm_xor_si128(_mm_shuffle_epi8(t[5], n2), _mm_shuffle_epi8(t[7], n3)),
            );
            let mut out0 = _mm_unpacklo_epi8(rlo, rhi);
            let mut out1 = _mm_unpackhi_epi8(rlo, rhi);
            if accumulate {
                out0 = _mm_xor_si128(out0, _mm_loadu_si128(dp.add(i) as *const __m128i));
                out1 = _mm_xor_si128(out1, _mm_loadu_si128(dp.add(i + 16) as *const __m128i));
            }
            _mm_storeu_si128(dp.add(i) as *mut __m128i, out0);
            _mm_storeu_si128(dp.add(i + 16) as *mut __m128i, out1);
            i += 32;
        }
        if accumulate {
            scalar_mul_add16(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul16(c, &src[n..], &mut dst[n..]);
        }
    }

    /// # Safety
    /// The CPU must support AVX2, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 64 bytes at `i` for every `i + 64 <= src.len()`. (An even length
    /// is for correctness only, as in `mul16_ssse3`.)
    #[target_feature(enable = "avx2")]
    unsafe fn mul16_avx2(c: u16, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let planes = plane_tables16(c);
        let bt = |p: &[u8; 16]| {
            _mm256_broadcastsi128_si256(_mm_loadu_si128(p.as_ptr() as *const __m128i))
        };
        let t: [__m256i; 8] = [
            bt(&planes[0][0]),
            bt(&planes[0][1]),
            bt(&planes[1][0]),
            bt(&planes[1][1]),
            bt(&planes[2][0]),
            bt(&planes[2][1]),
            bt(&planes[3][0]),
            bt(&planes[3][1]),
        ];
        let mask = _mm256_set1_epi8(0x0f);
        #[allow(clippy::cast_possible_wrap)]
        let even = _mm256_setr_epi8(
            0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1, 0, 2, 4, 6, 8, 10, 12, 14,
            -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let odd = _mm256_setr_epi8(
            1, 3, 5, 7, 9, 11, 13, 15, -1, -1, -1, -1, -1, -1, -1, -1, 1, 3, 5, 7, 9, 11, 13, 15,
            -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let n = src.len() / 64 * 64;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let v0 = _mm256_loadu_si256(sp.add(i) as *const __m256i);
            let v1 = _mm256_loadu_si256(sp.add(i + 32) as *const __m256i);
            // Per-lane even/odd extraction leaves each lane's 8 plane
            // bytes in its low half; permute packs them: low 128 bits =
            // v0's 16 plane bytes, etc.
            let e0 = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(v0, even), 0b11011000);
            let e1 = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(v1, even), 0b11011000);
            let o0 = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(v0, odd), 0b11011000);
            let o1 = _mm256_permute4x64_epi64(_mm256_shuffle_epi8(v1, odd), 0b11011000);
            // 32 low-plane bytes (symbols 0..32) and 32 high-plane bytes.
            let lo = _mm256_permute2x128_si256(e0, e1, 0x20);
            let hi = _mm256_permute2x128_si256(o0, o1, 0x20);
            let n0 = _mm256_and_si256(lo, mask);
            let n1 = _mm256_and_si256(_mm256_srli_epi64(lo, 4), mask);
            let n2 = _mm256_and_si256(hi, mask);
            let n3 = _mm256_and_si256(_mm256_srli_epi64(hi, 4), mask);
            let rlo = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_shuffle_epi8(t[0], n0), _mm256_shuffle_epi8(t[2], n1)),
                _mm256_xor_si256(_mm256_shuffle_epi8(t[4], n2), _mm256_shuffle_epi8(t[6], n3)),
            );
            let rhi = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_shuffle_epi8(t[1], n0), _mm256_shuffle_epi8(t[3], n1)),
                _mm256_xor_si256(_mm256_shuffle_epi8(t[5], n2), _mm256_shuffle_epi8(t[7], n3)),
            );
            // Re-interleave planes back into byte pairs: unpack works
            // per lane, so recombine lane halves across the two stores.
            let il = _mm256_unpacklo_epi8(rlo, rhi);
            let ih = _mm256_unpackhi_epi8(rlo, rhi);
            let mut out0 = _mm256_permute2x128_si256(il, ih, 0x20);
            let mut out1 = _mm256_permute2x128_si256(il, ih, 0x31);
            if accumulate {
                out0 = _mm256_xor_si256(out0, _mm256_loadu_si256(dp.add(i) as *const __m256i));
                out1 = _mm256_xor_si256(out1, _mm256_loadu_si256(dp.add(i + 32) as *const __m256i));
            }
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, out0);
            _mm256_storeu_si256(dp.add(i + 32) as *mut __m256i, out1);
            i += 64;
        }
        if accumulate {
            scalar_mul_add16(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul16(c, &src[n..], &mut dst[n..]);
        }
    }

    // Safe wrappers: each checks its kernel's whole contract first, so a
    // backend taken from `backends()` on a CPU without its feature
    // panics instead of executing an illegal instruction.
    pub(super) fn ssse3_mul8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("ssse3"), src, dst);
        // SAFETY: `runnable` returned, so SSSE3 is present and the
        // lengths match: all of `mul8_ssse3`'s contract.
        unsafe { mul8_ssse3(c, src, dst, false) }
    }
    pub(super) fn ssse3_mul_add8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("ssse3"), src, dst);
        // SAFETY: `runnable` returned, so SSSE3 is present and the
        // lengths match: all of `mul8_ssse3`'s contract.
        unsafe { mul8_ssse3(c, src, dst, true) }
    }
    pub(super) fn ssse3_mul16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("ssse3"), src, dst);
        // SAFETY: `runnable` returned, so SSSE3 is present and the
        // lengths match: all of `mul16_ssse3`'s contract.
        unsafe { mul16_ssse3(c, src, dst, false) }
    }
    pub(super) fn ssse3_mul_add16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("ssse3"), src, dst);
        // SAFETY: `runnable` returned, so SSSE3 is present and the
        // lengths match: all of `mul16_ssse3`'s contract.
        unsafe { mul16_ssse3(c, src, dst, true) }
    }
    pub(super) fn avx2_mul8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("avx2"), src, dst);
        // SAFETY: `runnable` returned, so AVX2 is present and the
        // lengths match: all of `mul8_avx2`'s contract.
        unsafe { mul8_avx2(c, src, dst, false) }
    }
    pub(super) fn avx2_mul_add8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("avx2"), src, dst);
        // SAFETY: `runnable` returned, so AVX2 is present and the
        // lengths match: all of `mul8_avx2`'s contract.
        unsafe { mul8_avx2(c, src, dst, true) }
    }
    pub(super) fn avx2_mul16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("avx2"), src, dst);
        // SAFETY: `runnable` returned, so AVX2 is present and the
        // lengths match: all of `mul16_avx2`'s contract.
        unsafe { mul16_avx2(c, src, dst, false) }
    }
    pub(super) fn avx2_mul_add16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(is_x86_feature_detected!("avx2"), src, dst);
        // SAFETY: `runnable` returned, so AVX2 is present and the
        // lengths match: all of `mul16_avx2`'s contract.
        unsafe { mul16_avx2(c, src, dst, true) }
    }
}

#[cfg(target_arch = "x86_64")]
static SSSE3: Kernel = Kernel {
    name: "ssse3",
    supported: || std::arch::is_x86_feature_detected!("ssse3"),
    mul8: x86::ssse3_mul8,
    mul_add8: x86::ssse3_mul_add8,
    mul16: x86::ssse3_mul16,
    mul_add16: x86::ssse3_mul_add16,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernel = Kernel {
    name: "avx2",
    supported: || std::arch::is_x86_feature_detected!("avx2"),
    mul8: x86::avx2_mul8,
    mul_add8: x86::avx2_mul_add8,
    mul16: x86::avx2_mul16,
    mul_add16: x86::avx2_mul_add16,
};

// ---------------------------------------------------------------------------
// aarch64 backend: NEON vqtbl1q_u8 nibble lookup (tbl covers 16 entries,
// exactly one split table). vld2q/vst2q give the byte-pair deinterleave
// for GF(2^16) in hardware.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::*;
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// # Safety
    /// The CPU must support NEON, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 16 bytes at `i` for every `i + 16 <= src.len()`.
    #[target_feature(enable = "neon")]
    unsafe fn mul8_neon(c: u8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let (lo, hi) = split_tables8(c);
        let lo_t = vld1q_u8(lo.as_ptr());
        let hi_t = vld1q_u8(hi.as_ptr());
        let mask = vdupq_n_u8(0x0f);
        let n = src.len() / 16 * 16;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            let s = vld1q_u8(sp.add(i));
            let l = vqtbl1q_u8(lo_t, vandq_u8(s, mask));
            let h = vqtbl1q_u8(hi_t, vshrq_n_u8(s, 4));
            let mut p = veorq_u8(l, h);
            if accumulate {
                p = veorq_u8(p, vld1q_u8(dp.add(i)));
            }
            vst1q_u8(dp.add(i), p);
            i += 16;
        }
        if accumulate {
            scalar_mul_add8(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul8(c, &src[n..], &mut dst[n..]);
        }
    }

    /// # Safety
    /// The CPU must support NEON, and `src.len() == dst.len()`: the loop
    /// loads from `src` and loads and stores `dst` through raw pointers,
    /// 32 bytes at `i` for every `i + 32 <= src.len()`. (An even length
    /// is for correctness only: a trailing odd byte is left alone.)
    #[target_feature(enable = "neon")]
    unsafe fn mul16_neon(c: u16, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let t = split_tables16(c);
        let mut planes = [[0u8; 16]; 8];
        for j in 0..4 {
            for n in 0..16 {
                let [l, h] = t[j][n].to_le_bytes();
                planes[2 * j][n] = l;
                planes[2 * j + 1][n] = h;
            }
        }
        let tv: [uint8x16_t; 8] = [
            vld1q_u8(planes[0].as_ptr()),
            vld1q_u8(planes[1].as_ptr()),
            vld1q_u8(planes[2].as_ptr()),
            vld1q_u8(planes[3].as_ptr()),
            vld1q_u8(planes[4].as_ptr()),
            vld1q_u8(planes[5].as_ptr()),
            vld1q_u8(planes[6].as_ptr()),
            vld1q_u8(planes[7].as_ptr()),
        ];
        let mask = vdupq_n_u8(0x0f);
        let n = src.len() / 32 * 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i < n {
            // Structure load deinterleaves 16 byte-pair symbols into a
            // low-byte plane and a high-byte plane.
            let v = vld2q_u8(sp.add(i));
            let n0 = vandq_u8(v.0, mask);
            let n1 = vshrq_n_u8(v.0, 4);
            let n2 = vandq_u8(v.1, mask);
            let n3 = vshrq_n_u8(v.1, 4);
            let rlo = veorq_u8(
                veorq_u8(vqtbl1q_u8(tv[0], n0), vqtbl1q_u8(tv[2], n1)),
                veorq_u8(vqtbl1q_u8(tv[4], n2), vqtbl1q_u8(tv[6], n3)),
            );
            let rhi = veorq_u8(
                veorq_u8(vqtbl1q_u8(tv[1], n0), vqtbl1q_u8(tv[3], n1)),
                veorq_u8(vqtbl1q_u8(tv[5], n2), vqtbl1q_u8(tv[7], n3)),
            );
            let mut out = uint8x16x2_t(rlo, rhi);
            if accumulate {
                let cur = vld2q_u8(dp.add(i));
                out = uint8x16x2_t(veorq_u8(out.0, cur.0), veorq_u8(out.1, cur.1));
            }
            vst2q_u8(dp.add(i), out);
            i += 32;
        }
        if accumulate {
            scalar_mul_add16(c, &src[n..], &mut dst[n..]);
        } else {
            scalar_mul16(c, &src[n..], &mut dst[n..]);
        }
    }

    // Safe wrappers, as for x86.
    pub(super) fn neon_mul8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(std::arch::is_aarch64_feature_detected!("neon"), src, dst);
        // SAFETY: `runnable` returned, so NEON is present and the lengths
        // match: all of `mul8_neon`'s contract.
        unsafe { mul8_neon(c, src, dst, false) }
    }
    pub(super) fn neon_mul_add8(c: u8, src: &[u8], dst: &mut [u8]) {
        runnable(std::arch::is_aarch64_feature_detected!("neon"), src, dst);
        // SAFETY: `runnable` returned, so NEON is present and the lengths
        // match: all of `mul8_neon`'s contract.
        unsafe { mul8_neon(c, src, dst, true) }
    }
    pub(super) fn neon_mul16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(std::arch::is_aarch64_feature_detected!("neon"), src, dst);
        // SAFETY: `runnable` returned, so NEON is present and the lengths
        // match: all of `mul16_neon`'s contract.
        unsafe { mul16_neon(c, src, dst, false) }
    }
    pub(super) fn neon_mul_add16(c: u16, src: &[u8], dst: &mut [u8]) {
        runnable(std::arch::is_aarch64_feature_detected!("neon"), src, dst);
        // SAFETY: `runnable` returned, so NEON is present and the lengths
        // match: all of `mul16_neon`'s contract.
        unsafe { mul16_neon(c, src, dst, true) }
    }
}

#[cfg(target_arch = "aarch64")]
static NEON: Kernel = Kernel {
    name: "neon",
    supported: || std::arch::is_aarch64_feature_detected!("neon"),
    mul8: arm::neon_mul8,
    mul_add8: arm::neon_mul_add8,
    mul16: arm::neon_mul16,
    mul_add16: arm::neon_mul_add16,
};

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

/// Every backend compiled for this architecture, in selection-preference
/// order. Check [`Kernel::is_supported`] before invoking one directly —
/// entries exist even when the running CPU lacks the feature.
pub fn backends() -> &'static [&'static Kernel] {
    #[cfg(target_arch = "x86_64")]
    {
        static ALL: [&Kernel; 3] = [&AVX2, &SSSE3, &SCALAR];
        &ALL
    }
    #[cfg(target_arch = "aarch64")]
    {
        static ALL: [&Kernel; 2] = [&NEON, &SCALAR];
        &ALL
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        static ALL: [&Kernel; 1] = [&SCALAR];
        &ALL
    }
}

/// Look up a compiled backend by its `ECFRM_FORCE_KERNEL` name.
pub fn by_name(name: &str) -> Option<&'static Kernel> {
    backends().iter().copied().find(|k| k.name == name)
}

/// Pure selection logic: an explicit name must exist and be runnable;
/// otherwise the first supported backend in preference order wins.
///
/// # Panics
/// Panics when `force` names an unknown or CPU-unsupported backend —
/// a forced kernel silently degrading would invalidate whatever test
/// pinned it.
fn choose(force: Option<&str>) -> &'static Kernel {
    if let Some(name) = force {
        let Some(k) = by_name(name) else {
            let names: Vec<&str> = backends().iter().map(|k| k.name).collect();
            panic!("ECFRM_FORCE_KERNEL={name:?} is not a compiled backend (have: {names:?})");
        };
        assert!(
            k.is_supported(),
            "ECFRM_FORCE_KERNEL={name:?} is not supported by this CPU"
        );
        return k;
    }
    backends()
        .iter()
        .copied()
        .find(|k| k.is_supported())
        .expect("scalar backend is always supported")
}

/// The process-wide active kernel: selected once on first use from
/// `ECFRM_FORCE_KERNEL` or CPU feature detection.
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(|| choose(std::env::var("ECFRM_FORCE_KERNEL").ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_tables8_reconstruct_products() {
        for c in [2u8, 3, 0x1D, 0x80, 0xFF] {
            let (lo, hi) = split_tables8(c);
            for b in 0..=255u8 {
                let want = Gf8::mul(c as u32, b as u32) as u8;
                assert_eq!(lo[(b & 15) as usize] ^ hi[(b >> 4) as usize], want);
            }
        }
    }

    #[test]
    fn split_tables16_reconstruct_products() {
        for c in [2u16, 0x1234, 0xFFFF, 0x8001] {
            let t = split_tables16(c);
            for v in [0u16, 1, 2, 0x00FF, 0x0F0F, 0xABCD, 0xFFFF, 0x8000] {
                let want = Gf16::mul(c as u32, v as u32) as u16;
                let got = (0..4).fold(0, |acc, j| acc ^ t[j][(v >> (4 * j)) as usize & 15]);
                assert_eq!(got, want, "c={c:#x} v={v:#x}");
            }
        }
    }

    #[test]
    fn choose_defaults_to_supported_backend() {
        let k = choose(None);
        assert!(k.is_supported());
    }

    #[test]
    fn choose_honours_force() {
        assert_eq!(choose(Some("scalar")).name, "scalar");
    }

    #[test]
    #[should_panic]
    fn choose_rejects_unknown_name() {
        choose(Some("warp-drive"));
    }

    #[test]
    fn backends_end_with_the_universal_fallback() {
        assert_eq!(backends().last().map(|k| k.name), Some("scalar"));
    }

    #[test]
    fn active_is_stable() {
        assert_eq!(active().name, active().name);
    }
}
