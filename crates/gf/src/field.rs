//! The [`Field`] trait: arithmetic over binary extension fields `GF(2^w)`.
//!
//! All erasure-code math in this workspace is expressed against this trait
//! so that the same matrix machinery works over `GF(2^8)`, the field of
//! every code, and `GF(2^4)`, the field small enough for its tests to
//! check every case. Elements are carried as `u32` regardless of `w`;
//! implementations guarantee that results always fit in `w` bits and may
//! debug-assert that inputs do.

/// Arithmetic over a binary extension field `GF(2^w)`.
///
/// Implementations are zero-sized marker types; every operation is an
/// associated function. Addition is XOR (characteristic 2), multiplication
/// is polynomial multiplication modulo a primitive polynomial, typically
/// realised through log/antilog tables generated at compile time.
pub trait Field: Copy + Clone + Send + Sync + 'static {
    /// Field width in bits: elements live in `0..2^W`.
    const W: u32;

    /// Number of field elements, `2^W`.
    const ORDER: u32;

    /// The primitive polynomial used for reduction (including the leading
    /// `x^W` term), e.g. `0x11D` for the common `GF(2^8)`.
    const POLY: u32;

    /// Field addition: in characteristic 2 this is bitwise XOR.
    #[inline(always)]
    fn add(a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field subtraction: identical to addition in characteristic 2.
    #[inline(always)]
    fn sub(a: u32, b: u32) -> u32 {
        a ^ b
    }

    /// Field multiplication.
    fn mul(a: u32, b: u32) -> u32;

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `a == 0`; zero has no inverse.
    fn inv(a: u32) -> u32;

    /// Field division `a / b`.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    #[inline]
    fn div(a: u32, b: u32) -> u32 {
        Self::mul(a, Self::inv(b))
    }

    /// `generator ^ e` where the generator is the primitive element whose
    /// powers enumerate all non-zero field elements. `e` is reduced modulo
    /// `ORDER - 1`.
    fn exp(e: u32) -> u32;

    /// Discrete logarithm base the primitive generator.
    ///
    /// # Panics
    /// Panics if `a == 0`.
    fn log(a: u32) -> u32;

    /// Exponentiation `a ^ e` by square-and-multiply via log tables.
    #[inline]
    fn pow(a: u32, e: u32) -> u32 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        if e == 0 {
            return 1;
        }
        let l = Self::log(a) as u64 * e as u64;
        Self::exp((l % (Self::ORDER as u64 - 1)) as u32)
    }
}

/// Slow-but-obviously-correct carry-less ("Russian peasant") multiply used
/// to generate the tables and as the reference in tests.
///
/// Works for any `w <= 16` with the given primitive polynomial `poly`
/// (which must include the leading `x^w` bit).
pub const fn peasant_mul(mut a: u32, mut b: u32, w: u32, poly: u32) -> u32 {
    let mut p: u32 = 0;
    let high_bit = 1u32 << (w - 1);
    let mask = (1u32 << w) - 1;
    let mut i = 0;
    while i < w {
        if b & 1 != 0 {
            p ^= a;
        }
        b >>= 1;
        let carry = a & high_bit != 0;
        a = (a << 1) & mask;
        if carry {
            a ^= poly & mask;
        }
        i += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peasant_mul_small_identities() {
        // In GF(2^8)/0x11D: x * x = x^2, i.e. 2 * 2 = 4.
        assert_eq!(peasant_mul(2, 2, 8, 0x11D), 4);
        // Multiplying by 1 is identity.
        for a in 0..=255u32 {
            assert_eq!(peasant_mul(a, 1, 8, 0x11D), a);
            assert_eq!(peasant_mul(1, a, 8, 0x11D), a);
        }
        // Multiplying by 0 annihilates.
        for a in 0..=255u32 {
            assert_eq!(peasant_mul(a, 0, 8, 0x11D), 0);
        }
    }

    #[test]
    fn peasant_mul_known_vector() {
        // 0x53 * 0xCA = 0x01 in GF(2^8) with poly 0x11B (AES field):
        // classic test vector showing reduction polynomial matters.
        assert_eq!(peasant_mul(0x53, 0xCA, 8, 0x11B), 0x01);
    }

    #[test]
    fn peasant_mul_commutes() {
        for a in (0..256u32).step_by(7) {
            for b in (0..256u32).step_by(11) {
                assert_eq!(peasant_mul(a, b, 8, 0x11D), peasant_mul(b, a, 8, 0x11D));
            }
        }
    }

    #[test]
    fn peasant_mul_distributes() {
        for a in (0..256u32).step_by(13) {
            for b in (0..256u32).step_by(17) {
                for c in (0..256u32).step_by(29) {
                    assert_eq!(
                        peasant_mul(a, b ^ c, 8, 0x11D),
                        peasant_mul(a, b, 8, 0x11D) ^ peasant_mul(a, c, 8, 0x11D)
                    );
                }
            }
        }
    }
}
