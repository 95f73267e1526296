//! `GF(2^4)` with primitive polynomial `0x13` (x⁴ + x + 1).
//!
//! Small enough to be exhaustively testable, `GF(2^4)` is included mainly
//! so generic code paths (matrix algebra, Cauchy constructions) can be
//! verified against a field where brute force over all elements and all
//! small matrices is feasible, and to support narrow codes where
//! `n < 16` suffices.
//!
//! Backs no experiment: it is the reference field of `matrix.rs`'s and
//! `tests/prop_gf.rs`'s exhaustive tests.

use crate::field::{peasant_mul, Field};

/// Primitive polynomial for this field (including the x⁴ term).
pub const POLY4: u32 = 0x13;

const ORDER: usize = 16;

const fn build_exp() -> [u8; 2 * (ORDER - 1)] {
    let mut t = [0u8; 2 * (ORDER - 1)];
    let mut x: u32 = 1;
    let mut i = 0;
    while i < ORDER - 1 {
        t[i] = x as u8;
        t[i + (ORDER - 1)] = x as u8;
        x = peasant_mul(x, 2, 4, POLY4);
        i += 1;
    }
    t
}

const fn build_log(exp: &[u8; 2 * (ORDER - 1)]) -> [u8; ORDER] {
    let mut t = [0u8; ORDER];
    let mut i = 0;
    while i < ORDER - 1 {
        t[exp[i] as usize] = i as u8;
        i += 1;
    }
    t
}

static EXP: [u8; 2 * (ORDER - 1)] = build_exp();
static LOG: [u8; ORDER] = build_log(&EXP);

/// Marker type implementing [`Field`] for `GF(2^4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf4;

impl Field for Gf4 {
    const W: u32 = 4;
    const ORDER: u32 = 16;
    const POLY: u32 = POLY4;

    #[inline]
    fn mul(a: u32, b: u32) -> u32 {
        debug_assert!(a < 16 && b < 16);
        if a == 0 || b == 0 {
            return 0;
        }
        EXP[(LOG[a as usize] + LOG[b as usize]) as usize] as u32
    }

    #[inline]
    fn inv(a: u32) -> u32 {
        assert!(a != 0 && a < 16, "inverse of zero");
        EXP[(15 - LOG[a as usize] as usize) % 15] as u32
    }

    #[inline]
    fn exp(e: u32) -> u32 {
        EXP[(e % 15) as usize] as u32
    }

    #[inline]
    fn log(a: u32) -> u32 {
        assert!(a != 0 && a < 16, "log of zero");
        LOG[a as usize] as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_field_axioms() {
        // GF(16) is tiny: check associativity/commutativity/distributivity
        // over every triple.
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert_eq!(Gf4::mul(a, b), Gf4::mul(b, a));
                assert_eq!(Gf4::mul(a, b), peasant_mul(a, b, 4, POLY4));
                for c in 0..16u32 {
                    assert_eq!(Gf4::mul(a, Gf4::mul(b, c)), Gf4::mul(Gf4::mul(a, b), c));
                    assert_eq!(Gf4::mul(a, b ^ c), Gf4::mul(a, b) ^ Gf4::mul(a, c));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..16u32 {
            assert_eq!(Gf4::mul(a, Gf4::inv(a)), 1);
        }
    }

    #[test]
    fn generator_is_primitive() {
        let mut seen = [false; 16];
        for e in 0..15u32 {
            let v = Gf4::exp(e) as usize;
            assert!(!seen[v], "generator repeats before full period");
            seen[v] = true;
        }
        assert!(!seen[0], "generator never hits zero");
    }
}
