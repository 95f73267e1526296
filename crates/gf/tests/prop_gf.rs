//! Randomised tests for the Galois-field substrate.
//!
//! Property-style: each test sweeps a seeded pseudo-random sample of the
//! input space (fixed seeds, so failures reproduce deterministically).

use ecfrm_gf::field::peasant_mul;
use ecfrm_gf::region::{self, reference};
use ecfrm_gf::{Field, Gf4, Gf8, Matrix};
use ecfrm_util::Rng;

/// Check the full field-axiom set for one (a, b, c) triple.
fn axioms<F: Field>(a: u32, b: u32, c: u32) {
    // Commutativity and associativity.
    assert_eq!(F::mul(a, b), F::mul(b, a));
    assert_eq!(F::mul(a, F::mul(b, c)), F::mul(F::mul(a, b), c));
    // Distributivity over XOR-addition.
    assert_eq!(F::mul(a, b ^ c), F::mul(a, b) ^ F::mul(a, c));
    // Identities.
    assert_eq!(F::mul(a, 1), a);
    assert_eq!(F::mul(a, 0), 0);
    // Inverses.
    if a != 0 {
        assert_eq!(F::mul(a, F::inv(a)), 1);
        assert_eq!(F::div(F::mul(b, a), a), b);
    }
    // Reference multiplier agreement.
    assert_eq!(F::mul(a, b), peasant_mul(a, b, F::W, F::POLY));
}

#[test]
fn gf4_axioms_exhaustive() {
    for a in 0..16 {
        for b in 0..16 {
            for c in 0..16 {
                axioms::<Gf4>(a, b, c);
            }
        }
    }
}

#[test]
fn gf8_axioms_sampled() {
    let mut rng = Rng::seed_from_u64(0x6F8A);
    for _ in 0..4096 {
        axioms::<Gf8>(
            rng.random_range(0u32..256),
            rng.random_range(0u32..256),
            rng.random_range(0u32..256),
        );
    }
}

#[test]
fn exp_log_bijection_gf8() {
    for a in 1u32..256 {
        assert_eq!(Gf8::exp(Gf8::log(a)), a);
    }
}

#[test]
fn pow_laws_gf8() {
    // a^(e1+e2) == a^e1 * a^e2.
    let mut rng = Rng::seed_from_u64(0x709);
    for _ in 0..2048 {
        let a = rng.random_range(1u32..256);
        let e1 = rng.random_range(0u32..500);
        let e2 = rng.random_range(0u32..500);
        assert_eq!(
            Gf8::pow(a, e1 + e2),
            Gf8::mul(Gf8::pow(a, e1), Gf8::pow(a, e2))
        );
    }
}

#[test]
fn region_kernels_match_reference() {
    let mut rng = Rng::seed_from_u64(0x12E6);
    for _ in 0..256 {
        let c = rng.random_range(0u32..256) as u8;
        let n = rng.random_range(0usize..300);
        let mut src = vec![0u8; n];
        rng.fill_bytes(&mut src);
        let mut acc = vec![0u8; n];
        rng.fill_bytes(&mut acc);

        let mut got = acc.clone();
        let mut want = acc.clone();
        region::mul_add_region(c, &src, &mut got);
        reference::mul_add_region(c, &src, &mut want);
        assert_eq!(got, want, "mul_add_region mismatch for c={c} n={n}");

        let mut got2 = vec![0u8; n];
        let mut want2 = vec![0u8; n];
        region::mul_region(c, &src, &mut got2);
        reference::mul_region(c, &src, &mut want2);
        assert_eq!(got2, want2, "mul_region mismatch for c={c} n={n}");
    }
}

#[test]
fn matrix_inverse_roundtrip() {
    // Random matrix over GF(2^8); if invertible, A·A⁻¹ = I and the
    // inverse inverts back.
    let mut rng = Rng::seed_from_u64(0x3A7);
    for _ in 0..512 {
        let n = rng.random_range(1usize..6);
        let data: Vec<u32> = (0..n * n).map(|_| rng.random_range(0u32..256)).collect();
        let a = Matrix::<Gf8>::from_data(n, n, data);
        if let Some(ainv) = a.invert() {
            assert_eq!(a.mul(&ainv), Matrix::<Gf8>::identity(n));
            assert_eq!(ainv.invert().unwrap(), a.clone());
            assert!(a.is_nonsingular());
        } else {
            assert!(a.rank() < n);
        }
    }
}

#[test]
fn cauchy_matrices_always_invertible() {
    for rows in 1usize..8 {
        let c = Matrix::<Gf8>::cauchy(rows, rows);
        assert!(c.invert().is_some(), "{rows}×{rows} Cauchy not invertible");
    }
}

#[test]
fn matmul_associative() {
    let mut rng = Rng::seed_from_u64(0xA550C);
    for _ in 0..512 {
        let n = rng.random_range(1usize..5);
        let mut m = || {
            let data: Vec<u32> = (0..n * n).map(|_| rng.random_range(0u32..256)).collect();
            Matrix::<Gf8>::from_data(n, n, data)
        };
        let (a, b, c) = (m(), m(), m());
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }
}
