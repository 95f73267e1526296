//! A seedable PRNG with the sampling surface the workspace needs.
//!
//! xoshiro256** (Blackman & Vigna) seeded through SplitMix64 — the same
//! construction `rand`'s `SmallRng` used. Not cryptographic; statistical
//! quality is far more than sufficient for workload generation, jitter
//! sampling, and retry-backoff randomisation.

use std::ops::{Range, RangeInclusive};

/// A deterministic, seedable pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 so nearby seeds yield uncorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the standard [0,1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from a range: `rng.random_range(0..n)`,
    /// `rng.random_range(1..=20)`, `rng.random_range(-0.2..=0.2)`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform draw of a [`Sample`] type: `let u: f64 = rng.random();`.
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Fill a byte slice with pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&w[..rest.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Uniform `u64` in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (no modulo bias).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone below 2^64 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types drawable uniformly with [`Rng::random`].
pub trait Sample {
    /// Draw one value.
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for f64 {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_f64()
    }
}

impl Sample for u64 {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for u8 {
    fn sample(rng: &mut Rng) -> Self {
        (rng.next_u64() & 0xFF) as u8
    }
}

impl Sample for bool {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + rng.bounded(span + 1) as $t
            }
        }
    )*};
}

impl_int_range!(u64, usize, u32);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.random_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = r.random_range(1usize..=20);
            assert!((1..=20).contains(&y));
            let f = r.random_range(-0.25f64..=0.25);
            assert!((-0.25..=0.25).contains(&f));
            let u: f64 = r.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(42);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.bounded(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn single_value_inclusive_range() {
        let mut r = Rng::seed_from_u64(3);
        assert_eq!(r.random_range(5usize..=5), 5);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Rng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::seed_from_u64(11);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "50-element shuffle should move something");
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).random_range(5u64..5);
    }
}
