//! Vertical erasure codes: X-Code and WEAVER.
//!
//! The paper's motivation (§II-B, §III-A) is that vertical codes —
//! parities distributed among all disks — get normal reads right (every
//! disk holds data) but "cannot achieve both high fault tolerance and
//! low storage overheads simultaneously, … and usually cannot apply to
//! arbitrary number of disks". This crate implements the two vertical
//! codes the paper names so that claim is checkable, and so the
//! benchmark harness can put them next to EC-FRM:
//!
//! * [`XCode`] — Xu & Bruck's MDS array code: `p` disks (`p` prime!),
//!   `p − 2` data rows, two diagonal-parity rows, tolerance exactly 2;
//! * [`Weaver`] — Hafner's WEAVER(n, 2, 2): tolerance 2 at 50% storage
//!   efficiency, any `n`.
//!
//! Both are expressed through [`ArrayCode`], a generic XOR array code
//! over a `rows × cols` grid with a binary generator matrix, which
//! reuses the workspace's matrix decoder — the same machinery that
//! decodes RS and LRC.
//!
//! Backs EXPERIMENTS.md "Ablations → Vertical codes" (DESIGN §5
//! "Vertical-code comparison", `figures -- vertical`).

pub mod array_code;
pub mod weaver;
pub mod xcode;

pub use array_code::ArrayCode;
pub use weaver::Weaver;
pub use xcode::XCode;

/// Primality by trial division (array-code parameters are tiny).
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::is_prime;

    #[test]
    fn primality() {
        let primes: Vec<usize> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }
}
