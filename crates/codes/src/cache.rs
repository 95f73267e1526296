//! Decode-coefficient caching.
//!
//! Solving the linear system for a repair is cheap relative to moving
//! megabyte regions, but under sustained degraded operation a store
//! repairs the *same* erasure geometry thousands of times (every row of
//! every stripe touched while one disk is down solves an identical
//! system). Jerasure and ISA-L both precompute and reuse decode
//! matrices; [`DecoderCache`] is that optimisation: coefficient vectors
//! keyed by `(target, available positions)`, shared across threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ecfrm_gf::region::mul_add_region;
use ecfrm_gf::{Gf8, Matrix};

use crate::decode::solve_coefficients;

/// Key: (target position, sorted available positions).
type Key = (usize, Vec<usize>);

/// A concurrent cache of repair-coefficient vectors for one generator
/// matrix.
///
/// Entries are `None` when the source set does not span the target, so
/// negative lookups are cached too. A lookup takes the entry map's lock
/// once; the hit and miss tallies are atomics beside it.
///
/// ```
/// use ecfrm_codes::{CandidateCode, DecoderCache, RsCode};
///
/// let code = RsCode::vandermonde(4, 2);
/// let cache = DecoderCache::new(code.generator().clone());
/// // First solve misses; the identical geometry afterwards hits.
/// cache.coefficients(0, &[1, 2, 3, 4]).unwrap();
/// cache.coefficients(0, &[1, 2, 3, 4]).unwrap();
/// assert_eq!(cache.stats(), (1, 1));
/// ```
pub struct DecoderCache {
    generator: Matrix<Gf8>,
    entries: Mutex<HashMap<Key, Option<Arc<Vec<u8>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for DecoderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, m) = self.stats();
        write!(f, "DecoderCache({} entries, {h} hits / {m} misses)", {
            self.entries.lock().unwrap().len()
        })
    }
}

impl DecoderCache {
    /// Create a cache over a code's `n × k` generator.
    pub fn new(generator: Matrix<Gf8>) -> Self {
        Self {
            generator,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Coefficients for rebuilding `target` from exactly the positions in
    /// `avail` (order-sensitive application, order-insensitive caching).
    pub fn coefficients(&self, target: usize, avail: &[usize]) -> Option<Arc<Vec<u8>>> {
        let mut key: Vec<usize> = avail.to_vec();
        key.sort_unstable();
        let key = (target, key);
        let mut entries = self
            .entries
            .lock()
            .expect("a thread panicked holding the decoder cache");
        if let Some(cached) = entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Solve against the SORTED positions so the cached vector matches
        // the canonical key order. Solving under the lock costs only a
        // geometry's first lookup, and no two threads solve the same one.
        let solved = solve_coefficients(&self.generator, target, &key.1).map(Arc::new);
        entries.insert(key, solved.clone());
        solved
    }

    /// Rebuild `target` from `(position, region)` sources using cached
    /// coefficients.
    ///
    /// # Panics
    /// Panics if source regions have differing lengths.
    pub fn reconstruct(
        &self,
        target: usize,
        sources: &[(usize, &[u8])],
        len: usize,
    ) -> Option<Vec<u8>> {
        let positions: Vec<usize> = sources.iter().map(|(p, _)| *p).collect();
        let coeffs = self.coefficients(target, &positions)?;
        // Canonical (sorted) coefficient order → look up each source.
        let mut sorted: Vec<(usize, &[u8])> = sources.to_vec();
        sorted.sort_unstable_by_key(|(p, _)| *p);
        let mut out = vec![0u8; len];
        for (&c, (_, region)) in coeffs.iter().zip(&sorted) {
            if c != 0 {
                assert_eq!(region.len(), len, "source region length mismatch");
                mul_add_region(c, region, &mut out);
            }
        }
        Some(out)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached systems.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CandidateCode, LrcCode, RsCode};

    fn encode_full(code: &dyn CandidateCode, len: usize) -> Vec<Vec<u8>> {
        let data: Vec<Vec<u8>> = (0..code.k())
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; code.m()];
        code.encode(&refs, &mut parity);
        data.into_iter().chain(parity).collect()
    }

    #[test]
    fn cached_reconstruction_matches_direct() {
        let code = RsCode::vandermonde(6, 3);
        let len = 32;
        let full = encode_full(&code, len);
        let cache = DecoderCache::new(code.generator().clone());
        for target in 0..9usize {
            let sources: Vec<(usize, &[u8])> = (0..9)
                .filter(|&p| p != target)
                .take(6)
                .map(|p| (p, full[p].as_slice()))
                .collect();
            let got = cache.reconstruct(target, &sources, len).unwrap();
            assert_eq!(got, full[target], "target {target}");
        }
    }

    #[test]
    fn repeated_geometry_hits_the_cache() {
        let code = LrcCode::new(6, 2, 2);
        let len = 16;
        let full = encode_full(&code, len);
        let cache = DecoderCache::new(code.generator().clone());
        // Same geometry 100 times: 1 miss, 99 hits.
        for _ in 0..100 {
            let sources: Vec<(usize, &[u8])> = [1usize, 2, 6]
                .iter()
                .map(|&p| (p, full[p].as_slice()))
                .collect();
            let got = cache.reconstruct(0, &sources, len).unwrap();
            assert_eq!(got, full[0]);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 99);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn source_order_does_not_matter() {
        let code = RsCode::vandermonde(4, 2);
        let len = 8;
        let full = encode_full(&code, len);
        let cache = DecoderCache::new(code.generator().clone());
        let fwd: Vec<(usize, &[u8])> = [1usize, 2, 3, 4]
            .iter()
            .map(|&p| (p, full[p].as_slice()))
            .collect();
        let rev: Vec<(usize, &[u8])> = [4usize, 3, 2, 1]
            .iter()
            .map(|&p| (p, full[p].as_slice()))
            .collect();
        let a = cache.reconstruct(0, &fwd, len).unwrap();
        let b = cache.reconstruct(0, &rev, len).unwrap();
        assert_eq!(a, full[0]);
        assert_eq!(b, full[0]);
        // Both orders share one cache entry.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().0, 1);
    }

    #[test]
    fn insufficient_sources_cached_as_negative() {
        let code = RsCode::vandermonde(6, 3);
        let len = 8;
        let full = encode_full(&code, len);
        let cache = DecoderCache::new(code.generator().clone());
        let sources: Vec<(usize, &[u8])> = [1usize, 2]
            .iter()
            .map(|&p| (p, full[p].as_slice()))
            .collect();
        assert!(cache.reconstruct(0, &sources, len).is_none());
        assert!(cache.reconstruct(0, &sources, len).is_none());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1), "negative result should be cached");
    }

    #[test]
    fn parallel_access_is_safe() {
        let code = RsCode::vandermonde(6, 3);
        let len = 16;
        let full = Arc::new(encode_full(&code, len));
        let cache = Arc::new(DecoderCache::new(code.generator().clone()));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let full = Arc::clone(&full);
                std::thread::spawn(move || {
                    let target = t % 6;
                    let sources: Vec<(usize, &[u8])> = (0..9)
                        .filter(|&p| p != target)
                        .take(6)
                        .map(|p| (p, full[p].as_slice()))
                        .collect();
                    for _ in 0..50 {
                        let got = cache.reconstruct(target, &sources, len).unwrap();
                        assert_eq!(got, full[target]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 6);
    }
}
