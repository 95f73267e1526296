//! Randomised tests for the candidate codes.
//!
//! Property-style: each test sweeps a seeded pseudo-random sample of
//! parameters and erasure patterns (fixed seeds, deterministic replay).

use ecfrm_codes::decode::reconstruct_one;
use ecfrm_codes::{CandidateCode, LrcCode, RepairSpec, RsCode, XorCode};
use ecfrm_util::Rng;

fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
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

fn encode_full(code: &dyn CandidateCode, seed: u64, len: usize) -> Vec<Vec<u8>> {
    let data: Vec<Vec<u8>> = (0..code.k())
        .map(|i| xorshift_bytes(seed.wrapping_add(i as u64), len))
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity = vec![vec![0u8; len]; code.m()];
    code.encode(&refs, &mut parity);
    data.into_iter().chain(parity).collect()
}

/// Pick `t` distinct positions in `0..n`.
fn pick_erasures(rng: &mut Rng, n: usize, t: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order.truncate(t);
    order
}

/// RS is MDS: ANY pattern of exactly m erasures decodes, for random
/// parameters and random patterns.
#[test]
fn rs_mds_random_patterns() {
    let mut rng = Rng::seed_from_u64(0x4D5);
    for _ in 0..64 {
        let k = rng.random_range(2usize..12);
        let m = rng.random_range(1usize..6);
        let seed: u64 = rng.random();
        let code = RsCode::vandermonde(k, m);
        let len = 24;
        let full = encode_full(&code, seed, len);
        let erased = pick_erasures(&mut rng, k + m, m);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for &e in &erased {
            shards[e] = None;
        }
        code.decode(&mut shards, len).unwrap();
        for (i, want) in full.iter().enumerate() {
            assert_eq!(shards[i].as_deref().unwrap(), &want[..]);
        }
        // And m+1 erasures never decode.
        let erased = pick_erasures(&mut rng, k + m, m + 1);
        assert!(!code.is_recoverable(&erased));
    }
}

/// Cauchy and Vandermonde constructions encode DIFFERENT parities but
/// both decode the same data.
#[test]
fn cauchy_and_vandermonde_agree_on_data() {
    let mut rng = Rng::seed_from_u64(0xCA0C);
    for _ in 0..64 {
        let k = rng.random_range(2usize..10);
        let m = rng.random_range(1usize..5);
        let seed: u64 = rng.random();
        let v = RsCode::vandermonde(k, m);
        let c = RsCode::cauchy(k, m);
        let len = 16;
        let fv = encode_full(&v, seed, len);
        let fc = encode_full(&c, seed, len);
        // Same data prefix.
        assert_eq!(&fv[..k], &fc[..k]);
        // Erase the same data elements from both; both must restore them.
        let erased = pick_erasures(&mut rng, k, m.min(k));
        for (code, full) in [(&v, &fv), (&c, &fc)] {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for &e in &erased {
                shards[e] = None;
            }
            code.decode(&mut shards, len).unwrap();
            for &e in &erased {
                assert_eq!(shards[e].as_deref().unwrap(), &full[e][..]);
            }
        }
    }
}

/// LRC single-element repair reads exactly the local group (k/l
/// elements) and those sources actually rebuild the element.
#[test]
fn lrc_local_repair_is_local_and_correct() {
    let mut rng = Rng::seed_from_u64(0x12C);
    for _ in 0..64 {
        let group_size = rng.random_range(2usize..5);
        let l = rng.random_range(1usize..3);
        let m = rng.random_range(1usize..4);
        let seed: u64 = rng.random();
        let k = group_size * l;
        let code = LrcCode::new(k, l, m);
        let len = 16;
        let full = encode_full(&code, seed, len);
        let target = (seed % k as u64) as usize;
        let spec = code.repair_spec(target, &[target]).unwrap();
        let RepairSpec::Exact { read } = spec else {
            panic!("LRC single repair must be Exact");
        };
        assert_eq!(read.len(), group_size, "repair reads k/l elements");
        let sources: Vec<(usize, &[u8])> = read.iter().map(|&p| (p, full[p].as_slice())).collect();
        let rebuilt = reconstruct_one(code.generator(), target, &sources, len)
            .expect("local sources span the target");
        assert_eq!(rebuilt, full[target].clone());
    }
}

/// For every code, whatever repair_spec proposes must actually suffice
/// to rebuild the target.
#[test]
fn repair_specs_are_sufficient() {
    let mut rng = Rng::seed_from_u64(0x5BEC);
    for _ in 0..192 {
        let pick = rng.random_range(0usize..3);
        let seed: u64 = rng.random();
        let fail_extra: u64 = rng.random();
        let code: Box<dyn CandidateCode> = match pick {
            0 => Box::new(RsCode::vandermonde(6, 3)),
            1 => Box::new(LrcCode::new(6, 2, 2)),
            _ => Box::new(XorCode::new(5)),
        };
        let n = code.n();
        let len = 8;
        let full = encode_full(code.as_ref(), seed, len);
        let target = (seed % n as u64) as usize;
        // One or two erasures including the target.
        let mut erased = vec![target];
        let other = (fail_extra % n as u64) as usize;
        if other != target && code.fault_tolerance() >= 2 {
            erased.push(other);
        }
        let Some(spec) = code.repair_spec(target, &erased) else {
            // Within tolerance this must exist.
            assert!(erased.len() > code.fault_tolerance());
            continue;
        };
        let read: Vec<usize> = match spec {
            RepairSpec::Exact { read } => read,
            RepairSpec::AnyOf { from, count } => from.into_iter().take(count).collect(),
        };
        for &p in &read {
            assert!(!erased.contains(&p), "source {p} is erased");
        }
        let sources: Vec<(usize, &[u8])> = read.iter().map(|&p| (p, full[p].as_slice())).collect();
        let rebuilt = reconstruct_one(code.generator(), target, &sources, len)
            .expect("spec sources must span the target");
        assert_eq!(rebuilt, full[target].clone());
    }
}

/// Encoding is deterministic and repeatable for every code.
#[test]
fn encoding_deterministic() {
    let mut rng = Rng::seed_from_u64(0xDE7);
    for pick in 0usize..3 {
        for _ in 0..8 {
            let seed: u64 = rng.random();
            let code: Box<dyn CandidateCode> = match pick {
                0 => Box::new(RsCode::cauchy(5, 2)),
                1 => Box::new(LrcCode::new(4, 2, 1)),
                _ => Box::new(XorCode::new(3)),
            };
            let a = encode_full(code.as_ref(), seed, 12);
            let b = encode_full(code.as_ref(), seed, 12);
            assert_eq!(a, b);
        }
    }
}
