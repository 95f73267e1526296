//! Differential suite pinning every compiled kernel backend against the
//! byte-at-a-time references in `region::reference` / `region16::reference`.
//!
//! Every backend × coefficient class {0, 1, random sample} × length class
//! {0, 1, 7, 8, 9, 63, 64, 65, 4096, 64 KiB ± 1} is exercised for both
//! `mul` and `mul_add`, in both symbol widths. Backends the running CPU
//! cannot execute are skipped (they still compile); CI additionally runs
//! the whole crate under `ECFRM_FORCE_KERNEL=<name>` so the dispatched
//! public API is pinned per backend as well.

use ecfrm_gf::kernel::{backends, by_name, Kernel};
use ecfrm_gf::{region, region16};

const LENGTHS: &[usize] = &[0, 1, 7, 8, 9, 63, 64, 65, 4096, 65535, 65536, 65537];

fn pseudo(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 0xFF) as u8
        })
        .collect()
}

/// The coefficient classes from the acceptance criteria: 0, 1, and a
/// spread of "random" (fixed-seed) values covering low/high nibbles.
fn coeffs8() -> Vec<u8> {
    vec![0, 1, 2, 3, 0x1D, 0x53, 0x80, 0xA7, 0xFF]
}

fn coeffs16() -> Vec<u16> {
    vec![0, 1, 2, 0x00FF, 0x0101, 0x1234, 0x8000, 0xABCD, 0xFFFF]
}

fn supported() -> impl Iterator<Item = &'static Kernel> {
    backends().iter().copied().filter(|k| k.is_supported())
}

#[test]
fn every_backend_mul8_matches_reference() {
    for k in supported() {
        for &len in LENGTHS {
            let src = pseudo(len, 11);
            for c in coeffs8() {
                let mut got = vec![0xA5u8; len];
                let mut want = vec![0u8; len];
                k.mul_region8(c, &src, &mut got);
                region::reference::mul_region(c, &src, &mut want);
                assert_eq!(got, want, "backend={} c={c} len={len}", k.name);
            }
        }
    }
}

#[test]
fn every_backend_mul_add8_matches_reference() {
    for k in supported() {
        for &len in LENGTHS {
            let src = pseudo(len, 12);
            let init = pseudo(len, 13);
            for c in coeffs8() {
                let mut got = init.clone();
                let mut want = init.clone();
                k.mul_add_region8(c, &src, &mut got);
                region::reference::mul_add_region(c, &src, &mut want);
                assert_eq!(got, want, "backend={} c={c} len={len}", k.name);
            }
        }
    }
}

#[test]
fn every_backend_mul16_matches_reference() {
    for k in supported() {
        for &len in LENGTHS {
            let len = len / 2 * 2; // whole symbols
            let src = pseudo(len, 14);
            for c in coeffs16() {
                let mut got = vec![0x5Au8; len];
                let mut want = vec![0u8; len];
                k.mul_region16(c, &src, &mut got);
                region16::reference::mul_region16(c, &src, &mut want);
                assert_eq!(got, want, "backend={} c={c:#x} len={len}", k.name);
            }
        }
    }
}

#[test]
fn every_backend_mul_add16_matches_reference() {
    for k in supported() {
        for &len in LENGTHS {
            let len = len / 2 * 2;
            let src = pseudo(len, 15);
            let init = pseudo(len, 16);
            for c in coeffs16() {
                let mut got = init.clone();
                let mut want = init.clone();
                k.mul_add_region16(c, &src, &mut got);
                region16::reference::mul_add_region16(c, &src, &mut want);
                assert_eq!(got, want, "backend={} c={c:#x} len={len}", k.name);
            }
        }
    }
}

#[test]
fn backend_agreement_pairwise() {
    // Belt and braces: all supported backends agree with each other on a
    // larger randomized region (catches any reference blind spot).
    let len = 64 * 1024 + 24;
    let src = pseudo(len, 17);
    let init = pseudo(len, 18);
    let ks: Vec<&Kernel> = supported().collect();
    for c in [2u8, 0x1D, 0xEE] {
        let mut first: Option<Vec<u8>> = None;
        for k in &ks {
            let mut got = init.clone();
            k.mul_add_region8(c, &src, &mut got);
            match &first {
                None => first = Some(got),
                Some(f) => assert_eq!(&got, f, "backend={} c={c}", k.name),
            }
        }
    }
}

#[test]
fn dot_region_multi_matches_reference_combination() {
    // The fused kernel goes through the dispatched active backend; pin
    // its algebra against the scalar references directly.
    let k = 6;
    let m = 3;
    let len = region::MULTI_BLOCK + 65;
    let srcs: Vec<Vec<u8>> = (0..k).map(|i| pseudo(len, 40 + i as u64)).collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
    let rows: Vec<Vec<u8>> = (0..m)
        .map(|r| {
            (0..k)
                .map(|i| ((r * 37 + i * 11 + 1) % 255) as u8)
                .collect()
        })
        .collect();
    let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
    let mut outs: Vec<Vec<u8>> = (0..m).map(|r| pseudo(len, 50 + r as u64)).collect();
    {
        let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        region::dot_region_multi(&row_refs, &src_refs, &mut out_refs);
    }
    for (row, got) in rows.iter().zip(&outs) {
        let mut want = vec![0u8; len];
        for (&c, src) in row.iter().zip(&src_refs) {
            region::reference::mul_add_region(c, src, &mut want);
        }
        assert_eq!(got, &want, "row={row:?}");
    }
}

#[test]
fn dot_region_multi16_matches_reference_combination() {
    let k = 4;
    let m = 2;
    let len = region::MULTI_BLOCK + 66;
    let srcs: Vec<Vec<u8>> = (0..k).map(|i| pseudo(len, 60 + i as u64)).collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
    let rows: Vec<Vec<u16>> = (0..m)
        .map(|r| {
            (0..k)
                .map(|i| ((r * 1009 + i * 257 + 1) % 65535) as u16)
                .collect()
        })
        .collect();
    let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    let mut outs: Vec<Vec<u8>> = (0..m).map(|r| pseudo(len, 70 + r as u64)).collect();
    {
        let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        region16::dot_region_multi16(&row_refs, &src_refs, &mut out_refs);
    }
    for (row, got) in rows.iter().zip(&outs) {
        let mut want = vec![0u8; len];
        for (&c, src) in row.iter().zip(&src_refs) {
            region16::reference::mul_add_region16(c, src, &mut want);
        }
        assert_eq!(got, &want, "row={row:?}");
    }
}

#[test]
fn by_name_resolves_the_universal_backend() {
    assert!(by_name("scalar").is_some());
    assert!(by_name("portable").is_none());
    assert!(by_name("no-such-kernel").is_none());
}

#[test]
fn forced_kernel_env_is_respected_when_set() {
    // When CI pins ECFRM_FORCE_KERNEL, the dispatched kernel must be the
    // forced one; without the variable this just sanity-checks support.
    let active = ecfrm_gf::kernel::active();
    match std::env::var("ECFRM_FORCE_KERNEL") {
        Ok(name) => assert_eq!(active.name, name),
        Err(_) => assert!(active.is_supported()),
    }
}
