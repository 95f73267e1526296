//! GF region kernels and the codes built on them: MB/s for every
//! compiled backend × op × region size, the fused multi-parity encode
//! against m independent dot passes, each backend's `mul_add_region`
//! speed-up over the scalar reference at 64 KiB (the README's kernel
//! table), and per-code encode / worst-case decode / single-element
//! repair throughput — §II-D's point that with fast GF arithmetic
//! computation is not the differentiator, I/O is.

use std::hint::black_box;
use std::time::Duration;

use ecfrm_bench::cells;
use ecfrm_bench::report::Report;
use ecfrm_codes::{CandidateCode, DecoderCache, LrcCode, RsCode};
use ecfrm_gf::kernel::{self, Kernel};
use ecfrm_gf::region;

use crate::{bytes, measure};

const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];
const SPEEDUP_LEN: usize = 64 * 1024;
const CODE_ELEMENT: usize = 64 * 1024;

fn mbps(bytes: usize, secs_per_call: f64) -> f64 {
    bytes as f64 / 1e6 / secs_per_call
}

/// A broken kernel never publishes numbers: `k` must agree with the
/// byte-at-a-time references, odd tail included.
fn agrees_with_reference(k: &Kernel) {
    let src = bytes(4097, 3);
    let (mut want, mut got) = (vec![0u8; 4097], vec![0u8; 4097]);
    region::reference::mul_region(0x1D, &src, &mut want);
    k.mul_region8(0x1D, &src, &mut got);
    assert_eq!(got, want, "backend {} disagrees with reference", k.name);
}

type RegionOp<'a> = (&'static str, &'a dyn Fn(&[u8], &mut [u8]));

fn backend_rows(k: &'static Kernel, budget: Duration, r: &mut Report) {
    let ops: [RegionOp; 2] = [
        ("mul_region", &|s, d| k.mul_region8(0x1D, s, d)),
        ("mul_add_region", &|s, d| k.mul_add_region8(0x1D, s, d)),
    ];
    for len in SIZES {
        let src = bytes(len, 1);
        let mut dst = bytes(len, 2);
        for (op, f) in ops {
            let rate = mbps(len, measure(budget, || f(&src, &mut dst)));
            r.row(cells! {"backend": k.name, "op": op, "len": len, "mb_per_s": rate});
        }
    }
}

/// Fused all-parities-in-one-pass encode vs m independent dot passes on
/// the dispatched backend, at Table I's (6,3) and (10,4) shapes; MB/s
/// of source bytes streamed.
fn fused_rows(budget: Duration, r: &mut Report) {
    let len = SPEEDUP_LEN;
    for (k, m) in [(6usize, 3usize), (10, 4)] {
        let srcs: Vec<Vec<u8>> = (0..k).map(|i| bytes(len, 10 + i)).collect();
        let srcs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        let rows: Vec<Vec<u8>> = (0..m).map(|row| bytes(k, row)).collect();
        let rows: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
        let mut outs = vec![vec![0u8; len]; m];
        let fused = measure(budget, || {
            let mut outs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            region::dot_region_multi(&rows, &srcs, &mut outs);
        });
        let independent = measure(budget, || {
            for (row, out) in rows.iter().zip(outs.iter_mut()) {
                region::dot_region(row, &srcs, out);
            }
        });
        r.row(cells! {
            "fused": "dot_region_multi", "k": k, "m": m, "len": len,
            "mb_per_s": mbps(k * len, fused),
            "independent_dots_mb_per_s": mbps(k * len, independent),
        });
    }
}

/// Per-code cells at 64 KiB elements: encode (data MB/s), worst-case
/// decode (`fault_tolerance` erased data elements, rebuilt MB/s), and
/// one-element repair with and without cached coefficients.
fn code_rows(budget: Duration, r: &mut Report) {
    let len = CODE_ELEMENT;
    let codes: [Box<dyn CandidateCode>; 5] = [
        Box::new(RsCode::vandermonde(6, 3)),
        Box::new(LrcCode::new(6, 2, 2)),
        Box::new(RsCode::cauchy(6, 3)),
        Box::new(RsCode::vandermonde(10, 5)),
        Box::new(LrcCode::new(10, 2, 4)),
    ];
    for (i, code) in codes.iter().enumerate() {
        let data: Vec<Vec<u8>> = (0..code.k()).map(|j| bytes(len, j)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; len]; code.m()];
        let secs = measure(budget, || code.encode(&refs, &mut parity));
        r.row(cells! {"code": code.name().as_str(), "op": "encode", "mb_per_s": mbps(code.k() * len, secs)});
        if i >= 2 {
            continue;
        }
        let lost = code.fault_tolerance();
        let shards: Vec<Option<Vec<u8>>> = data.iter().chain(&parity).cloned().map(Some).collect();
        let decode = || {
            let mut s = shards.clone();
            s[..lost].fill(None);
            code.decode(&mut s, len).expect("within tolerance");
            s
        };
        assert_eq!(decode(), shards, "decode returned wrong bytes");
        let secs = measure(budget, || drop(black_box(decode())));
        r.row(cells! {"code": code.name().as_str(), "op": "decode_worst_case", "mb_per_s": mbps(lost * len, secs)});
        if i > 0 {
            continue;
        }
        // Rebuild element 0 of that RS(6,3) stripe from elements 1..=6.
        let generator = RsCode::vandermonde(6, 3).generator().clone();
        let sources: Vec<(usize, &[u8])> = (1..7)
            .map(|p| (p, &shards[p].as_ref().unwrap()[..]))
            .collect();
        let cache = DecoderCache::new(generator.clone());
        let uncached = || ecfrm_codes::decode::reconstruct_one(&generator, 0, &sources, len);
        let cached = || cache.reconstruct(0, &sources, len);
        assert_eq!(uncached().expect("six sources suffice"), data[0]);
        assert_eq!(cached().expect("six sources suffice"), data[0]);
        let uncached = measure(budget, || drop(black_box(uncached())));
        let cached = measure(budget, || drop(black_box(cached())));
        for (op, secs) in [
            ("repair_one_element", uncached),
            ("repair_one_element_cached", cached),
        ] {
            r.row(cells! {"code": code.name().as_str(), "op": op, "mb_per_s": mbps(len, secs)});
        }
    }
}

pub fn run(quick: bool) -> Report {
    let budget = Duration::from_millis(if quick { 40 } else { 150 });
    let shape = cells! {"speedup_len": SPEEDUP_LEN, "code_element": CODE_ELEMENT};
    let mut r = Report::new("kernels", quick, "none", shape);

    let supported: Vec<&'static Kernel> = kernel::backends()
        .iter()
        .copied()
        .filter(|k| k.is_supported())
        .collect();
    for k in &supported {
        agrees_with_reference(k);
        backend_rows(k, budget, &mut r);
    }
    for len in SIZES {
        let src = bytes(len, 1);
        let mut dst = bytes(len, 2);
        let rate = mbps(len, measure(budget, || region::xor_region(&mut dst, &src)));
        r.row(cells! {"backend": "any", "op": "xor_region", "len": len, "mb_per_s": rate});
    }
    fused_rows(budget, &mut r);

    let at_64k = |r: &Report, backend: &str| {
        let len = SPEEDUP_LEN.to_string();
        let row = r.find(&[
            ("backend", backend),
            ("op", "mul_add_region"),
            ("len", &len),
        ]);
        row.and_then(|row| row.num("mb_per_s")).unwrap_or(f64::NAN)
    };
    let scalar = at_64k(&r, "scalar");
    for k in &supported {
        let speedup = at_64k(&r, k.name) / scalar;
        r.row(cells! {"speedup_mul_add_64k": k.name, "vs_scalar": speedup});
    }
    code_rows(budget, &mut r);
    r
}

/// The dispatched backend is named in the header and has its speed-up
/// over scalar measured.
pub fn check(r: &Report) -> Result<(), String> {
    r.find(&[("speedup_mul_add_64k", r.kernel_backend())])?
        .num("vs_scalar")
        .map(|_| ())
}
