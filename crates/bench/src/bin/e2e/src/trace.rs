//! The traced run: where an end-to-end read's microseconds go.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public boundary — nothing inside the program is
//! instrumented. One client replays the main rounds' op stream one op
//! at a time, at six nested boundaries:
//!
//! | level         | call timed                                   |
//! |---------------|----------------------------------------------|
//! | `net.front`   | `FrontClient::read_range` over loopback TCP  |
//! | `store.front` | `FrontDoor::read_range` in-process           |
//! | `store.read`  | `ObjectStore::read_extent` of the same bytes |
//! | `sim.array`   | `ThreadedArray::read_batch` on the plan      |
//! | `net.client`  | `RemoteDisk::read_many`, most-loaded shard   |
//! | `sim.disk`    | `read_many` on that shard's raw device       |
//!
//! An op list is replayed in two passes. The **front pass** issues it
//! through `FrontClient::read_range`, back to back on the one
//! connection — the loop an untraced client runs, plus two clock reads
//! per op — so the traced top level is the untraced read. The **inner
//! pass** issues a list through `FrontDoor::read_range` in-process and,
//! for every op the cache did not serve, again at each of the four
//! levels below; an op the cache served costs those levels 0. With the
//! cache off the inner pass replays the front pass's list; with it on
//! that list would now hit on every op, so the inner pass takes the
//! stream's next list instead, and both front levels meet the cache in
//! the state an untraced run leaves it in. A level's self time is its
//! median over its ops minus the next level's, so the self times sum to
//! the top-level median by construction.

use std::collections::HashMap;
use std::time::Instant;

use ecfrm_core::{LayoutKind, Purpose, ReadCtx, Scheme};
use ecfrm_sim::{mean, DiskBackend};
use ecfrm_store::{ObjectMeta, ObjectStore, ReadOpts};
use ecfrm_util::Rng;

use crate::host::{self, HostCpu};
use crate::metrics::Values;
use crate::ops::{self, object_name, ReadOp, ELEMENT, WRITTEN};
use crate::stack::{scheme, TENANT};
use crate::stats::{median, pct, peel, Round, Rounds};
use crate::workload::{
    execute, fault_phases, header, paired_round, set_up, teardown, Bed, Opts, Report, Spec, Tally,
    Task, TAG_MAIN, VICTIMS,
};

/// The six levels, outermost first: span name, `p50_us` metric,
/// `self_us` metric.
pub const LEVELS: [(&str, &str, &str); 6] = [
    ("net.front", "net.front.p50_us", "net.front.self_us"),
    ("store.front", "store.front.p50_us", "store.front.self_us"),
    ("store.read", "store.read.p50_us", "store.read.self_us"),
    ("sim.array", "sim.array.p50_us", "sim.array.self_us"),
    ("net.client", "net.client.p50_us", "net.client.self_us"),
    ("sim.disk", "sim.disk.p50_us", "sim.disk.self_us"),
];

/// One timed call.
struct Span {
    level: usize,
    start_us: f64,
    end_us: f64,
    /// Index of the span one level up for the same op, if any.
    parent: Option<usize>,
    op_id: u64,
}

/// Stop replaying once the front pass has issued this many ops, so a
/// fast workload's span file stays a few MB.
const MAX_TRACED_OPS: u64 = 20_000;

/// Traced top level over untraced p50 beyond which the self times are
/// labelled as not to be trusted, percent.
const MAX_OVERHEAD_PCT: f64 = 10.0;

/// The next op list of the one traced client (`round` moves on). In
/// `ingest_mix` the writer's round runs first (sequentially, on the
/// second connection), so the reads of just-written objects have
/// something to read.
fn next_list(
    spec: &Spec,
    opts: &Opts,
    bed: &mut Bed,
    round: &mut u64,
    puts: &mut Vec<Round>,
    tally: &mut Tally,
) -> Vec<ReadOp> {
    if let Some(w) = spec.writer {
        let task = Task::Puts {
            first: bed.written,
            count: w.per_round,
            bytes: w.object_bytes,
        };
        let done = execute(&bed.clients[1], opts.seed, &task);
        bed.written += done.attempted;
        bed.user_bytes += done.bytes;
        puts.push(Round::of(done.lat_us.clone(), done.bytes, done.busy_s));
        tally.add(&[done]);
    }
    *round += 1;
    match bed
        .read_tasks(spec, opts.seed, TAG_MAIN, *round - 1, spec.ops_per_round)
        .swap_remove(0)
    {
        Task::Reads(list) => list,
        Task::Puts { .. } => unreachable!("read_tasks yields reads"),
    }
}

/// Where object `id`'s bytes start in the store's append stream, given
/// that one client ingested the dataset in id order and every written
/// round was whole stripes (see [`crate::workload::Writer`]).
fn stream_offset(spec: &Spec, store: &ObjectStore, id: u64) -> u64 {
    if id < WRITTEN {
        return id * spec.object_bytes;
    }
    let stripe = store.scheme().data_per_stripe() as u64 * ELEMENT;
    let base = (spec.objects * spec.object_bytes).div_ceil(stripe) * stripe;
    base + (id - WRITTEN) * spec.writer.map_or(0, |w| w.object_bytes)
}

/// Run a workload traced and report every per-layer metric.
pub fn run(spec: Spec, opts: &Opts) -> Report {
    let spec = spec.sized(opts);
    let mut tally = Tally::default();
    let built = set_up(&spec, opts.seed, true, &mut tally);
    let mut bed = built.bed;
    let mut writes = Rounds(vec![built.ingest]);
    let mut measured_puts = Vec::new();
    let mut values = Values::new();
    let t_measure = Instant::now();
    let host0 = HostCpu::now();

    let front = std::sync::Arc::clone(&bed.stack.front);
    let plan_scheme = bed.stack.store.scheme().clone();
    let standard = scheme(LayoutKind::Standard);
    let budget = opts.seconds * 0.3;
    let min_ops = if opts.quick { 100 } else { 400 };
    let mut spans: Vec<Span> = Vec::new();
    let mut per_level: [Vec<f64>; 6] = Default::default();
    let (mut plan_us, mut load, mut load_standard) = (Vec::new(), Vec::new(), Vec::new());
    let t_trace = Instant::now();
    let now_us = |t: Instant| t.duration_since(t_trace).as_secs_f64() * 1e6;
    let mut op_id = 0u64;
    let mut round = 0u64;
    // The untraced reads the traced top level is compared with, and the
    // per-op process costs taken over them.
    let mut untraced = Vec::new();
    let (mut returned, mut cpu_ms, mut enters, mut depth_max) = (0u64, 0.0, 0u64, 0u64);
    loop {
        // Untraced: one list through the client loop the untraced run
        // uses. Every turn of this loop has one, so that slow drift of
        // the host falls on the untraced and the traced reads alike.
        let list = next_list(
            &spec,
            opts,
            &mut bed,
            &mut round,
            &mut measured_puts,
            &mut tally,
        );
        let (cpu0, uring0) = (host::cpu_ms(), ecfrm_sim::uring::snapshot());
        let done = execute(&bed.clients[0], opts.seed, &Task::Reads(list));
        cpu_ms += host::cpu_ms() - cpu0;
        enters += ecfrm_sim::uring::snapshot().enter_calls - uring0.enter_calls;
        returned += done.bytes;
        untraced.extend_from_slice(&done.lat_us);
        tally.add(&[done]);
        depth_max = depth_max.max(bed.counter("io.queue_depth"));

        // Front pass: the same loop, with a span per op.
        let list = next_list(
            &spec,
            opts,
            &mut bed,
            &mut round,
            &mut measured_puts,
            &mut tally,
        );
        let names: Vec<String> = list.iter().map(|op| object_name(op.object)).collect();
        let first_span = spans.len();
        let first_id = op_id;
        for (op, name) in list.iter().zip(&names) {
            let t0 = Instant::now();
            let reply = bed.clients[0].read_range(TENANT, name, op.start, op.len);
            let t1 = Instant::now();
            spans.push(Span {
                level: 0,
                start_us: now_us(t0),
                end_us: now_us(t1),
                parent: None,
                op_id,
            });
            per_level[0].push(t1.duration_since(t0).as_secs_f64() * 1e6);
            op_id += 1;
            tally.attempted += 1;
            if !reply.is_ok_and(|b| ops::matches(opts.seed, op.object, op.start, op.len, &b)) {
                tally.failed += 1;
            }
        }

        // Inner passes: the same ops when no cache remembers them, else
        // the stream's next list (numbered on from the front pass's).
        let replayed = spec.cache_bytes == 0;
        let (inner, inner_names) = if replayed {
            (list, names)
        } else {
            let next = next_list(
                &spec,
                opts,
                &mut bed,
                &mut round,
                &mut measured_puts,
                &mut tally,
            );
            let names = next.iter().map(|op| object_name(op.object)).collect();
            (next, names)
        };
        let inner_id = if replayed { first_id } else { op_id };
        // Per op: its span one level up so far.
        let mut parent: Vec<Option<usize>> = (0..inner.len())
            .map(|i| replayed.then_some(first_span + i))
            .collect();
        // A span for op `i` at `level` — or, for an op that never got
        // there, no span and a cost of 0.
        let mut record = |level: usize, i: usize, times: Option<(Instant, Instant)>| {
            let Some((t0, t1)) = times else {
                per_level[level].push(0.0);
                return;
            };
            spans.push(Span {
                level,
                start_us: now_us(t0),
                end_us: now_us(t1),
                parent: parent[i],
                op_id: inner_id + i as u64,
            });
            parent[i] = Some(spans.len() - 1);
            per_level[level].push(t1.duration_since(t0).as_secs_f64() * 1e6);
        };

        // store.front, and which ops its cache did not serve.
        let mut below: Vec<Option<Below>> = Vec::with_capacity(inner.len());
        for (i, (op, name)) in inner.iter().zip(&inner_names).enumerate() {
            let (_, miss0) = front.cache_stats();
            let t0 = Instant::now();
            let reply = front.read_range(TENANT, name, op.start, op.len);
            record(1, i, Some((t0, Instant::now())));
            tally.attempted += 1;
            if !reply.is_ok_and(|b| ops::matches(opts.seed, op.object, op.start, op.len, &b)) {
                tally.failed += 1;
            }
            let missed = front.cache_stats().1 > miss0;
            below.push(missed.then(|| Below::of(&spec, &bed.stack.store, op)));
        }

        // The four levels below the cache, a pass each over the ops
        // that got there; an op the cache served costs them nothing.
        for level in 2..LEVELS.len() {
            for (i, (op, b)) in inner.iter().zip(&below).enumerate() {
                let Some(b) = b else {
                    record(level, i, None);
                    continue;
                };
                let (times, ok) = b.issue(level, &bed, op, opts.seed);
                record(level, i, Some(times));
                tally.attempted += 1;
                tally.failed += u64::from(!ok);
            }
        }

        // Off-chain, on the same shapes: the planner alone.
        for op in &inner {
            let first = (stream_offset(&spec, &bed.stack.store, op.object) + op.start) / ELEMENT;
            let count = (op.len / ELEMENT) as usize;
            let t0 = Instant::now();
            let plan = plan_scheme.normal_read_plan(first, count);
            plan_us.push(t0.elapsed().as_secs_f64() * 1e6);
            load.push(plan.max_load() as f64);
            load_standard.push(standard.normal_read_plan(first, count).max_load() as f64);
        }
        if !replayed {
            op_id += inner.len() as u64;
        }

        let spent = opts.quick || t_trace.elapsed().as_secs_f64() >= budget;
        if per_level[0].len() >= min_ops && spent || per_level[0].len() as u64 >= MAX_TRACED_OPS {
            break;
        }
    }

    if !measured_puts.is_empty() {
        writes = Rounds(measured_puts);
    }
    let untraced_p50 = median(&untraced);
    values.insert(
        "proc.cpu_ms_per_mb",
        cpu_ms / (returned.max(1) as f64 / 1e6),
    );
    values.insert(
        "sim.io.uring_enters_per_op",
        enters as f64 / untraced.len().max(1) as f64,
    );

    // Levels: conditional p50 (over the ops that reached the level) and
    // the peel of the unconditional medians.
    let medians: Vec<f64> = per_level.iter().map(|v| median(v)).collect();
    let selfs = peel(&medians);
    for (i, (_, p50_name, self_name)) in LEVELS.iter().enumerate() {
        let mut reached: Vec<f64> = per_level[i].iter().copied().filter(|t| *t > 0.0).collect();
        reached.sort_by(f64::total_cmp);
        values.insert(p50_name, pct(&reached, 0.5));
        values.insert(self_name, selfs[i]);
    }
    let mut top = per_level[0].clone();
    top.sort_by(f64::total_cmp);
    values.insert("client.read_p99_us", pct(&top, 0.99));
    let overhead_pct = 100.0 * (medians[0] - untraced_p50) / untraced_p50.max(1e-9);
    values.insert("trace.overhead_pct", overhead_pct);
    values.insert("core.plan_us", mean(&plan_us));
    values.insert("core.max_disk_load", mean(&load));
    values.insert("core.max_disk_load_standard", mean(&load_standard));

    // Fault phases: the same code the untraced run uses, one drill.
    let degraded_s = opts.seconds * 0.1;
    let faults = fault_phases(&spec, opts, &mut bed, &VICTIMS[..1], degraded_s, &mut tally);
    values.insert("store.repair.s", median(&faults.repair_s));
    values.insert(
        "store.repair.wire_bytes_per_lost_byte",
        faults.wire_bytes as f64 / faults.lost_bytes.max(1) as f64,
    );
    values.insert("client.repair_read_p50_us", faults.repair_reads.p50_us().0);
    values.insert("client.degraded_p50_us", faults.degraded.p50_us().0);
    values.insert("client.write_p50_us", writes.p50_us().0);
    values.insert("client.write_mb_s", writes.mb_s().0);
    let steal = HostCpu::now().steal_pct_since(&host0);
    let measured_s = t_measure.elapsed().as_secs_f64();
    values.insert("proc.threads", host::threads() as f64);

    // Public snapshots.
    let c = bed.stack.counters();
    let get = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let s = &bed.stack;
    values.insert("store.read.plan_p50_us", s.hist_p50("plan_us"));
    values.insert("store.read.verify_p50_us", s.hist_p50("verify_us"));
    values.insert("store.read.decode_p50_us", s.hist_p50("decode_us"));
    values.insert(
        "store.read.fetch_p50_us",
        (s.hist_p50("read_us") - s.hist_p50("plan_us") - s.hist_p50("verify_us")).max(0.0),
    );
    values.insert(
        "store.read.rpcs_per_op",
        per(get("read.rpcs"), get("reads")),
    );
    values.insert(
        "store.read.coalesced_runs_per_op",
        per(get("read.coalesced_runs"), get("reads")),
    );
    values.insert("store.read.replans", get("replans"));
    values.insert(
        "store.read.decoded_elems_per_op",
        per(get("decoded_elements"), get("degraded_reads")),
    );
    values.insert(
        "store.front.cache_hit_rate",
        per(get("cache.hit"), get("cache.hit") + get("cache.miss")),
    );
    values.insert("store.front.cache_evictions", get("cache.evict"));
    values.insert("store.front.cache_invalidations", get("cache.invalidate"));
    values.insert("store.front.admit_delayed", get("admit.delayed"));
    values.insert("store.front.hot_avoided", get("front.hot_avoided"));
    values.insert("store.repair.stripe_p50_us", s.hist_p50("repair_us"));
    values.insert("store.repair.read_bytes", get("repair.read_bytes"));
    values.insert(
        "store.repair.combined_stripes",
        get("repair.combined_stripes"),
    );
    values.insert("net.client.rpc_p50_us", s.shard_p50(true));
    values.insert("net.server.serve_p50_us", s.shard_p50(false));
    let (retries, discarded, _) = s.net_totals();
    values.insert("net.client.retries", retries as f64);
    values.insert("net.client.conns_discarded", discarded as f64);
    values.insert(
        "sim.io.queue_depth_max",
        depth_max.max(get("io.queue_depth") as u64) as f64,
    );
    if let Some(mut twin) = built.twin {
        // The paper's comparison, legs interleaved per round.
        let gains: Vec<f64> = (0..3)
            .filter_map(|r| {
                paired_round(&spec, opts, &mut bed, Some(&mut twin), 1000 + r, &mut tally).1
            })
            .collect();
        values.insert("client.gain_vs_standard", median(&gains));
    }

    teardown(&spec, &bed, &mut tally);
    off_chain(&plan_scheme, &mut values);
    values.insert("host.steal_pct", steal);
    values.insert("host.spin_mops", host::spin_calibration());
    values.insert("host.wake_us", host::wake_calibration());

    let path = format!("target/e2e/trace_{}.json", spec.name);
    match write_spans(&path, &spans) {
        Ok(()) => eprintln!("  wrote {path} ({} spans)", spans.len()),
        Err(e) => tally.violation(format!("writing {path}: {e}")),
    }
    let mut head = header(&spec, opts, bed.stack.io_backend);
    head.extend([
        (
            "traced_ops",
            format!(
                "{} front pass, {} inner pass (one client, one op at a time)",
                per_level[0].len(),
                per_level[1].len()
            ),
        ),
        (
            "untraced_read_p50_us",
            format!(
                "{untraced_p50:.1} ({} reads, one client, a list before each traced list)",
                untraced.len()
            ),
        ),
        (
            "trace_overhead",
            format!(
                "{overhead_pct:+.1} % of the untraced p50: {}",
                if overhead_pct.abs() <= MAX_OVERHEAD_PCT {
                    "self times explain the untraced read"
                } else {
                    "BEYOND 10 % - host disturbed between the passes, self times not to be trusted"
                }
            ),
        ),
        ("measured_s", format!("{measured_s:.1}")),
    ]);
    Report {
        workload: spec.name,
        header: head,
        values,
        spread: Values::new(),
        tally,
    }
}

/// What the four levels below the cache are asked for one op.
struct Below {
    /// The op's object, as the store addresses it.
    extent: ObjectMeta,
    /// The plan's cells, `(disk, offset)`.
    addrs: Vec<(usize, u64)>,
    /// The shard the plan loads most.
    disk: usize,
    /// That shard's offsets.
    offsets: Vec<u64>,
}

impl Below {
    fn of(spec: &Spec, store: &ObjectStore, op: &ReadOp) -> Below {
        let extent = ObjectMeta {
            offset: stream_offset(spec, store, op.object),
            len: if op.object >= WRITTEN {
                spec.writer.map_or(0, |w| w.object_bytes)
            } else {
                spec.object_bytes
            },
        };
        let first = (extent.offset + op.start) / ELEMENT;
        let plan = store
            .scheme()
            .normal_read_plan(first, (op.len / ELEMENT) as usize);
        let addrs: Vec<(usize, u64)> = plan
            .fetches
            .iter()
            .map(|f| (f.loc.disk, f.loc.offset))
            .collect();
        let loads = plan.per_disk_load();
        let disk = (0..loads.len())
            .max_by_key(|&d| (loads[d], std::cmp::Reverse(d)))
            .unwrap_or(0);
        let offsets = addrs.iter().filter(|a| a.0 == disk).map(|a| a.1).collect();
        Below {
            extent,
            addrs,
            disk,
            offsets,
        }
    }

    /// Time the call of `level` (2 = `store.read` … 5 = `sim.disk`) and
    /// check its reply where it still carries the op's bytes.
    fn issue(&self, level: usize, bed: &Bed, op: &ReadOp, seed: u64) -> ((Instant, Instant), bool) {
        let store = &bed.stack.store;
        let whole = |cells: &[Option<Vec<u8>>]| cells.iter().all(Option::is_some);
        match level {
            2 => {
                let t0 = Instant::now();
                let reply = store.read_extent(self.extent, op.start, op.len, &ReadOpts::default());
                let t1 = Instant::now();
                let ok =
                    reply.is_ok_and(|(b, _)| ops::matches(seed, op.object, op.start, op.len, &b));
                ((t0, t1), ok)
            }
            // One vectored read per disk.
            3 => {
                let t0 = Instant::now();
                let cells = store.array().read_batch(&self.addrs);
                let t1 = Instant::now();
                let ok = cells.iter().enumerate().all(|(i, c)| {
                    c.as_ref().is_some_and(|c| {
                        let at = op.start + i as u64 * ELEMENT;
                        ops::matches(seed, op.object, at, ELEMENT, &c[..ELEMENT as usize])
                    })
                });
                ((t0, t1), ok)
            }
            4 => {
                let t0 = Instant::now();
                let got = bed.stack.cluster.client(self.disk).read_many(&self.offsets);
                ((t0, Instant::now()), whole(&got))
            }
            _ => {
                let t0 = Instant::now();
                let raw = bed.stack.raw[self.disk].read_many(&self.offsets);
                ((t0, Instant::now()), whole(&raw))
            }
        }
    }
}

/// Kernels and codecs alone, on the workloads' shapes (RS(6,3), 4 KiB).
fn off_chain(scheme: &Scheme, values: &mut Values) {
    let es = ELEMENT as usize;
    let dps = scheme.data_per_stripe();
    let mut rng = Rng::seed_from_u64(0xE2E);
    let data: Vec<Vec<u8>> = (0..dps)
        .map(|_| {
            let mut b = vec![0u8; es];
            rng.fill_bytes(&mut b);
            b
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    // Repeat each kernel for ~40 ms and take bytes over time.
    let rate = |bytes_per_call: usize, call: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed().as_millis() < 40 {
            call();
            calls += 1;
        }
        calls as f64 * bytes_per_call as f64 / 1e6 / t0.elapsed().as_secs_f64()
    };

    values.insert(
        "codes.encode_mb_s",
        rate(dps * es, &mut || {
            std::hint::black_box(scheme.encode_stripe_parities(0, std::hint::black_box(&refs)));
        }),
    );

    let image = scheme.encode_stripe(0, &refs);
    let plan = scheme.degraded_read_plan(0, dps, &[0]);
    let fetched: HashMap<_, Vec<u8>> = plan
        .fetches
        .iter()
        .map(|f| (f.loc, image.get(f.loc).expect("encoded cell").to_vec()))
        .collect();
    let demand = plan
        .fetches
        .iter()
        .filter(|f| f.purpose == Purpose::Demand)
        .count();
    values.insert(
        "codes.decode_mb_s",
        rate((dps - demand) * es, &mut || {
            let out = scheme.assemble_read(0, dps, std::hint::black_box(&fetched), ReadCtx::new());
            std::hint::black_box(out.expect("one erasure decodes"));
        }),
    );

    let coeffs: Vec<Vec<u8>> = (0..3)
        .map(|r| (0..6).map(|c| (r * 7 + c * 3 + 2) as u8).collect())
        .collect();
    let rows: Vec<&[u8]> = coeffs.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0u8; es]; 3];
    values.insert(
        "gf.dot_multi_mb_s",
        rate(6 * es, &mut || {
            let mut dsts: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            ecfrm_gf::region::dot_region_multi(&rows, &refs[..6], &mut dsts);
        }),
    );

    let key = ecfrm_integrity::HashKey::DEFAULT;
    let mut cell = Vec::with_capacity(es + ecfrm_integrity::FOOTER_LEN);
    values.insert(
        "integrity.footer_mb_s",
        rate(es, &mut || {
            cell.clear();
            cell.extend_from_slice(&data[0]);
            ecfrm_integrity::append_footer(&key, 7, &mut cell);
            let payload = ecfrm_integrity::verify_footer(&key, 7, std::hint::black_box(&cell));
            assert!(payload.is_some());
        }),
    );
}

/// `{"spans": [{"name", "start_us", "end_us", "parent", "op_id"}, …]}`:
/// `parent` is the index (in this array) of the span one level up for
/// the same op, or null for the outermost.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "  {{\"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"op_id\": {}}}{}",
            LEVELS[s.level].0,
            s.start_us,
            s.end_us,
            s.op_id,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
