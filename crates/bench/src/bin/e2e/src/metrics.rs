//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is `e2e list --json`, and a unit test keeps the two equal.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it is a regression — also the limit two
    /// sets of runs of the same code must agree within.
    pub bound: f64,
    /// One-line definition, for `e2e list` and the README.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    e2e(name, unit, better, 0.0, what)
}

use Better::{Higher, Lower};

/// A count that must repeat exactly gets this bound: small enough that
/// any real change trips it, positive so that no checker reads it as
/// "unbounded".
pub const EXACT: f64 = 0.001;

/// Metrics a user of the store would see. Every workload reports every
/// one of them (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "process start to first boot, plus the median over the run's three set-ups of: boot the stack, ingest the dataset through FrontClient::put, flush, a warm-up half-round (ingest dominates: this is the gated write-path number)"),
    e2e("read_p50_us", "us", Lower, 0.25,
        "mean over the quietest quarter of the rounds of the per-round median read latency (failure_drill: its degraded rounds - one disk failed and wiped, no repair running)"),
    e2e("read_p90_us", "us", Lower, 0.25,
        "same, of the per-round p90 read latency (>= 50 samples beyond it per round)"),
    e2e("read_mb_s", "MB/s", Higher, 0.25,
        "same, of user bytes returned / round wall time (the quarter with the most MB/s)"),
    e2e("stored_bytes_per_user_byte", "B/B", Lower, EXACT,
        "bytes held by the 9 backends / user bytes ingested (exact)"),
    e2e("fetched_bytes_per_read_byte", "B/B", Lower, 0.04,
        "store counter fetched_elements x element size / user bytes returned, over the main rounds (failure_drill: over the degraded rounds): read amplification"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM of the benchmark process (program and load generator) at exit"),
];

/// Metrics of single layers (`--trace 1`). No bounds: they say where an
/// end-to-end number came from. A workload that never enters a layer
/// reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    layer("net.front.p50_us", "us", Lower, "traced FrontClient::read_range, median"),
    layer("net.front.self_us", "us", Lower, "front TCP hop and object-op framing"),
    layer("store.front.p50_us", "us", Lower, "FrontDoor::read_range in-process, median"),
    layer("store.front.self_us", "us", Lower, "namespace, admission, cache"),
    layer("store.read.p50_us", "us", Lower, "ObjectStore::read_extent, median over ops that reach the store"),
    layer("store.read.self_us", "us", Lower, "plan, assemble, verify, decode"),
    layer("sim.array.p50_us", "us", Lower, "ThreadedArray::read_batch on the plan's addresses, median over ops that reach it"),
    layer("sim.array.self_us", "us", Lower, "per-disk fan-out and join"),
    layer("net.client.p50_us", "us", Lower, "RemoteDisk::read_many on the most-loaded shard, median over ops that reach it"),
    layer("net.client.self_us", "us", Lower, "shard RPC: mux, framing, server demux"),
    layer("sim.disk.p50_us", "us", Lower, "read_many on the raw MemDisk/FileDisk, median over ops that reach it"),
    layer("sim.disk.self_us", "us", Lower, "device (or injected) time"),
    layer("trace.overhead_pct", "%", Lower, "traced net.front.p50_us over the p50 of the untraced one-client lists run between the traced ones, minus 1"),
    layer("core.plan_us", "us", Lower, "Scheme::normal_read_plan on the workload's shapes, mean"),
    layer("core.max_disk_load", "count", Lower, "mean ReadPlan::max_load() over the workload's reads (exact)"),
    layer("core.max_disk_load_standard", "count", Lower, "the same reads planned on the standard layout (exact)"),
    layer("codes.encode_mb_s", "MB/s", Higher, "Scheme::encode_stripe_parities, data MB/s"),
    layer("codes.decode_mb_s", "MB/s", Higher, "one-erasure Scheme::assemble_read, rebuilt MB/s"),
    layer("gf.dot_multi_mb_s", "MB/s", Higher, "dot_region_multi 6 sources -> 3 parities, source MB/s"),
    layer("integrity.footer_mb_s", "MB/s", Higher, "append_footer + verify_footer on one 4 KiB element, element MB/s"),
    layer("store.read.plan_p50_us", "us", Lower, "store histogram plan_us, lifetime p50"),
    layer("store.read.fetch_p50_us", "us", Lower, "store histogram read_us p50 minus plan/verify p50"),
    layer("store.read.decode_p50_us", "us", Lower, "store histogram decode_us (per rebuilt element), lifetime p50"),
    layer("store.read.verify_p50_us", "us", Lower, "store histogram verify_us, lifetime p50"),
    layer("store.read.rpcs_per_op", "count", Lower, "store counter read.rpcs per store read"),
    layer("store.read.coalesced_runs_per_op", "count", Higher, "store counter read.coalesced_runs per store read"),
    layer("store.read.replans", "count", Lower, "store counter replans"),
    layer("store.read.decoded_elems_per_op", "count", Lower, "store counter decoded_elements per degraded read"),
    layer("store.front.cache_hit_rate", "ratio", Higher, "cache.hit / (cache.hit + cache.miss), element lookups"),
    layer("store.front.cache_evictions", "count", Lower, "store counter cache.evict"),
    layer("store.front.cache_invalidations", "count", Lower, "store counter cache.invalidate"),
    layer("store.front.admit_delayed", "count", Lower, "store counter admit.delayed"),
    layer("store.front.hot_avoided", "count", Lower, "store counter front.hot_avoided"),
    layer("net.client.rpc_p50_us", "us", Lower, "RemoteDisk::request_latency p50, median over shards"),
    layer("net.client.retries", "count", Lower, "sum over shards of NetCounters.retries"),
    layer("net.client.conns_discarded", "count", Lower, "sum over shards of NetCounters.conns_discarded"),
    layer("net.server.serve_p50_us", "us", Lower, "shard serve_us p50 over the Stats op, median over shards"),
    layer("sim.io.queue_depth_max", "count", Lower, "largest io.queue_depth gauge seen at a round end"),
    layer("sim.io.uring_enters_per_op", "count", Lower, "io_uring_enter calls per untraced read (0 off uring)"),
    layer("store.repair.s", "s", Lower, "RepairManager::spawn to redundancy restored (a traced run drills one victim)"),
    layer("store.repair.stripe_p50_us", "us", Lower, "store histogram repair_us, lifetime p50"),
    layer("store.repair.read_bytes", "count", Lower, "store counter repair.read_bytes"),
    layer("store.repair.combined_stripes", "count", Higher, "store counter repair.combined_stripes"),
    layer("store.repair.wire_bytes_per_lost_byte", "B/B", Lower, "repair.wire_bytes / bytes on the wiped disk (exact; 1.0 combined, 6.0 naive)"),
    layer("client.repair_read_p50_us", "us", Lower, "foreground read latency inside the repair windows"),
    layer("client.degraded_p50_us", "us", Lower, "read latency, same shapes, one disk failed and no repair running (cache-less workloads)"),
    layer("client.write_p50_us", "us", Lower, "FrontClient::put latency: ingest_mix's measured writer, elsewhere the ingest"),
    layer("client.write_mb_s", "MB/s", Higher, "user bytes acknowledged / writer busy time, same puts"),
    layer("client.gain_vs_standard", "ratio", Higher, "median over rounds of EC-FRM leg MB/s / standard-layout leg MB/s (paper_read)"),
    layer("client.read_p99_us", "us", Lower, "pooled p99 of the traced reads (does not repeat on a shared box; never gated)"),
    layer("proc.cpu_ms_per_mb", "ms/MB", Lower, "process CPU time per MB returned over the untraced one-client lists"),
    layer("proc.threads", "count", Lower, "threads of the process at the end of the measured phase"),
    layer("host.steal_pct", "%", Lower, "share of host CPU stolen over the measured phase"),
    layer("host.spin_mops", "1/us", Higher, "fixed 200 ms spin calibration, million steps per second"),
    layer("host.wake_us", "us", Lower, "fixed 200 ms loopback ping-pong between two threads, median round trip: two blocking wake-ups"),
];

/// A set of metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What `BENCHMARK.json` runs: this package through its own manifest,
/// the one way to build it.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/e2e/Cargo.toml",
    "--",
];

/// The one directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/bench/src/bin/e2e"];

/// Seconds one run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let q = ecfrm_obs::json::string;
    let strings = |xs: &[&str]| xs.iter().map(|x| q(x)).collect::<Vec<_>>().join(", ");
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = workloads
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", q(name), q(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        rows(workloads),
        rows(end_to_end),
        rows(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(SPECS.iter().map(|s| s.name));
        for n in &names {
            assert!(valid(n, 64, "_.-"), "name {n}");
            assert!(
                n.chars().next().unwrap().is_ascii_alphanumeric(),
                "name {n}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid(m.unit, 16, "_/%.-"), "unit {}", m.unit);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter(|m| m.unit == "s" || m.unit == "us" || m.unit == "MB/s")
            .map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound, largest,
            "setup_s takes the largest timing bound"
        );
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&SPECS.len()));
        for s in &SPECS {
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n'),
                "why of {}",
                s.name
            );
        }
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_this_table() {
        let rendered = benchmark_json(&SPECS.map(|s| (s.name, s.why)));
        assert!(rendered.len() <= 64 * 1024);
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let on_disk = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        };
        assert!(
            on_disk == rendered,
            "BENCHMARK.json is stale: regenerate it with `e2e list --json > BENCHMARK.json`"
        );
    }
}
