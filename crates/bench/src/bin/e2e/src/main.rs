//! `e2e`: the full-stack benchmark. See `README.md` beside this file.
//!
//! ```text
//! e2e run   <workload> [--seed S] [--seconds N] [--quick]   end-to-end metrics
//! e2e trace <workload> [--seed S] [--seconds N] [--quick]   per-layer metrics
//! e2e aa [--runs 5] [--seconds N]                           two sets of runs must agree
//! e2e list [--json]                                         workloads and metrics
//! e2e --workload W --seed S --seconds N --trace 0|1         the form BENCHMARK.json drives
//! ```
//!
//! The human-readable report goes to stderr; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod aa;
mod host;
mod metrics;
mod ops;
mod stack;
mod stats;
mod trace;
mod workload;

use std::time::Instant;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use workload::{Opts, Report, SPECS};

fn usage() -> ! {
    eprintln!(
        "usage: e2e run|trace <workload> [--seed S] [--seconds N] [--quick]\n       \
         e2e aa [--runs N] [--seconds N]\n       e2e list [--json]\n       \
         e2e --workload W --seed S --seconds N --trace 0|1\n\
         workloads: {}",
        SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).map(|v| v.parse()) {
        Some(Ok(v)) => Some(v),
        _ => usage(),
    }
}

fn list(json: bool) {
    if json {
        print!(
            "{}",
            metrics::benchmark_json(&SPECS.map(|s| (s.name, s.why)))
        );
        return;
    }
    println!(
        "workloads (closed loop, {} client threads):",
        workload::CLIENTS
    );
    for s in &SPECS {
        println!("  {:<14} {}", s.name, s.why);
    }
    println!("\nend-to-end metrics (every workload, `run`):");
    for m in END_TO_END {
        println!(
            "  {:<30} {:<6} {:<6} bound {:>5.1} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (`trace`; no bounds):");
    for m in PER_LAYER {
        println!(
            "  {:<38} {:<6} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

/// Print the report to stderr and the result line to stdout.
fn emit(report: &Report, list: &[Metric]) {
    eprintln!("e2e {}", report.workload);
    for (k, v) in &report.header {
        eprintln!("  {k:<32} {v}");
    }
    eprintln!(
        "  {:<38} {:>14} {:<6} {:>12}",
        "metric", "value", "unit", "IQR (rounds)"
    );
    let mut fields = Vec::new();
    for m in list {
        let value = report.values.get(m.name).copied().unwrap_or(0.0);
        let spread = report
            .spread
            .get(m.name)
            .map_or(String::new(), |s| format!("{:.1} %", s * 100.0));
        eprintln!("  {:<38} {value:>14.4} {:<6} {spread:>12}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let t = &report.tally;
    eprintln!(
        "  ops: {} attempted, {} failed, {} gate violations",
        t.attempted,
        t.failed,
        t.violations.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        t.attempted.max(1),
        t.failed,
        fields.join(", ")
    );
}

fn main() {
    let proc_start = Instant::now();
    host::pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = flag(&args, "--seconds").unwrap_or(RUN_SECONDS as f64);
    let (traced, name) = match args.first().map(String::as_str) {
        Some("list") => return list(args.iter().any(|a| a == "--json")),
        Some("aa") => {
            let agreed = aa::run(flag(&args, "--runs").unwrap_or(5), seconds);
            std::process::exit(if agreed { 0 } else { 1 });
        }
        Some(mode @ ("run" | "trace")) => (mode == "trace", args.get(1).cloned()),
        Some(a) if a.starts_with("--") => (
            flag::<u8>(&args, "--trace") == Some(1),
            flag::<String>(&args, "--workload"),
        ),
        _ => usage(),
    };
    let Some(spec) = name.as_deref().and_then(workload::spec) else {
        usage()
    };
    let opts = Opts {
        seed: flag(&args, "--seed").unwrap_or(1),
        seconds,
        quick: args.iter().any(|a| a == "--quick"),
    };
    let report = if traced {
        trace::run(spec, &opts)
    } else {
        workload::run(spec, &opts, proc_start)
    };
    emit(&report, if traced { PER_LAYER } else { END_TO_END });
    if !report.correct() {
        std::process::exit(1);
    }
}
