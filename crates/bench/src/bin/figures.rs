//! Regenerate every table and figure of the EC-FRM paper's evaluation.
//!
//! ```text
//! figures [--quick] [--json] [fig8a|fig8b|fig9a|fig9b|fig9c|fig9d|all|
//!          sweep-elem|sweep-size|hetero|placement|cauchy|ablations]
//! ```
//!
//! Each of fig8a/fig8b/fig9a–d is one `report::Report` — a row per
//! (code, form) with speed or cost, tail latency (p50/p95/p99 ms) and
//! load imbalance (max/mean disk load), then per code the gains the
//! paper quotes. `--json` additionally writes it as
//! `BENCH_<figure>.json` (under `target/micro/` with `--quick`).
//!
//! Absolute MB/s differ from the paper (their testbed is real hardware;
//! ours is the calibrated Savvio model), but the comparisons — who wins
//! and by what factor — are the reproduced result. See EXPERIMENTS.md.

use std::sync::Arc;

use ecfrm_bench::cells;
use ecfrm_bench::experiment::{run_degraded, run_normal, ExperimentConfig, TailStats};
use ecfrm_bench::params::{lrc_params, lrc_schemes, rs_params, rs_schemes};
use ecfrm_bench::report::{gain_pct, Cells, Report};
use ecfrm_codes::{CandidateCode, RsCode};
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_sim::{mean, DiskModel, NormalReadWorkload};
use ecfrm_util::{par_map, Rng};

/// The paper's six figures: name, title, LRC (else RS) forms, and what
/// each reports per code beside its per-form rows.
#[rustfmt::skip]
const FIGURES: [(&str, &str, bool, Quoted); 6] = [
    ("fig8a", "Figure 8(a): normal read speed, RS forms (MB/s)", false, Quoted::NormalSpeed),
    ("fig8b", "Figure 8(b): normal read speed, LRC forms (MB/s)", true, Quoted::NormalSpeed),
    ("fig9a", "Figure 9(a): degraded read cost, RS forms (fetched/requested)", false, Quoted::DegradedCost),
    ("fig9b", "Figure 9(b): degraded read cost, LRC forms (fetched/requested)", true, Quoted::DegradedCost),
    ("fig9c", "Figure 9(c): degraded read speed, RS forms (MB/s)", false, Quoted::DegradedSpeed),
    ("fig9d", "Figure 9(d): degraded read speed, LRC forms (MB/s)", true, Quoted::DegradedSpeed),
];

/// What a figure quotes per code: EC-FRM's speed gain over the other
/// two forms (normal or degraded reads), or the spread of the degraded
/// read cost across the three forms.
#[derive(Clone, Copy, PartialEq)]
enum Quoted {
    NormalSpeed,
    DegradedSpeed,
    DegradedCost,
}

/// The forms of a code, in the order `rs_schemes`/`lrc_schemes` build
/// them (the paper's legend order).
const FORMS: [&str; 3] = ["standard", "rotated", "ecfrm"];

/// Run one paper figure as a `report::Report` — a row per (code, form),
/// then a row per code with what the paper quotes — and print it; with
/// `json`, write `BENCH_<name>.json` too.
fn figure(name: &str, cfg: &ExperimentConfig, quick: bool, json: bool) {
    let &(name, title, lrc, quoted) = FIGURES
        .iter()
        .find(|f| f.0 == name)
        .expect("a figure's name");
    let codes = if lrc {
        lrc_params().map(|(k, l, m)| lrc_schemes(k, l, m))
    } else {
        rs_params().map(|(k, m)| rs_schemes(k, m))
    };
    // Per form: its measured cells, its tail, and the number quoted.
    let measure = |scheme: &Scheme| -> (Cells, TailStats, f64) {
        if quoted == Quoted::NormalSpeed {
            let r = run_normal(scheme, cfg);
            let cells = cells! {
                "speed_mb_s": r.speed_mb_s,
                "mean_max_load": r.mean_max_load,
                "mean_disks_touched": r.mean_disks_touched,
            };
            return (cells, r.tail, r.speed_mb_s);
        }
        let r = run_degraded(scheme, cfg);
        let cells = cells! {
            "cost": r.cost,
            "speed_mb_s": r.speed_mb_s,
            "mean_max_load": r.mean_max_load,
        };
        let quote = if quoted == Quoted::DegradedCost {
            r.cost
        } else {
            r.speed_mb_s
        };
        (cells, r.tail, quote)
    };
    let measured = par_map(&codes, |_, forms| forms.each_ref().map(measure));

    let shape = cells! {
        "figure": title,
        "element_size": cfg.element_size,
        "trials_normal": cfg.trials_normal,
        "trials_degraded": cfg.trials_degraded,
        "seed": cfg.seed,
        "jitter": cfg.jitter,
    };
    // The disks are the analytic model.
    let mut report = Report::new(name, quick, "model", shape);
    let code_names = codes.each_ref().map(|forms| forms[0].name());
    for (code, forms) in code_names.iter().zip(&measured) {
        for (form, (cells, tail, _)) in FORMS.into_iter().zip(forms) {
            let mut row = cells! {"code": code.as_str(), "form": form};
            row.extend(cells.iter().cloned());
            row.extend(cells! {
                "p50_ms": tail.p50_ms,
                "p95_ms": tail.p95_ms,
                "p99_ms": tail.p99_ms,
                "load_imbalance": tail.load_imbalance,
            });
            report.row(row);
        }
    }
    for (code, forms) in code_names.iter().zip(&measured) {
        let [standard, rotated, ecfrm] = forms.each_ref().map(|f| f.2);
        report.row(if quoted == Quoted::DegradedCost {
            let max = standard.max(rotated).max(ecfrm);
            let min = standard.min(rotated).min(ecfrm);
            cells! {"code": code.as_str(), "cost_spread_pct": gain_pct(max, min)}
        } else {
            cells! {
                "code": code.as_str(),
                "ecfrm_vs_standard_pct": gain_pct(ecfrm, standard),
                "ecfrm_vs_rotated_pct": gain_pct(ecfrm, rotated),
            }
        });
    }
    if !json {
        println!("{}", report.table());
    } else if let Err(e) = report.publish() {
        eprintln!("failed to write the report: {e}");
    }
}

/// Ablation: how the EC-FRM win varies with element size.
///
/// With full positioning charged per element, speed ratios equal load
/// ratios and the gain is size-independent; with the track-to-track
/// discount (same-request elements sit at adjacent disk offsets), large
/// elements amortise the hot disk's extra positioning and the gain
/// shrinks — the regime where §III-A's "several megabytes" element size
/// matters.
fn sweep_elem(cfg: &ExperimentConfig) {
    println!("Ablation: EC-FRM-RS(6,3) normal-read gain vs element size");
    println!(
        "{:<14} {:>12} {:>14} {:>10} {:>16}",
        "element", "RS MB/s", "EC-FRM MB/s", "gain %", "gain % (seq I/O)"
    );
    for bytes in [250_000usize, 500_000, 1_000_000, 2_000_000, 4_000_000] {
        let mut c = cfg.clone();
        c.element_size = bytes;
        let [s, _, e] = rs_schemes(6, 3);
        let rs = run_normal(&s, &c).speed_mb_s;
        let ec = run_normal(&e, &c).speed_mb_s;
        let mut cs = c.clone();
        cs.disk = cs.disk.with_track_to_track(0.4);
        let [s2, _, e2] = rs_schemes(6, 3);
        let rs_seq = run_normal(&s2, &cs).speed_mb_s;
        let ec_seq = run_normal(&e2, &cs).speed_mb_s;
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>+10.1} {:>+16.1}",
            format!("{} KB", bytes / 1000),
            rs,
            ec,
            gain_pct(ec, rs),
            gain_pct(ec_seq, rs_seq)
        );
    }
    println!();
}

/// Ablation: gain per fixed read size (where does EC-FRM start to win?).
fn sweep_size(cfg: &ExperimentConfig) {
    println!("Ablation: EC-FRM-RS(6,3) normal-read gain vs request size (elements)");
    println!(
        "{:<8} {:>12} {:>14} {:>10}",
        "size", "RS MB/s", "EC-FRM MB/s", "gain %"
    );
    let [s, _, e] = rs_schemes(6, 3);
    for size in [1usize, 2, 4, 6, 7, 8, 10, 12, 16, 20] {
        let mut c = cfg.clone();
        c.trials_normal = cfg.trials_normal.min(1000);
        let wl = NormalReadWorkload {
            trials: c.trials_normal,
            address_space: c.address_space,
            min_size: size,
            max_size: size,
        };
        let sim = ecfrm_sim::ArraySim::uniform(s.n_disks(), c.disk, c.element_size);
        let mut rng = Rng::seed_from_u64(c.seed);
        let speeds_of = |scheme: &Scheme, rng: &mut Rng| {
            let xs: Vec<f64> = wl
                .generate(c.seed)
                .iter()
                .map(|r| {
                    let p = scheme.normal_read_plan(r.start, r.size);
                    sim.read_speed_mb_s(r.size, &p.per_disk_load(), rng)
                })
                .collect();
            mean(&xs)
        };
        let rs = speeds_of(&s, &mut rng);
        let ec = speeds_of(&e, &mut rng);
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>+10.1}",
            size,
            rs,
            ec,
            gain_pct(ec, rs)
        );
    }
    println!();
}

/// Ablation: one slow disk — the max-queue metric's sensitivity to
/// heterogeneity.
fn hetero(cfg: &ExperimentConfig) {
    println!("Ablation: RS(6,3) forms with disk 0 at half speed (normal reads, MB/s)");
    let mut disks = vec![DiskModel::savvio_10k3(); 9];
    disks[0] = DiskModel::savvio_10k3().with_speed_factor(0.5);
    let sim = ecfrm_sim::ArraySim::heterogeneous(disks, cfg.element_size);
    let wl = NormalReadWorkload {
        trials: cfg.trials_normal,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
    };
    let mut rng = Rng::seed_from_u64(cfg.seed);
    for scheme in rs_schemes(6, 3) {
        let xs: Vec<f64> = wl
            .generate(cfg.seed)
            .iter()
            .map(|r| {
                let p = scheme.normal_read_plan(r.start, r.size);
                sim.read_speed_mb_s(r.size, &p.per_disk_load(), &mut rng)
            })
            .collect();
        println!("{:<20} {:>10.1}", scheme.name(), mean(&xs));
    }
    println!();
}

/// Ablation: EC-FRM vs per-stripe random placement — sequential spreading
/// beats mere spreading.
fn placement(cfg: &ExperimentConfig) {
    println!("Ablation: placement policy, RS(6,3) normal reads (MB/s)");
    let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
    let schemes = [
        LayoutKind::Standard,
        LayoutKind::Rotated,
        LayoutKind::Shuffled,
        LayoutKind::KRotated,
        LayoutKind::EcFrm,
    ]
    .map(|kind| Scheme::builder(code.clone()).layout(kind).seed(7).build());
    for scheme in schemes {
        let r = run_normal(&scheme, cfg);
        println!(
            "{:<20} {:>10.1}  (mean max load {:.3}, disks touched {:.2})",
            r.scheme, r.speed_mb_s, r.mean_max_load, r.mean_disks_touched
        );
    }
    println!();
}

/// Ablation: closed-loop concurrency — hot disks delay queued requests,
/// so EC-FRM's balance compounds into aggregate throughput.
fn concurrency(cfg: &ExperimentConfig) {
    println!("Ablation: closed-loop clients, RS(6,3) normal reads (aggregate MB/s)");
    println!(
        "{:<10} {:>12} {:>14} {:>10}",
        "clients", "RS MB/s", "EC-FRM MB/s", "gain %"
    );
    let [s, _, e] = rs_schemes(6, 3);
    let wl = NormalReadWorkload {
        trials: cfg.trials_normal,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
    };
    let reqs_for = |scheme: &Scheme| -> Vec<ecfrm_sim::Request> {
        wl.generate(cfg.seed)
            .iter()
            .map(|r| {
                let plan = scheme.normal_read_plan(r.start, r.size);
                ecfrm_sim::Request {
                    loads: plan.per_disk_load(),
                    requested: r.size,
                }
            })
            .collect()
    };
    let rs_reqs = reqs_for(&s);
    let ec_reqs = reqs_for(&e);
    for clients in [1usize, 2, 4, 8, 16] {
        let sim_s = ecfrm_sim::EventSim::uniform(s.n_disks(), cfg.disk, cfg.element_size);
        let sim_e = ecfrm_sim::EventSim::uniform(e.n_disks(), cfg.disk, cfg.element_size);
        let t_s = sim_s.throughput_mb_s(&sim_s.run_closed_loop(&rs_reqs, clients));
        let t_e = sim_e.throughput_mb_s(&sim_e.run_closed_loop(&ec_reqs, clients));
        println!(
            "{:<10} {:>12.1} {:>14.1} {:>+10.1}",
            clients,
            t_s,
            t_e,
            gain_pct(t_e, t_s)
        );
    }
    println!();
}

/// Ablation: the framework is code-generic — Cauchy RS gets the same win.
fn cauchy(cfg: &ExperimentConfig) {
    println!("Ablation: EC-FRM over Cauchy-RS(6,3) (framework generality)");
    let code: Arc<dyn CandidateCode> = Arc::new(RsCode::cauchy(6, 3));
    let s = run_normal(&Scheme::builder(code.clone()).build(), cfg);
    let e = run_normal(
        &Scheme::builder(code).layout(LayoutKind::EcFrm).build(),
        cfg,
    );
    println!(
        "{:<20} {:>10.1}\n{:<20} {:>10.1}  ({:+.1}%)",
        s.scheme,
        s.speed_mb_s,
        e.scheme,
        e.speed_mb_s,
        gain_pct(e.speed_mb_s, s.speed_mb_s)
    );
    println!();
}

/// Ablation: vertical codes vs EC-FRM (the paper's §II-B/§III argument
/// made quantitative): X-Code matches EC-FRM's normal-read balance but
/// is stuck at tolerance 2 and prime disk counts; WEAVER at 50%
/// efficiency.
fn vertical(cfg: &ExperimentConfig) {
    use ecfrm_vertical::{Weaver, XCode};
    println!("Ablation: vertical codes vs EC-FRM on 7 disks");
    println!(
        "{:<20} {:>10} {:>10} {:>12} {:>12}",
        "scheme", "MB/s", "tolerance", "efficiency", "any n?"
    );
    let wl = NormalReadWorkload {
        trials: cfg.trials_normal,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
    };
    let reqs = wl.generate(cfg.seed);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let sim = ecfrm_sim::ArraySim::uniform(7, cfg.disk, cfg.element_size);

    // EC-FRM-RS(5,2): same 7 disks, same tolerance 2, efficiency 5/7.
    let ec = Scheme::builder(Arc::new(RsCode::vandermonde(5, 2)) as Arc<dyn CandidateCode>)
        .layout(LayoutKind::EcFrm)
        .build();
    let xs: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let p = ec.normal_read_plan(r.start, r.size);
            sim.read_speed_mb_s(r.size, &p.per_disk_load(), &mut rng)
        })
        .collect();
    println!(
        "{:<20} {:>10.1} {:>10} {:>12.3} {:>12}",
        ec.name(),
        mean(&xs),
        ec.code().fault_tolerance(),
        5.0 / 7.0,
        "yes"
    );

    let xcode = XCode::new(7);
    let xs: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let load = xcode.normal_read_load(r.start, r.size);
            sim.read_speed_mb_s(r.size, &load, &mut rng)
        })
        .collect();
    println!(
        "{:<20} {:>10.1} {:>10} {:>12.3} {:>12}",
        xcode.name(),
        mean(&xs),
        xcode.tolerance(),
        xcode.storage_efficiency(),
        "prime only"
    );

    let weaver = Weaver::new(7);
    let xs: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let load = weaver.normal_read_load(r.start, r.size);
            sim.read_speed_mb_s(r.size, &load, &mut rng)
        })
        .collect();
    println!(
        "{:<20} {:>10.1} {:>10} {:>12.3} {:>12}",
        weaver.name(),
        mean(&xs),
        weaver.tolerance(),
        weaver.storage_efficiency(),
        "yes"
    );
    println!("EC-FRM matches vertical normal-read balance without the tolerance/efficiency/prime restrictions.\n");
}

/// Ablation: Zipf object-fetch trace under closed-loop concurrency —
/// the paper's "MP3 library" scenario at system scale.
fn trace(cfg: &ExperimentConfig) {
    println!("Ablation: Zipf(0.9) object trace, LRC(6,2,2) forms, 8 closed-loop clients");
    let t = ecfrm_sim::TraceWorkload {
        objects: 200,
        zipf_alpha: 0.9,
        min_elements: 3,
        max_elements: 12,
        fetches: cfg.trials_normal,
    };
    let (_, fetches) = t.generate(cfg.seed);
    println!(
        "{:<20} {:>14} {:>16}",
        "scheme", "agg MB/s", "mean latency ms"
    );
    for scheme in lrc_schemes(6, 2, 2) {
        let reqs: Vec<ecfrm_sim::Request> = fetches
            .iter()
            .map(|f| {
                let plan = scheme.normal_read_plan(f.start, f.size);
                ecfrm_sim::Request {
                    loads: plan.per_disk_load(),
                    requested: f.size,
                }
            })
            .collect();
        let sim = ecfrm_sim::EventSim::uniform(scheme.n_disks(), cfg.disk, cfg.element_size);
        let done = sim.run_closed_loop(&reqs, 8);
        println!(
            "{:<20} {:>14.1} {:>16.1}",
            scheme.name(),
            sim.throughput_mb_s(&done),
            sim.mean_latency_ms(&done)
        );
    }
    println!();
}

/// Ablation: client-bandwidth sweep — where the paper's "sufficient
/// bandwidth" regime ends. Once the downlink binds, layout stops
/// mattering (all forms converge) and only fetch volume — where LRC's
/// locality wins — distinguishes codes.
fn bandwidth(cfg: &ExperimentConfig) {
    use ecfrm_sim::{ClusterSim, DegradedReadWorkload, NetModel};
    println!("Ablation: degraded reads vs client downlink (mean MB/s of requested data)");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12}",
        "downlink", "RS(6,3)", "EC-FRM-RS", "LRC(6,2,2)", "EC-FRM-LRC"
    );
    let [rs_std, _, rs_ec] = rs_schemes(6, 3);
    let [lrc_std, _, lrc_ec] = lrc_schemes(6, 2, 2);
    let speed_of = |scheme: &Scheme, cluster: &ClusterSim| -> f64 {
        let wl = DegradedReadWorkload {
            trials: cfg.trials_degraded.min(2000),
            address_space: cfg.address_space,
            min_size: 1,
            max_size: 20,
            n_disks: scheme.n_disks(),
        };
        let xs: Vec<f64> = wl
            .generate(cfg.seed)
            .iter()
            .map(|r| {
                let plan = scheme.degraded_read_plan(r.start, r.size, &[r.failed_disk.unwrap()]);
                cluster.read_speed_mb_s(r.size, &plan.per_disk_load())
            })
            .collect();
        mean(&xs)
    };
    for down in [f64::INFINITY, 1250.0, 500.0, 250.0, 125.0] {
        let net = NetModel {
            node_uplink_mb_s: f64::INFINITY,
            client_downlink_mb_s: down,
            rtt_ms: 0.2,
        };
        let cluster = ClusterSim::new(cfg.disk, net, cfg.element_size);
        println!(
            "{:<12} {:>10.1} {:>12.1} {:>10.1} {:>12.1}",
            if down.is_infinite() {
                "sufficient".to_string()
            } else {
                format!("{down:.0} MB/s")
            },
            speed_of(&rs_std, &cluster),
            speed_of(&rs_ec, &cluster),
            speed_of(&lrc_std, &cluster),
            speed_of(&lrc_ec, &cluster),
        );
    }
    println!();
}

/// Ablation: open-loop arrival-rate sweep — tail latency under load.
fn latency(cfg: &ExperimentConfig) {
    println!("Ablation: open-loop arrivals, RS(6,3) normal reads — p50/p99 latency (ms)");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12}",
        "interarrival", "RS p50", "RS p99", "EC-FRM p50", "EC-FRM p99"
    );
    let [s, _, e] = rs_schemes(6, 3);
    let wl = NormalReadWorkload {
        trials: cfg.trials_normal,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
    };
    let reqs_for = |scheme: &Scheme| -> Vec<ecfrm_sim::Request> {
        wl.generate(cfg.seed)
            .iter()
            .map(|r| {
                let plan = scheme.normal_read_plan(r.start, r.size);
                ecfrm_sim::Request {
                    loads: plan.per_disk_load(),
                    requested: r.size,
                }
            })
            .collect()
    };
    let rs_reqs = reqs_for(&s);
    let ec_reqs = reqs_for(&e);
    let sim_s = ecfrm_sim::EventSim::uniform(s.n_disks(), cfg.disk, cfg.element_size);
    let sim_e = ecfrm_sim::EventSim::uniform(e.n_disks(), cfg.disk, cfg.element_size);
    for inter_ms in [60.0f64, 45.0, 35.0, 30.0, 25.0] {
        let d_s = sim_s.run_open_loop(&rs_reqs, inter_ms);
        let d_e = sim_e.run_open_loop(&ec_reqs, inter_ms);
        println!(
            "{:<16} {:>10.0} {:>10.0} {:>12.0} {:>12.0}",
            format!("{inter_ms} ms"),
            sim_s.latency_percentile_ms(&d_s, 0.5),
            sim_s.latency_percentile_ms(&d_s, 0.99),
            sim_e.latency_percentile_ms(&d_e, 0.5),
            sim_e.latency_percentile_ms(&d_e, 0.99),
        );
    }
    println!();
}

/// Ablation: single-disk rebuild — read volume and modelled rebuild time
/// per scheme (EC-FRM spreads recovery reads like a vertical code,
/// paper §V-B).
fn recovery(cfg: &ExperimentConfig) {
    use ecfrm_core::DiskRecovery;
    // Same rebuild volume for every scheme: 960 elements per disk
    // (960 = lcm of every tested layout's offsets-per-stripe).
    const OFFSETS: u64 = 960;
    println!("Ablation: rebuild of one disk holding {OFFSETS} elements");
    println!(
        "{:<20} {:>10} {:>10} {:>14} {:>14}",
        "scheme", "reads", "rebuilt", "max disk load", "model time s"
    );
    let per_elem = cfg.disk.service_time_ms(cfg.element_size);
    let mut schemes = Vec::new();
    schemes.extend(rs_schemes(6, 3));
    schemes.extend(lrc_schemes(6, 2, 2));
    for scheme in schemes {
        let ops = scheme.layout().offsets_per_stripe();
        let rec = DiskRecovery::plan(&scheme, 0, OFFSETS / ops);
        let load = rec.read_load();
        let max = load.iter().max().copied().unwrap_or(0);
        println!(
            "{:<20} {:>10} {:>10} {:>14} {:>14.2}",
            scheme.name(),
            rec.total_reads(),
            rec.total_rebuilt(),
            max,
            max as f64 * per_elem / 1e3
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    let cmds: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let cmds = if cmds.is_empty() { vec!["all"] } else { cmds };

    println!(
        "# EC-FRM figure harness — element {} KB, {} normal / {} degraded trials, jitter {:.0}%\n",
        cfg.element_size / 1000,
        cfg.trials_normal,
        cfg.trials_degraded,
        cfg.jitter * 100.0
    );

    for cmd in cmds {
        match cmd {
            name if FIGURES.iter().any(|f| f.0 == name) => figure(name, &cfg, quick, json),
            "sweep-elem" => sweep_elem(&cfg),
            "sweep-size" => sweep_size(&cfg),
            "hetero" => hetero(&cfg),
            "placement" => placement(&cfg),
            "cauchy" => cauchy(&cfg),
            "concurrency" => concurrency(&cfg),
            "vertical" => vertical(&cfg),
            "trace" => trace(&cfg),
            "latency" => latency(&cfg),
            "bandwidth" => bandwidth(&cfg),
            "recovery" => recovery(&cfg),
            "ablations" => {
                sweep_elem(&cfg);
                sweep_size(&cfg);
                hetero(&cfg);
                placement(&cfg);
                cauchy(&cfg);
                concurrency(&cfg);
                vertical(&cfg);
                trace(&cfg);
                latency(&cfg);
                bandwidth(&cfg);
                recovery(&cfg);
            }
            "all" => {
                for (name, ..) in FIGURES {
                    figure(name, &cfg, quick, json);
                }
            }
            other => {
                eprintln!("unknown command: {other}");
                eprintln!(
                    "usage: figures [--quick] [--json] [fig8a|fig8b|fig9a|fig9b|fig9c|fig9d|all|\\\n                sweep-elem|sweep-size|hetero|placement|cauchy|ablations]"
                );
                std::process::exit(2);
            }
        }
    }
}
