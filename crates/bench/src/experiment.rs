//! Run one experiment cell: a scheme under a workload on the simulated
//! array, summarised the way the paper reports it.

use ecfrm_core::Scheme;
use ecfrm_obs::{DiskBoard, Histogram};
use ecfrm_sim::{mean, DegradedReadWorkload, DiskModel, Jitter, NormalReadWorkload, ReadModel};
use ecfrm_util::Rng;

/// Shared experiment knobs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Element size in bytes (the paper's discussion assumes ~1 MB).
    pub element_size: usize,
    /// Size of the data address space in elements.
    pub address_space: u64,
    /// Normal-read trials (paper: 2000).
    pub trials_normal: usize,
    /// Degraded-read trials (paper: 5000).
    pub trials_degraded: usize,
    /// Workload + jitter seed.
    pub seed: u64,
    /// Per-access service-time jitter half-width (0.0 = deterministic).
    pub jitter: f64,
    /// Disk model for every spindle.
    pub disk: DiskModel,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            element_size: 1_000_000,
            address_space: 30_000,
            trials_normal: 2000,
            trials_degraded: 5000,
            seed: 20150901, // ICPP'15 conference date
            jitter: 0.10,
            disk: DiskModel::savvio_10k3(),
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast unit/integration tests.
    pub fn quick() -> Self {
        Self {
            trials_normal: 300,
            trials_degraded: 500,
            address_space: 3_000,
            ..Self::default()
        }
    }

    fn sim(&self, n_disks: usize) -> ReadModel {
        ReadModel::uniform(n_disks, self.disk, self.element_size)
            .with_jitter(Jitter::new(self.jitter))
    }
}

/// Per-trial latency percentiles and cumulative disk-load imbalance,
/// distilled from an [`ecfrm_obs`] histogram + disk board.
#[derive(Debug, Clone, Copy)]
pub struct TailStats {
    /// Median simulated request latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile simulated request latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile simulated request latency, ms.
    pub p99_ms: f64,
    /// Cumulative disk-load imbalance over the whole run: max/mean
    /// elements read per disk (1.0 = perfectly even).
    pub load_imbalance: f64,
}

impl TailStats {
    fn from_obs(hist: &Histogram, board: &DiskBoard) -> Self {
        let h = hist.snapshot();
        Self {
            p50_ms: h.p50() as f64 / 1e3,
            p95_ms: h.p95() as f64 / 1e3,
            p99_ms: h.p99() as f64 / 1e3,
            load_imbalance: board.snapshot().imbalance(),
        }
    }
}

/// Aggregated outcome of a normal-read experiment (one Figure 8 bar).
#[derive(Debug, Clone)]
pub struct NormalResult {
    /// Scheme display name.
    pub scheme: String,
    /// Mean read speed over all trials, MB/s (the figure's y-axis).
    pub speed_mb_s: f64,
    /// Mean bottleneck load (elements on the most-loaded disk).
    pub mean_max_load: f64,
    /// Mean number of disks serving each request.
    pub mean_disks_touched: f64,
    /// Latency tail + cumulative load-imbalance statistics.
    pub tail: TailStats,
}

/// Aggregated outcome of a degraded-read experiment (Figure 9 bars).
#[derive(Debug, Clone)]
pub struct DegradedResult {
    /// Scheme display name.
    pub scheme: String,
    /// Mean degraded read speed, MB/s (Figure 9c/9d).
    pub speed_mb_s: f64,
    /// Mean degraded read cost = fetched/requested (Figure 9a/9b).
    pub cost: f64,
    /// Mean bottleneck load.
    pub mean_max_load: f64,
    /// Latency tail + cumulative load-imbalance statistics.
    pub tail: TailStats,
}

/// Fold one trial into the latency histogram (simulated service time in
/// µs) and the per-disk load board (elements + bytes actually fetched).
fn observe_trial(
    hist: &Histogram,
    board: &DiskBoard,
    requested_elements: usize,
    element_size: usize,
    speed_mb_s: f64,
    per_disk_load: &[usize],
) {
    let bytes = (requested_elements * element_size) as f64;
    if speed_mb_s > 0.0 {
        // time_us = bytes / (speed MB/s): 1 MB = 1e6 B cancels 1e6 µs/s.
        hist.record((bytes / speed_mb_s) as u64);
    }
    for (disk, &n) in per_disk_load.iter().enumerate() {
        if n > 0 {
            board.record(disk, n as u64, (n * element_size) as u64);
        }
    }
}

/// Run the §VI-B normal-read experiment for one scheme.
pub fn run_normal(scheme: &Scheme, cfg: &ExperimentConfig) -> NormalResult {
    let wl = NormalReadWorkload {
        trials: cfg.trials_normal,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
    };
    let sim = cfg.sim(scheme.n_disks());
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA5A5_A5A5);
    let mut speeds = Vec::with_capacity(cfg.trials_normal);
    let mut max_loads = Vec::with_capacity(cfg.trials_normal);
    let mut touched = Vec::with_capacity(cfg.trials_normal);
    let hist = Histogram::new();
    let board = DiskBoard::new(scheme.n_disks());
    for req in wl.generate(cfg.seed) {
        let plan = scheme.normal_read_plan(req.start, req.size);
        let load = plan.per_disk_load();
        let speed = sim.read_speed_mb_s(req.size, &load, &mut rng);
        observe_trial(&hist, &board, req.size, cfg.element_size, speed, &load);
        speeds.push(speed);
        max_loads.push(plan.max_load() as f64);
        touched.push(plan.disks_touched() as f64);
    }
    NormalResult {
        scheme: scheme.name(),
        speed_mb_s: mean(&speeds),
        mean_max_load: mean(&max_loads),
        mean_disks_touched: mean(&touched),
        tail: TailStats::from_obs(&hist, &board),
    }
}

/// Run the §VI-C degraded-read experiment for one scheme.
pub fn run_degraded(scheme: &Scheme, cfg: &ExperimentConfig) -> DegradedResult {
    let wl = DegradedReadWorkload {
        trials: cfg.trials_degraded,
        address_space: cfg.address_space,
        min_size: 1,
        max_size: 20,
        n_disks: scheme.n_disks(),
    };
    let sim = cfg.sim(scheme.n_disks());
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5A5A_5A5A);
    let mut speeds = Vec::with_capacity(cfg.trials_degraded);
    let mut costs = Vec::with_capacity(cfg.trials_degraded);
    let mut max_loads = Vec::with_capacity(cfg.trials_degraded);
    let hist = Histogram::new();
    let board = DiskBoard::new(scheme.n_disks());
    for req in wl.generate(cfg.seed.wrapping_add(1)) {
        let failed = req.failed_disk.expect("degraded workload sets a disk");
        let plan = scheme.degraded_read_plan(req.start, req.size, &[failed]);
        debug_assert!(plan.unreadable.is_empty(), "single failure always readable");
        let load = plan.per_disk_load();
        let speed = sim.read_speed_mb_s(req.size, &load, &mut rng);
        observe_trial(&hist, &board, req.size, cfg.element_size, speed, &load);
        speeds.push(speed);
        costs.push(plan.cost());
        max_loads.push(plan.max_load() as f64);
    }
    DegradedResult {
        scheme: scheme.name(),
        speed_mb_s: mean(&speeds),
        cost: mean(&costs),
        mean_max_load: mean(&max_loads),
        tail: TailStats::from_obs(&hist, &board),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{lrc_schemes, rs_schemes};

    #[test]
    fn normal_experiment_is_deterministic() {
        let cfg = ExperimentConfig::quick();
        let [std, _, _] = rs_schemes(6, 3);
        let a = run_normal(&std, &cfg);
        let b = run_normal(&std, &cfg);
        assert_eq!(a.speed_mb_s, b.speed_mb_s);
    }

    #[test]
    fn ecfrm_rs_beats_standard_on_normal_reads() {
        // Figure 8(a)'s headline: EC-FRM-RS 19-34% faster than RS.
        let cfg = ExperimentConfig::quick();
        for (k, m) in crate::params::rs_params() {
            let [std, rot, ec] = rs_schemes(k, m);
            let s_std = run_normal(&std, &cfg).speed_mb_s;
            let s_rot = run_normal(&rot, &cfg).speed_mb_s;
            let s_ec = run_normal(&ec, &cfg).speed_mb_s;
            assert!(
                s_ec > s_std * 1.05,
                "({k},{m}): EC-FRM {s_ec:.1} should clearly beat standard {s_std:.1}"
            );
            assert!(
                s_ec > s_rot,
                "({k},{m}): EC-FRM {s_ec:.1} should beat rotated {s_rot:.1}"
            );
        }
    }

    #[test]
    fn ecfrm_lrc_beats_standard_on_normal_reads() {
        let cfg = ExperimentConfig::quick();
        for (k, l, m) in crate::params::lrc_params() {
            let [std, _, ec] = lrc_schemes(k, l, m);
            let s_std = run_normal(&std, &cfg).speed_mb_s;
            let s_ec = run_normal(&ec, &cfg).speed_mb_s;
            assert!(
                s_ec > s_std * 1.05,
                "({k},{l},{m}): EC-FRM {s_ec:.1} vs standard {s_std:.1}"
            );
        }
    }

    #[test]
    fn degraded_cost_nearly_identical_across_forms() {
        // Figure 9(a)/9(b): cost differs by < 1% between forms.
        let cfg = ExperimentConfig::quick();
        let [std, rot, ec] = lrc_schemes(6, 2, 2);
        let c_std = run_degraded(&std, &cfg).cost;
        let c_rot = run_degraded(&rot, &cfg).cost;
        let c_ec = run_degraded(&ec, &cfg).cost;
        for (name, c) in [("rotated", c_rot), ("ecfrm", c_ec)] {
            assert!(
                (c - c_std).abs() / c_std < 0.05,
                "{name} cost {c:.4} deviates from standard {c_std:.4}"
            );
        }
    }

    #[test]
    fn tail_stats_are_populated_and_ecfrm_is_tighter() {
        let cfg = ExperimentConfig::quick();
        let [std, _, ec] = rs_schemes(6, 3);
        let r_std = run_normal(&std, &cfg);
        let r_ec = run_normal(&ec, &cfg);
        assert!(r_std.tail.p50_ms > 0.0);
        assert!(r_std.tail.p99_ms >= r_std.tail.p95_ms);
        assert!(r_std.tail.p95_ms >= r_std.tail.p50_ms);
        // The paper's Figure 8 mechanism: EC-FRM spreads sequential
        // reads, so cumulative per-disk load is strictly more even.
        assert!(
            r_ec.tail.load_imbalance < r_std.tail.load_imbalance,
            "EC-FRM imbalance {:.3} should beat standard {:.3}",
            r_ec.tail.load_imbalance,
            r_std.tail.load_imbalance
        );
        assert!(r_ec.tail.load_imbalance >= 1.0);
    }

    #[test]
    fn degraded_speed_ecfrm_beats_standard() {
        let cfg = ExperimentConfig::quick();
        let [std, _, ec] = lrc_schemes(6, 2, 2);
        let s_std = run_degraded(&std, &cfg).speed_mb_s;
        let s_ec = run_degraded(&ec, &cfg).speed_mb_s;
        assert!(s_ec > s_std, "EC-FRM {s_ec:.1} vs standard {s_std:.1}");
    }

    #[test]
    fn lrc_cost_below_rs_cost() {
        let cfg = ExperimentConfig::quick();
        let [rs_std, _, _] = rs_schemes(6, 3);
        let [lrc_std, _, _] = lrc_schemes(6, 2, 2);
        let rs_cost = run_degraded(&rs_std, &cfg).cost;
        let lrc_cost = run_degraded(&lrc_std, &cfg).cost;
        assert!(lrc_cost < rs_cost, "LRC {lrc_cost:.3} vs RS {rs_cost:.3}");
    }
}
