//! The benchmark's only estimators: one percentile, one reduction over
//! rounds, one level peel.
//!
//! Every timing the benchmark reports is measured in *rounds* of a
//! fixed op list. A round yields its own p50, p90 and MB/s; the
//! reported value is the **mean of the quietest quarter of the rounds**
//! (the lowest latencies, the highest MB/s), and the interquartile
//! range of all rounds is printed beside it. A shared host only ever
//! slows a round down — steal, a neighbour's memory traffic, a writer
//! that got the CPU at the wrong moment — so the rounds it left alone
//! say what the program does, and a run has to be disturbed for more
//! than three quarters of its rounds before the value moves. Beside a
//! synthetic noisy neighbour (see the README) the same rounds of the
//! same ten runs spread 5.6 / 5.7 / 15.6 % (`ingest_mix` p50 / p90 /
//! MB/s) this way and 8.0 / 10.5 / 23.6 % by the median over rounds; on
//! a calm host the two agree.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
/// An empty slice reads 0.
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64) * p).round() as usize],
    }
}

/// Median of `xs` in any order (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Interquartile range of `xs` as a share of its median — the spread
/// the acceptance check applies to ten runs, here printed over rounds.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (q1, q3) = quartiles(&v);
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// First and third quartile of an ascending slice, by the same
/// exclusive method as Python's `statistics.quantiles(v, n=4)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    (at(0.25), at(0.75))
}

/// What one round of a fixed op list measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Median op latency, µs.
    pub p50_us: f64,
    /// 90th-percentile op latency, µs.
    pub p90_us: f64,
    /// User bytes returned (or acknowledged) per second of round wall
    /// time, in MB/s (1 MB = 10^6 bytes).
    pub mb_s: f64,
}

impl Round {
    /// Summarise one round from its per-op latencies (µs, any order),
    /// the user bytes it moved and its wall time.
    pub fn of(mut lat_us: Vec<f64>, bytes: u64, wall_s: f64) -> Round {
        lat_us.sort_by(f64::total_cmp);
        Round {
            p50_us: pct(&lat_us, 0.50),
            p90_us: pct(&lat_us, 0.90),
            mb_s: bytes as f64 / 1e6 / wall_s.max(1e-9),
        }
    }
}

/// Mean of the quietest quarter of `xs` (one value at least): the
/// smallest when `lower_is_quiet`, else the largest. Empty reads 0.
pub fn quiet_quarter(xs: &[f64], lower_is_quiet: bool) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_quiet {
        v.reverse();
    }
    let quiet = &v[..(v.len() / 4).max(1).min(v.len())];
    quiet.iter().sum::<f64>() / quiet.len().max(1) as f64
}

/// A measured phase: its rounds, reduced by their quietest quarter.
#[derive(Debug, Clone, Default)]
pub struct Rounds(pub Vec<Round>);

impl Rounds {
    fn reduce(&self, f: impl Fn(&Round) -> f64, lower_is_quiet: bool) -> (f64, f64) {
        let v: Vec<f64> = self.0.iter().map(f).collect();
        (quiet_quarter(&v, lower_is_quiet), rel_iqr(&v))
    }

    /// Quiet-quarter mean of the per-round median latency, and the
    /// relative IQR of all rounds.
    pub fn p50_us(&self) -> (f64, f64) {
        self.reduce(|r| r.p50_us, true)
    }

    /// Quiet-quarter mean of the per-round p90, and relative IQR.
    pub fn p90_us(&self) -> (f64, f64) {
        self.reduce(|r| r.p90_us, true)
    }

    /// Quiet-quarter mean of the per-round MB/s, and relative IQR.
    pub fn mb_s(&self) -> (f64, f64) {
        self.reduce(|r| r.mb_s, false)
    }
}

/// Peel nested level medians into self times: level `i`'s self time is
/// its median minus level `i + 1`'s (the innermost keeps its own), so
/// the self times sum to the outermost median by construction.
pub fn peel(level_medians: &[f64]) -> Vec<f64> {
    level_medians
        .iter()
        .enumerate()
        .map(|(i, m)| m - level_medians.get(i + 1).copied().unwrap_or(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 0.0), 1.0);
        assert_eq!(pct(&v, 0.5), 51.0);
        assert_eq!(pct(&v, 0.9), 90.0);
        assert_eq!(pct(&v, 1.0), 100.0);
        assert_eq!(pct(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((rel_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_ignores_disturbed_rounds_until_they_are_three_quarters() {
        let quiet = Round {
            p50_us: 100.0,
            p90_us: 300.0,
            mb_s: 200.0,
        };
        let burst = Round {
            p50_us: 1000.0,
            p90_us: 3000.0,
            mb_s: 20.0,
        };
        // 8 of 11 rounds disturbed: the reported values do not move.
        let mut rounds = vec![burst; 8];
        rounds.extend([quiet; 3]);
        let r = Rounds(rounds);
        assert_eq!(r.p50_us().0, 100.0);
        assert_eq!(r.p90_us().0, 300.0);
        assert_eq!(r.mb_s().0, 200.0);
        // ... and the spread printed beside them says so.
        assert!(r.p50_us().1 > 0.5);
        assert_eq!(Rounds::default().p50_us(), (0.0, 0.0));
    }

    #[test]
    fn quiet_quarter_is_the_mean_of_the_best_quarter_on_either_side() {
        let v: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        // The mean of 1, 2, 3 and of 12, 11, 10.
        assert_eq!(quiet_quarter(&v, true), 2.0);
        assert_eq!(quiet_quarter(&v, false), 11.0);
        // Fewer than four values: the best one.
        assert_eq!(quiet_quarter(&[5.0, 3.0, 4.0], true), 3.0);
        assert_eq!(quiet_quarter(&[], true), 0.0);
    }

    #[test]
    fn round_summarises_unsorted_latencies() {
        let lat: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let r = Round::of(lat, 2_000_000, 0.5);
        assert_eq!(r.p50_us, 501.0);
        assert_eq!(r.p90_us, 900.0);
        assert!((r.mb_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn self_times_sum_to_the_top_level_median() {
        let medians = [1290.5, 1101.25, 1080.0, 1040.0, 1031.5, 1003.0];
        let selfs = peel(&medians);
        assert_eq!(selfs.len(), medians.len());
        assert_eq!(selfs[5], 1003.0);
        let sum: f64 = selfs.iter().sum();
        assert!((sum - medians[0]).abs() < 1e-9);
        // A level the median request never reaches costs it nothing.
        assert_eq!(peel(&[120.0, 9.0, 0.0, 0.0]), vec![111.0, 9.0, 0.0, 0.0]);
    }
}
