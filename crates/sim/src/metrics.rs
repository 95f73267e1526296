//! Small statistics helpers for the experiment harnesses.

/// Bytes over milliseconds, reported as MB/s (1 MB = 10^6 bytes, matching
/// the disk model's transfer-rate convention and the paper's MB/s axes).
pub fn speed_mb_s(bytes: usize, time_ms: f64) -> f64 {
    assert!(time_ms > 0.0, "speed of an instantaneous read is undefined");
    (bytes as f64 / 1e6) / (time_ms / 1e3)
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation; 0.0 for fewer than two points.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Summary statistics of one experiment series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Summarise a series. All-zero for an empty input.
    pub fn of(xs: &[f64]) -> Self {
        Self {
            count: xs.len(),
            mean: mean(xs),
            stddev: stddev(xs),
            min: xs
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .min(f64::INFINITY),
            max: xs
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
                .max(f64::NEG_INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_conversion() {
        // 10 MB in 100 ms = 100 MB/s.
        assert!((speed_mb_s(10_000_000, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_and_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((stddev(&xs) - 2.13809).abs() < 1e-4);
    }

    #[test]
    fn empty_series() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn summary_of_series() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    #[should_panic]
    fn zero_time_speed_panics() {
        speed_mb_s(1, 0.0);
    }
}
