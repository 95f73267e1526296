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
    }

    #[test]
    fn empty_series() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_time_speed_panics() {
        speed_mb_s(1, 0.0);
    }
}
