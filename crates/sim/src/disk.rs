//! Per-disk service time model.
//!
//! Calibrated to the paper's hardware: Seagate Savvio 10K.3 (model
//! ST9300603SS), 300 GB, 10 000 rpm — average read seek ≈ 4.1 ms, average
//! rotational latency = half a revolution at 10 000 rpm = 3.0 ms,
//! sustained transfer ≈ 100 MB/s mid-platter.

/// Service-time parameters of one disk.
///
/// An element read costs `seek + rotational latency + size / transfer`,
/// all divided by `speed_factor` (1.0 = nominal; < 1.0 models a slow or
/// degraded spindle for the heterogeneity ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time, milliseconds.
    pub seek_ms: f64,
    /// Average rotational latency, milliseconds.
    pub rotational_ms: f64,
    /// Sustained transfer rate, MB/s (1 MB = 10^6 bytes).
    pub transfer_mb_s: f64,
    /// Relative speed (1.0 nominal; 0.5 = half speed).
    pub speed_factor: f64,
    /// When set, elements after the first in a disk's queue pay only
    /// this short track-to-track reposition instead of a full
    /// seek + rotation — modelling that a read's same-disk elements sit
    /// at adjacent offsets (consecutive stripes). `None` charges full
    /// positioning per element (the conservative default used for the
    /// paper's figures).
    pub track_to_track_ms: Option<f64>,
}

impl DiskModel {
    /// The paper's testbed disk: Seagate Savvio 10K.3.
    pub fn savvio_10k3() -> Self {
        Self {
            seek_ms: 4.1,
            rotational_ms: 3.0,
            transfer_mb_s: 100.0,
            speed_factor: 1.0,
            track_to_track_ms: None,
        }
    }

    /// Same disk at a different relative speed.
    pub fn with_speed_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "speed factor must be positive");
        self.speed_factor = factor;
        self
    }

    /// Enable the sequential-queue discount (Savvio 10K.3 track-to-track
    /// is ≈ 0.4 ms).
    pub fn with_track_to_track(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "track-to-track time cannot be negative");
        self.track_to_track_ms = Some(ms);
        self
    }

    /// Time in milliseconds to read one `bytes`-sized element (random
    /// position: full seek + rotation + transfer).
    pub fn service_time_ms(&self, bytes: usize) -> f64 {
        let transfer_ms = bytes as f64 / (self.transfer_mb_s * 1e6) * 1e3;
        (self.seek_ms + self.rotational_ms + transfer_ms) / self.speed_factor
    }

    /// Time for the `i`-th element (0-based) of one request's queue on
    /// this disk: the first pays full positioning; later ones pay the
    /// track-to-track discount when enabled.
    pub fn queued_service_time_ms(&self, i: usize, bytes: usize) -> f64 {
        match (i, self.track_to_track_ms) {
            (0, _) | (_, None) => self.service_time_ms(bytes),
            (_, Some(tt)) => {
                let transfer_ms = bytes as f64 / (self.transfer_mb_s * 1e6) * 1e3;
                (tt + transfer_ms) / self.speed_factor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savvio_one_megabyte_element() {
        let d = DiskModel::savvio_10k3();
        // 4.1 + 3.0 + 10.0 = 17.1 ms for a 1 MB element.
        let t = d.service_time_ms(1_000_000);
        assert!((t - 17.1).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn zero_bytes_costs_positioning_only() {
        let d = DiskModel::savvio_10k3();
        assert!((d.service_time_ms(0) - 7.1).abs() < 1e-9);
    }

    #[test]
    fn speed_factor_scales_linearly() {
        let d = DiskModel::savvio_10k3();
        let slow = d.with_speed_factor(0.5);
        assert!(
            (slow.service_time_ms(1_000_000) - 2.0 * d.service_time_ms(1_000_000)).abs() < 1e-9
        );
    }

    #[test]
    fn ssd_is_much_faster() {
        let hdd = DiskModel::savvio_10k3();
        let ssd = DiskModel {
            seek_ms: 0.02,
            rotational_ms: 0.0,
            transfer_mb_s: 500.0,
            ..hdd
        };
        assert!(ssd.service_time_ms(1_000_000) < hdd.service_time_ms(1_000_000) / 5.0);
    }

    #[test]
    fn queued_service_time_discount() {
        let d = DiskModel::savvio_10k3().with_track_to_track(0.4);
        // First element: full 17.1 ms; later ones: 0.4 + 10.0 = 10.4 ms.
        assert!((d.queued_service_time_ms(0, 1_000_000) - 17.1).abs() < 1e-9);
        assert!((d.queued_service_time_ms(3, 1_000_000) - 10.4).abs() < 1e-9);
        // Without the discount every element pays full positioning.
        let plain = DiskModel::savvio_10k3();
        assert!((plain.queued_service_time_ms(3, 1_000_000) - 17.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_speed_factor_rejected() {
        DiskModel::savvio_10k3().with_speed_factor(0.0);
    }
}
