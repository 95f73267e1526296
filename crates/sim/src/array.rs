//! The read model: the paper's "read speed is limited by the slowest
//! disk to respond" rule (§I, §III-A), computed exactly, with the
//! network behind the disks as one more field ([`NetModel`]).

use ecfrm_util::Rng;

use crate::disk::DiskModel;
use crate::net::NetModel;

/// Multiplicative per-access service-time jitter, uniform in
/// `[1 - spread, 1 + spread]`; a spread of 0 is no jitter.
///
/// Real disks vary access to access (queueing, head position, track
/// location); jitter makes the "most-loaded disk is *usually* the
/// slowest" statement of §III-B statistical rather than exact, as on the
/// paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// Half-width of the uniform multiplier, `0.0 ≤ spread < 1.0`.
    pub spread: f64,
}

impl Jitter {
    /// Construct, validating the spread.
    ///
    /// # Panics
    /// Panics unless `0.0 <= spread < 1.0`.
    pub fn new(spread: f64) -> Self {
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
        Self { spread }
    }

    /// One multiplier; a spread of 0 gives 1.0 and draws nothing.
    fn sample(&self, rng: &mut Rng) -> f64 {
        if self.spread == 0.0 {
            1.0
        } else {
            1.0 + rng.random_range(-self.spread..=self.spread)
        }
    }
}

/// An array of (possibly heterogeneous) disks behind a network, timed by
/// the max-over-disks completion rule. One read is [`Self::read_time_ms`];
/// many in flight are the event drivers ([`Self::run_closed_loop`],
/// [`Self::run_open_loop`]). Both serve a disk's queue with
/// [`Self::disk_ms`].
///
/// ```
/// use ecfrm_sim::{DiskModel, ReadModel};
/// use ecfrm_util::Rng;
///
/// let model = ReadModel::uniform(10, DiskModel::savvio_10k3(), 1_000_000);
/// let mut rng = Rng::seed_from_u64(1);
/// // Balanced 8-element read: one 17.1 ms element per disk.
/// let t = model.read_time_ms(&[1, 1, 1, 1, 1, 1, 1, 1, 0, 0], &mut rng);
/// assert!((t - 17.1).abs() < 1e-9);
/// // Skewed plan: the double-loaded disk doubles the time.
/// let t = model.read_time_ms(&[2, 1, 1, 1, 1, 1, 1, 0, 0, 0], &mut rng);
/// assert!((t - 34.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ReadModel {
    pub(crate) disks: Vec<DiskModel>,
    pub(crate) element_size: usize,
    jitter: Jitter,
    pub(crate) net: NetModel,
}

impl ReadModel {
    /// A homogeneous array of `n` copies of `model` holding
    /// `element_size`-byte elements, without jitter, on a sufficient
    /// network.
    pub fn uniform(n: usize, model: DiskModel, element_size: usize) -> Self {
        Self::heterogeneous(vec![model; n], element_size)
    }

    /// A heterogeneous array from explicit per-disk models.
    pub fn heterogeneous(disks: Vec<DiskModel>, element_size: usize) -> Self {
        assert!(!disks.is_empty(), "array needs at least one disk");
        Self {
            disks,
            element_size,
            jitter: Jitter::new(0.0),
            net: NetModel::sufficient(),
        }
    }

    /// Per-access jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// The network between the disks and the reading client.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Time (ms) for `disk` to serve `q` elements in sequence: each
    /// element's queued service time times one jitter sample.
    pub fn disk_ms(&self, disk: usize, q: usize, rng: &mut Rng) -> f64 {
        let model = &self.disks[disk];
        (0..q)
            .map(|i| model.queued_service_time_ms(i, self.element_size) * self.jitter.sample(rng))
            .sum()
    }

    /// Completion time (ms) of a parallel read described by per-disk
    /// element counts: the slowest touched disk (its service, or its
    /// uplink; the stages pipeline so the max binds) or the client
    /// downlink draining every fetched element, plus the RTT.
    ///
    /// # Panics
    /// Panics if `per_disk_load.len()` differs from the disk count.
    pub fn read_time_ms(&self, per_disk_load: &[usize], rng: &mut Rng) -> f64 {
        assert_eq!(
            per_disk_load.len(),
            self.disks.len(),
            "load vector does not match disk count"
        );
        let element_mb = self.element_size as f64 / 1e6;
        let link_ms = |q: usize, mb_s: f64| q as f64 * element_mb / mb_s * 1e3;
        let mut worst: f64 = 0.0;
        for (disk, &q) in per_disk_load.iter().enumerate().filter(|(_, &q)| q > 0) {
            let uplink_ms = link_ms(q, self.net.node_uplink_mb_s);
            worst = worst.max(self.disk_ms(disk, q, rng).max(uplink_ms));
        }
        let fetched = per_disk_load.iter().sum();
        worst.max(link_ms(fetched, self.net.client_downlink_mb_s)) + self.net.rtt_ms
    }

    /// Read speed in MB/s of *requested* data for a request of
    /// `requested_elements` under the given load vector (the paper's
    /// Figure 8/9 metric).
    pub fn read_speed_mb_s(
        &self,
        requested_elements: usize,
        per_disk_load: &[usize],
        rng: &mut Rng,
    ) -> f64 {
        let t = self.read_time_ms(per_disk_load, rng);
        if t == 0.0 {
            return 0.0;
        }
        crate::metrics::speed_mb_s(requested_elements * self.element_size, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn time_is_max_over_disks() {
        let a = ReadModel::uniform(4, DiskModel::savvio_10k3(), 1_000_000);
        let per = DiskModel::savvio_10k3().service_time_ms(1_000_000);
        let t = a.read_time_ms(&[1, 3, 0, 2], &mut rng());
        assert!((t - 3.0 * per).abs() < 1e-9);
    }

    #[test]
    fn zero_load_is_instant() {
        let a = ReadModel::uniform(4, DiskModel::savvio_10k3(), 1_000_000);
        assert_eq!(a.read_time_ms(&[0, 0, 0, 0], &mut rng()), 0.0);
        assert_eq!(a.read_speed_mb_s(0, &[0, 0, 0, 0], &mut rng()), 0.0);
    }

    #[test]
    fn speed_scales_with_bottleneck() {
        // Same 8 requested elements; max load 1 must be twice as fast as
        // max load 2 (the whole point of EC-FRM).
        let a = ReadModel::uniform(10, DiskModel::savvio_10k3(), 1_000_000);
        let balanced = vec![1, 1, 1, 1, 1, 1, 1, 1, 0, 0];
        let skewed = vec![2, 2, 1, 1, 1, 1, 0, 0, 0, 0];
        let s1 = a.read_speed_mb_s(8, &balanced, &mut rng());
        let s2 = a.read_speed_mb_s(8, &skewed, &mut rng());
        assert!((s1 / s2 - 2.0).abs() < 1e-9, "s1={s1} s2={s2}");
    }

    #[test]
    fn heterogeneous_slow_disk_dominates() {
        let mut disks = vec![DiskModel::savvio_10k3(); 4];
        disks[3] = DiskModel::savvio_10k3().with_speed_factor(0.25);
        let a = ReadModel::heterogeneous(disks, 1_000_000);
        let t = a.read_time_ms(&[1, 1, 1, 1], &mut rng());
        let slow = DiskModel::savvio_10k3()
            .with_speed_factor(0.25)
            .service_time_ms(1_000_000);
        assert!((t - slow).abs() < 1e-9);
    }

    #[test]
    fn jitter_stays_in_bounds_and_perturbs() {
        let a = ReadModel::uniform(2, DiskModel::savvio_10k3(), 1_000_000)
            .with_jitter(Jitter::new(0.2));
        let base = DiskModel::savvio_10k3().service_time_ms(1_000_000);
        let mut r = rng();
        let mut saw_different = false;
        let mut prev: Option<f64> = None;
        for _ in 0..100 {
            let t = a.read_time_ms(&[1, 0], &mut r);
            assert!(t >= base * 0.8 - 1e-9 && t <= base * 1.2 + 1e-9);
            if let Some(p) = prev {
                if (t - p).abs() > 1e-12 {
                    saw_different = true;
                }
            }
            prev = Some(t);
        }
        assert!(saw_different, "jitter should vary access times");
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let a = ReadModel::uniform(2, DiskModel::savvio_10k3(), 1_000_000)
            .with_jitter(Jitter::new(0.0));
        let t1 = a.read_time_ms(&[2, 1], &mut rng());
        let t2 = a.read_time_ms(&[2, 1], &mut rng());
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic]
    fn load_vector_length_checked() {
        let a = ReadModel::uniform(4, DiskModel::savvio_10k3(), 1_000_000);
        a.read_time_ms(&[1, 2], &mut rng());
    }
}
