//! Cluster network model: when is bandwidth "sufficient"?
//!
//! The paper restricts itself to "cloud storage systems with sufficient
//! bandwidth (e.g., inner-enterprise cloud storage systems)" (§III) and
//! uses degraded-read *cost* as the bandwidth-usage metric (§VI-C). This
//! module adds the missing axis: each storage node has an uplink, the
//! reading client has a downlink, and a read completes when the slowest
//! of {disk service, node uplink, client downlink} finishes. Sweeping the
//! client downlink shows where the paper's regime ends: once bandwidth —
//! not the most-loaded disk — is the bottleneck, layout stops mattering
//! and only the fetch *volume* (cost) does.
//!
//! Backs EXPERIMENTS.md "Ablations → Client-bandwidth sweep" (DESIGN §5,
//! `figures -- bandwidth`) and `tests/bandwidth_claim.rs`.

use crate::disk::DiskModel;

/// Link capacities for one client reading from a cluster of storage
/// nodes (MB/s; `f64::INFINITY` = the paper's sufficient-bandwidth
/// assumption).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-node uplink, MB/s.
    pub node_uplink_mb_s: f64,
    /// Client downlink, MB/s (shared across all fetched elements).
    pub client_downlink_mb_s: f64,
    /// Fixed per-request round-trip overhead, ms.
    pub rtt_ms: f64,
}

impl NetModel {
    /// The paper's assumption: network never binds.
    pub fn sufficient() -> Self {
        Self {
            node_uplink_mb_s: f64::INFINITY,
            client_downlink_mb_s: f64::INFINITY,
            rtt_ms: 0.0,
        }
    }
}

/// One client reading elements from disks behind a network.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    disk: DiskModel,
    net: NetModel,
    element_size: usize,
}

impl ClusterSim {
    /// A homogeneous cluster: every node has the same disk model.
    pub fn new(disk: DiskModel, net: NetModel, element_size: usize) -> Self {
        Self {
            disk,
            net,
            element_size,
        }
    }

    /// Completion time (ms) of a read that fetches `per_disk_load`
    /// elements from each node: the slowest node (disk then uplink, the
    /// stages pipeline so the max binds) or the client downlink draining
    /// every fetched element, plus RTT.
    pub fn read_time_ms(&self, per_disk_load: &[usize]) -> f64 {
        let es_mb = self.element_size as f64 / 1e6;
        let mut node_worst: f64 = 0.0;
        let mut total = 0usize;
        for &q in per_disk_load {
            if q == 0 {
                continue;
            }
            total += q;
            let disk_ms: f64 = (0..q)
                .map(|i| self.disk.queued_service_time_ms(i, self.element_size))
                .sum();
            let uplink_ms = q as f64 * es_mb / self.net.node_uplink_mb_s * 1e3;
            node_worst = node_worst.max(disk_ms.max(uplink_ms));
        }
        let downlink_ms = total as f64 * es_mb / self.net.client_downlink_mb_s * 1e3;
        node_worst.max(downlink_ms) + self.net.rtt_ms
    }

    /// Read speed (MB/s of *requested* data) for a plan.
    pub fn read_speed_mb_s(&self, requested_elements: usize, per_disk_load: &[usize]) -> f64 {
        let t = self.read_time_ms(per_disk_load);
        if t <= 0.0 {
            return 0.0;
        }
        crate::metrics::speed_mb_s(requested_elements * self.element_size, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel::savvio_10k3() // 17.1 ms per 1 MB element
    }

    #[test]
    fn sufficient_bandwidth_reduces_to_disk_model() {
        let c = ClusterSim::new(disk(), NetModel::sufficient(), 1_000_000);
        let t = c.read_time_ms(&[2, 1, 0]);
        assert!((t - 2.0 * 17.1).abs() < 1e-9);
    }

    #[test]
    fn slow_client_downlink_binds() {
        // 8 × 1 MB elements over a 100 MB/s downlink = 80 ms > any disk.
        let net = NetModel {
            node_uplink_mb_s: f64::INFINITY,
            client_downlink_mb_s: 100.0,
            rtt_ms: 0.0,
        };
        let c = ClusterSim::new(disk(), net, 1_000_000);
        let t = c.read_time_ms(&[1, 1, 1, 1, 1, 1, 1, 1]);
        assert!((t - 80.0).abs() < 1e-9);
        // Under a bound downlink, balance is irrelevant: a skewed plan
        // with the same volume takes the same time.
        let skew = c.read_time_ms(&[4, 4, 0, 0, 0, 0, 0, 0]);
        assert!((skew - 80.0).abs() < 1e-9);
    }

    #[test]
    fn slow_node_uplink_binds_per_node() {
        // 2 elements from one node over a 50 MB/s uplink = 40 ms > 34.2.
        let net = NetModel {
            node_uplink_mb_s: 50.0,
            client_downlink_mb_s: f64::INFINITY,
            rtt_ms: 0.0,
        };
        let c = ClusterSim::new(disk(), net, 1_000_000);
        let t = c.read_time_ms(&[2, 1]);
        assert!((t - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_added_once() {
        let net = NetModel {
            node_uplink_mb_s: f64::INFINITY,
            client_downlink_mb_s: f64::INFINITY,
            rtt_ms: 5.0,
        };
        let c = ClusterSim::new(disk(), net, 1_000_000);
        assert!((c.read_time_ms(&[1]) - (17.1 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn ten_gbe_is_nearly_sufficient_for_small_reads() {
        // 10 GbE at the client and every node, 0.2 ms RTT.
        let ten_gbe = NetModel {
            node_uplink_mb_s: 1250.0,
            client_downlink_mb_s: 1250.0,
            rtt_ms: 0.2,
        };
        let c10 = ClusterSim::new(disk(), ten_gbe, 1_000_000);
        let cinf = ClusterSim::new(disk(), NetModel::sufficient(), 1_000_000);
        let load = [1usize, 1, 1, 1, 1, 1, 1, 1, 0, 0];
        let t10 = c10.read_time_ms(&load);
        let tinf = cinf.read_time_ms(&load);
        assert!(
            t10 < tinf * 1.5,
            "10GbE should be near-sufficient: {t10} vs {tinf}"
        );
    }

    #[test]
    fn speed_accounts_only_requested_bytes() {
        let c = ClusterSim::new(disk(), NetModel::sufficient(), 1_000_000);
        // 8 requested but 12 fetched (degraded): speed uses 8 MB.
        let load = [2usize, 2, 2, 2, 2, 2];
        let s = c.read_speed_mb_s(8, &load);
        let t = c.read_time_ms(&load);
        assert!((s - 8.0 / (t / 1e3)).abs() < 1e-9);
    }
}
