//! Cluster network model: when is bandwidth "sufficient"?
//!
//! The paper restricts itself to "cloud storage systems with sufficient
//! bandwidth (e.g., inner-enterprise cloud storage systems)" (§III) and
//! uses degraded-read *cost* as the bandwidth-usage metric (§VI-C). A
//! [`NetModel`] is the missing axis, one field of the
//! [`ReadModel`](crate::ReadModel): each storage node has an uplink, the
//! reading client has a downlink, and a read completes when the slowest
//! of {disk service, node uplink, client downlink} finishes. Sweeping the
//! client downlink shows where the paper's regime ends: once bandwidth —
//! not the most-loaded disk — is the bottleneck, layout stops mattering
//! and only the fetch *volume* (cost) does.
//!
//! Backs EXPERIMENTS.md "Ablations → Client-bandwidth sweep" (DESIGN §5,
//! `figures -- bandwidth`) and `tests/bandwidth_claim.rs`.

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

#[cfg(test)]
mod tests {
    use ecfrm_util::Rng;

    use super::*;
    use crate::{DiskModel, ReadModel};

    /// `n` disks of 17.1 ms per 1 MB element behind `net`.
    fn cluster(n: usize, net: NetModel) -> ReadModel {
        ReadModel::uniform(n, DiskModel::savvio_10k3(), 1_000_000).with_net(net)
    }

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn sufficient_bandwidth_reduces_to_disk_model() {
        let c = cluster(3, NetModel::sufficient());
        let t = c.read_time_ms(&[2, 1, 0], &mut rng());
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
        let c = cluster(8, net);
        let t = c.read_time_ms(&[1, 1, 1, 1, 1, 1, 1, 1], &mut rng());
        assert!((t - 80.0).abs() < 1e-9);
        // Under a bound downlink, balance is irrelevant: a skewed plan
        // with the same volume takes the same time.
        let skew = c.read_time_ms(&[4, 4, 0, 0, 0, 0, 0, 0], &mut rng());
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
        let c = cluster(2, net);
        let t = c.read_time_ms(&[2, 1], &mut rng());
        assert!((t - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_added_once() {
        let net = NetModel {
            node_uplink_mb_s: f64::INFINITY,
            client_downlink_mb_s: f64::INFINITY,
            rtt_ms: 5.0,
        };
        let c = cluster(1, net);
        assert!((c.read_time_ms(&[1], &mut rng()) - (17.1 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn ten_gbe_is_nearly_sufficient_for_small_reads() {
        // 10 GbE at the client and every node, 0.2 ms RTT.
        let ten_gbe = NetModel {
            node_uplink_mb_s: 1250.0,
            client_downlink_mb_s: 1250.0,
            rtt_ms: 0.2,
        };
        let c10 = cluster(10, ten_gbe);
        let cinf = cluster(10, NetModel::sufficient());
        let load = [1usize, 1, 1, 1, 1, 1, 1, 1, 0, 0];
        let t10 = c10.read_time_ms(&load, &mut rng());
        let tinf = cinf.read_time_ms(&load, &mut rng());
        assert!(
            t10 < tinf * 1.5,
            "10GbE should be near-sufficient: {t10} vs {tinf}"
        );
    }

    #[test]
    fn speed_accounts_only_requested_bytes() {
        let c = cluster(6, NetModel::sufficient());
        // 8 requested but 12 fetched (degraded): speed uses 8 MB.
        let load = [2usize, 2, 2, 2, 2, 2];
        let s = c.read_speed_mb_s(8, &load, &mut rng());
        let t = c.read_time_ms(&load, &mut rng());
        assert!((s - 8.0 / (t / 1e3)).abs() < 1e-9);
    }
}
