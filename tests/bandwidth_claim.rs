//! §III's scoping assumption, tested: the paper's results hold "with
//! sufficient bandwidth"; once the client link binds, layout stops
//! mattering and fetch volume takes over.

use std::sync::Arc;

use ecfrm::codes::{CandidateCode, LrcCode, RsCode};
use ecfrm::core::{LayoutKind, Scheme};
use ecfrm::sim::{DiskModel, NetModel, ReadModel};
use ecfrm::util::Rng;

fn mean_degraded_speed(scheme: &Scheme, net: NetModel) -> f64 {
    let cluster =
        ReadModel::uniform(scheme.n_disks(), DiskModel::savvio_10k3(), 1_000_000).with_net(net);
    let mut rng = Rng::seed_from_u64(1);
    let mut total = 0.0;
    let mut n = 0;
    for start in 0..60u64 {
        for failed in 0..scheme.n_disks() {
            // Deterministically mixed sizes 1..=20, as in §VI's workload.
            let size = 1 + ((start * 7 + failed as u64 * 3) % 20) as usize;
            let plan = scheme.degraded_read_plan(start, size, &[failed]);
            total += cluster.read_speed_mb_s(size, &plan.per_disk_load(), &mut rng);
            n += 1;
        }
    }
    total / n as f64
}

#[test]
fn sufficient_bandwidth_preserves_layout_gains() {
    let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
    let net = NetModel::sufficient();
    let std = mean_degraded_speed(&Scheme::builder(code.clone()).build(), net);
    let ec = mean_degraded_speed(
        &Scheme::builder(code).layout(LayoutKind::EcFrm).build(),
        net,
    );
    assert!(
        ec > std * 1.05,
        "with sufficient bandwidth EC-FRM must win: {ec:.1} vs {std:.1}"
    );
}

#[test]
fn bound_bandwidth_collapses_layout_gains() {
    let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
    let slow = NetModel {
        node_uplink_mb_s: f64::INFINITY,
        client_downlink_mb_s: 100.0, // far below the array's raw rate
        rtt_ms: 0.0,
    };
    let std = mean_degraded_speed(&Scheme::builder(code.clone()).build(), slow);
    let ec = mean_degraded_speed(
        &Scheme::builder(code).layout(LayoutKind::EcFrm).build(),
        slow,
    );
    let gap = (ec / std - 1.0).abs();
    assert!(
        gap < 0.03,
        "with a bound downlink the forms must converge: {ec:.1} vs {std:.1}"
    );
}

#[test]
fn under_bound_bandwidth_lrc_beats_rs_by_cost() {
    // When volume is everything, LRC's lower degraded cost (k/l repair
    // reads) gives it the edge the Fig 9(a)/(b) cost metric predicts.
    let rs: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
    let lrc: Arc<dyn CandidateCode> = Arc::new(LrcCode::new(6, 2, 2));
    let slow = NetModel {
        node_uplink_mb_s: f64::INFINITY,
        client_downlink_mb_s: 100.0,
        rtt_ms: 0.0,
    };
    let rs_speed = mean_degraded_speed(&Scheme::builder(rs).build(), slow);
    let lrc_speed = mean_degraded_speed(&Scheme::builder(lrc).build(), slow);
    assert!(
        lrc_speed > rs_speed * 1.05,
        "LRC {lrc_speed:.1} should beat RS {rs_speed:.1} when bandwidth binds"
    );
}
