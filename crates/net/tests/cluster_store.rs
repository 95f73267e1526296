//! End-to-end: `ObjectStore` over a real loopback TCP cluster.
//!
//! The acceptance scenario for the networked shard service: boot an
//! n-node cluster, push an object through put → encode → **network**,
//! read it back over the wire, then crash a shard server and show the
//! store still returns correct bytes by flipping the read plan from
//! normal to degraded — with the failed requests visible in the shard
//! clients' own counters and, through the array's source, in the
//! store's registry.

use std::sync::Arc;
use std::time::Duration;

use ecfrm_codes::LrcCode;
use ecfrm_core::Scheme;
use ecfrm_integrity::FOOTER_LEN;
use ecfrm_net::{Cluster, RemoteDiskConfig};
use ecfrm_sim::{DiskBackend, FileDisk, ThreadedArray};
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 512;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
}

fn store_over(cluster: &Cluster, scheme: Scheme) -> ObjectStore {
    ObjectStore::with_array(
        scheme,
        ELEMENT,
        ThreadedArray::from_backends(cluster.backends()),
    )
}

/// Requests the cluster's clients have counted as failed, summed.
fn failed_requests(cluster: &Cluster) -> u64 {
    (0..cluster.len())
        .map(|i| cluster.client(i).net_stats().unwrap().failed_requests)
        .sum()
}

fn lrc_scheme() -> Scheme {
    Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
        .layout(ecfrm_core::LayoutKind::EcFrm)
        .build() // n = 10 disks
}

#[test]
fn object_roundtrip_over_loopback_cluster() {
    let scheme = lrc_scheme();
    let cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(40_000);
    store.put("obj", &data).unwrap();
    let (got, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(got, data, "bytes survived the wire");
    assert!(!stats.degraded);
    assert_eq!(stats.replans, 0);
    assert_eq!(failed_requests(&cluster), 0);

    // The registry after one read: every engine gauge and transport
    // counter under the name and in the map it has always had, the
    // transport ones present at zero because the backends report them.
    let snap = store.recorder().snapshot();
    for gauge in [
        "io.queue_depth",
        "io.inflight",
        "io.submitted",
        "io.completed",
        "io.panics",
        "io.uring_engines",
        "io.uring_sqes",
        "io.uring_cqes",
        "io.uring_batches",
        "io.uring_enters",
        "io.uring_inline_runs",
        "io.uring_short_reads",
        "io.uring_errors",
        "io.uring_direct_opens",
        "io.uring_buffered_opens",
        "io.uring_inflight",
        "io.file_errors",
    ] {
        assert!(snap.gauges.contains_key(gauge), "gauge {gauge} missing");
    }
    for counter in [
        "net.retries",
        "net.timeouts",
        "net.reconnects",
        "net.failed_requests",
        "net.conns_discarded",
    ] {
        assert_eq!(snap.counters.get(counter), Some(&0), "counter {counter}");
    }
    assert_eq!(
        snap.gauges["io.submitted"],
        store.array().io_stats().snapshot().submitted as i64
    );
}

#[test]
fn mid_read_shard_crash_falls_back_to_degraded() {
    let scheme = lrc_scheme();
    let mut cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(60_000);
    store.put("obj", &data).unwrap();
    store.flush();

    // Crash one shard server. The store has no idea: its next read plans
    // normally, hits the dead node, and must replan degraded mid-read.
    cluster.kill(3);
    let (got, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(got, data, "degraded fallback reconstructed the bytes");
    assert!(stats.degraded, "read should be flagged degraded: {stats:?}");
    assert!(stats.replans >= 1, "expected a replan: {stats:?}");
    // The crash is visible in the dead node's client counters, and the
    // store's registry reads the same total.
    let failed = failed_requests(&cluster);
    assert!(failed >= 1, "the request to the dead node failed");
    assert_eq!(
        store.recorder().snapshot().counters["net.failed_requests"],
        failed
    );

    // Subsequent ranged reads keep working around the dead node.
    let slice = store.get_range("obj", 10_000, 20_000).unwrap();
    assert_eq!(&slice[..], &data[10_000..30_000]);
}

#[test]
fn two_crashed_shards_within_tolerance_still_read() {
    // LRC(6,2,2) globally tolerates 2 arbitrary failures.
    let scheme = lrc_scheme();
    let mut cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(30_000);
    store.put("obj", &data).unwrap();
    store.flush();
    cluster.kill(0);
    cluster.kill(5);
    let (got, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(got, data);
    assert!(stats.degraded);
}

#[test]
fn fail_disk_routes_fault_injection_over_the_wire() {
    // store.fail_disk → RemoteDisk.fail → InjectFault RPC → the server's
    // backend flips. The server stays up, so reads fail fast (no
    // timeouts) and the planner goes degraded via the store's own
    // failed-disk bookkeeping.
    let scheme = lrc_scheme();
    let cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(25_000);
    store.put("obj", &data).unwrap();
    store.flush();
    store.fail_disk(2).unwrap();
    let (got, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(got, data);
    assert!(stats.degraded);
    assert_eq!(stats.replans, 0, "known-failed disk needs no replan");

    store.heal_disk(2).unwrap();
    let (got, stats) = store.get_with_stats("obj").unwrap();
    assert_eq!(got, data);
    assert!(!stats.degraded);
}

#[test]
fn file_backed_cluster_roundtrips() {
    // FileDisk shards behind the servers: bytes cross the network AND
    // hit real files, exercising the full persistent path. Shard files
    // hold whole cells — payload plus the store's checksum footer.
    let scheme = lrc_scheme();
    let dir = std::env::temp_dir().join(format!("ecfrm-net-filetest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
        .map(|d| {
            Arc::new(
                FileDisk::create(dir.join(format!("shard{d}.bin")), ELEMENT + FOOTER_LEN).unwrap(),
            ) as Arc<dyn DiskBackend>
        })
        .collect();
    // Ship the store's integrity key so shards verify footers at the
    // source.
    let key = ecfrm_integrity::HashKey::DEFAULT;
    let cfg = RemoteDiskConfig::builder()
        .low_latency()
        .integrity_key(key.k0, key.k1)
        .build();
    let cluster = Cluster::spawn_over(backends, &cfg).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(35_000);
    store.put("obj", &data).unwrap();
    store.flush();
    assert_eq!(store.get("obj").unwrap(), data);
    // The shard files really hold the elements.
    assert!(std::fs::metadata(dir.join("shard0.bin")).unwrap().len() > 0);
    // Store-sealed cells on a real file-backed shard verify at the
    // source (the store's footers were written with this key): every
    // read so far carried the key and none found a corrupt cell.
    let got = cluster.client(0).read_many(&[0, 1]);
    assert!(got[0].is_some(), "shard 0 offset 0 must verify server-side");
    let stats = cluster.client(0).stats().unwrap();
    let get = |name: &str| stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert!(get("serve.read") >= Some(2), "{stats:?}");
    assert_eq!(get("serve.read_corrupt"), Some(0));
    assert_eq!(cluster.client(0).remote_verify_fails(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_beyond_tolerance_is_data_loss_not_hang() {
    let scheme = lrc_scheme();
    let mut cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);

    let data = payload(15_000);
    store.put("obj", &data).unwrap();
    store.flush();
    // LRC(6,2,2) has 4 parities total; 5 erasures can never decode.
    for d in [0, 2, 4, 6, 8] {
        cluster.kill(d);
    }
    let t0 = std::time::Instant::now();
    let err = store.get("obj");
    assert!(err.is_err(), "4 dead nodes must not decode");
    // Bounded failure: fast() timeouts keep the whole attempt short.
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "took {:?}",
        t0.elapsed()
    );
}
