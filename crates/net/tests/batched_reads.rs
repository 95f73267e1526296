//! The batched read path over a real loopback cluster.
//!
//! Pins the contract the per-disk vectored read path makes on the wire:
//! one stripe read costs exactly one `Read` request per live disk, and a
//! shard whose reply comes back all-absent still decodes through the
//! degraded path.

use std::sync::Arc;

use ecfrm_codes::RsCode;
use ecfrm_core::Scheme;
use ecfrm_net::{Cluster, RemoteDiskConfig};
use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 512;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
}

fn rs_scheme() -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(ecfrm_core::LayoutKind::EcFrm)
        .build() // n = 9 disks
}

fn store_over(cluster: &Cluster, scheme: Scheme) -> ObjectStore {
    ObjectStore::with_array(
        scheme,
        ELEMENT,
        ThreadedArray::from_backends(cluster.backends()),
    )
}

/// One server-side counter, read over the wire via the `Stats` op.
fn server_counter(cluster: &Cluster, i: usize, name: &str) -> u64 {
    cluster
        .client(i)
        .stats()
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Read requests a shard server has handled.
fn server_read_ops(cluster: &Cluster, i: usize) -> u64 {
    server_counter(cluster, i, "serve.read")
}

fn store_counter(store: &ObjectStore, name: &str) -> u64 {
    store
        .recorder()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn stripe_read_is_one_rpc_per_live_disk() {
    let scheme = rs_scheme();
    let n = scheme.n_disks();
    let cluster = Cluster::spawn(n).unwrap();
    let store = store_over(&cluster, scheme.clone());

    // Exactly one stripe of data, so the read touches every disk.
    let data = payload(scheme.data_per_stripe() * ELEMENT);
    let stripe = store.append(&data);
    store.flush();

    let ops_before: Vec<u64> = (0..n).map(|i| server_read_ops(&cluster, i)).collect();
    let rpcs_before = store_counter(&store, "read.rpcs");
    let runs_before = store_counter(&store, "read.coalesced_runs");

    let (got, stats) = store.read(stripe).unwrap();
    assert_eq!(got, data);
    assert!(!stats.degraded);

    // The acceptance bar: one vectored request per live disk, counted on
    // both sides of the wire.
    let rpcs = store_counter(&store, "read.rpcs") - rpcs_before;
    assert_eq!(rpcs as usize, n, "client issued {rpcs} RPCs for {n} disks");
    for (i, before) in ops_before.iter().enumerate() {
        let served = server_read_ops(&cluster, i) - before;
        assert_eq!(served, 1, "disk {i} served {served} read requests");
    }

    // EC-FRM's sequential layout makes each per-disk batch one
    // contiguous run: every request carried a one-entry run table.
    let runs = store_counter(&store, "read.coalesced_runs") - runs_before;
    assert_eq!(
        runs as usize, n,
        "expected every per-disk batch to coalesce"
    );
}

#[test]
fn an_all_absent_reply_still_decodes() {
    let scheme = rs_scheme();
    let faulty = FaultyDisk::wrap(Arc::new(MemDisk::new()));
    let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
        .map(|d| match d {
            2 => Arc::clone(&faulty) as Arc<dyn DiskBackend>,
            _ => Arc::new(MemDisk::new()),
        })
        .collect();
    let cfg = RemoteDiskConfig::builder().low_latency().build();
    let cluster = Cluster::spawn_over(backends, &cfg).unwrap();
    let store = store_over(&cluster, scheme.clone());

    let data = payload(scheme.data_per_stripe() * ELEMENT);
    let stripe = store.append(&data);
    store.flush();

    // Kill one shard's disk but keep its server up: its reply arrives
    // as a well-formed all-absent `Cells` frame rather than a
    // transport error.
    faulty.arm(FaultKind::Kill, 0);

    let (got, stats) = store.read(stripe).unwrap();
    assert_eq!(got, data, "decode must survive an all-absent range reply");
    assert!(stats.degraded, "read should be flagged degraded: {stats:?}");
    assert!(stats.replans() >= 1, "expected a replan: {stats:?}");
    // The failure really travelled over the wire.
    assert!(
        server_counter(&cluster, 2, "serve.read") >= 1,
        "failed shard should have answered the read"
    );

    // The disk answers again: the normal path comes back.
    faulty.clear();
    let (again, stats) = store.read(stripe).unwrap();
    assert_eq!(again, data);
    assert!(!stats.degraded);
}
