//! Repair-traffic-optimal recovery over a real loopback cluster.
//!
//! The acceptance scenarios for server-side `CombineRange` partial sums:
//! a combined stripe repair ingests `rows` pre-summed regions instead of
//! `k·rows` raw elements (1/k of the batched wire bytes at RS(6,3)), a
//! lying helper is excluded and the stripe replanned, and rack labels
//! keep repair traffic inside the failed disk's domain.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use ecfrm_codes::RsCode;
use ecfrm_core::{DomainMap, LayoutKind, Scheme};
use ecfrm_integrity::FOOTER_LEN;
use ecfrm_net::{Cluster, RemoteDisk, RemoteDiskConfig};
use ecfrm_sim::{
    CombineReply, CombineSpec, DiskBackend, IoHandle, MemDisk, NetStats, ThreadedArray, WriteRun,
};
use ecfrm_store::ObjectStore;

const ELEMENT: usize = 512;
const CELL: u64 = (ELEMENT + FOOTER_LEN) as u64;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
}

fn rs_scheme() -> Scheme {
    // n = 9 disks, 3 rows per stripe: batched repair reads k·rows = 18
    // elements per stripe, combined ships rows = 3 regions.
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .build()
}

fn store_over(cluster: &Cluster, scheme: Scheme) -> ObjectStore {
    ObjectStore::with_array(
        scheme,
        ELEMENT,
        ThreadedArray::from_backends(cluster.backends()),
    )
}

fn counter(store: &ObjectStore, name: &str) -> u64 {
    store
        .recorder()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn combined_repair_ships_one_kth_of_the_batched_wire_bytes() {
    let scheme = rs_scheme();
    let rows = scheme.layout().offsets_per_stripe();
    let data = payload(40_000);

    // What the rebuilder ingests when it must decode itself: the same
    // payload on local disks, where no helper can be dialled and every
    // source element is fetched.
    let local = ObjectStore::new(scheme.clone(), ELEMENT);
    local.append(&data);
    local.flush();
    let batched = local.repair_stripe(2, 0).unwrap();
    assert_eq!(batched.bytes_read, 6 * rows * CELL, "k·rows raw elements");
    assert_eq!(counter(&local, "repair.wire_bytes"), batched.bytes_read);
    assert_eq!(counter(&local, "repair.combined_stripes"), 0);

    // Over a cluster every helper is dialable: helpers pre-sum
    // server-side, the root merges its peers, and only `rows` sealed
    // regions reach the rebuilder — 1/k of the batched bytes.
    let cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);
    store.append(&data);
    store.flush();
    let combined = store.repair_stripe(2, 0).unwrap();
    assert_eq!(combined.elements as u64, rows);
    assert_eq!(combined.bytes_read, rows * CELL, "rows sealed regions");
    assert_eq!(counter(&store, "repair.wire_bytes"), combined.bytes_read);
    assert_eq!(batched.bytes_read, 6 * combined.bytes_read, "exactly 1/k");
    assert_eq!(counter(&store, "repair.combined_stripes"), 1);
}

/// The blocking rebuild is the same engine: over a cluster every stripe
/// of `recover_disk` takes the combined path, and the wire bytes are
/// exactly the bytes of the lost disk.
#[test]
fn recover_disk_over_a_cluster_rebuilds_every_stripe_combined() {
    let scheme = rs_scheme();
    let rows = scheme.layout().offsets_per_stripe();
    let cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);
    let data = payload(40_000);
    let obj = store.append(&data);
    store.flush();
    let stripes = store.stats().stripes;
    assert!(stripes > 1);

    // Wipe a shard server-side, then rebuild it.
    cluster.client(4).wipe();
    let rebuilt = store.recover_disk(4).unwrap();
    assert_eq!(rebuilt as u64, stripes * rows);
    assert_eq!(counter(&store, "repair.combined_stripes"), stripes);
    assert_eq!(counter(&store, "repair.wire_bytes"), stripes * rows * CELL);
    assert!(store.stats().failed_disks.is_empty());
    let (got, stats) = store.read(obj).unwrap();
    assert_eq!(got, data, "rebuilt bytes are exact");
    assert!(!stats.degraded);
    assert!(store.scrub().unwrap().is_clean());
}

/// Every combine sent: the root's disk, and the peers the request names.
type Combines = Arc<Mutex<Vec<(usize, Vec<String>)>>>;

/// A shard client that notes, for every combine it is asked to send,
/// the peers the request names: which roots fetched from which peers.
#[derive(Debug)]
struct Noted {
    inner: Arc<RemoteDisk>,
    disk: usize,
    combines: Combines,
}

impl DiskBackend for Noted {
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        self.inner.submit_read_many(offsets)
    }
    fn submits_async(&self) -> bool {
        self.inner.submits_async()
    }
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
        self.inner.submit_write_many(runs)
    }
    fn wipe(&self) {
        self.inner.wipe();
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn net_stats(&self) -> Option<NetStats> {
        self.inner.net_stats()
    }
    fn combine(&self, spec: &CombineSpec) -> Result<CombineReply, String> {
        let peers = spec.peers.iter().map(|p| p.addr.clone()).collect();
        self.combines.lock().unwrap().push((self.disk, peers));
        self.inner.combine(spec)
    }
    fn peer_addr(&self) -> Option<String> {
        self.inner.peer_addr()
    }
}

/// One server-side counter of shard `disk`, over its client's `Stats`.
fn served(cluster: &Cluster, disk: usize, name: &str) -> u64 {
    let stats = cluster.client(disk).stats().unwrap();
    stats
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// A root keeps one connection to each peer it fetches partial sums
/// from, however many stripes it combines: each shard has accepted
/// exactly its own client's one connection plus one per root that named
/// it as a peer.
#[test]
fn each_root_opens_one_connection_per_peer_whatever_its_stripe_count() {
    let scheme = rs_scheme();
    let n = scheme.n_disks();
    let cluster = Cluster::spawn(n).unwrap();
    let combines = Arc::new(Mutex::new(Vec::new()));
    let backends: Vec<Arc<dyn DiskBackend>> = (0..n)
        .map(|disk| {
            Arc::new(Noted {
                inner: Arc::clone(cluster.client(disk)),
                disk,
                combines: Arc::clone(&combines),
            }) as Arc<dyn DiskBackend>
        })
        .collect();
    let store = ObjectStore::with_array(scheme, ELEMENT, ThreadedArray::from_backends(backends));
    store.append(&payload(100_000));
    store.flush();
    let stripes = store.stats().stripes;
    assert!(stripes >= 8, "{stripes} stripes");

    cluster.client(4).wipe();
    store.recover_disk(4).unwrap();
    assert_eq!(counter(&store, "repair.combined_stripes"), stripes);

    // How often each root fetched from each peer.
    let disk_at: HashMap<String, usize> =
        (0..n).map(|d| (cluster.addr(d).to_string(), d)).collect();
    let mut fetches: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (root, peers) in combines.lock().unwrap().iter() {
        for peer in peers {
            *fetches.entry((*root, disk_at[peer])).or_default() += 1;
        }
    }
    assert!(
        fetches.values().any(|&times| times >= 2),
        "no root combined twice with one peer: {fetches:?}"
    );
    for d in 0..n {
        let roots = fetches.keys().filter(|&&(_, peer)| peer == d).count() as u64;
        assert_eq!(served(&cluster, d, "serve.conns"), 1 + roots, "shard {d}");
    }
}

#[test]
fn corrupt_helper_is_excluded_and_stripe_replanned() {
    let scheme = rs_scheme();
    let rows = scheme.layout().offsets_per_stripe();
    let mem: Vec<Arc<MemDisk>> = (0..scheme.n_disks())
        .map(|_| Arc::new(MemDisk::new()))
        .collect();
    let backends: Vec<Arc<dyn DiskBackend>> = mem
        .iter()
        .map(|m| Arc::clone(m) as Arc<dyn DiskBackend>)
        .collect();
    let cfg = RemoteDiskConfig::builder().low_latency().build();
    let cluster = Cluster::spawn_over(backends, &cfg).unwrap();
    let store = store_over(&cluster, scheme);
    let data = payload(20_000);
    let obj = store.append(&data);
    store.flush();

    let originals: Vec<Vec<u8>> = (0..rows).map(|o| mem[2].read(o).unwrap()).collect();
    // Rot every stripe-0 cell of one helper behind its server's back.
    for o in 0..rows {
        let mut cell = mem[0].read(o).unwrap();
        cell[0] ^= 0xFF;
        mem[0].write(o, cell);
    }

    // The root's footer check catches the liar; the planner excludes it
    // and replans the stripe over the remaining survivors — combined.
    let repaired = store.repair_stripe(2, 0).unwrap();
    assert_eq!(repaired.elements as u64, rows);
    for (o, want) in originals.iter().enumerate() {
        assert_eq!(
            mem[2].read(o as u64).as_ref(),
            Some(want),
            "rebuilt cell {o} byte-correct despite the corrupt helper"
        );
    }
    assert!(counter(&store, "integrity.verify_fail") >= 1);
    assert_eq!(counter(&store, "repair.combined_stripes"), 1);
    // The rotted shard is still rotted — reads route around it.
    assert_eq!(store.read(obj).unwrap().0, data);
}

#[test]
fn rack_labels_keep_repair_traffic_intra_domain() {
    // Rack 0 holds disks 0..=6: repairing any of them finds k = 6 live
    // helpers without crossing racks, and with labels set it must.
    let scheme = Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(LayoutKind::EcFrm)
        .domains(DomainMap::from_labels(&[0, 0, 0, 0, 0, 0, 0, 1, 1]))
        .build();
    let cluster = Cluster::spawn(scheme.n_disks()).unwrap();
    let store = store_over(&cluster, scheme);
    let data = payload(30_000);
    let obj = store.append(&data);
    store.flush();

    let stripes = store.stats().stripes;
    for s in 0..stripes {
        store.repair_stripe(0, s).unwrap();
    }
    assert_eq!(
        counter(&store, "repair.cross_domain_reads"),
        0,
        "an intra-domain plan exists, so no helper read crosses racks"
    );
    assert_eq!(counter(&store, "repair.combined_stripes"), stripes);

    // Rack 1 has a single survivor when disk 7 fails: crossing racks is
    // unavoidable and the counter says so.
    store.repair_stripe(7, 0).unwrap();
    assert!(counter(&store, "repair.cross_domain_reads") > 0);
    assert_eq!(store.read(obj).unwrap().0, data);
}
