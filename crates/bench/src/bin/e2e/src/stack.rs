//! The whole program in one process, wired the way a deployment wires
//! it: 9 shard servers → `Cluster` → `ThreadedArray` → `ObjectStore` →
//! `FrontDoor` → a front `ShardServer` → one `FrontClient` per client
//! thread over loopback TCP.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ecfrm_codes::RsCode;
use ecfrm_core::{LayoutKind, Scheme};
use ecfrm_net::{Cluster, FrontClient, RemoteDiskConfig, ShardServer};
use ecfrm_sim::{DiskBackend, FileDisk, FileIoConfig, MemDisk, ThreadedArray};
use ecfrm_store::{FrontConfig, FrontDoor, ObjectStore};

use crate::ops::ELEMENT;

/// The one tenant every op runs as. Unregistered, so the front door
/// admits it as an unlimited latency-class tenant: admission runs on
/// every op and never delays one.
pub const TENANT: &str = "bench";

/// What the shards keep their cells on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disks {
    /// `MemDisk` sleeping this long per element read — disk service
    /// time is the contended resource, as on a real array.
    Mem(Duration),
    /// `FileDisk` under `target/e2e/` with `FileIoConfig::default()`
    /// minus `O_DIRECT`: the Auto backend probe and the default ring
    /// depth, but reads served from the page cache the ingest just
    /// filled. No injected latency and no device in the read path, so
    /// CPU and syscalls are all there is. (With `O_DIRECT` every miss
    /// went to the host's shared virtual disk, and a neighbour's
    /// writeback moved `read_p90_us` by 30 % between runs of one
    /// binary.)
    File,
}

/// RS(6,3) in the given layout — the code of all four workloads.
pub fn scheme(layout: LayoutKind) -> Scheme {
    Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
        .layout(layout)
        .build()
}

/// Removes the shard files' directory once everything that held them
/// open is gone.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One full stack. Fields drop top-down — the front node first, the
/// shard files' directory last.
pub struct Stack {
    front_node: ShardServer,
    /// The front door the front node serves (the `store.front` trace
    /// level calls it in-process).
    pub front: Arc<FrontDoor>,
    /// The object store under the front door.
    pub store: Arc<ObjectStore>,
    /// The nine shard servers and their `RemoteDisk` clients.
    pub cluster: Cluster,
    /// The devices under the shard servers.
    pub raw: Vec<Arc<dyn DiskBackend>>,
    /// `FileDisk::io_backend()` of the shards, or `mem` for `MemDisk`s.
    pub io_backend: &'static str,
    /// Bytes of one stored cell (element + checksum footer).
    pub cell_bytes: u64,
    _dir: Option<TempDir>,
}

static STACKS: AtomicU64 = AtomicU64::new(0);

impl Stack {
    /// Boot the nine shards, the store and the front node.
    pub fn boot(layout: LayoutKind, disks: Disks, cache_bytes: usize) -> Stack {
        let scheme = scheme(layout);
        // The store seals cells as `payload || footer`; a file-backed
        // shard is sized for whole cells. The footer length is read off
        // a sealed cell rather than named, since this package links no
        // integrity crate of its own.
        let probe = ObjectStore::new(scheme.clone(), ELEMENT as usize);
        probe.put("probe", &[0u8; 1]).expect("probe put");
        probe.flush();
        let cell_bytes = probe.array().disk(0).read(0).expect("probe cell").len();
        let key = probe.integrity_key();
        let (raw, io_backend, dir): (Vec<Arc<dyn DiskBackend>>, _, _) = match disks {
            Disks::Mem(latency) => (
                (0..scheme.n_disks())
                    .map(|_| Arc::new(MemDisk::with_latency(latency)) as Arc<dyn DiskBackend>)
                    .collect(),
                "mem",
                None,
            ),
            Disks::File => {
                let dir = PathBuf::from(format!(
                    "target/e2e/shards-{}-{}",
                    std::process::id(),
                    STACKS.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create shard directory");
                let files: Vec<Arc<FileDisk>> = (0..scheme.n_disks())
                    .map(|d| {
                        let path = dir.join(format!("shard{d}.bin"));
                        let io = FileIoConfig {
                            direct: false,
                            ..FileIoConfig::default()
                        };
                        let disk = FileDisk::create_with(path, cell_bytes, io);
                        Arc::new(disk.expect("create shard file"))
                    })
                    .collect();
                let backend = files[0].io_backend();
                (
                    files
                        .into_iter()
                        .map(|f| f as Arc<dyn DiskBackend>)
                        .collect(),
                    backend,
                    Some(TempDir(dir)),
                )
            }
        };
        // Generous deadlines: a steal burst must show as latency, never
        // as a timed-out (failed) op.
        let shard_cfg = RemoteDiskConfig::builder()
            .request_timeout(Duration::from_secs(10))
            .integrity_key(key.k0, key.k1)
            .build();
        let cluster = Cluster::spawn_over(raw.clone(), &shard_cfg).expect("spawn shard servers");
        let store = Arc::new(ObjectStore::with_array(
            scheme,
            ELEMENT as usize,
            ThreadedArray::from_backends(cluster.backends()),
        ));
        let front = FrontDoor::new(
            Arc::clone(&store),
            FrontConfig::builder().cache_bytes(cache_bytes).build(),
        );
        let front_node = ShardServer::spawn_with_front(
            Arc::new(MemDisk::new()),
            Arc::clone(&front),
            "127.0.0.1:0",
        )
        .expect("spawn front node");
        Stack {
            front_node,
            front,
            store,
            cluster,
            raw,
            io_backend,
            cell_bytes: cell_bytes as u64,
            _dir: dir,
        }
    }

    /// A client with one pooled connection to the front node — one per
    /// client thread.
    pub fn client(&self) -> FrontClient {
        let cfg = RemoteDiskConfig::builder()
            .request_timeout(Duration::from_secs(30))
            .pool_size(1)
            .build();
        FrontClient::new(self.front_node.addr(), cfg)
    }

    /// Bytes the nine backends hold: stored cells × cell size.
    pub fn stored_bytes(&self) -> u64 {
        self.raw.iter().map(|d| d.len() as u64).sum::<u64>() * self.cell_bytes
    }

    /// The store's counters and gauges by name (gauges clamped at 0).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let snap = self.store.recorder().snapshot();
        let mut out = snap.counters;
        out.extend(snap.gauges.into_iter().map(|(k, v)| (k, v.max(0) as u64)));
        out
    }

    /// Lifetime p50 (µs, bucket upper bound) of a store histogram.
    pub fn hist_p50(&self, name: &str) -> f64 {
        let snap = self.store.recorder().snapshot();
        snap.histograms.get(name).map_or(0.0, |h| h.p50() as f64)
    }

    /// Median over shards of a lifetime p50: the clients' request
    /// latency (`client = true`) or the servers' `serve_us`.
    pub fn shard_p50(&self, client: bool) -> f64 {
        let per_shard: Vec<f64> = (0..self.cluster.len())
            .map(|i| {
                let c = self.cluster.client(i);
                if client {
                    c.request_latency().p50() as f64
                } else {
                    c.stats()
                        .ok()
                        .and_then(|s| s.into_iter().find(|(n, _)| n == "serve_us.p50"))
                        .map_or(0.0, |(_, v)| v as f64)
                }
            })
            .collect();
        crate::stats::median(&per_shard)
    }

    /// Sum over shard clients of `(retries, conns_discarded, failed)`.
    pub fn net_totals(&self) -> (u64, u64, u64) {
        (0..self.cluster.len())
            .map(|i| self.cluster.client(i).counters().snapshot())
            .fold((0, 0, 0), |a, s| {
                (
                    a.0 + s.retries,
                    a.1 + s.conns_discarded,
                    a.2 + s.failed_requests,
                )
            })
    }
}
