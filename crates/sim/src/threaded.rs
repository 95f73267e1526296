//! A real concurrent disk-array engine.
//!
//! [`ReadModel`](crate::ReadModel) *models* time; [`ThreadedArray`] actually
//! runs the parallel I/O structure of an erasure-coded read. Since the
//! reactor redesign it is a thin driver over the completion engine in
//! [`crate::reactor`]: array-level reads submit one vectored operation
//! per touched disk, a bounded worker pool services blocking backends
//! ([`MemDisk`], files), completion-driven backends (a multiplexed
//! remote client) complete from their own demux thread, and per-disk
//! replies stream back to the caller as they land so decode starts while
//! slower disks are still working.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use ecfrm_obs::Recorder;
use ecfrm_util::Mutex;

use crate::reactor::{IoHandle, IoResults, Op, Reactor, ReactorStats};
use ecfrm_obs::NetStats;

/// Address of one element on the array: `(disk, offset)`.
pub type Address = (usize, u64);

/// One peer shard's share of a combined (pre-summed) repair read,
/// forwarded by the aggregating backend so partial sums merge close to
/// the data instead of on the rebuilding client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinePeerSpec {
    /// The peer shard's dialable address (`host:port`).
    pub addr: String,
    /// First local element offset the peer multiplies.
    pub offset: u64,
    /// Number of consecutive local elements.
    pub count: u32,
    /// Row-major `outputs × count` GF(2^8) coefficient matrix (the
    /// output-lane count is shared with the aggregating request).
    pub coeffs: Vec<u8>,
}

/// A combined repair read: multiply `count` contiguous local elements
/// starting at `offset` by a row-major `outputs × count` coefficient
/// matrix over GF(2^8) and return one pre-summed region per output
/// lane, XOR-merged with the partial sums of any forwarded `peers`.
///
/// This is the backend-agnostic description of the `CombineRange` wire
/// op (see `ecfrm-net`): a local backend has no wire to save and
/// refuses it, while a remote shard client ships the spec to its
/// server, which does the multiplication beside the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombineSpec {
    /// First local element offset.
    pub offset: u64,
    /// Number of consecutive local elements.
    pub count: u32,
    /// Number of output lanes (pre-summed regions to return).
    pub outputs: u32,
    /// Row-major `outputs × count` GF(2^8) coefficient matrix for the
    /// local elements.
    pub coeffs: Vec<u8>,
    /// The store's integrity key `(k0, k1)`: every local element's
    /// checksum footer is verified against its offset *before* the
    /// element contributes to a sum, and each returned region carries a
    /// footer salted by `offset + lane` for end-to-end verification.
    pub key: (u64, u64),
    /// Other helpers whose partial sums the serving backend fetches and
    /// XOR-merges before answering (one level deep — peers never
    /// forward further).
    pub peers: Vec<CombinePeerSpec>,
}

/// Per-element / per-peer verdicts inside a [`CombineReply`].
pub mod combine_status {
    /// Element verified (or peer contributed) cleanly.
    pub const OK: u8 = 0;
    /// Element absent or the shard is failed / peer unreachable.
    pub const MISSING: u8 = 1;
    /// Element's checksum footer disagreed / a peer shipped a region
    /// that failed verification.
    pub const CORRUPT: u8 = 2;
    /// Peer answered but declined the op (refused spec).
    pub const DECLINED: u8 = 3;
}

/// A successful combined read: one pre-summed region per output lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombineReply {
    /// One region per output lane, each `payload || footer` with the
    /// footer salted by `offset + lane` under the spec's key. Empty when
    /// no local element (and no peer region) contributed.
    pub regions: Vec<Vec<u8>>,
    /// Per local element (in offset order): [`combine_status`] verdict.
    pub local_status: Vec<u8>,
    /// Per forwarded peer (in spec order): [`combine_status`] verdict.
    /// A non-OK peer contributed *nothing* to the sums.
    pub peer_status: Vec<u8>,
}

/// Consecutive cells of one disk in one buffer — the unit of a write.
/// Cell `i` is `bytes[i * cell_len..][..cell_len]` and lands at offset
/// `start + i`; `bytes.len()` is a multiple of `cell_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRun<'a> {
    /// Offset of the first cell.
    pub start: u64,
    /// Bytes per cell.
    pub cell_len: usize,
    /// The cells, back to back.
    pub bytes: &'a [u8],
}

impl<'a> WriteRun<'a> {
    /// Number of cells in the run (a run of empty cells holds none).
    pub fn count(&self) -> usize {
        self.bytes.len().checked_div(self.cell_len).unwrap_or(0)
    }

    /// The run's `(offset, cell)` pairs, in offset order.
    pub fn cells(&self) -> impl Iterator<Item = (u64, &'a [u8])> {
        let cells = self.bytes.chunks_exact(self.cell_len.max(1));
        let start = self.start;
        cells.enumerate().map(move |(i, c)| (start + i as u64, c))
    }
}

/// A [`WriteRun`] that owns its buffer: what a caller hands
/// [`ThreadedArray::write_runs`], so the run can cross to a pool worker
/// when its backend blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunBuf {
    /// Offset of the first cell.
    pub start: u64,
    /// Bytes per cell.
    pub cell_len: usize,
    /// The cells, back to back.
    pub bytes: Vec<u8>,
}

impl RunBuf {
    /// The borrowed view backends take.
    pub fn as_run(&self) -> WriteRun<'_> {
        WriteRun {
            start: self.start,
            cell_len: self.cell_len,
            bytes: &self.bytes,
        }
    }
}

/// What the array needs from a disk: element-granular read/write, wipe
/// and size — four required methods (`submit_read_many`,
/// `submit_write_many`, `wipe`, `len`). Implemented by [`MemDisk`]
/// (in-memory, optional simulated latency),
/// [`FileDisk`](crate::file_disk::FileDisk) (real files), and
/// `RemoteDisk` in `ecfrm-net` (a shard over TCP). A backend has no
/// failure switch: whether a disk is failed is the store's disk table,
/// and a [`FaultyDisk`](crate::FaultyDisk) is how a test makes a disk's
/// I/O fail.
///
/// The two required I/O methods are the **submission entry points**
/// [`Self::submit_read_many`] and [`Self::submit_write_many`]: each
/// hands back an [`IoHandle`] that completes when the batch is served.
/// The blocking [`Self::read_many`] and the per-element [`Self::read`]
/// and [`Self::write`] are default-implemented shims over them, so a
/// new backend implements exactly one read and one write method.
pub trait DiskBackend: Send + Sync + std::fmt::Debug {
    /// Submit one vectored read covering `offsets`, returning a
    /// completion handle that resolves to one entry per offset, in
    /// input order (`None` = absent or failed element).
    ///
    /// This is the vectored entry point of the batched read path: one
    /// submission per disk per array-level read. A blocking backend may
    /// service the request inline — a single lock (in-memory), one seek
    /// per sorted sequential run (files) — and return an
    /// already-completed handle ([`IoHandle::ready`]); the array then
    /// drives it from the reactor pool so callers never block on
    /// submission. A completion-driven backend (multiplexed remote
    /// shard) returns a pending handle, completes it from its own demux
    /// thread, and reports [`Self::submits_async`] = `true`.
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle;

    /// Fetch several elements in one request, blocking until served:
    /// submit + wait. Migration shim — batch consumers should prefer
    /// the submission form.
    fn read_many(&self, offsets: &[u64]) -> Vec<Option<Vec<u8>>> {
        self.submit_read_many(offsets).wait()
    }

    /// Fetch the element at `offset`; `None` when absent or failed.
    /// Default: a one-element vectored read.
    fn read(&self, offset: u64) -> Option<Vec<u8>> {
        self.read_many(std::slice::from_ref(&offset))
            .pop()
            .flatten()
    }

    /// True when [`Self::submit_read_many`] is genuinely non-blocking
    /// (completes from the backend's own machinery). The array submits
    /// such backends directly from the driver thread instead of
    /// occupying a reactor pool worker.
    fn submits_async(&self) -> bool {
        false
    }

    /// Submit one vectored write: every cell of every run, applied in
    /// order (a later cell at the same offset wins) — the mirror of
    /// [`Self::submit_read_many`], one submission per disk per
    /// array-level write. The backend is done with the borrowed buffers
    /// when this returns; the handle completes, with an empty result,
    /// once the write has been applied or given up. Writes are
    /// infallible by contract: a cell that could not be stored reads
    /// back absent.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle;

    /// Store one element: a one-cell run, waited for.
    fn write(&self, offset: u64, bytes: Vec<u8>) {
        let run = WriteRun {
            start: offset,
            cell_len: bytes.len(),
            bytes: &bytes,
        };
        let _ = self.submit_write_many(&[run]).wait();
    }

    /// The one cell size this backend stores, when it has one (a
    /// [`FileDisk`](crate::file_disk::FileDisk)). A shard server refuses
    /// a write of any other size before it reaches the backend.
    fn cell_len(&self) -> Option<usize> {
        None
    }

    /// Permanently erase all contents.
    fn wipe(&self);
    /// Number of stored elements.
    fn len(&self) -> usize;
    /// True when no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Network transport statistics, when this backend speaks to a
    /// remote shard (see `ecfrm-net`). Local backends return `None`.
    fn net_stats(&self) -> Option<NetStats> {
        None
    }

    /// Multiply local elements by caller-supplied GF(2^8) coefficients
    /// and return pre-summed regions (optionally merged with peers'
    /// partial sums) instead of raw elements — the repair-traffic
    /// optimisation behind the `CombineRange` wire op. `Err` says why
    /// nothing was summed: a transport error or a refused spec, or, for
    /// a local backend (which has no wire to save, and no
    /// [`Self::peer_addr`] to be asked by), that it does not pre-sum.
    /// Only a remote shard client overrides this.
    fn combine(&self, _spec: &CombineSpec) -> Result<CombineReply, String> {
        Err("a local disk does not pre-sum".into())
    }

    /// The dialable `host:port` other shard servers can reach this
    /// backend's data at, when it fronts a remote shard. Local backends
    /// return `None`. Every helper of a combined repair needs one: it is
    /// the plan-time gate for that path.
    fn peer_addr(&self) -> Option<String> {
        None
    }
}

/// An in-memory "disk": a map from element offset to element bytes, with
/// optional simulated per-access latency. It has no failure switch: a
/// [`FaultyDisk`](crate::FaultyDisk) around it makes its I/O fail, and
/// whether the store plans around it is the store's own record.
#[derive(Debug)]
pub struct MemDisk {
    elements: Mutex<HashMap<u64, Vec<u8>>>,
    latency: Duration,
}

impl MemDisk {
    /// An empty disk with no simulated latency.
    pub fn new() -> Self {
        Self::with_latency(Duration::ZERO)
    }

    /// An empty disk that sleeps `latency` on every read.
    pub fn with_latency(latency: Duration) -> Self {
        Self {
            elements: Mutex::new(HashMap::new()),
            latency,
        }
    }
}

impl DiskBackend for MemDisk {
    /// Serve a whole batch under one map lock, inline. The simulated
    /// latency stays *per element* (it models the disk's per-access
    /// service time, which batching does not remove), but is paid as
    /// one sleep so a large batch costs one scheduler round trip.
    fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
        if !self.latency.is_zero() && !offsets.is_empty() {
            std::thread::sleep(self.latency * offsets.len() as u32);
        }
        let elements = self.elements.lock();
        IoHandle::ready(offsets.iter().map(|o| elements.get(o).cloned()).collect())
    }

    /// Store a whole batch under one map lock.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
        let mut elements = self.elements.lock();
        for (offset, cell) in runs.iter().flat_map(WriteRun::cells) {
            elements.insert(offset, cell.to_vec());
        }
        IoHandle::ready(Vec::new())
    }

    /// Permanently erase all contents (a real disk loss, before rebuild).
    fn wipe(&self) {
        self.elements.lock().clear();
    }

    fn len(&self) -> usize {
        self.elements.lock().len()
    }
}

impl Default for MemDisk {
    fn default() -> Self {
        Self::new()
    }
}

/// One disk's answer to its slice of a batched read: the caller's
/// request indices paired with the served bytes (`None` = absent or
/// failed element).
#[derive(Debug)]
pub struct DiskReply {
    /// Which disk answered.
    pub disk: usize,
    /// `(index into the submitted address slice, bytes)` pairs, in the
    /// order the addresses were submitted for this disk.
    pub items: Vec<(usize, Option<Vec<u8>>)>,
}

/// What a batched read asked of one disk: one vectored request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskAsk {
    /// The disk asked.
    pub disk: usize,
    /// Cells the request carried.
    pub cells: usize,
    /// Runs of consecutive ascending offsets they formed, as asked (a
    /// `RemoteDisk` ships one run of ≥ 2 cells as a single-run `Read`).
    pub runs: usize,
}

/// An in-flight batched read: per-disk replies stream out of
/// [`Self::next_reply`] as each disk's submission completes, so callers
/// can start consuming (copying out, decoding) while slower disks are
/// still working.
///
/// Dropping a `BatchRead` abandons any outstanding replies safely.
#[derive(Debug)]
pub struct BatchRead {
    rx: std::sync::mpsc::Receiver<DiskReply>,
    pending: usize,
    asked: Vec<DiskAsk>,
}

impl BatchRead {
    /// Each per-disk request the batch dispatched, in disk order (for
    /// remote backends, its logical RPCs).
    pub fn asked(&self) -> &[DiskAsk] {
        &self.asked
    }

    /// Next per-disk reply, blocking until one arrives; `None` once
    /// every dispatched disk has answered. The completion engine
    /// guarantees every submission answers — a panicking backend's
    /// submission completes as all-`None` — so the stream always runs
    /// to exactly one reply per [`Self::asked`] disk.
    pub fn next_reply(&mut self) -> Option<DiskReply> {
        if self.pending == 0 {
            return None;
        }
        match self.rx.recv() {
            Ok(reply) => {
                self.pending -= 1;
                Some(reply)
            }
            Err(_) => {
                self.pending = 0;
                None
            }
        }
    }
}

/// The shape of one array-level write, as [`ThreadedArray::write_runs`]
/// dispatched it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteShape {
    /// Per-disk vectored writes submitted: one per touched disk (for
    /// remote backends, the logical RPC count).
    pub rpcs: usize,
    /// Runs of consecutive cells those writes carried.
    pub runs: usize,
    /// Cells in those runs.
    pub cells: usize,
}

/// A submission on its way. The reactor pool tallies its own
/// completions; one the array handed its backend directly is tallied
/// here, as it is redeemed.
struct Pending<'a> {
    handle: IoHandle,
    direct: Option<&'a Arc<ReactorStats>>,
}

impl Pending<'_> {
    fn wait(self) -> IoResults {
        let results = self.handle.wait();
        if let Some(stats) = self.direct {
            stats.direct_completed();
        }
        results
    }

    fn on_complete(self, f: impl FnOnce(IoResults) + Send + 'static) {
        match self.direct.cloned() {
            None => self.handle.on_complete(f),
            Some(stats) => self.handle.on_complete(move |results| {
                stats.direct_completed();
                f(results);
            }),
        }
    }
}

/// The array engine: a submission/completion reactor shared by every
/// disk, plus per-slot backend registration.
///
/// Array-level reads group addresses by disk and submit **one** vectored
/// operation per touched disk. Blocking backends are serviced by the
/// reactor's bounded worker pool (sized to the disk count by default, so
/// independent disks overlap while same-disk batches serialise their
/// per-element service time); completion-driven backends
/// ([`DiskBackend::submits_async`]) are submitted inline and complete
/// from their own machinery.
///
/// The array keeps no opinion of a disk's health: a backend that
/// panics or does not answer reads as absent cells, and what to make of
/// that is the caller's (the store's per-disk table).
pub struct ThreadedArray {
    slots: Arc<Slots>,
    reactor: Reactor,
}

/// The per-slot backend registrations, shared with the array's registry
/// source ([`ThreadedArray::observe`]).
struct Slots {
    disks: Vec<Mutex<Arc<dyn DiskBackend>>>,
    /// Transport totals of the backends [`ThreadedArray::replace_disk`]
    /// has taken out of their slots, so the array's `net.*` sum never
    /// goes backwards when a slot changes hands. Locked before a slot
    /// wherever both are held.
    retired: Mutex<Option<NetStats>>,
}

impl Slots {
    /// Sum of the transport counters of every backend that reports them,
    /// past and present; `None` for an array that never held one.
    fn net_totals(&self) -> Option<NetStats> {
        let retired = self.retired.lock();
        self.disks
            .iter()
            .filter_map(|slot| slot.lock().net_stats())
            .fold(*retired, |sum, s| Some(sum.unwrap_or_default().merge(&s)))
    }
}

impl std::fmt::Debug for ThreadedArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadedArray({} disks)", self.n_disks())
    }
}

impl ThreadedArray {
    /// Spawn an array of `n` latency-free disks.
    pub fn new(n: usize) -> Self {
        Self::with_latency(n, Duration::ZERO)
    }

    /// Spawn an array of `n` disks that each sleep `latency` per read.
    pub fn with_latency(n: usize, latency: Duration) -> Self {
        let disks: Vec<Arc<dyn DiskBackend>> = (0..n)
            .map(|_| Arc::new(MemDisk::with_latency(latency)) as Arc<dyn DiskBackend>)
            .collect();
        Self::from_backends(disks)
    }

    /// An array over caller-supplied disk backends (in-memory,
    /// file-backed, or remote), with one reactor pool worker per disk —
    /// enough to drive every blocking backend concurrently.
    ///
    /// # Panics
    /// Panics if `disks` is empty.
    pub fn from_backends(disks: Vec<Arc<dyn DiskBackend>>) -> Self {
        assert!(!disks.is_empty(), "array needs at least one disk");
        Self {
            reactor: Reactor::new(disks.len()),
            slots: Arc::new(Slots {
                disks: disks.into_iter().map(Mutex::new).collect(),
                retired: Mutex::new(None),
            }),
        }
    }

    /// Number of disks.
    pub fn n_disks(&self) -> usize {
        self.slots.disks.len()
    }

    /// Register this array as a source of `recorder`: each snapshot
    /// reads the reactor (`io.queue_depth`, `io.inflight`,
    /// `io.submitted`, `io.completed`, `io.panics`), the file I/O
    /// gauges ([`crate::file_disk::sample`]) and — when any backend,
    /// current or replaced, reports transport counters — their sum as
    /// the `net.*` counters.
    pub fn observe(&self, recorder: &Recorder) {
        let io = Arc::clone(self.reactor.stats());
        let slots = Arc::clone(&self.slots);
        recorder.observe(move |snap| {
            let gauges = io.snapshot().gauges();
            snap.gauges
                .extend(gauges.into_iter().map(|(name, v)| (name.to_string(), v)));
            crate::file_disk::sample(snap);
            if let Some(net) = slots.net_totals() {
                let counters = [
                    ("net.retries", net.retries),
                    ("net.timeouts", net.timeouts),
                    ("net.reconnects", net.reconnects),
                    ("net.failed_requests", net.failed_requests),
                    ("net.conns_discarded", net.conns_discarded),
                ];
                snap.counters
                    .extend(counters.map(|(name, v)| (name.to_string(), v)));
            }
        });
    }

    /// Handle to a disk's current backend (for wiping, corruption drills
    /// and inspection). A clone — the slot itself may be re-registered
    /// concurrently, after which this handle refers to the *old*
    /// backend.
    pub fn disk(&self, d: usize) -> Arc<dyn DiskBackend> {
        Arc::clone(&self.slots.disks[d].lock())
    }

    /// Live submission/completion counters and queue-depth / in-flight
    /// gauges for the array's I/O engine.
    pub fn io_stats(&self) -> Arc<ReactorStats> {
        Arc::clone(self.reactor.stats())
    }

    /// Re-register disk `d` with a replacement backend; in-flight
    /// submissions finish against the old backend, new submissions see
    /// the replacement. Returns the previous backend.
    ///
    /// This is the "new drive in the slot" operation behind background
    /// repair: a killed or crashed disk gets an empty replacement, the
    /// repair pipeline rebuilds its elements onto it, and readers never
    /// see the array change size.
    pub fn replace_disk(&self, d: usize, backend: Arc<dyn DiskBackend>) -> Arc<dyn DiskBackend> {
        let mut retired = self.slots.retired.lock();
        let old = std::mem::replace(&mut *self.slots.disks[d].lock(), backend);
        if let Some(net) = old.net_stats() {
            *retired = Some(retired.unwrap_or_default().merge(&net));
        }
        old
    }

    /// The one way into a disk: hand `op` to disk `d`'s backend — from
    /// this thread when the backend completes submissions itself, through
    /// the reactor pool when it blocks. A pooled backend that panics
    /// completes its op all-`None`.
    fn submit(&self, d: usize, op: Op) -> Pending<'_> {
        let backend = self.disk(d);
        if backend.submits_async() {
            // Tracked in the engine gauges so in-flight covers both paths.
            let stats = self.reactor.stats();
            stats.direct_submitted();
            return Pending {
                handle: op.submit_to(&*backend),
                direct: Some(stats),
            };
        }
        Pending {
            handle: self.reactor.submit(backend, op),
            direct: None,
        }
    }

    /// Write a batch of elements, waiting for all to land. The elements
    /// are put in address order and coalesced into runs of consecutive
    /// offsets (and equal size), which go out through
    /// [`Self::write_runs`]: one vectored write per touched disk.
    pub fn write_batch(&self, mut items: Vec<(Address, Vec<u8>)>) -> WriteShape {
        // Stable: of two elements for one address the later lands last.
        items.sort_by_key(|&(addr, _)| addr);
        let mut runs: Vec<(usize, RunBuf)> = Vec::new();
        for ((disk, offset), bytes) in items {
            if let Some((d, run)) = runs.last_mut() {
                let next = run.start.checked_add(run.as_run().count() as u64);
                if *d == disk && next == Some(offset) && run.cell_len == bytes.len() {
                    run.bytes.extend_from_slice(&bytes);
                    continue;
                }
            }
            let cell_len = bytes.len();
            runs.push((
                disk,
                RunBuf {
                    start: offset,
                    cell_len,
                    bytes,
                },
            ));
        }
        self.write_runs(runs)
    }

    /// Write runs of consecutive cells, waiting for all to land: one
    /// vectored write per touched disk, every disk's submitted before
    /// the first is waited for (so completion-driven backends' requests
    /// leave back to back). A panicking pooled backend does not panic
    /// the caller — the lost elements simply read back as absent, the
    /// same failure surface as a failed disk.
    /// Returns what was dispatched.
    pub fn write_runs(&self, runs: Vec<(usize, RunBuf)>) -> WriteShape {
        let mut shape = WriteShape {
            rpcs: 0,
            runs: runs.len(),
            cells: 0,
        };
        let mut by_disk: BTreeMap<usize, Vec<RunBuf>> = BTreeMap::new();
        for (disk, run) in runs {
            shape.cells += run.as_run().count();
            by_disk.entry(disk).or_default().push(run);
        }
        shape.rpcs = by_disk.len();
        let pending: Vec<Pending<'_>> = by_disk
            .into_iter()
            .map(|(disk, runs)| self.submit(disk, Op::Write(runs)))
            .collect();
        for p in pending {
            let _ = p.wait();
        }
        shape
    }

    /// Start a batched read: addresses are grouped by disk and **one**
    /// vectored read is submitted per touched disk. Per-disk replies
    /// stream out of the returned [`BatchRead`] as each submission
    /// completes, so consumers can overlap decode/copy-out with the
    /// slower disks' I/O.
    ///
    /// A panicking backend's submission completes immediately as
    /// all-`None` instead of panicking the caller.
    pub fn read_batch_streaming(&self, addrs: &[Address]) -> BatchRead {
        let (reply_tx, reply_rx) = channel::<DiskReply>();
        let mut by_disk: BTreeMap<usize, (Vec<usize>, Vec<u64>)> = BTreeMap::new();
        for (tag, &(disk, offset)) in addrs.iter().enumerate() {
            let entry = by_disk.entry(disk).or_default();
            entry.0.push(tag);
            entry.1.push(offset);
        }
        let mut asked = Vec::with_capacity(by_disk.len());
        for (disk, (tags, offsets)) in by_disk {
            let gaps = offsets.windows(2).filter(|w| w[1] != w[0].wrapping_add(1));
            asked.push(DiskAsk {
                disk,
                cells: offsets.len(),
                runs: 1 + gaps.count(),
            });
            let reply = reply_tx.clone();
            self.submit(disk, Op::Read(offsets))
                .on_complete(move |results| {
                    debug_assert_eq!(results.len(), tags.len());
                    let items = tags.into_iter().zip(results).collect();
                    let _ = reply.send(DiskReply { disk, items });
                });
        }
        BatchRead {
            rx: reply_rx,
            pending: asked.len(),
            asked,
        }
    }

    /// Read a batch of addresses **in parallel** (each disk serves its
    /// own submissions concurrently with the others), returning results
    /// in request order. `None` entries are failed/absent elements.
    ///
    /// This is the collecting form of [`Self::read_batch_streaming`]:
    /// one vectored request per disk, results reassembled into request
    /// order.
    pub fn read_batch(&self, addrs: &[Address]) -> Vec<Option<Vec<u8>>> {
        let mut batch = self.read_batch_streaming(addrs);
        let mut out: Vec<Option<Vec<u8>>> = vec![None; addrs.len()];
        while let Some(reply) = batch.next_reply() {
            for (tag, bytes) in reply.items {
                out[tag] = bytes;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultyDisk};
    use std::time::Instant;

    #[test]
    fn memdisk_write_read() {
        let d = MemDisk::new();
        assert!(d.is_empty());
        d.write(5, vec![1, 2, 3]);
        assert_eq!(d.read(5), Some(vec![1, 2, 3]));
        assert_eq!(d.read(6), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn memdisk_wipe_erases_every_cell() {
        let d = MemDisk::new();
        d.write(0, vec![7]);
        d.write(3, vec![8]);
        d.wipe();
        assert_eq!(d.read_many(&[0, 3]), [None, None]);
        assert!(d.is_empty());
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let a = ThreadedArray::new(4);
        let items: Vec<(Address, Vec<u8>)> = (0..16u64)
            .map(|i| (((i % 4) as usize, i / 4), vec![i as u8; 3]))
            .collect();
        a.write_batch(items.clone());
        let addrs: Vec<Address> = items.iter().map(|(a, _)| *a).collect();
        let got = a.read_batch(&addrs);
        for (g, (_, want)) in got.iter().zip(&items) {
            assert_eq!(g.as_ref(), Some(want));
        }
    }

    /// Put a killed `FaultyDisk` around disk `d`: its cells stay in the
    /// wrapped disk, and no read reaches them.
    fn kill(a: &ThreadedArray, d: usize) {
        let killed = FaultyDisk::wrap(a.disk(d));
        killed.arm(FaultKind::Kill, 0);
        a.replace_disk(d, killed);
    }

    #[test]
    fn failed_disk_returns_none_others_fine() {
        let a = ThreadedArray::new(3);
        a.write_batch(vec![
            ((0, 0), vec![1]),
            ((1, 0), vec![2]),
            ((2, 0), vec![3]),
        ]);
        kill(&a, 1);
        let got = a.read_batch(&[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(got[0], Some(vec![1]));
        assert_eq!(got[1], None);
        assert_eq!(got[2], Some(vec![3]));
    }

    #[test]
    fn parallel_reads_overlap_across_disks() {
        // 4 disks × 1 element each at 20 ms latency must take well under
        // the 80 ms a serial scan would: demonstrates actual parallelism.
        let a = ThreadedArray::with_latency(4, Duration::from_millis(20));
        a.write_batch((0..4).map(|d| ((d, 0u64), vec![d as u8])).collect());
        let t0 = Instant::now();
        let got = a.read_batch(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let elapsed = t0.elapsed();
        assert!(got.iter().all(|g| g.is_some()));
        assert!(
            elapsed < Duration::from_millis(60),
            "reads did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn same_disk_reads_serialise() {
        // 3 elements on ONE disk at 20 ms each: must take at least 60 ms —
        // the most-loaded-disk bottleneck is physically real here.
        let a = ThreadedArray::with_latency(2, Duration::from_millis(20));
        a.write_batch((0..3u64).map(|o| ((0usize, o), vec![o as u8])).collect());
        let t0 = Instant::now();
        let got = a.read_batch(&[(0, 0), (0, 1), (0, 2)]);
        let elapsed = t0.elapsed();
        assert!(got.iter().all(|g| g.is_some()));
        assert!(
            elapsed >= Duration::from_millis(55),
            "same-disk reads overlapped impossibly: {elapsed:?}"
        );
    }

    #[test]
    fn empty_batches_are_noops() {
        let a = ThreadedArray::new(2);
        a.write_batch(vec![]);
        assert!(a.read_batch(&[]).is_empty());
    }

    #[test]
    fn batched_and_per_element_paths_agree() {
        // Same array, same addresses — including absent offsets and a
        // failed disk — must answer identically through both paths.
        let a = ThreadedArray::new(4);
        let items: Vec<(Address, Vec<u8>)> = (0..32u64)
            .map(|i| (((i % 4) as usize, i / 4), vec![i as u8; 5]))
            .collect();
        a.write_batch(items.clone());
        kill(&a, 2);
        let mut addrs: Vec<Address> = items.iter().map(|(a, _)| *a).collect();
        addrs.push((0, 999)); // absent offset
        addrs.push((3, 777)); // absent offset
        let per_element: Vec<Option<Vec<u8>>> =
            addrs.iter().map(|&(d, o)| a.disk(d).read(o)).collect();
        assert_eq!(a.read_batch(&addrs), per_element);
    }

    #[test]
    fn one_job_per_touched_disk() {
        let a = ThreadedArray::new(4);
        a.write_batch(
            (0..12u64)
                .map(|i| (((i % 3) as usize, i / 3), vec![1]))
                .collect(),
        );
        // 12 elements over disks {0,1,2} → exactly 3 per-disk jobs.
        let addrs: Vec<Address> = (0..12u64).map(|i| ((i % 3) as usize, i / 3)).collect();
        let mut batch = a.read_batch_streaming(&addrs);
        let shape: Vec<_> = batch.asked().iter().map(|a| (a.disk, a.cells)).collect();
        assert_eq!(shape, [(0, 4), (1, 4), (2, 4)]);
        let mut replies = 0;
        let mut elems = 0;
        while let Some(reply) = batch.next_reply() {
            replies += 1;
            elems += reply.items.len();
            assert!(reply.disk < 3);
        }
        assert_eq!(replies, 3);
        assert_eq!(elems, 12);
    }

    /// A backend whose reads panic — the harshest failure case the
    /// batch paths must survive without panicking the caller.
    #[derive(Debug)]
    struct PanicDisk;
    impl DiskBackend for PanicDisk {
        fn submit_read_many(&self, _offsets: &[u64]) -> IoHandle {
            panic!("injected backend panic");
        }
        fn submit_write_many(&self, _runs: &[WriteRun<'_>]) -> IoHandle {
            IoHandle::ready(Vec::new())
        }
        fn wipe(&self) {}
        fn len(&self) -> usize {
            0
        }
    }

    /// A `MemDisk` that records the `(start, count)` shape of every
    /// vectored write it is handed, and the offsets of every read.
    #[derive(Debug, Default)]
    struct ShapeDisk {
        inner: MemDisk,
        calls: Mutex<Vec<Vec<(u64, usize)>>>,
        reads: Mutex<Vec<Vec<u64>>>,
        submits_async: bool,
    }
    impl DiskBackend for ShapeDisk {
        fn submit_read_many(&self, offsets: &[u64]) -> IoHandle {
            self.reads.lock().push(offsets.to_vec());
            self.inner.submit_read_many(offsets)
        }
        fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> IoHandle {
            let shape = runs.iter().map(|r| (r.start, r.count())).collect();
            self.calls.lock().push(shape);
            self.inner.submit_write_many(runs)
        }
        fn submits_async(&self) -> bool {
            self.submits_async
        }
        fn wipe(&self) {}
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn write_batch_is_one_call_per_disk_in_runs_of_consecutive_offsets() {
        // One pooled disk and one the array submits to directly.
        let disks: Vec<Arc<ShapeDisk>> = [false, true]
            .into_iter()
            .map(|submits_async| {
                Arc::new(ShapeDisk {
                    submits_async,
                    ..ShapeDisk::default()
                })
            })
            .collect();
        let a = ThreadedArray::from_backends(
            disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn DiskBackend>)
                .collect(),
        );
        for (d, disk) in disks.iter().enumerate() {
            // Unsorted, a hole after 12, a cell of another size in the
            // middle of a run, and offset 11 twice: the later one wins.
            let shape = a.write_batch(vec![
                ((d, 12), vec![12; 4]),
                ((d, 10), vec![10; 4]),
                ((d, 11), vec![0; 4]),
                ((d, 20), vec![20; 4]),
                ((d, 21), vec![21; 3]),
                ((d, 22), vec![22; 4]),
                ((d, 11), vec![11; 4]),
            ]);
            assert_eq!(
                *disk.calls.lock(),
                [[(10, 2), (11, 2), (20, 1), (21, 1), (22, 1)]],
                "disk {d}"
            );
            let dispatched = WriteShape {
                rpcs: 1,
                runs: 5,
                cells: 7,
            };
            assert_eq!(shape, dispatched, "disk {d}");
            let offsets = [10, 11, 12, 13, 20, 21, 22];
            let addrs: Vec<Address> = offsets.map(|o| (d, o)).to_vec();
            let got = a.read_batch(&addrs);
            assert_eq!(*disk.reads.lock(), [offsets], "disk {d}: one read call");
            assert_eq!(
                got[1],
                Some(vec![11; 4]),
                "the later write of 11 landed last"
            );
            assert_eq!(got[2], Some(vec![12; 4]));
            assert_eq!(got[3], None);
            assert_eq!(got[5], Some(vec![21; 3]));
        }
        // Both disks in one operation: still one backend call each.
        a.write_batch(vec![((0, 30), vec![1; 4]), ((1, 30), vec![2; 4])]);
        let got = a.read_batch(&[(1, 30), (0, 30), (1, 31)]);
        assert_eq!(got, [Some(vec![2; 4]), Some(vec![1; 4]), None]);
        for (d, disk) in disks.iter().enumerate() {
            assert_eq!(disk.calls.lock()[1..], [[(30, 1)]], "disk {d}");
        }
        assert_eq!(disks[0].reads.lock()[1..], [[30]]);
        assert_eq!(disks[1].reads.lock()[1..], [[30, 31]]);
        let snap = a.io_stats().snapshot();
        assert_eq!((snap.submitted, snap.completed), (8, 8));
        assert_eq!((snap.queue_depth, snap.inflight), (0, 0));
    }

    #[test]
    fn a_batch_read_reports_each_disks_cells_and_runs() {
        // A run is consecutive ascending offsets: a gap or a step back
        // starts a new one.
        let a = ThreadedArray::new(3);
        let asked = |addrs: &[Address]| {
            let batch = a.read_batch_streaming(addrs);
            let shape = batch.asked().iter().map(|x| (x.disk, x.cells, x.runs));
            shape.collect::<Vec<_>>()
        };
        assert_eq!(asked(&[]), []);
        assert_eq!(asked(&[(0, 5)]), [(0, 1, 1)]);
        assert_eq!(asked(&[(0, 5), (0, 6), (0, 7)]), [(0, 3, 1)]);
        assert_eq!(asked(&[(0, 5), (0, 7)]), [(0, 2, 2)]);
        assert_eq!(asked(&[(0, 6), (0, 5)]), [(0, 2, 2)]);
        assert_eq!(
            asked(&[(2, 9), (0, 0), (1, 3), (0, 1), (1, 4), (1, 9)]),
            [(0, 2, 1), (1, 3, 2), (2, 1, 1)]
        );
    }

    #[test]
    fn panicking_backend_surfaces_as_none_not_panic() {
        let healthy = Arc::new(MemDisk::new());
        healthy.write(0, vec![9]);
        let a = ThreadedArray::from_backends(vec![
            healthy as Arc<dyn DiskBackend>,
            Arc::new(PanicDisk) as Arc<dyn DiskBackend>,
        ]);
        // Disk 1's backend panics mid-batch; the reactor catches it and
        // completes the submission as all-None — nothing panics on our
        // side and the pool worker survives to serve later batches.
        let got = a.read_batch(&[(0, 0), (1, 0)]);
        assert_eq!(got[1], None);
        let got = a.read_batch(&[(0, 0), (1, 0), (1, 7)]);
        assert_eq!(got[0], Some(vec![9]));
        assert_eq!(got[1], None);
        assert_eq!(got[2], None);
        a.write_batch(vec![((0, 1), vec![4]), ((1, 1), vec![5])]);
        assert_eq!(a.read_batch(&[(0, 1)])[0], Some(vec![4]));
    }

    #[test]
    fn memdisk_read_many_matches_per_element_loop() {
        let d = MemDisk::new();
        for o in 0..8u64 {
            d.write(o, vec![o as u8; 4]);
        }
        let offsets = [3u64, 0, 100, 7, 3];
        let want: Vec<Option<Vec<u8>>> = offsets.iter().map(|&o| d.read(o)).collect();
        assert_eq!(d.read_many(&offsets), want);
    }

    #[test]
    fn replace_disk_revives_a_panicking_slot() {
        let healthy = Arc::new(MemDisk::new());
        healthy.write(0, vec![3]);
        let faulty = FaultyDisk::wrap(Arc::new(MemDisk::new()));
        faulty.write(0, vec![9]);
        let a = ThreadedArray::from_backends(vec![
            healthy as Arc<dyn DiskBackend>,
            Arc::new(PanicDisk) as Arc<dyn DiskBackend>,
        ]);
        // It panics: all-None.
        assert_eq!(a.read_batch(&[(1, 0)])[0], None);
        // Re-register a usable backend in slot 1; the array serves it.
        a.replace_disk(1, faulty);
        let got = a.read_batch(&[(0, 0), (1, 0)]);
        assert_eq!(got[0], Some(vec![3]));
        assert_eq!(got[1], Some(vec![9]));
    }

    #[test]
    fn replace_disk_swaps_backend_and_returns_old() {
        let a = ThreadedArray::new(2);
        a.write_batch(vec![((0, 0), vec![1]), ((1, 0), vec![2])]);
        let fresh = Arc::new(MemDisk::new());
        fresh.write(0, vec![42]);
        let old = a.replace_disk(1, fresh as Arc<dyn DiskBackend>);
        assert_eq!(old.read(0), Some(vec![2]), "old backend handed back");
        assert_eq!(a.read_batch(&[(1, 0)])[0], Some(vec![42]));
        // Writes land on the replacement.
        a.write_batch(vec![((1, 1), vec![7])]);
        assert_eq!(a.read_batch(&[(1, 1)])[0], Some(vec![7]));
    }

    #[test]
    fn faulty_disk_kill_mid_batch_reads_as_absent() {
        use crate::fault::{FaultKind, FaultyDisk};
        let inner = Arc::new(MemDisk::new());
        let faulty = FaultyDisk::wrap(inner);
        let a = ThreadedArray::from_backends(vec![
            Arc::new(MemDisk::new()) as Arc<dyn DiskBackend>,
            Arc::clone(&faulty) as Arc<dyn DiskBackend>,
        ]);
        a.write_batch(vec![((0, 0), vec![1]), ((1, 0), vec![2])]);
        assert_eq!(a.read_batch(&[(1, 0)])[0], Some(vec![2]));
        faulty.arm(FaultKind::Kill, 0);
        assert_eq!(a.read_batch(&[(1, 0)])[0], None);
        assert_eq!(a.read_batch(&[(0, 0)])[0], Some(vec![1]));
    }

    #[test]
    fn observed_array_is_read_at_snapshot_time() {
        let a = ThreadedArray::new(2);
        let r = Recorder::new();
        a.observe(&r);
        a.read_batch(&[(0, 0), (1, 0)]);
        let s = r.snapshot();
        assert_eq!(s.gauges["io.submitted"], 2);
        assert_eq!(s.gauges["io.completed"], 2);
        assert!(s.gauges.contains_key("io.uring_batches"));
        assert!(s.gauges.contains_key("io.file_errors"));
        assert!(
            !s.counters.contains_key("net.retries"),
            "no backend reports transport counters"
        );
        a.read_batch(&[(0, 0)]);
        assert_eq!(r.snapshot().gauges["io.completed"], 3);
    }

    #[test]
    fn io_stats_track_submissions_and_completions() {
        let a = ThreadedArray::new(2);
        a.write_batch(vec![((0, 0), vec![1]), ((1, 0), vec![2])]);
        a.read_batch(&[(0, 0), (1, 0)]);
        let snap = a.io_stats().snapshot();
        // 2 write submissions + 2 read submissions, all completed.
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.completed, 4);
        assert_eq!((snap.queue_depth, snap.inflight), (0, 0));
        assert_eq!(snap.panics, 0);
    }
}
