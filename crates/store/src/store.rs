//! The [`ObjectStore`]: append-only, full-stripe-write, read-optimised.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ecfrm_util::{par_map, Mutex};

use ecfrm_core::recover::RepairTask;
use ecfrm_core::{DiskRecovery, ReadCtx, Scheme};
use ecfrm_integrity::{
    append_footer, element_checksum, leaf_hash, verify_footer, HashKey, MerkleTree, FOOTER_LEN,
};
use ecfrm_layout::Loc;
use ecfrm_obs::{Counter, DiskBoard, Histogram, Recorder};
use ecfrm_sim::{
    combine_status, CombineOutcome, CombinePeerSpec, CombineSpec, NetStats, RunBuf, ThreadedArray,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::StoreError;
use crate::meta::{ObjectMeta, ReadStats, ScrubReport, StoreStats, StripeManifest, StripeRepair};
use crate::repair::RepairQueue;

/// Pre-resolved instrument handles for the read hot path: one registry
/// lookup each at construction, then pure atomics per read.
struct StoreMetrics {
    reads: Counter,
    degraded_reads: Counter,
    replans: Counter,
    fetched_elements: Counter,
    repair_elements: Counter,
    /// Per-disk vectored requests issued by the batched read path (one
    /// per touched disk per fetch round; for remote backends this is
    /// the logical RPC count).
    rpcs: Counter,
    /// Elements carried by those vectored requests.
    batch_elems: Counter,
    /// Per-disk batches whose offsets formed one contiguous ascending
    /// run of ≥ 2 elements — the batches a remote backend ships as a
    /// single coalesced `GetRange`.
    coalesced_runs: Counter,
    /// Per-disk vectored writes issued (one per touched disk per seal or
    /// repair write-back; for remote backends the logical RPC count),
    /// the runs of consecutive cells they carried, and the cells.
    write_rpcs: Counter,
    write_runs: Counter,
    write_elems: Counter,
    /// Elements whose checksum footer (or merkle path, during scrub)
    /// failed verification — each is treated as an erasure.
    verify_fail: Counter,
    /// Elements a scrub pass checked against their stripe manifest.
    elements_verified: Counter,
    /// Bytes the rebuilding client ingested during stripe repair — the
    /// repair traffic the paper's recovery argument prices. Combined
    /// repair ships `rows` pre-summed regions instead of `k·rows`
    /// elements, so this is the counter the bench compares.
    repair_wire_bytes: Counter,
    /// Repair source elements read from a disk outside the failed
    /// disk's failure domain (rack). Zero whenever an intra-domain plan
    /// exists.
    cross_domain_reads: Counter,
    /// Stripes repaired via server-side `CombineRange` partial sums.
    combined_stripes: Counter,
    /// Reads planned degraded around a live-but-hot disk at a caller's
    /// request ([`ReadOpts::avoid`]) — the front-door cache's
    /// load-aware miss path.
    avoided_reads: Counter,
    /// Avoid requests abandoned because the avoiding plan was
    /// unreadable or cost more than [`ReadOpts::max_avoid_cost`].
    avoid_fallbacks: Counter,
    plan_us: Histogram,
    read_us: Histogram,
    /// Time spent verifying checksum footers (per read / per scrubbed
    /// stripe).
    verify_us: Histogram,
    disk_load: DiskBoard,
}

impl StoreMetrics {
    fn new(recorder: &Recorder, n_disks: usize) -> Self {
        Self {
            reads: recorder.counter("reads"),
            degraded_reads: recorder.counter("degraded_reads"),
            replans: recorder.counter("replans"),
            fetched_elements: recorder.counter("fetched_elements"),
            repair_elements: recorder.counter("repair_elements"),
            rpcs: recorder.counter("read.rpcs"),
            batch_elems: recorder.counter("read.batch_elems"),
            coalesced_runs: recorder.counter("read.coalesced_runs"),
            write_rpcs: recorder.counter("write.rpcs"),
            write_runs: recorder.counter("write.runs"),
            write_elems: recorder.counter("write.batch_elems"),
            verify_fail: recorder.counter("integrity.verify_fail"),
            elements_verified: recorder.counter("scrub.elements_verified"),
            repair_wire_bytes: recorder.counter("repair.wire_bytes"),
            cross_domain_reads: recorder.counter("repair.cross_domain_reads"),
            combined_stripes: recorder.counter("repair.combined_stripes"),
            avoided_reads: recorder.counter("read.avoided"),
            avoid_fallbacks: recorder.counter("read.avoid_fallback"),
            plan_us: recorder.histogram("plan_us"),
            read_us: recorder.histogram("read_us"),
            verify_us: recorder.histogram("verify_us"),
            disk_load: recorder.disk_board("disk_load", n_disks),
        }
    }

    /// Tally one dispatched fetch round: `jobs` per-disk requests
    /// covering `addrs`.
    fn note_batch(&self, jobs: usize, addrs: &[(usize, u64)]) {
        self.rpcs.add(jobs as u64);
        self.batch_elems.add(addrs.len() as u64);
        self.coalesced_runs.add(count_coalesced_runs(addrs) as u64);
    }

    /// Tally one array-level write: `rpcs` per-disk requests carrying
    /// `runs` runs of `elems` cells in all.
    fn note_write(&self, rpcs: usize, runs: usize, elems: usize) {
        self.write_rpcs.add(rpcs as u64);
        self.write_runs.add(runs as u64);
        self.write_elems.add(elems as u64);
    }
}

/// How many per-disk groups of `addrs` (grouped in submission order, the
/// way `ThreadedArray` dispatches them) form one contiguous ascending
/// offset run of ≥ 2 elements — the batches a `RemoteDisk` ships as a
/// single-run `Read`.
fn count_coalesced_runs(addrs: &[(usize, u64)]) -> usize {
    let mut per_disk: HashMap<usize, Vec<u64>> = HashMap::new();
    for &(d, o) in addrs {
        per_disk.entry(d).or_default().push(o);
    }
    per_disk
        .values()
        .filter(|offs| offs.len() >= 2 && offs.windows(2).all(|w| w[1] == w[0].wrapping_add(1)))
        .count()
}

/// Outcome of one combined-repair attempt on a stripe.
enum CombinedRepair {
    /// Rebuilt and written back.
    Done(StripeRepair),
    /// These helpers failed checksum verification — exclude them and
    /// replan the stripe.
    Corrupt(Vec<usize>),
    /// Combining was not possible (a helper without an address, or one
    /// that vanished); use the batched path for this stripe.
    Fallback,
}

/// A [`StripeEvent`] subscriber registered with
/// [`ObjectStore::subscribe_stripes`]. Called synchronously after the
/// store's internal lock is released, so it may call back into the
/// store.
pub type StripeListener = Arc<dyn Fn(StripeEvent) + Send + Sync>;

/// A change to sealed-stripe state, delivered to subscribers registered
/// via [`ObjectStore::subscribe_stripes`].
///
/// The front door's decoded-element cache uses these to invalidate:
/// repair rewrites identical payloads and sealed elements are
/// immutable, so invalidation is a conservative coherence fence rather
/// than a correctness requirement today — but it keeps the cache honest
/// against any future path that rewrites cells with different bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripeEvent {
    /// Stripes `first .. first + count` were sealed and written out.
    Sealed {
        /// First newly sealed stripe index.
        first: u64,
        /// Number of stripes sealed in this batch.
        count: u64,
    },
    /// One stripe's lost cells were rewritten by
    /// [`ObjectStore::repair_stripe`].
    Rewritten {
        /// The repaired stripe.
        stripe: u64,
    },
    /// Every cell of a disk was rebuilt in place by
    /// [`ObjectStore::recover_disk`].
    DiskRebuilt {
        /// The rebuilt disk.
        disk: usize,
    },
}

/// Per-read options for [`ObjectStore::get_range_with_opts`] and
/// [`ObjectStore::read_extent`].
#[derive(Debug, Clone)]
pub struct ReadOpts {
    /// Live disks the planner should treat as down, so the read decodes
    /// around them instead of touching them — the front-door cache
    /// passes the currently hottest disk here on a miss. Avoided disks
    /// are never marked suspect and never generate repair hints; if the
    /// avoiding plan is unreadable or costs more than
    /// [`ReadOpts::max_avoid_cost`], avoidance is dropped and the read
    /// proceeds normally.
    pub avoid: Vec<usize>,
    /// Cost ceiling (fetched/requested elements, [`ReadStats::cost`])
    /// above which avoidance is abandoned. EC-FRM's rotated layout
    /// usually substitutes a same-group parity at equal cost, so the
    /// default `1.3` only forgives small remainder-group overheads.
    pub max_avoid_cost: f64,
}

impl Default for ReadOpts {
    fn default() -> Self {
        Self {
            avoid: Vec::new(),
            max_avoid_cost: 1.3,
        }
    }
}

struct Inner {
    catalog: HashMap<String, ObjectMeta>,
    /// Unsealed logical bytes (tail of the append stream).
    pending: Vec<u8>,
    /// Total logical bytes appended, including alignment padding.
    logical_len: u64,
    /// Data elements sealed into full stripes.
    sealed_elements: u64,
    /// Full stripes written.
    stripes: u64,
    /// Per-stripe integrity manifests, indexed by stripe number. Built
    /// at seal time; repair rewrites identical payloads, so manifests
    /// stay valid for the stripe's lifetime.
    manifests: Vec<StripeManifest>,
    failed: BTreeSet<usize>,
}

/// An erasure-coded object store over a threaded disk array.
///
/// Objects are immutable byte blobs appended to a logical stream. The
/// stream is chunked into fixed-size elements; once a full stripe of data
/// elements accumulates it is encoded (all stripes in parallel) and
/// written out. Reads plan through the scheme — normal or degraded —
/// and execute on the array's worker threads. When a disk stops
/// answering mid-read (a remote shard timing out or dying), the read
/// falls back to a degraded plan around the suspect disk instead of
/// failing.
pub struct ObjectStore {
    scheme: Scheme,
    element_size: usize,
    array: ThreadedArray,
    inner: Mutex<Inner>,
    /// Solved repair-coefficient vectors, reused across degraded reads
    /// with the same erasure geometry.
    decoder_cache: ecfrm_codes::DecoderCache,
    /// Observability registry: read/plan/decode latency histograms,
    /// per-disk load board, read counters. Snapshot via
    /// [`ObjectStore::recorder`].
    recorder: Recorder,
    metrics: StoreMetrics,
    /// Stripe repair queue. Degraded reads drop priority hints into it
    /// (no-ops until a [`RepairManager`](crate::RepairManager) attaches)
    /// so hot stripes regain redundancy first.
    repair_queue: Arc<RepairQueue>,
    /// The keyed-hash key every element footer and merkle manifest is
    /// computed under.
    key: HashKey,
    /// When set (the default), the batched read path verifies each
    /// element's checksum footer as its disk answers and treats a
    /// mismatch exactly like an erasure. Clearing it skips the check
    /// (footers are still stripped) — the bench uses this to price
    /// verify-on-read.
    verify_reads: AtomicBool,
    /// When set (the default), [`ObjectStore::repair_stripe`] tries the
    /// repair-traffic-optimal path first: helpers multiply their own
    /// elements by the decode coefficients server-side (`CombineRange`)
    /// and one root helper merges the partial sums, so the rebuilder
    /// ingests `rows` regions instead of `k·rows` elements. Clearing it
    /// forces the naive fetch-everything path — the bench prices the
    /// difference.
    combined_repair: AtomicBool,
    /// Stripe-event subscribers (the front door's cache invalidation).
    listeners: Mutex<Vec<StripeListener>>,
    /// Events recorded while `inner` was held, delivered by
    /// [`Self::notify`] once the lock is released so subscribers may
    /// freely call back into the store.
    pending_events: Mutex<Vec<StripeEvent>>,
}

impl std::fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ObjectStore({}, {}B elements)",
            self.scheme.name(),
            self.element_size
        )
    }
}

impl ObjectStore {
    /// Create a store using `scheme` with `element_size`-byte elements
    /// (the paper's testbed uses ~1 MB elements; tests use small ones).
    ///
    /// # Panics
    /// Panics if `element_size == 0`.
    pub fn new(scheme: Scheme, element_size: usize) -> Self {
        let array = ThreadedArray::new(scheme.n_disks());
        Self::with_array(scheme, element_size, array)
    }

    /// Create a store over a caller-built array — e.g. file-backed disks
    /// ([`ecfrm_sim::FileDisk`]) or latency-injected ones.
    ///
    /// # Panics
    /// Panics if `element_size == 0` or the array's disk count differs
    /// from the scheme's.
    pub fn with_array(scheme: Scheme, element_size: usize, array: ThreadedArray) -> Self {
        assert!(element_size > 0, "element size must be positive");
        assert_eq!(
            array.n_disks(),
            scheme.n_disks(),
            "array size must match the scheme"
        );
        let decoder_cache = ecfrm_codes::DecoderCache::new(scheme.code().generator().clone());
        let recorder = Recorder::new();
        let metrics = StoreMetrics::new(&recorder, scheme.n_disks());
        // Record which GF region-kernel backend this process dispatched
        // to (avx2/ssse3/neon/portable/scalar), so stats snapshots show
        // what the encode/decode numbers were produced with.
        recorder
            .counter(&format!(
                "kernel_backend.{}",
                ecfrm_gf::kernel::active().name
            ))
            .inc();
        Self {
            decoder_cache,
            recorder,
            metrics,
            repair_queue: RepairQueue::new(),
            scheme,
            element_size,
            array,
            inner: Mutex::new(Inner {
                catalog: HashMap::new(),
                pending: Vec::new(),
                logical_len: 0,
                sealed_elements: 0,
                stripes: 0,
                manifests: Vec::new(),
                failed: BTreeSet::new(),
            }),
            key: HashKey::DEFAULT,
            verify_reads: AtomicBool::new(true),
            combined_repair: AtomicBool::new(true),
            listeners: Mutex::new(Vec::new()),
            pending_events: Mutex::new(Vec::new()),
        }
    }

    /// Subscribe to [`StripeEvent`]s: seals, repair rewrites, and
    /// whole-disk rebuilds. Events are delivered synchronously from the
    /// store call that completed the change, after the store's internal
    /// lock is released (so subscribers may call back into the store).
    pub fn subscribe_stripes(&self, listener: StripeListener) {
        self.listeners.lock().push(listener);
    }

    /// Record an event for delivery at the next [`Self::notify`]. Safe
    /// to call with `inner` held.
    fn push_event(&self, ev: StripeEvent) {
        if !self.listeners.lock().is_empty() {
            self.pending_events.lock().push(ev);
        }
    }

    /// Deliver pending stripe events. Must be called WITHOUT `inner`
    /// held. Listeners run outside every store lock, so they may call
    /// back into the store; events raised by those calls are drained by
    /// the same loop.
    fn notify(&self) {
        loop {
            let batch: Vec<StripeEvent> = std::mem::take(&mut *self.pending_events.lock());
            if batch.is_empty() {
                return;
            }
            let listeners: Vec<_> = self.listeners.lock().clone();
            for ev in batch {
                for l in &listeners {
                    l(ev);
                }
            }
        }
    }

    /// The bound scheme.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The store's metrics registry. Counters: `reads`,
    /// `degraded_reads`, `replans`, `fetched_elements`,
    /// `repair_elements`, `decoded_elements`, `read.rpcs` (per-disk
    /// vectored requests issued), `read.batch_elems` (elements those
    /// requests carried), `read.coalesced_runs` (per-disk batches that
    /// formed one contiguous run — shipped as a single `GetRange` on
    /// remote backends), `write.rpcs` / `write.runs` /
    /// `write.batch_elems` (their mirrors for seals and repair
    /// write-backs: per-disk vectored writes, the runs of consecutive
    /// cells in them, the cells), `integrity.verify_fail` (elements whose
    /// checksum or merkle path failed), `scrub.elements_verified`,
    /// `repair.wire_bytes` (bytes the rebuilding client ingested during
    /// stripe repair), `repair.cross_domain_reads` (repair sources read
    /// across failure domains), `repair.combined_stripes` (stripes
    /// repaired via server-side `CombineRange`),
    /// `net.*` (transport deltas). Histograms (µs): `plan_us`,
    /// `read_us`, `decode_us`, `verify_us` (checksum verification
    /// time per read / per scrubbed stripe). Disk board: `disk_load`
    /// (planned fetches per disk).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Element size in bytes.
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// A live snapshot of the `disk_load` board: cumulative planned
    /// fetches per disk since startup. The front door's cache miss path
    /// diffs successive snapshots to find the currently hottest disk
    /// and asks the planner to decode around it ([`ReadOpts::avoid`]).
    pub fn disk_loads(&self) -> ecfrm_obs::DiskBoardSnapshot {
        self.metrics.disk_load.snapshot()
    }

    /// The store's stripe repair queue (drained by a
    /// [`RepairManager`](crate::RepairManager); degraded reads feed it
    /// priority hints).
    pub fn repair_queue(&self) -> &Arc<RepairQueue> {
        &self.repair_queue
    }

    /// The keyed-hash key element footers and merkle manifests are
    /// computed under (remote shard clients pass it on the wire so
    /// servers can pre-verify coalesced runs).
    pub fn integrity_key(&self) -> HashKey {
        self.key
    }

    /// Whether the read path verifies checksum footers (on by default).
    pub fn verify_reads(&self) -> bool {
        self.verify_reads.load(Ordering::Relaxed)
    }

    /// Enable/disable verify-on-read. With verification off, footers
    /// are still stripped but mismatches go undetected — only the
    /// overhead bench should turn this off.
    pub fn set_verify_reads(&self, on: bool) {
        self.verify_reads.store(on, Ordering::Relaxed);
    }

    /// Whether stripe repair may use server-side `CombineRange` partial
    /// sums (on by default; falls back to raw fetches per helper when a
    /// shard predates the opcode).
    pub fn combined_repair(&self) -> bool {
        self.combined_repair.load(Ordering::Relaxed)
    }

    /// Enable/disable the combined repair path. The repair bench turns
    /// it off to price naive recovery against combined recovery.
    pub fn set_combined_repair(&self, on: bool) {
        self.combined_repair.store(on, Ordering::Relaxed);
    }

    /// The integrity manifest of `stripe`, if sealed.
    pub fn manifest(&self, stripe: u64) -> Option<StripeManifest> {
        self.inner.lock().manifests.get(stripe as usize).cloned()
    }

    /// Append an object. Full stripes are sealed and encoded eagerly;
    /// the tail stays buffered until [`Self::flush`] or a read needs it.
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`] if the name is taken.
    pub fn put(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if inner.catalog.contains_key(name) {
            return Err(StoreError::AlreadyExists(name.to_string()));
        }
        let meta = ObjectMeta {
            offset: inner.logical_len,
            len: bytes.len() as u64,
        };
        inner.catalog.insert(name.to_string(), meta);
        inner.pending.extend_from_slice(bytes);
        inner.logical_len += bytes.len() as u64;
        self.seal_full_stripes(&mut inner);
        drop(inner);
        self.notify();
        Ok(())
    }

    /// Append anonymous bytes to the logical stream, returning the
    /// extent they occupy — the front door's write primitive: extent
    /// records ([`crate::ExtentRecord`]) reference these locations
    /// without entering the store's name catalog.
    ///
    /// Like [`Self::put`], full stripes seal eagerly and the tail stays
    /// buffered until a flush or a read needs it. Read the bytes back
    /// with [`Self::read_extent`].
    pub fn append(&self, bytes: &[u8]) -> ObjectMeta {
        let meta = {
            let mut inner = self.inner.lock();
            let meta = ObjectMeta {
                offset: inner.logical_len,
                len: bytes.len() as u64,
            };
            inner.pending.extend_from_slice(bytes);
            inner.logical_len += bytes.len() as u64;
            self.seal_full_stripes(&mut inner);
            meta
        };
        self.notify();
        meta
    }

    /// Seal the pending tail by zero-padding to a stripe boundary, so
    /// everything written so far becomes readable. Later appends start
    /// after the padding (alignment loss, as in real append-only stores).
    pub fn flush(&self) {
        {
            let mut inner = self.inner.lock();
            self.flush_locked(&mut inner);
        }
        self.notify();
    }

    fn flush_locked(&self, inner: &mut Inner) {
        if inner.pending.is_empty() {
            return;
        }
        let stripe_bytes = self.stripe_bytes();
        let pad = (stripe_bytes - inner.pending.len() % stripe_bytes) % stripe_bytes;
        inner.pending.resize(inner.pending.len() + pad, 0);
        inner.logical_len += pad as u64;
        self.seal_full_stripes(inner);
        debug_assert!(inner.pending.is_empty());
    }

    fn stripe_bytes(&self) -> usize {
        self.scheme.data_per_stripe() * self.element_size
    }

    /// Encode and write out every complete stripe in the pending buffer.
    ///
    /// A stripe occupies `rows` consecutive offsets on every disk and
    /// stripes follow each other, so what a seal sends to one disk is
    /// one run. Each disk's run buffer is allocated once and every cell
    /// is built in place in it: the data payload copied from `pending`
    /// (stripe blocks are slices straight over it), the parity encoded
    /// into its cell, the footer hashed and the manifest leaf hashed
    /// from there — no per-cell allocation, and nothing is copied again
    /// on the way to the backends.
    fn seal_full_stripes(&self, inner: &mut Inner) {
        let stripe_bytes = self.stripe_bytes();
        let full = inner.pending.len() / stripe_bytes;
        if full == 0 {
            return;
        }
        let first_stripe = inner.stripes;
        let layout = self.scheme.layout();
        let (n, k, rows) = (layout.n_disks(), layout.code_k(), layout.rows_per_stripe());
        let dps = layout.data_per_stripe();
        let es = self.element_size;
        let cell_len = es + FOOTER_LEN;
        let per_disk = layout.offsets_per_stripe();
        assert_eq!(
            layout.total_per_stripe() as u64,
            n as u64 * per_disk,
            "a stripe fills the same offsets on every disk"
        );
        // Bytes one stripe occupies in one disk's run.
        let share = per_disk as usize * cell_len;
        let mut runs: Vec<RunBuf> = (0..n)
            .map(|_| RunBuf {
                start: first_stripe * per_disk,
                cell_len,
                bytes: vec![0u8; full * share],
            })
            .collect();
        // Stripe `i`'s share of every disk's run, so stripes can be
        // built in parallel. (`par_map` hands out `&T`; each stripe's
        // shares sit behind a lock only it ever takes.)
        let mut shares: Vec<Vec<&mut [u8]>> = (0..full).map(|_| Vec::with_capacity(n)).collect();
        for run in &mut runs {
            for (stripe, chunk) in shares.iter_mut().zip(run.bytes.chunks_exact_mut(share)) {
                stripe.push(chunk);
            }
        }
        let shares: Vec<Mutex<Vec<&mut [u8]>>> = shares.into_iter().map(Mutex::new).collect();

        // Encode stripes in parallel: each is an independent set of
        // group-by-group parity computations. Each cell is
        // `payload || checksum footer`, and each stripe additionally
        // yields its merkle manifest (leaves in layout order).
        let manifests: Vec<StripeManifest> = par_map(&shares, |i, disks| {
            let stripe = first_stripe + i as u64;
            let mut disks = disks.lock();
            let block = &inner.pending[i * stripe_bytes..][..stripe_bytes];
            let data: Vec<&[u8]> = block.chunks_exact(es).collect();
            // Where `loc`'s cell starts in its disk's share.
            let at = |loc: Loc| (loc.offset - stripe * per_disk) as usize * cell_len;
            let base = stripe * dps as u64;
            for (t, d) in data.iter().enumerate() {
                let loc = layout.data_location(base + t as u64);
                disks[loc.disk][at(loc)..][..es].copy_from_slice(d);
            }
            for (g, group) in data.chunks_exact(k).enumerate() {
                // A candidate row's elements sit on distinct disks, so
                // its parity cells are disjoint borrows of `disks`.
                let locs: Vec<Loc> = (0..n - k)
                    .map(|p| layout.parity_location(stripe, g, p))
                    .collect();
                let mut cells: Vec<(usize, &mut [u8])> = disks
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(d, share)| {
                        let p = locs.iter().position(|l| l.disk == d)?;
                        Some((p, &mut share[at(locs[p])..][..es]))
                    })
                    .collect();
                cells.sort_unstable_by_key(|(p, _)| *p);
                let mut parity: Vec<&mut [u8]> = cells.into_iter().map(|(_, c)| c).collect();
                self.scheme.code().encode_into(group, &mut parity);
            }
            // Footers, and manifest leaves in layout order: row by row,
            // data then parity within each row (the order scrub reads
            // them back).
            let mut leaves = Vec::with_capacity(n * rows);
            for row in 0..rows {
                for loc in layout.row_locations(stripe, row) {
                    let cell = &mut disks[loc.disk][at(loc)..][..cell_len];
                    let (payload, footer) = cell.split_at_mut(es);
                    let sum = element_checksum(&self.key, loc.offset, payload);
                    footer.copy_from_slice(&sum.to_le_bytes());
                    leaves.push(leaf_hash(&self.key, leaves.len() as u64, payload));
                }
            }
            StripeManifest::new(MerkleTree::from_leaves(&self.key, leaves))
        });
        drop(shares);
        inner.pending.drain(..full * stripe_bytes);
        inner.manifests.extend(manifests);

        self.metrics
            .note_write(n, n, full * layout.total_per_stripe());
        self.array
            .write_runs(runs.into_iter().enumerate().collect());
        inner.stripes += full as u64;
        inner.sealed_elements += (full * dps) as u64;
        self.push_event(StripeEvent::Sealed {
            first: first_stripe,
            count: full as u64,
        });
    }

    /// Write rebuilt cells back through [`ThreadedArray::write_batch`],
    /// tallying the per-disk requests and the runs of consecutive
    /// offsets it coalesces them into.
    fn write_back(&self, cells: Vec<((usize, u64), Vec<u8>)>) {
        let mut addrs: Vec<(usize, u64)> = cells.iter().map(|&(addr, _)| addr).collect();
        addrs.sort_unstable();
        let follows =
            |w: &[(usize, u64)]| w[0].0 == w[1].0 && w[0].1.checked_add(1) == Some(w[1].1);
        let runs = addrs.len() - addrs.windows(2).filter(|w| follows(w)).count();
        addrs.dedup_by_key(|&mut (disk, _)| disk);
        self.metrics.note_write(addrs.len(), runs, cells.len());
        self.array.write_batch(cells);
    }

    /// Read a whole object.
    pub fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let len = self.object_len(name)?;
        self.get_range(name, 0, len)
    }

    /// Read a whole object and report how the read went (plan metrics +
    /// wall-clock time) — the instrumentation behind the examples'
    /// speed reports.
    pub fn get_with_stats(&self, name: &str) -> Result<(Vec<u8>, ReadStats), StoreError> {
        let len = self.object_len(name)?;
        self.get_range_with_stats(name, 0, len)
    }

    fn object_len(&self, name: &str) -> Result<u64, StoreError> {
        self.inner
            .lock()
            .catalog
            .get(name)
            .map(|m| m.len)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))
    }

    /// Read `len` bytes of an object starting at byte `start` within it.
    ///
    /// If any referenced element is still unsealed the store flushes
    /// first. Under failed disks the read is planned as a degraded read
    /// and lost elements are reconstructed inline. A disk that stops
    /// answering *during* the read (e.g. a remote shard timing out) is
    /// marked suspect for this read and the plan falls back to degraded
    /// around it.
    pub fn get_range(&self, name: &str, start: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_range_with_stats(name, start, len)?.0)
    }

    /// Sum of network transport counters across every backend that
    /// exposes them (remote disks); all-zero for local arrays.
    fn net_snapshot(&self) -> NetStats {
        (0..self.array.n_disks())
            .filter_map(|d| self.array.disk(d).net_stats())
            .fold(NetStats::default(), |acc, s| acc.merge(&s))
    }

    /// [`Self::get_range`] plus per-read statistics.
    pub fn get_range_with_stats(
        &self,
        name: &str,
        start: u64,
        len: u64,
    ) -> Result<(Vec<u8>, ReadStats), StoreError> {
        self.get_range_with_opts(name, start, len, &ReadOpts::default())
    }

    /// [`Self::get_range_with_stats`] with per-read [`ReadOpts`] — the
    /// front door's miss path uses `opts.avoid` to decode around the
    /// currently hottest disk.
    pub fn get_range_with_opts(
        &self,
        name: &str,
        start: u64,
        len: u64,
        opts: &ReadOpts,
    ) -> Result<(Vec<u8>, ReadStats), StoreError> {
        let meta = {
            let inner = self.inner.lock();
            *inner
                .catalog
                .get(name)
                .ok_or_else(|| StoreError::NotFound(name.to_string()))?
        };
        if start + len > meta.len {
            return Err(StoreError::RangeOutOfBounds {
                name: name.to_string(),
                len: meta.len,
            });
        }
        self.read_absolute(
            ObjectMeta {
                offset: meta.offset + start,
                len,
            },
            opts,
        )
    }

    /// Read `len` bytes starting `start` bytes into `extent` — an
    /// anonymous stream location previously returned by
    /// [`Self::append`]. This is the front door's read primitive: its
    /// extent records carry [`ObjectMeta`] locations instead of store
    /// catalog names.
    ///
    /// # Errors
    /// [`StoreError::RangeOutOfBounds`] if `start + len` overruns the
    /// extent (or the logical stream, for a forged extent); otherwise
    /// exactly like [`Self::get_range`].
    pub fn read_extent(
        &self,
        extent: ObjectMeta,
        start: u64,
        len: u64,
        opts: &ReadOpts,
    ) -> Result<(Vec<u8>, ReadStats), StoreError> {
        if start.checked_add(len).is_none_or(|end| end > extent.len) {
            return Err(StoreError::RangeOutOfBounds {
                name: format!("<extent @{}>", extent.offset),
                len: extent.len,
            });
        }
        self.read_absolute(
            ObjectMeta {
                offset: extent.offset + start,
                len,
            },
            opts,
        )
    }

    /// The shared read core: `meta.offset` is an *absolute* logical
    /// stream offset (catalog lookups already applied).
    fn read_absolute(
        &self,
        meta: ObjectMeta,
        opts: &ReadOpts,
    ) -> Result<(Vec<u8>, ReadStats), StoreError> {
        let len = meta.len;
        let failed = {
            let mut inner = self.inner.lock();
            let (_, last) = meta.element_range(self.element_size);
            if last > inner.sealed_elements {
                self.flush_locked(&mut inner);
            }
            if len > 0 && last > inner.sealed_elements {
                return Err(StoreError::RangeOutOfBounds {
                    name: format!("<extent @{}>", meta.offset),
                    len: inner.sealed_elements * self.element_size as u64,
                });
            }
            inner.failed.iter().copied().collect::<Vec<usize>>()
        };
        self.notify();
        if len == 0 {
            return Ok((
                Vec::new(),
                ReadStats {
                    requested_elements: 0,
                    fetched_elements: 0,
                    repair_elements: 0,
                    max_disk_load: 0,
                    cost: 0.0,
                    degraded: !failed.is_empty(),
                    replans: 0,
                    net: NetStats::default(),
                    elapsed: std::time::Duration::ZERO,
                },
            ));
        }

        let t0 = std::time::Instant::now();
        let net_before = self.net_snapshot();
        let (first, last) = meta.element_range(self.element_size);
        let count = (last - first) as usize;

        // The requested byte range, relative to the first fetched
        // element. Elements are copied straight into `out` (no
        // intermediate flattened buffer) and their scratch buffers
        // retired to the thread-local pool.
        let begin = (meta.offset - first * self.element_size as u64) as usize;
        let end = begin + len as usize;
        let mut out = vec![0u8; len as usize];
        let copy_element = |out: &mut [u8], idx: usize, e: &[u8]| {
            let estart = idx * self.element_size;
            let s = begin.max(estart);
            let t = end.min(estart + e.len());
            if s < t {
                out[s - begin..t - begin].copy_from_slice(&e[s - estart..t - estart]);
            }
        };

        // Plan, fetch, and — when a disk stops answering mid-read —
        // mark it suspect and replan degraded around it. Each iteration
        // strictly grows the suspect set, so the loop terminates.
        //
        // Fetches go out as one vectored request per touched disk
        // (`read_batch_streaming`), and per-disk replies are consumed
        // as they arrive: on the normal path each answering disk's
        // elements are copied into `out` while slower disks are still
        // reading; on the degraded path arriving elements accumulate
        // into the assemble map the same way.
        let verify = self.verify_reads.load(Ordering::Relaxed);
        let mut verify_spent = std::time::Duration::ZERO;
        let mut suspects: BTreeSet<usize> = failed.iter().copied().collect();
        // Live disks the caller asked us to plan around (load shedding,
        // not failure): planned as down, but never marked suspect and
        // never hinted for repair. Dropped wholesale if avoiding them
        // would cost more than `opts.max_avoid_cost` or make the range
        // unreadable.
        let mut avoid: BTreeSet<usize> = opts
            .avoid
            .iter()
            .copied()
            .filter(|&d| d < self.scheme.n_disks() && !suspects.contains(&d))
            .collect();
        let mut replans = 0usize;
        let plan = loop {
            let down: Vec<usize> = suspects.union(&avoid).copied().collect();
            let t_plan = std::time::Instant::now();
            let plan = if down.is_empty() {
                self.scheme.normal_read_plan(first, count)
            } else {
                self.scheme.degraded_read_plan(first, count, &down)
            };
            self.metrics.plan_us.record_duration(t_plan.elapsed());
            if !avoid.is_empty()
                && (!plan.unreadable.is_empty() || plan.cost() > opts.max_avoid_cost)
            {
                avoid.clear();
                self.metrics.avoid_fallbacks.inc();
                continue;
            }
            if !plan.unreadable.is_empty() {
                return Err(StoreError::DataLoss(format!(
                    "{} elements unrecoverable under failed disks {down:?}",
                    plan.unreadable.len()
                )));
            }

            // Execute the plan: one vectored request per touched disk.
            let addrs: Vec<(usize, u64)> = plan
                .fetches
                .iter()
                .map(|f| (f.loc.disk, f.loc.offset))
                .collect();
            let mut batch = self.array.read_batch_streaming(&addrs);
            self.metrics.note_batch(batch.jobs(), &addrs);
            let touched: BTreeSet<usize> = addrs.iter().map(|&(d, _)| d).collect();
            let mut answered: BTreeSet<usize> = BTreeSet::new();
            let mut newly_suspect: BTreeSet<usize> = BTreeSet::new();
            let normal = down.is_empty();
            // Degraded reads collect into a map for group decode; the
            // map stays empty on the normal path (fetch i IS demand
            // element i, copied out directly as its disk answers).
            let mut fetched: HashMap<Loc, Vec<u8>> = if normal {
                HashMap::new()
            } else {
                HashMap::with_capacity(addrs.len())
            };
            while let Some(reply) = batch.next_reply() {
                answered.insert(reply.disk);
                for (tag, bytes) in reply.items {
                    match bytes {
                        Some(mut b) => {
                            // Verify-on-read: a cell whose checksum
                            // footer disagrees is *exactly* an erasure —
                            // the disk goes suspect and the read replans
                            // degraded around it. With verification off
                            // the footer is only stripped.
                            let ok = if verify {
                                let t_v = std::time::Instant::now();
                                let ok = verify_footer(&self.key, addrs[tag].1, &b).is_some();
                                verify_spent += t_v.elapsed();
                                ok
                            } else {
                                b.len() >= self.element_size
                            };
                            if !ok {
                                self.metrics.verify_fail.inc();
                                newly_suspect.insert(addrs[tag].0);
                                crate::bufpool::give(b);
                                continue;
                            }
                            b.truncate(self.element_size);
                            if normal {
                                copy_element(&mut out, tag, &b);
                                crate::bufpool::give(b);
                            } else {
                                fetched.insert(plan.fetches[tag].loc, b);
                            }
                        }
                        None => {
                            newly_suspect.insert(addrs[tag].0);
                        }
                    }
                }
            }
            // A worker that died mid-batch ends the reply stream early;
            // its disk never answered and is suspect like any other.
            newly_suspect.extend(touched.difference(&answered));
            // Feed the failure detector: a disk that served every
            // requested element is vouched for again; one that stopped
            // answering goes on the array's suspect list for the
            // background repair pipeline to probe.
            for &d in answered.difference(&newly_suspect) {
                self.array.clear_suspect(d);
            }
            for &d in &newly_suspect {
                self.array.mark_suspect(d);
            }
            if newly_suspect.is_empty() {
                if !normal {
                    let elements = self.scheme.assemble_read(
                        first,
                        count,
                        &fetched,
                        ReadCtx::new()
                            .with_cache(&self.decoder_cache)
                            .with_recorder(&self.recorder),
                    )?;
                    for (idx, e) in elements.into_iter().enumerate() {
                        copy_element(&mut out, idx, &e);
                        crate::bufpool::give(e);
                    }
                }
                break plan;
            }
            if newly_suspect.iter().all(|d| suspects.contains(d)) {
                return Err(StoreError::DataLoss(format!(
                    "disks {newly_suspect:?} still unresponsive after degraded replan"
                )));
            }
            suspects.extend(newly_suspect);
            replans += 1;
        };
        // Leave breadcrumbs for the background repair pipeline: the
        // stripes this degraded read actually touched, per down disk —
        // they jump the repair queue so hot data regains redundancy
        // first. (No-ops until a `RepairManager` attaches.)
        if !suspects.is_empty() {
            let dps = self.scheme.data_per_stripe() as u64;
            for stripe in first / dps..=(last - 1) / dps {
                for &d in &suspects {
                    self.repair_queue.hint(d, stripe);
                }
            }
        }
        let net_delta = self.net_snapshot().since(&net_before);
        let stats = ReadStats {
            requested_elements: count,
            fetched_elements: plan.total_fetched(),
            repair_elements: plan.repair_fetched(),
            max_disk_load: plan.max_load(),
            cost: plan.cost(),
            degraded: !suspects.is_empty(),
            replans,
            net: net_delta,
            elapsed: t0.elapsed(),
        };

        let m = &self.metrics;
        m.reads.inc();
        if stats.degraded {
            m.degraded_reads.inc();
        }
        if !avoid.is_empty() {
            m.avoided_reads.inc();
        }
        if replans > 0 {
            m.replans.add(replans as u64);
        }
        m.fetched_elements.add(stats.fetched_elements as u64);
        m.repair_elements.add(stats.repair_elements as u64);
        if verify_spent > std::time::Duration::ZERO {
            m.verify_us.record_duration(verify_spent);
        }
        for f in &plan.fetches {
            m.disk_load.record(f.loc.disk, 1, self.element_size as u64);
        }
        m.read_us.record_duration(stats.elapsed);
        net_delta.record_into(&self.recorder);
        // Reactor-level I/O gauges (queue depth, in-flight submissions)
        // alongside the read counters, so a stats snapshot shows how
        // loaded the completion engine was at the end of this read.
        self.array.io_stats().snapshot().record_into(&self.recorder);
        // Kernel-level backend gauges: uring engine totals plus the
        // count of local file I/O errors absorbed into `None` results.
        ecfrm_sim::uring::snapshot().record_into(&self.recorder);
        self.recorder
            .gauge("io.file_errors")
            .set(ecfrm_sim::file_disk::io_error_count() as i64);

        Ok((out, stats))
    }

    /// All cell addresses of `stripe` in layout order (row by row) —
    /// the manifest's leaf order.
    fn stripe_addrs(&self, stripe: u64) -> Vec<(usize, u64)> {
        let layout = self.scheme.layout();
        let rows = layout.rows_per_stripe();
        let n = self.scheme.code().n();
        let mut addrs: Vec<(usize, u64)> = Vec::with_capacity(rows * n);
        for row in 0..rows {
            addrs.extend(
                layout
                    .row_locations(stripe, row)
                    .iter()
                    .map(|l| (l.disk, l.offset)),
            );
        }
        addrs
    }

    /// Verifying merkle scrub: check every stored element's checksum
    /// footer *and* its O(log n) merkle path against the stripe root —
    /// no decoding, no parity recomputation — and localize any mismatch
    /// to the exact `(stripe, element)`. Flushes pending writes first.
    ///
    /// Elements on failed disks are counted as missing, not corrupt.
    /// For the decode-based parity cross-check (slower, group-granular)
    /// see [`Self::scrub_decode`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ecfrm_codes::RsCode;
    /// use ecfrm_core::Scheme;
    /// use ecfrm_store::ObjectStore;
    ///
    /// let store = ObjectStore::new(
    ///     Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
    ///         .layout(ecfrm_core::LayoutKind::EcFrm)
    ///         .build(),
    ///     512);
    /// store.put("x", &vec![1u8; 40_000]).unwrap();
    /// assert!(store.scrub().unwrap().is_clean());
    /// ```
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let stripes = {
            let mut inner = self.inner.lock();
            self.flush_locked(&mut inner);
            inner.stripes
        };
        let n = self.scheme.code().n();
        let mut corrupt_elements: Vec<(u64, usize)> = Vec::new();
        let mut corrupt_groups: Vec<(u64, usize)> = Vec::new();
        let mut missing = 0usize;
        for stripe in 0..stripes {
            let manifest = self
                .manifest(stripe)
                .expect("every sealed stripe has a manifest");
            // One batched read per stripe (one vectored request per
            // disk), cells arriving in leaf order.
            let addrs = self.stripe_addrs(stripe);
            let t_v = std::time::Instant::now();
            for (i, cell) in self.array.read_batch(&addrs).into_iter().enumerate() {
                let Some(cell) = cell else {
                    missing += 1;
                    continue;
                };
                self.metrics.elements_verified.inc();
                // Footer first (one hash), merkle path second: both must
                // agree for the element to count as intact.
                let ok = verify_footer(&self.key, addrs[i].1, &cell)
                    .map(|payload| manifest.verify_element(&self.key, i, payload))
                    .unwrap_or(false);
                if !ok {
                    self.metrics.verify_fail.inc();
                    corrupt_elements.push((stripe, i));
                    let group = (stripe, i / n);
                    if corrupt_groups.last() != Some(&group) {
                        corrupt_groups.push(group);
                    }
                }
                crate::bufpool::give(cell);
            }
            self.metrics.verify_us.record_duration(t_v.elapsed());
        }
        Ok(ScrubReport {
            stripes_checked: stripes,
            corrupt_groups,
            corrupt_elements,
            missing_elements: missing,
        })
    }

    /// Decode-based scrub: recompute every group's parities from stored
    /// data and compare with the stored parities. Group-granular (it
    /// cannot say *which* element of a dirty group lies) and pays a
    /// full re-encode per group; kept as the cross-check that needs no
    /// manifests and as the merkle scrub's benchmark baseline.
    ///
    /// Elements on failed disks are counted as missing, not corrupt.
    pub fn scrub_decode(&self) -> Result<ScrubReport, StoreError> {
        let stripes = {
            let mut inner = self.inner.lock();
            self.flush_locked(&mut inner);
            inner.stripes
        };
        let layout = self.scheme.layout();
        let code = self.scheme.code();
        let k = code.k();
        let n = code.n();
        let mut corrupt_groups = Vec::new();
        let mut missing = 0usize;
        for stripe in 0..stripes {
            let rows = layout.rows_per_stripe();
            let addrs = self.stripe_addrs(stripe);
            let mut stripe_cells = self.array.read_batch(&addrs).into_iter();
            for row in 0..rows {
                let cells: Vec<Option<Vec<u8>>> = stripe_cells.by_ref().take(n).collect();
                debug_assert_eq!(cells.len(), n);
                if cells.iter().any(|c| c.is_none()) {
                    missing += cells.iter().filter(|c| c.is_none()).count();
                    continue;
                }
                let mut cells: Vec<Vec<u8>> = cells.into_iter().map(Option::unwrap).collect();
                // Strip checksum footers; the parity equations hold over
                // payloads.
                for c in &mut cells {
                    c.truncate(self.element_size);
                }
                let data_refs: Vec<&[u8]> = cells[..k].iter().map(|v| v.as_slice()).collect();
                // Scratch parities cycle through the thread-local pool:
                // after the first group, re-derivation is allocation-free.
                let mut parity: Vec<Vec<u8>> = (0..n - k)
                    .map(|_| crate::bufpool::take(self.element_size))
                    .collect();
                code.encode(&data_refs, &mut parity);
                if parity
                    .iter()
                    .zip(&cells[k..])
                    .any(|(want, got)| want != got)
                {
                    corrupt_groups.push((stripe, row));
                }
                crate::bufpool::give_all(parity);
                crate::bufpool::give_all(cells);
            }
        }
        Ok(ScrubReport {
            stripes_checked: stripes,
            corrupt_groups,
            corrupt_elements: Vec::new(),
            missing_elements: missing,
        })
    }

    /// Probe a suspect disk: read its first element *and verify the
    /// checksum footer*. Verification matters — a disk silently
    /// corrupting answers happily serves probe reads, and without the
    /// footer check the failure detector would vouch for it forever.
    /// Used by the [`RepairManager`](crate::RepairManager) detector to
    /// decide transient blip vs lost/lying disk.
    pub fn probe_disk(&self, disk: usize) -> bool {
        match self.array.read_batch(&[(disk, 0)]).pop().flatten() {
            Some(cell) => verify_footer(&self.key, 0, &cell).is_some(),
            None => false,
        }
    }

    /// Direct handle to the underlying array (failure injection,
    /// corruption drills, inspection).
    pub fn array(&self) -> &ThreadedArray {
        &self.array
    }

    /// Mark a disk failed: subsequent reads plan around it.
    pub fn fail_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        self.array.disk(disk).fail();
        self.inner.lock().failed.insert(disk);
        Ok(())
    }

    /// Clear a disk's failure flag (transient failure resolved with no
    /// data loss — the paper's >90% case).
    pub fn heal_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        self.array.disk(disk).heal();
        self.inner.lock().failed.remove(&disk);
        Ok(())
    }

    /// Rebuild a lost disk from the survivors (paper §IV-D), write the
    /// reconstructed elements back, and return how many were rebuilt.
    ///
    /// Models the *permanent* failure path: the disk's contents are wiped
    /// and regenerated group by group.
    pub fn recover_disk(&self, disk: usize) -> Result<usize, StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        let (stripes, all_failed) = {
            let mut inner = self.inner.lock();
            self.flush_locked(&mut inner);
            (
                inner.stripes,
                inner.failed.iter().copied().collect::<Vec<_>>(),
            )
        };
        let recovery = DiskRecovery::plan_among(&self.scheme, disk, &all_failed, stripes)
            .map_err(StoreError::DataLoss)?;

        // Fetch all distinct sources in one parallel batch.
        let mut want: BTreeSet<(usize, u64)> = BTreeSet::new();
        for t in &recovery.tasks {
            for (_, loc) in &t.sources {
                want.insert((loc.disk, loc.offset));
            }
        }
        let addrs: Vec<(usize, u64)> = want.into_iter().collect();
        let results = self.array.read_batch(&addrs);
        let mut fetched: HashMap<Loc, Vec<u8>> = HashMap::with_capacity(addrs.len());
        for (&(d, o), bytes) in addrs.iter().zip(results) {
            let mut bytes = bytes.ok_or_else(|| {
                StoreError::DataLoss(format!("recovery source on disk {d} offset {o} unreadable"))
            })?;
            // A corrupt source would be silently encoded into the
            // rebuilt disk; verify before trusting it.
            if verify_footer(&self.key, o, &bytes).is_none() {
                self.metrics.verify_fail.inc();
                self.array.mark_suspect(d);
                return Err(StoreError::DataLoss(format!(
                    "recovery source on disk {d} offset {o} failed checksum verification"
                )));
            }
            bytes.truncate(self.element_size);
            fetched.insert(Loc::new(d, o), bytes);
        }

        // Rebuild every task in parallel, re-sealing each element with
        // a fresh checksum footer at its target offset. Decoding goes
        // through the decoder cache: a whole-disk rebuild hits the same
        // few erasure patterns over and over, so each coefficient
        // system is solved once instead of once per stripe.
        let rebuilt: Vec<((usize, u64), Vec<u8>)> = par_map(&recovery.tasks, |_, task| {
            let mut bytes = self
                .rebuild_cached(task, &fetched)
                .expect("plan sources span the target");
            append_footer(&self.key, task.target.offset, &mut bytes);
            ((task.target.disk, task.target.offset), bytes)
        });
        let count = rebuilt.len();

        self.array.disk(disk).wipe();
        self.array.disk(disk).heal();
        self.write_back(rebuilt);
        self.inner.lock().failed.remove(&disk);
        self.push_event(StripeEvent::DiskRebuilt { disk });
        self.notify();
        Ok(count)
    }

    /// Rebuild every element `disk` stores for `stripe` (data *and*
    /// parity) from the survivors and write them back — the unit of
    /// work of the background [`RepairManager`](crate::RepairManager).
    ///
    /// Unlike [`Self::recover_disk`] this neither wipes nor heals the
    /// target: repair of a disk proceeds stripe by stripe while reads
    /// keep planning around it, and the disk is healed only once every
    /// stripe is back (so redundancy is restored atomically from the
    /// planner's point of view).
    ///
    /// # Errors
    /// [`StoreError::NoSuchDisk`] / [`StoreError::NoSuchStripe`] for
    /// bad coordinates; [`StoreError::DataLoss`] if too many disks are
    /// down or a repair source failed to answer (the source is marked
    /// suspect and the stripe can be retried).
    pub fn repair_stripe(&self, disk: usize, stripe: u64) -> Result<StripeRepair, StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        let (stripes, all_failed) = {
            let inner = self.inner.lock();
            (
                inner.stripes,
                inner.failed.iter().copied().collect::<Vec<_>>(),
            )
        };
        if stripe >= stripes {
            return Err(StoreError::NoSuchStripe(stripe));
        }
        // A helper caught lying (checksum mismatch on its partial sum or
        // raw element) is excluded and the stripe replanned around it —
        // the erasure code has spare sources precisely for this.
        let mut excluded = all_failed;
        for _attempt in 0..3 {
            let recovery = DiskRecovery::plan_stripes(&self.scheme, disk, &excluded, &[stripe])
                .map_err(StoreError::DataLoss)?;
            self.note_cross_domain(disk, &recovery);
            if self.combined_repair() {
                match self.repair_stripe_combined(&recovery) {
                    CombinedRepair::Done(r) => {
                        self.push_event(StripeEvent::Rewritten { stripe });
                        self.notify();
                        return Ok(r);
                    }
                    CombinedRepair::Corrupt(disks) => {
                        for d in disks {
                            self.array.mark_suspect(d);
                            if !excluded.contains(&d) {
                                excluded.push(d);
                            }
                        }
                        continue;
                    }
                    CombinedRepair::Fallback => {}
                }
            }
            let r = self.repair_stripe_naive(&recovery)?;
            self.push_event(StripeEvent::Rewritten { stripe });
            self.notify();
            return Ok(r);
        }
        Err(StoreError::DataLoss(format!(
            "repair of stripe {stripe} exhausted retries: helpers kept failing verification"
        )))
    }

    /// The batched repair path: fetch every source element, verify,
    /// decode client-side. Also the per-stripe fallback when a helper
    /// cannot be reached over `CombineRange`.
    fn repair_stripe_naive(&self, recovery: &DiskRecovery) -> Result<StripeRepair, StoreError> {
        // One parallel batch for all distinct sources of this stripe.
        let mut want: BTreeSet<(usize, u64)> = BTreeSet::new();
        for t in &recovery.tasks {
            for (_, loc) in &t.sources {
                want.insert((loc.disk, loc.offset));
            }
        }
        let addrs: Vec<(usize, u64)> = want.into_iter().collect();
        let results = self.array.read_batch(&addrs);
        let mut fetched: HashMap<Loc, Vec<u8>> = HashMap::with_capacity(addrs.len());
        let mut bytes_read = 0u64;
        for (&(d, o), bytes) in addrs.iter().zip(results) {
            let Some(mut b) = bytes else {
                self.array.mark_suspect(d);
                return Err(StoreError::DataLoss(format!(
                    "repair source on disk {d} offset {o} unreadable"
                )));
            };
            bytes_read += b.len() as u64;
            // Repair must not launder corruption into freshly sealed
            // cells: a source that fails verification is as bad as one
            // that never answered — suspect it and retry the stripe.
            if verify_footer(&self.key, o, &b).is_none() {
                self.metrics.verify_fail.inc();
                self.array.mark_suspect(d);
                return Err(StoreError::DataLoss(format!(
                    "repair source on disk {d} offset {o} failed checksum verification"
                )));
            }
            b.truncate(self.element_size);
            fetched.insert(Loc::new(d, o), b);
        }

        // Stripe-level work is small; rebuild serially to keep repair's
        // CPU footprint low (parallelism comes from the worker pool).
        // Decoding reuses cached coefficient vectors — every stripe of a
        // disk rebuild solves the same erasure pattern — and each
        // rebuilt element is re-sealed with a fresh footer.
        let mut rebuilt: Vec<((usize, u64), Vec<u8>)> = Vec::with_capacity(recovery.tasks.len());
        let mut bytes_written = 0u64;
        for task in &recovery.tasks {
            let mut bytes = self
                .rebuild_cached(task, &fetched)
                .expect("plan sources span the target");
            append_footer(&self.key, task.target.offset, &mut bytes);
            bytes_written += bytes.len() as u64;
            rebuilt.push(((task.target.disk, task.target.offset), bytes));
        }
        let elements = rebuilt.len();
        self.metrics.repair_wire_bytes.add(bytes_read);
        self.write_back(rebuilt);
        Ok(StripeRepair {
            elements,
            bytes_read,
            bytes_written,
        })
    }

    /// Decode one repair task through the [`DecoderCache`]: the solved
    /// coefficient vector for `(target position, available positions)`
    /// is computed once and reused for every stripe with the same
    /// erasure geometry.
    fn rebuild_cached(
        &self,
        task: &RepairTask,
        fetched: &HashMap<Loc, Vec<u8>>,
    ) -> Option<Vec<u8>> {
        let sources: Vec<(usize, &[u8])> = task
            .sources
            .iter()
            .map(|(p, loc)| fetched.get(loc).map(|b| (*p, b.as_slice())))
            .collect::<Option<Vec<_>>>()?;
        self.decoder_cache
            .reconstruct(task.pos, &sources, self.element_size)
    }

    /// Count planned repair sources that sit outside the failed disk's
    /// failure domain (distinct elements, the way they are fetched).
    fn note_cross_domain(&self, target: usize, recovery: &DiskRecovery) {
        let domains = self.scheme.domains();
        let distinct: BTreeSet<(usize, u64)> = recovery
            .tasks
            .iter()
            .flat_map(|t| &t.sources)
            .filter(|(_, loc)| !domains.same_domain(target, loc.disk))
            .map(|(_, loc)| (loc.disk, loc.offset))
            .collect();
        if !distinct.is_empty() {
            self.metrics.cross_domain_reads.add(distinct.len() as u64);
        }
    }

    /// The repair-traffic-optimal path: ship each helper's decode
    /// coefficients to the shard (`CombineRange`), let one *root* helper
    /// XOR-merge the other helpers' partial sums server-side, and ingest
    /// `rows` sealed regions instead of `k·rows` raw elements.
    ///
    /// Every helper must be dialable by the others
    /// ([`DiskBackend::peer_addr`]); an array with a local disk among
    /// the helpers takes the batched path.
    fn repair_stripe_combined(&self, recovery: &DiskRecovery) -> CombinedRepair {
        let tasks = &recovery.tasks;
        if tasks.is_empty() {
            return CombinedRepair::Done(StripeRepair {
                elements: 0,
                bytes_read: 0,
                bytes_written: 0,
            });
        }
        let outputs = tasks.len();
        // Column-assign decode coefficients: helper disk → offset →
        // (output lane, coefficient). Lane r rebuilds task r.
        let mut per_disk: BTreeMap<usize, BTreeMap<u64, Vec<(usize, u8)>>> = BTreeMap::new();
        for (r, task) in tasks.iter().enumerate() {
            let mut avail: Vec<usize> = task.sources.iter().map(|(p, _)| *p).collect();
            avail.sort_unstable();
            let Some(coeffs) = self.decoder_cache.coefficients(task.pos, &avail) else {
                return CombinedRepair::Fallback;
            };
            for (p, loc) in &task.sources {
                let i = avail.binary_search(p).expect("source position in avail");
                if coeffs[i] != 0 {
                    per_disk
                        .entry(loc.disk)
                        .or_default()
                        .entry(loc.offset)
                        .or_default()
                        .push((r, coeffs[i]));
                }
            }
        }
        // One contiguous window + row-major coefficient matrix per
        // helper; unused columns stay zero and are never verified or
        // summed server-side.
        struct Helper {
            disk: usize,
            addr: String,
            offset: u64,
            count: usize,
            coeffs: Vec<u8>,
        }
        let mut helpers: Vec<Helper> = Vec::new();
        for (disk, cells) in per_disk {
            let first = *cells.keys().next().expect("non-empty helper");
            let last = *cells.keys().next_back().expect("non-empty helper");
            let count = (last - first + 1) as usize;
            let mut coeffs = vec![0u8; outputs * count];
            for (&o, lanes) in &cells {
                for &(r, c) in lanes {
                    coeffs[r * count + (o - first) as usize] = c;
                }
            }
            let Some(addr) = self.array.disk(disk).peer_addr() else {
                return CombinedRepair::Fallback;
            };
            helpers.push(Helper {
                disk,
                addr,
                offset: first,
                count,
                coeffs,
            });
        }
        if helpers.is_empty() {
            return CombinedRepair::Fallback;
        }
        // Root: the helper that merges everyone else's partials. Prefer
        // one inside the failed disk's rack so the fat flows (peer →
        // root, root → client) stay intra-domain.
        let domains = self.scheme.domains();
        let root_idx = helpers
            .iter()
            .position(|h| domains.same_domain(h.disk, recovery.failed))
            .unwrap_or(0);
        let root = helpers.swap_remove(root_idx);
        let peers = helpers;
        let spec = CombineSpec {
            offset: root.offset,
            count: root.count as u32,
            outputs: outputs as u32,
            coeffs: root.coeffs,
            key: (self.key.k0, self.key.k1),
            peers: peers
                .iter()
                .map(|h| CombinePeerSpec {
                    addr: h.addr.clone(),
                    offset: h.offset,
                    count: h.count as u32,
                    coeffs: h.coeffs.clone(),
                })
                .collect(),
        };
        let reply = match self.array.disk(root.disk).combine(&spec) {
            CombineOutcome::Combined(reply) => reply,
            // The root is unreachable or refused the request: nothing to
            // exclude, use the batched path for this stripe.
            CombineOutcome::Unsupported | CombineOutcome::Failed(_) => {
                return CombinedRepair::Fallback;
            }
        };
        if reply.regions.is_empty() {
            // The root vetoed: some used element or peer failed
            // verification. Corrupt parties are excluded and the stripe
            // replanned; mere absence falls back to the batched path,
            // which has its own suspect handling.
            let mut corrupt = Vec::new();
            if reply.local_status.contains(&combine_status::CORRUPT) {
                corrupt.push(root.disk);
            }
            for (i, &s) in reply.peer_status.iter().enumerate() {
                if s == combine_status::CORRUPT {
                    corrupt.push(peers[i].disk);
                }
            }
            if corrupt.is_empty() {
                return CombinedRepair::Fallback;
            }
            self.metrics.verify_fail.add(corrupt.len() as u64);
            return CombinedRepair::Corrupt(corrupt);
        }
        if reply.regions.len() != outputs {
            return CombinedRepair::Fallback;
        }
        // Verify and strip the root's seal on each merged region.
        let mut wire_bytes = 0u64;
        let mut partials: Vec<Vec<u8>> = Vec::with_capacity(outputs);
        for (r, region) in reply.regions.iter().enumerate() {
            wire_bytes += region.len() as u64;
            let Some(payload) = verify_footer(&self.key, root.offset + r as u64, region) else {
                self.metrics.verify_fail.inc();
                return CombinedRepair::Corrupt(vec![root.disk]);
            };
            let mut payload = payload.to_vec();
            payload.truncate(self.element_size);
            partials.push(payload);
        }
        // Re-seal each completed sum at its home offset and write back.
        let mut rebuilt: Vec<((usize, u64), Vec<u8>)> = Vec::with_capacity(outputs);
        let mut bytes_written = 0u64;
        for (task, mut bytes) in tasks.iter().zip(partials) {
            append_footer(&self.key, task.target.offset, &mut bytes);
            bytes_written += bytes.len() as u64;
            rebuilt.push(((task.target.disk, task.target.offset), bytes));
        }
        self.metrics.repair_wire_bytes.add(wire_bytes);
        self.metrics.combined_stripes.inc();
        self.write_back(rebuilt);
        CombinedRepair::Done(StripeRepair {
            elements: outputs,
            bytes_read: wire_bytes,
            bytes_written,
        })
    }

    /// Read several objects, planning/decoding in parallel. Results are
    /// in input order.
    pub fn get_many(&self, names: &[&str]) -> Vec<Result<Vec<u8>, StoreError>> {
        // Seal everything once up front so parallel reads never contend
        // on the flush lock.
        self.flush();
        par_map(names, |_, name| self.get(name))
    }

    /// Decoder-cache statistics: `(hits, misses)` of solved repair
    /// systems.
    pub fn decoder_cache_stats(&self) -> (u64, u64) {
        self.decoder_cache.stats()
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            objects: inner.catalog.len(),
            logical_bytes: inner.logical_len,
            sealed_elements: inner.sealed_elements,
            stripes: inner.stripes,
            pending_bytes: inner.pending.len(),
            failed_disks: inner.failed.iter().copied().collect(),
        }
    }

    /// Metadata for an object, if present.
    pub fn meta(&self, name: &str) -> Option<ObjectMeta> {
        self.inner.lock().catalog.get(name).copied()
    }

    /// Names of all stored objects (unordered).
    pub fn list(&self) -> Vec<String> {
        self.inner.lock().catalog.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
    use ecfrm_core::LayoutKind;
    use std::sync::Arc;

    fn ecfrm_scheme(code: Arc<dyn CandidateCode>) -> Scheme {
        Scheme::builder(code).layout(LayoutKind::EcFrm).build()
    }

    fn lrc_store() -> ObjectStore {
        ObjectStore::new(ecfrm_scheme(Arc::new(LrcCode::new(6, 2, 2))), 64)
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed as usize * 7 + 1) % 256) as u8)
            .collect()
    }

    #[test]
    fn put_get_roundtrip() {
        let store = lrc_store();
        let data = blob(10_000, 1);
        store.put("a", &data).unwrap();
        assert_eq!(store.get("a").unwrap(), data);
    }

    /// Stored cells by `(disk, offset)`.
    type SealedCells = BTreeMap<(usize, u64), Vec<u8>>;

    /// What the per-cell seal (one `Vec` per cell through
    /// `encode_stripe_parities` and `append_footer`) stored for the
    /// first `stripes` stripes of `stream`: the reference the run-built
    /// seal is compared with, cell for cell and manifest for manifest.
    fn per_cell_seal(store: &ObjectStore, stream: &[u8], stripes: u64) -> (SealedCells, Vec<u128>) {
        let (scheme, es) = (store.scheme(), store.element_size());
        let layout = scheme.layout();
        let key = store.integrity_key();
        let dps = scheme.data_per_stripe();
        let mut cells = BTreeMap::new();
        let mut roots = Vec::new();
        for stripe in 0..stripes {
            let block = &stream[stripe as usize * dps * es..][..dps * es];
            let data: Vec<&[u8]> = block.chunks_exact(es).collect();
            let mut payloads: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
            for (t, d) in data.iter().enumerate() {
                let loc = layout.data_location(stripe * dps as u64 + t as u64);
                payloads.insert((loc.disk, loc.offset), d.to_vec());
            }
            for (loc, bytes) in scheme.encode_stripe_parities(stripe, &data) {
                payloads.insert((loc.disk, loc.offset), bytes);
            }
            let mut leaves = Vec::new();
            for row in 0..layout.rows_per_stripe() {
                for loc in layout.row_locations(stripe, row) {
                    let payload = &payloads[&(loc.disk, loc.offset)];
                    leaves.push(leaf_hash(&key, leaves.len() as u64, payload));
                }
            }
            roots.push(MerkleTree::from_leaves(&key, leaves).root());
            for ((disk, offset), mut cell) in payloads {
                append_footer(&key, offset, &mut cell);
                cells.insert((disk, offset), cell);
            }
        }
        (cells, roots)
    }

    #[test]
    fn run_built_seal_stores_what_the_per_cell_seal_stored() {
        for layout in [LayoutKind::EcFrm, LayoutKind::Standard, LayoutKind::Rotated] {
            for code in [
                Arc::new(RsCode::vandermonde(6, 3)) as Arc<dyn CandidateCode>,
                Arc::new(LrcCode::new(6, 2, 2)),
            ] {
                let scheme = Scheme::builder(code).layout(layout).build();
                let store = ObjectStore::new(scheme, 64);
                let stripe_bytes = store.stripe_bytes();
                // Three seals: several stripes at once, a stripe
                // completed by two puts, and the flush's padded tail.
                let lens = [
                    3 * stripe_bytes + 17,
                    stripe_bytes - 17,
                    2 * stripe_bytes + 5,
                ];
                let objects: Vec<Vec<u8>> = (0..3).map(|i| blob(lens[i], 40 + i as u8)).collect();
                for (i, data) in objects.iter().enumerate() {
                    store.put(&format!("o{i}"), data).unwrap();
                }
                store.flush();
                let mut stream = objects.concat();
                let stripes = store.stats().stripes;
                assert_eq!(stripes, 7, "{layout:?}");
                stream.resize(stripes as usize * stripe_bytes, 0);

                let (want, roots) = per_cell_seal(&store, &stream, stripes);
                let n = store.scheme().n_disks();
                let per_disk = store.scheme().layout().offsets_per_stripe();
                let stored: usize = (0..n).map(|d| store.array().disk(d).len()).sum();
                assert_eq!(stored, want.len(), "{layout:?}: nothing extra stored");
                for d in 0..n {
                    for o in 0..stripes * per_disk {
                        let got = store.array().disk(d).read(o);
                        assert_eq!(got.as_ref(), want.get(&(d, o)), "{layout:?}: ({d}, {o})");
                    }
                }
                for (s, root) in roots.iter().enumerate() {
                    assert_eq!(store.manifest(s as u64).unwrap().root(), *root);
                }
                let report = store.scrub().unwrap();
                assert!(report.is_clean(), "{layout:?}: {report:?}");
                for (i, data) in objects.iter().enumerate() {
                    assert_eq!(&store.get(&format!("o{i}")).unwrap(), data);
                }
            }
        }
    }

    #[test]
    fn a_seal_is_one_write_per_disk_and_one_run_in_it() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 32);
        let counter = |name: &str| store.recorder().snapshot().counters[name];
        let stripe_bytes = store.stripe_bytes();
        store.put("a", &blob(5 * stripe_bytes + 9, 1)).unwrap();
        assert_eq!(counter("write.rpcs"), 9);
        assert_eq!(counter("write.runs"), 9);
        assert_eq!(counter("write.batch_elems"), 5 * 27);
        store.flush();
        assert_eq!(counter("write.rpcs"), 18);
        assert_eq!(counter("write.batch_elems"), 6 * 27);
        // A whole-disk rebuild: one request to the one disk, and its 6
        // stripes × 3 rows of cells are consecutive: one run.
        store.fail_disk(3).unwrap();
        store.recover_disk(3).unwrap();
        assert_eq!(counter("write.rpcs"), 19);
        assert_eq!(counter("write.runs"), 19);
        assert_eq!(counter("write.batch_elems"), 6 * 27 + 18);
        assert_eq!(store.get("a").unwrap(), blob(5 * stripe_bytes + 9, 1));
    }

    #[test]
    fn small_object_needs_flush_and_gets_it() {
        let store = lrc_store();
        let data = blob(10, 2);
        store.put("tiny", &data).unwrap();
        // Not yet sealed...
        assert_eq!(store.stats().stripes, 0);
        // ...but get() flushes automatically.
        assert_eq!(store.get("tiny").unwrap(), data);
        assert!(store.stats().stripes >= 1);
    }

    #[test]
    fn multiple_objects_are_separate() {
        let store = lrc_store();
        let a = blob(5000, 3);
        let b = blob(777, 4);
        let c = blob(12_345, 5);
        store.put("a", &a).unwrap();
        store.put("b", &b).unwrap();
        store.put("c", &c).unwrap();
        assert_eq!(store.get("b").unwrap(), b);
        assert_eq!(store.get("a").unwrap(), a);
        assert_eq!(store.get("c").unwrap(), c);
        assert_eq!(store.stats().objects, 3);
    }

    #[test]
    fn duplicate_name_rejected() {
        let store = lrc_store();
        store.put("x", &[1, 2, 3]).unwrap();
        assert!(matches!(
            store.put("x", &[4]),
            Err(StoreError::AlreadyExists(_))
        ));
    }

    #[test]
    fn missing_object_not_found() {
        let store = lrc_store();
        assert!(matches!(store.get("nope"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn range_reads() {
        let store = lrc_store();
        let data = blob(4000, 6);
        store.put("r", &data).unwrap();
        assert_eq!(store.get_range("r", 0, 10).unwrap(), &data[0..10]);
        assert_eq!(store.get_range("r", 100, 500).unwrap(), &data[100..600]);
        assert_eq!(store.get_range("r", 3990, 10).unwrap(), &data[3990..4000]);
        assert_eq!(store.get_range("r", 0, 0).unwrap().len(), 0);
        assert!(matches!(
            store.get_range("r", 3990, 11),
            Err(StoreError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn degraded_read_under_every_single_disk_failure() {
        let store = lrc_store();
        let data = blob(20_000, 7);
        store.put("d", &data).unwrap();
        for disk in 0..10 {
            store.fail_disk(disk).unwrap();
            assert_eq!(store.get("d").unwrap(), data, "failed disk {disk}");
            store.heal_disk(disk).unwrap();
        }
    }

    #[test]
    fn degraded_read_under_triple_failure_lrc() {
        // (6,2,2) LRC tolerates any 3 disk failures.
        let store = lrc_store();
        let data = blob(8_000, 8);
        store.put("t", &data).unwrap();
        for disks in [[0, 1, 2], [3, 6, 9], [7, 8, 9]] {
            for &d in &disks {
                store.fail_disk(d).unwrap();
            }
            assert_eq!(store.get("t").unwrap(), data, "failed {disks:?}");
            for &d in &disks {
                store.heal_disk(d).unwrap();
            }
        }
    }

    #[test]
    fn too_many_failures_is_data_loss_not_garbage() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let data = blob(10_000, 9);
        store.put("x", &data).unwrap();
        store.get("x").unwrap(); // seal
        for d in [0, 1, 2, 3] {
            store.fail_disk(d).unwrap();
        }
        assert!(matches!(store.get("x"), Err(StoreError::DataLoss(_))));
        for d in [0, 1, 2, 3] {
            store.heal_disk(d).unwrap();
        }
        assert_eq!(store.get("x").unwrap(), data);
    }

    #[test]
    fn recover_disk_restores_contents() {
        let store = lrc_store();
        let data = blob(30_000, 10);
        store.put("big", &data).unwrap();
        store.flush();
        let before = store.array.disk(4).len();
        assert!(before > 0);
        // Lose disk 4 for real.
        store.fail_disk(4).unwrap();
        store.array.disk(4).wipe();
        let rebuilt = store.recover_disk(4).unwrap();
        assert_eq!(rebuilt, before);
        assert!(store.stats().failed_disks.is_empty());
        assert_eq!(store.get("big").unwrap(), data);
    }

    #[test]
    fn recovery_works_for_every_disk_and_scheme_form() {
        let code: Arc<dyn CandidateCode> = Arc::new(RsCode::vandermonde(6, 3));
        for kind in [LayoutKind::Standard, LayoutKind::Rotated, LayoutKind::EcFrm] {
            let scheme = Scheme::builder(code.clone()).layout(kind).build();
            let name = scheme.name();
            let store = ObjectStore::new(scheme, 32);
            let data = blob(9_000, 11);
            store.put("o", &data).unwrap();
            store.flush();
            for d in 0..6 {
                store.fail_disk(d).unwrap();
                store.array.disk(d).wipe();
                store.recover_disk(d).unwrap();
                assert_eq!(store.get("o").unwrap(), data, "{name} disk {d}");
            }
        }
    }

    #[test]
    fn recover_under_concurrent_failures() {
        // Rebuild disks one at a time while two others are still down —
        // the multi-failure path the failure_drill example exercises.
        let store = lrc_store();
        let data = blob(15_000, 13);
        store.put("m", &data).unwrap();
        store.flush();
        for d in [0usize, 4, 8] {
            store.fail_disk(d).unwrap();
            store.array.disk(d).wipe();
        }
        for d in [0usize, 4, 8] {
            store.recover_disk(d).unwrap();
        }
        assert!(store.stats().failed_disks.is_empty());
        assert_eq!(store.get("m").unwrap(), data);
    }

    #[test]
    fn recover_beyond_tolerance_is_data_loss() {
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.put("x", &blob(5_000, 14)).unwrap();
        store.flush();
        for d in [0usize, 1, 2, 3] {
            store.fail_disk(d).unwrap();
        }
        assert!(matches!(
            store.recover_disk(0),
            Err(StoreError::DataLoss(_))
        ));
    }

    #[test]
    fn repair_stripe_by_stripe_restores_a_wiped_disk() {
        let store = lrc_store();
        let data = blob(30_000, 15);
        store.put("big", &data).unwrap();
        store.flush();
        let elements = store.array.disk(4).len();
        store.fail_disk(4).unwrap();
        store.array.disk(4).wipe();
        let stripes = store.stats().stripes;
        let mut rebuilt = 0usize;
        for s in 0..stripes {
            let r = store.repair_stripe(4, s).unwrap();
            assert!(r.elements > 0);
            assert!(r.bytes_read > 0);
            // Rebuilt cells carry a fresh checksum footer each.
            assert_eq!(
                r.bytes_written,
                r.elements as u64 * (64 + FOOTER_LEN as u64)
            );
            rebuilt += r.elements;
        }
        assert_eq!(rebuilt, elements, "every lost element rebuilt");
        // Still planned around until healed — then fully back.
        assert!(store.get_with_stats("big").unwrap().1.degraded);
        store.heal_disk(4).unwrap();
        let (bytes, stats) = store.get_with_stats("big").unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
        assert_eq!(stats.repair_elements, 0);
    }

    #[test]
    fn repair_stripe_rejects_bad_coordinates() {
        let store = lrc_store();
        store.put("x", &blob(5_000, 16)).unwrap();
        store.flush();
        assert!(matches!(
            store.repair_stripe(10, 0),
            Err(StoreError::NoSuchDisk(10))
        ));
        assert!(matches!(
            store.repair_stripe(0, 999),
            Err(StoreError::NoSuchStripe(999))
        ));
    }

    #[test]
    fn suspect_lifecycle_clears_on_answer_and_dedups_hints() {
        use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let faulty: Vec<Arc<FaultyDisk>> = (0..scheme.n_disks())
            .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
            .collect();
        let backends: Vec<Arc<dyn DiskBackend>> = faulty
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        store.repair_queue().enable();
        let data = blob(30_000, 50);
        store.put("x", &data).unwrap();
        store.flush();

        // Disk 2 stops answering mid-workload: the read replans degraded
        // around it, marks it suspect, and stages repair hints.
        faulty[2].arm(FaultKind::Kill, 0);
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(stats.degraded);
        assert_eq!(stats.replans, 1, "exactly one mid-read replan");
        assert_eq!(store.array().suspects(), vec![2]);
        let staged = store.repair_queue().hint_count();
        assert!(staged > 0, "degraded read stages repair hints");

        // Re-reading the same range is another degraded read but must
        // not stage duplicate work.
        let (_, stats) = store.get_with_stats("x").unwrap();
        assert!(stats.degraded);
        assert_eq!(
            store.repair_queue().hint_count(),
            staged,
            "hints dedup across repeated degraded reads"
        );

        // The disk answers again (transient blip): the next read plans
        // normally, vouches for it, and the suspicion is withdrawn.
        faulty[2].clear();
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
        assert_eq!(stats.replans, 0);
        assert!(store.array().suspects().is_empty(), "suspicion withdrawn");
        // Hints are staging only — nothing was promoted to repair work.
        assert_eq!(store.repair_queue().depth(), 0);
    }

    #[test]
    fn stats_track_growth() {
        let store = lrc_store();
        let s0 = store.stats();
        assert_eq!(s0.objects, 0);
        assert_eq!(s0.logical_bytes, 0);
        store.put("a", &blob(100, 12)).unwrap();
        let s1 = store.stats();
        assert_eq!(s1.objects, 1);
        assert_eq!(s1.logical_bytes, 100);
        assert_eq!(s1.pending_bytes, 100);
        store.flush();
        let s2 = store.stats();
        assert_eq!(s2.pending_bytes, 0);
        assert!(s2.sealed_elements > 0);
    }

    #[test]
    fn invalid_disk_operations() {
        let store = lrc_store();
        assert!(matches!(
            store.fail_disk(10),
            Err(StoreError::NoSuchDisk(10))
        ));
        assert!(matches!(
            store.heal_disk(99),
            Err(StoreError::NoSuchDisk(99))
        ));
        assert!(matches!(
            store.recover_disk(10),
            Err(StoreError::NoSuchDisk(10))
        ));
    }

    #[test]
    fn store_over_file_backed_disks() {
        use ecfrm_sim::{DiskBackend, FileDisk, ThreadedArray};
        let dir = std::env::temp_dir().join(format!("ecfrm-store-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scheme = ecfrm_scheme(Arc::new(LrcCode::new(6, 2, 2)));
        let backends: Vec<Arc<dyn DiskBackend>> = (0..scheme.n_disks())
            .map(|d| {
                Arc::new(FileDisk::create(dir.join(format!("d{d}.bin")), 64 + FOOTER_LEN).unwrap())
                    as Arc<dyn DiskBackend>
            })
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        let data = blob(12_000, 30);
        store.put("f", &data).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        // Degraded read off real files.
        store.fail_disk(5).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        // Real loss: wipe the file, rebuild it.
        store.array().disk(5).wipe();
        store.recover_disk(5).unwrap();
        assert_eq!(store.get("f").unwrap(), data);
        assert!(store.scrub().unwrap().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_stats_reflect_degradation() {
        let store = lrc_store();
        let data = blob(10_000, 20);
        store.put("s", &data).unwrap();
        let (bytes, normal) = store.get_with_stats("s").unwrap();
        assert_eq!(bytes, data);
        assert!(!normal.degraded);
        assert_eq!(normal.repair_elements, 0);
        assert!((normal.cost - 1.0).abs() < 1e-12);
        assert!(normal.fetched_elements >= normal.requested_elements);

        store.fail_disk(0).unwrap();
        let (bytes, degraded) = store.get_with_stats("s").unwrap();
        assert_eq!(bytes, data);
        assert!(degraded.degraded);
        assert!(degraded.cost >= 1.0);
    }

    #[test]
    fn scrub_clean_then_detects_corruption() {
        let store = lrc_store();
        store.put("c", &blob(9_000, 21)).unwrap();
        store.flush();
        let report = store.scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.stripes_checked > 0);
        assert!(store.scrub_decode().unwrap().is_clean());

        // Flip a byte of one stored element.
        let victim = store.array().disk(3);
        let original = victim.read(0).expect("element exists");
        let mut tampered = original.clone();
        tampered[0] ^= 0xFF;
        victim.write(0, tampered);
        let report = store.scrub().unwrap();
        assert!(!report.is_clean());
        assert_eq!(
            report.corrupt_elements.len(),
            1,
            "merkle scrub localizes the single flipped byte: {report:?}"
        );
        assert!(!report.corrupt_groups.is_empty());
        // The decode cross-check sees the same stripe dirty (at group
        // granularity only).
        let decode_report = store.scrub_decode().unwrap();
        assert!(!decode_report.is_clean());
        assert!(decode_report.corrupt_elements.is_empty());

        // Restore and re-verify.
        victim.write(0, original);
        assert!(store.scrub().unwrap().is_clean());
    }

    #[test]
    fn merkle_scrub_localizes_flip_to_the_exact_element() {
        // Corrupt one byte of one known cell and require the scrub to
        // name exactly that (stripe, leaf) via the merkle path.
        let store = lrc_store();
        store.put("c", &blob(9_000, 33)).unwrap();
        store.flush();
        let disk = 7usize;
        let victim = store.array().disk(disk);
        let original = victim.read(0).expect("element exists");
        let mut tampered = original.clone();
        tampered[17] ^= 0x04;
        victim.write(0, tampered);

        let report = store.scrub().unwrap();
        assert_eq!(report.corrupt_elements.len(), 1, "{report:?}");
        let (stripe, leaf) = report.corrupt_elements[0];
        assert_eq!(stripe, 0);
        // The named leaf really is disk 7 offset 0 in layout order.
        let layout = store.scheme().layout();
        let n = store.scheme().code().n();
        let loc = layout.row_locations(0, leaf / n)[leaf % n];
        assert_eq!((loc.disk, loc.offset), (disk, 0));
        // And the manifest confirms the element once restored.
        let payload = &original[..store.element_size()];
        assert!(store
            .manifest(0)
            .unwrap()
            .verify_element(&store.integrity_key(), leaf, payload));
    }

    #[test]
    fn verify_on_read_treats_corruption_as_erasure() {
        use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk, ThreadedArray};
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let faulty: Vec<Arc<FaultyDisk>> = (0..scheme.n_disks())
            .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
            .collect();
        let backends: Vec<Arc<dyn DiskBackend>> = faulty
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        store.repair_queue().enable();
        let data = blob(30_000, 51);
        store.put("x", &data).unwrap();
        store.flush();

        // Disk 2 starts lying: every read comes back bit-flipped. The
        // read must detect it, replan degraded, and still return
        // byte-correct data.
        faulty[2].arm(FaultKind::FlipCorrupt, 0);
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data, "corrupted answers never reach the caller");
        assert!(stats.degraded);
        assert_eq!(stats.replans, 1);
        assert_eq!(store.array().suspects(), vec![2]);
        assert!(store.repair_queue().hint_count() > 0, "stripe hints staged");
        let snap = store.recorder().snapshot();
        assert!(*snap.counters.get("integrity.verify_fail").unwrap() > 0);

        // The probe sees through the lie too: corrupt answers must not
        // clear the suspicion.
        assert!(!store.probe_disk(2));
        // Honest again: probe passes, reads are clean and normal.
        faulty[2].clear();
        assert!(store.probe_disk(2));
        let (bytes, stats) = store.get_with_stats("x").unwrap();
        assert_eq!(bytes, data);
        assert!(!stats.degraded);
    }

    #[test]
    fn verify_toggle_and_manifest_exposure() {
        let store = lrc_store();
        assert!(store.verify_reads());
        store.set_verify_reads(false);
        assert!(!store.verify_reads());
        let data = blob(9_000, 52);
        store.put("x", &data).unwrap();
        // Unverified reads still strip footers and return exact bytes.
        assert_eq!(store.get("x").unwrap(), data);
        store.set_verify_reads(true);
        assert_eq!(store.get("x").unwrap(), data);
        // Every sealed stripe has a manifest; out-of-range is None.
        let stripes = store.stats().stripes;
        assert!(stripes > 0);
        for s in 0..stripes {
            assert!(store.manifest(s).is_some());
        }
        assert!(store.manifest(stripes).is_none());
    }

    #[test]
    fn scrub_counts_missing_on_failed_disk() {
        let store = lrc_store();
        store.put("m", &blob(5_000, 22)).unwrap();
        store.flush();
        store.fail_disk(1).unwrap();
        let report = store.scrub().unwrap();
        assert!(report.missing_elements > 0);
        assert!(report.corrupt_groups.is_empty());
    }

    #[test]
    fn degraded_reads_reuse_decoder_cache() {
        let store = lrc_store();
        let data = blob(20_000, 23);
        store.put("hot", &data).unwrap();
        store.fail_disk(2).unwrap();
        for _ in 0..10 {
            assert_eq!(store.get("hot").unwrap(), data);
        }
        let (hits, misses) = store.decoder_cache_stats();
        assert!(misses > 0, "cache must have been exercised");
        assert!(
            hits > misses * 3,
            "repeated degraded reads should mostly hit: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn get_many_parallel_matches_serial() {
        let store = lrc_store();
        let objects: Vec<(String, Vec<u8>)> = (0..20)
            .map(|i| (format!("o{i}"), blob(500 * (i + 1), i as u8)))
            .collect();
        for (n, d) in &objects {
            store.put(n, d).unwrap();
        }
        let names: Vec<&str> = objects.iter().map(|(n, _)| n.as_str()).collect();
        let got = store.get_many(&names);
        for ((_, want), g) in objects.iter().zip(got) {
            assert_eq!(g.unwrap(), &want[..]);
        }
        // Errors are per-object, not batch-fatal.
        let got = store.get_many(&["o1", "missing", "o2"]);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(StoreError::NotFound(_))));
        assert!(got[2].is_ok());
    }

    #[test]
    fn read_issues_one_rpc_per_touched_disk() {
        // (6,3) EC-FRM over 9 disks: a full-stripe read touches every
        // data element. The batched path must issue at most one
        // per-disk request per disk per read round.
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        let data = blob(30_000, 40);
        store.put("x", &data).unwrap();
        store.flush();
        let before = store
            .recorder()
            .snapshot()
            .counters
            .get("read.rpcs")
            .copied()
            .unwrap_or(0);
        assert_eq!(store.get("x").unwrap(), data);
        let snap = store.recorder().snapshot();
        let rpcs = snap.counters.get("read.rpcs").copied().unwrap() - before;
        assert!(
            rpcs <= store.scheme().n_disks() as u64,
            "one read issued {rpcs} per-disk requests over {} disks",
            store.scheme().n_disks()
        );
        assert!(rpcs >= 1);
        let elems = snap.counters.get("read.batch_elems").copied().unwrap();
        assert!(elems as usize >= data.len() / 64, "batch_elems: {elems}");
    }

    #[test]
    fn sequential_layout_reads_coalesce_into_runs() {
        // EC-FRM places data sequentially across all disks, so a read
        // spanning two data rows hands (at least) the wrap-around disks
        // a strictly contiguous per-disk offset run. (Full-object reads
        // cross parity rows, which punch periodic holes in the per-disk
        // offsets — those batches stay `BatchGet`.)
        let store = ObjectStore::new(ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3))), 64);
        store.put("x", &blob(30_000, 41)).unwrap();
        store.flush();
        // Elements 0..11: every disk serves offset 0, the first two also
        // serve offset 1 → two [0, 1] runs.
        store.get_range("x", 0, 700).unwrap();
        let snap = store.recorder().snapshot();
        let runs = snap
            .counters
            .get("read.coalesced_runs")
            .copied()
            .unwrap_or(0);
        assert!(
            runs >= 2,
            "sequential layout produced {runs} coalesced runs, expected ≥ 2"
        );
    }

    #[test]
    fn count_coalesced_runs_rule() {
        // One contiguous run per disk of ≥2 elements counts; gaps,
        // singletons, and descending order do not.
        assert_eq!(count_coalesced_runs(&[]), 0);
        assert_eq!(count_coalesced_runs(&[(0, 5)]), 0);
        assert_eq!(count_coalesced_runs(&[(0, 5), (0, 6), (0, 7)]), 1);
        assert_eq!(count_coalesced_runs(&[(0, 5), (0, 7)]), 0);
        assert_eq!(count_coalesced_runs(&[(0, 6), (0, 5)]), 0);
        assert_eq!(
            count_coalesced_runs(&[(0, 0), (1, 3), (0, 1), (1, 4), (2, 9)]),
            2
        );
    }

    #[test]
    fn recorder_reports_kernel_backend() {
        let store = lrc_store();
        let snap = store.recorder().snapshot();
        let expected = format!("kernel_backend.{}", ecfrm_gf::kernel::active().name);
        assert!(
            snap.flatten()
                .iter()
                .any(|(name, v)| name == &expected && *v == 1),
            "snapshot must carry {expected}"
        );
    }

    #[test]
    fn list_and_meta() {
        let store = lrc_store();
        store.put("a", &[1]).unwrap();
        store.put("b", &[2, 3]).unwrap();
        let mut names = store.list();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(store.meta("b").unwrap().len, 2);
        assert!(store.meta("zz").is_none());
    }
}
