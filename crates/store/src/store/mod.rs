//! The [`ObjectStore`]: append-only, full-stripe-write, read-optimised.
//!
//! One engine in four parts over one piece of shared state:
//!
//! * `seal` — append to the logical stream, encode and write out full
//!   stripes (the writers of the state);
//! * `read` — plan, fetch, verify, decode;
//! * `rebuild` — reconstruct what a disk stores, stripe by stripe;
//! * `scrub` — check stored cells against what was sealed.
//!
//! The stream's state is `StripeState` behind one mutex. The writers —
//! append and seal — lock it where they change it; everything
//! that only reads it goes through `ObjectStore::with_state`, and the
//! read, scrub and rebuild paths through the `SealedView` built on it.
//! Which disks are down is not in it: that is the store's
//! [`DiskTable`], one row per disk under a lock of its own.

mod read;
mod rebuild;
mod scrub;
mod seal;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_core::{ReadPlan, Scheme};
use ecfrm_integrity::{verify_footer, HashKey};
use ecfrm_obs::{Counter, DiskBoard, Gauge, Histogram, Recorder};
use ecfrm_sim::{ThreadedArray, WriteShape};
use ecfrm_util::Mutex;

use crate::error::StoreError;
use crate::meta::{FetchRound, Outcome, ReadStats, StoreStats, StripeManifest, StripeRepair};
use crate::repair::{DiskTable, Settled};

pub use read::ReadOpts;

/// Pre-resolved instrument handles for the read hot path: one registry
/// lookup each at construction, then pure atomics per read.
struct StoreMetrics {
    reads: Counter,
    degraded_reads: Counter,
    replans: Counter,
    fetched_elements: Counter,
    repair_elements: Counter,
    /// Over every read round: the per-disk requests (for remote
    /// backends, the logical RPCs), their cells, and those of ≥ 2 cells
    /// in one run — what a remote backend ships as a one-run `Read`.
    rpcs: Counter,
    batch_elems: Counter,
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
    /// elements.
    repair_wire_bytes: Counter,
    /// Repair source elements read from a disk outside the failed
    /// disk's failure domain (rack). Zero whenever an intra-domain plan
    /// exists.
    cross_domain_reads: Counter,
    /// Stripes repaired via server-side `CombineRange` partial sums.
    combined_stripes: Counter,
    /// Every rebuilt stripe, whichever driver popped it: the stripe, its
    /// rebuilt bytes written back, its source bytes read, its time.
    stripes_done: Counter,
    repair_bytes: Counter,
    repair_read_bytes: Counter,
    repair_us: Histogram,
    /// Every settled rebuild: disks healed, the last one's detection →
    /// healed time, and the stripes of disks given up on.
    disks_restored: Counter,
    redundancy_ms: Gauge,
    abandoned_stripes: Counter,
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
            stripes_done: recorder.counter("repair.stripes_done"),
            repair_bytes: recorder.counter("repair.bytes"),
            repair_read_bytes: recorder.counter("repair.read_bytes"),
            repair_us: recorder.histogram("repair_us"),
            disks_restored: recorder.counter("repair.disks_restored"),
            redundancy_ms: recorder.gauge("repair.time_to_redundancy_ms"),
            abandoned_stripes: recorder.counter("repair.abandoned_stripes"),
            plan_us: recorder.histogram("plan_us"),
            read_us: recorder.histogram("read_us"),
            verify_us: recorder.histogram("verify_us"),
            disk_load: recorder.disk_board("disk_load", n_disks),
        }
    }

    /// Fold one read into the read counters, from its record: every
    /// round's requests, however it ended, and — for a read that returned
    /// its data, with the plan it finished on — the read itself.
    fn note_read(&self, stats: &ReadStats, done: Option<&ReadPlan>, element_size: usize) {
        let asked = || stats.rounds.iter().flat_map(|r| &r.disks).map(|(a, _)| a);
        self.rpcs.add(asked().count() as u64);
        self.batch_elems.add(asked().map(|a| a.cells as u64).sum());
        let one_run = asked().filter(|a| a.cells >= 2 && a.runs == 1).count();
        self.coalesced_runs.add(one_run as u64);
        let Some(plan) = done else { return };
        self.reads.inc();
        if stats.degraded {
            self.degraded_reads.inc();
        }
        if stats.replans() > 0 {
            self.replans.add(stats.replans() as u64);
        }
        self.fetched_elements.add(stats.fetched_elements as u64);
        self.repair_elements.add(stats.repair_elements as u64);
        let verify: Duration = stats.rounds.iter().map(|r| r.verify).sum();
        if verify > Duration::ZERO {
            self.verify_us.record_duration(verify);
        }
        for f in &plan.fetches {
            self.disk_load.record(f.loc.disk, 1, element_size as u64);
        }
        self.read_us.record_duration(stats.elapsed);
    }

    /// Fold one rebuilt stripe into the repair counters.
    fn note_repair(&self, repair: &StripeRepair, took: Duration) {
        self.stripes_done.inc();
        self.repair_bytes.add(repair.bytes_written);
        self.repair_read_bytes.add(repair.bytes_read);
        self.repair_wire_bytes.add(repair.bytes_read);
        self.repair_us.record_duration(took);
    }

    /// Count one settled rebuild: a healed disk and its time to full
    /// redundancy, or the stripes of a disk given up on.
    fn note_settled(&self, settled: Settled) {
        match settled {
            Settled::Heal(since) => {
                self.redundancy_ms.set(since.elapsed().as_millis() as i64);
                self.disks_restored.inc();
            }
            Settled::GaveUp(stripes) => self.abandoned_stripes.add(stripes),
        }
    }

    /// Tally one array-level write, as the array dispatched it.
    fn note_write(&self, shape: WriteShape) {
        self.write_rpcs.add(shape.rpcs as u64);
        self.write_runs.add(shape.runs as u64);
        self.write_elems.add(shape.cells as u64);
    }
}

/// Everything the store knows about its stream and its stripes. One
/// mutex guards it; see the [module docs](self) for who locks it where.
struct StripeState {
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
}

/// What a read, a scrub or a rebuild needs to know before it touches a
/// disk: how far the stream is sealed and which disks to plan around.
struct SealedView {
    sealed_elements: u64,
    stripes: u64,
    down: Vec<usize>,
}

/// An erasure-coded extent store over a threaded disk array.
///
/// Everything written is an extent ([`ObjectMeta`](crate::ObjectMeta))
/// of one append-only logical stream; the store keeps no names —
/// mapping names to extents is the [`FrontDoor`](crate::FrontDoor)'s
/// job. The stream is chunked into fixed-size elements; once a full
/// stripe of data elements accumulates it is encoded (one stripe after
/// the other, on the appending thread) and written out. Reads plan
/// through the scheme — normal or degraded — and execute on the array's
/// worker threads. Every cell a read touches is verified against its
/// checksum footer as its disk answers, and a mismatch is treated
/// exactly like an erasure. When a disk stops answering mid-read (a
/// remote shard timing out or dying), the read falls back to a degraded
/// plan around the suspect disk instead of failing.
pub struct ObjectStore {
    scheme: Scheme,
    element_size: usize,
    array: ThreadedArray,
    state: Mutex<StripeState>,
    /// Observability registry: read/plan/decode latency histograms,
    /// per-disk load board, read counters. Snapshot via
    /// [`ObjectStore::recorder`].
    recorder: Recorder,
    metrics: StoreMetrics,
    /// Each disk's state — up, suspect, failed, rebuilding, given up on
    /// — and what a lost one still owes. Reads report into it and hint
    /// the stripes they touched, so hot stripes regain redundancy first.
    disks: Arc<DiskTable>,
    /// The keyed-hash key every element footer and merkle manifest is
    /// computed under.
    key: HashKey,
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
        let recorder = Recorder::new();
        let metrics = StoreMetrics::new(&recorder, scheme.n_disks());
        // Engine gauges, transport totals and the disks' states: read at
        // snapshot time.
        array.observe(&recorder);
        let disks = DiskTable::new(scheme.n_disks());
        let table = Arc::clone(&disks);
        recorder.observe(move |snap| {
            let suspect = table.suspect_disks().len() as i64;
            snap.gauges.insert("disks.suspect".into(), suspect);
            snap.gauges
                .insert("disks.down".into(), table.down().len() as i64);
            let rebuilding = table.rebuilding().len() as i64;
            snap.gauges.insert("disks.rebuilding".into(), rebuilding);
            snap.gauges
                .insert("disks.repair_todo".into(), table.depth() as i64);
        });
        // Record which GF region-kernel backend this process dispatched
        // to (avx2/ssse3/neon/scalar), so stats snapshots show
        // what the encode/decode numbers were produced with.
        recorder
            .counter(&format!(
                "kernel_backend.{}",
                ecfrm_gf::kernel::active().name
            ))
            .inc();
        Self {
            recorder,
            metrics,
            disks,
            scheme,
            element_size,
            array,
            state: Mutex::new(StripeState {
                pending: Vec::new(),
                logical_len: 0,
                sealed_elements: 0,
                stripes: 0,
                manifests: Vec::new(),
            }),
            key: HashKey::DEFAULT,
        }
    }

    /// The one place [`StripeState`] is locked for reading.
    fn with_state<R>(&self, f: impl FnOnce(&StripeState) -> R) -> R {
        f(&self.state.lock())
    }

    /// The state the read, scrub and rebuild paths consult, copied out
    /// so none of them holds a lock across I/O.
    fn sealed(&self) -> SealedView {
        let (sealed_elements, stripes) = self.with_state(|s| (s.sealed_elements, s.stripes));
        SealedView {
            sealed_elements,
            stripes,
            down: self.disks.down(),
        }
    }

    /// The one way the store takes cells off its disks, for reads and
    /// repairs alike: read `addrs`, one vectored request per disk, check
    /// every cell against its footer as its disk answers, and hand each
    /// intact payload, footer stripped, to `keep` with its index into
    /// `addrs`. Returns the round's record — a disk owes a cell that came
    /// back absent or failed its footer, which is exactly an erasure —
    /// and tells the disk table who answered and who owes.
    fn fetch_verified(
        &self,
        addrs: &[(usize, u64)],
        mut keep: impl FnMut(usize, Vec<u8>),
    ) -> FetchRound {
        let mut batch = self.array.read_batch_streaming(addrs);
        // A disk whose worker dies mid-batch never answers: it stays silent.
        let silent = |&a| (a, Outcome::Silent);
        let mut disks: Vec<_> = batch.asked().iter().map(silent).collect();
        let mut verify = Duration::ZERO;
        while let Some(reply) = batch.next_reply() {
            let mut outcome = Outcome::Verified;
            for (tag, bytes) in reply.items {
                let Some(mut b) = bytes else {
                    outcome = Outcome::Owes;
                    continue;
                };
                let t = Instant::now();
                let ok = verify_footer(&self.key, addrs[tag].1, &b).is_some();
                verify += t.elapsed();
                if !ok {
                    self.metrics.verify_fail.inc();
                    outcome = Outcome::Owes;
                    continue;
                }
                b.truncate(self.element_size);
                keep(tag, b);
            }
            if let Some(d) = disks.iter_mut().find(|(a, _)| a.disk == reply.disk) {
                d.1 = outcome;
            }
        }
        let round = FetchRound { disks, verify };
        let asked = round.disks.iter().map(|(a, _)| a.disk);
        self.disks.report(asked, &round.bad().collect());
        round
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
    /// formed one contiguous run — shipped as a one-run `Read` on
    /// remote backends), `write.rpcs` / `write.runs` /
    /// `write.batch_elems` (their mirrors for seals and repair
    /// write-backs: per-disk vectored writes, the runs of consecutive
    /// cells in them, the cells), `integrity.verify_fail` (elements whose
    /// checksum or merkle path failed), `scrub.elements_verified`,
    /// `repair.wire_bytes` (bytes the rebuilding client ingested during
    /// stripe repair), `repair.cross_domain_reads` (repair sources read
    /// across failure domains), `repair.combined_stripes` (stripes
    /// repaired via server-side `CombineRange`), `repair.stripes_done`,
    /// `repair.bytes` / `repair.read_bytes` (rebuilt bytes written, source
    /// bytes read), `repair.disks_restored`, `repair.abandoned_stripes`
    /// — every rebuild, whichever driver ran it —
    /// `net.*` (the shard clients' transport totals — with the `io.*`
    /// gauges, the array's [source](ecfrm_sim::ThreadedArray::observe),
    /// read at snapshot time). Gauges: `repair.time_to_redundancy_ms`
    /// (the last healed disk's detection → healed), and `disks.suspect`,
    /// `disks.down`, `disks.rebuilding` and `disks.repair_todo` (stripe
    /// rebuilds still owed), read off the disk table at snapshot time.
    /// Histograms (µs): `plan_us`, `read_us`, `decode_us`, `verify_us`
    /// (checksum verification time per read / per scrubbed stripe),
    /// `repair_us` (per rebuilt stripe). Disk board: `disk_load`
    /// (planned fetches per disk).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Element size in bytes.
    pub fn element_size(&self) -> usize {
        self.element_size
    }

    /// The store's per-disk table (drained by a
    /// [`RepairManager`](crate::RepairManager) and by
    /// [`Self::recover_disk`]; degraded reads feed it priority hints).
    pub fn disks(&self) -> &DiskTable {
        &self.disks
    }

    /// The keyed-hash key element footers and merkle manifests are
    /// computed under (a combined repair ships it to the shards, which
    /// check each source cell before it joins a sum).
    pub fn integrity_key(&self) -> HashKey {
        self.key
    }

    /// The integrity manifest of `stripe`, if sealed.
    pub fn manifest(&self, stripe: u64) -> Option<StripeManifest> {
        self.with_state(|s| s.manifests.get(stripe as usize).cloned())
    }

    /// Direct handle to the underlying array (wipes, corruption drills,
    /// inspection).
    pub fn array(&self) -> &ThreadedArray {
        &self.array
    }

    /// Mark a disk failed in the disk table: subsequent reads plan
    /// around it. A disk already planned around (rebuilding, given up
    /// on) stays as it is. Nothing is sent to the disk itself.
    pub fn fail_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        self.disks.fail(disk);
        Ok(())
    }

    /// Return a disk to service from any state (transient failure
    /// resolved with no data loss — the paper's >90% case); what a
    /// rebuild of it still owed is dropped. Like [`Self::fail_disk`], a
    /// change to the disk table only.
    pub fn heal_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.scheme.n_disks() {
            return Err(StoreError::NoSuchDisk(disk));
        }
        self.disks.heal(disk);
        Ok(())
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> StoreStats {
        let (failed_disks, suspect_disks) = (self.disks.down(), self.disks.suspect_disks());
        self.with_state(|s| StoreStats {
            logical_bytes: s.logical_len,
            sealed_elements: s.sealed_elements,
            stripes: s.stripes,
            pending_bytes: s.pending.len(),
            failed_disks,
            suspect_disks,
        })
    }
}

#[cfg(test)]
mod testkit {
    //! What the four parts' tests share.

    use std::sync::Arc;

    use ecfrm_codes::{CandidateCode, LrcCode, RsCode};
    use ecfrm_core::{LayoutKind, Scheme};
    use ecfrm_sim::{DiskBackend, FaultyDisk, MemDisk, ThreadedArray};

    use super::ObjectStore;

    pub fn ecfrm_scheme(code: Arc<dyn CandidateCode>) -> Scheme {
        Scheme::builder(code).layout(LayoutKind::EcFrm).build()
    }

    pub fn lrc_store() -> ObjectStore {
        ObjectStore::new(ecfrm_scheme(Arc::new(LrcCode::new(6, 2, 2))), 64)
    }

    /// An RS(6,3) EC-FRM store over fault-injectable disks.
    pub fn faulty_store() -> (ObjectStore, Vec<Arc<FaultyDisk>>) {
        let scheme = ecfrm_scheme(Arc::new(RsCode::vandermonde(6, 3)));
        let faulty: Vec<Arc<FaultyDisk>> = (0..scheme.n_disks())
            .map(|_| FaultyDisk::wrap(Arc::new(MemDisk::new())))
            .collect();
        let backends: Vec<Arc<dyn DiskBackend>> = faulty
            .iter()
            .map(|f| Arc::clone(f) as Arc<dyn DiskBackend>)
            .collect();
        let store = ObjectStore::with_array(scheme, 64, ThreadedArray::from_backends(backends));
        (store, faulty)
    }

    pub fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 31 + seed as usize * 7 + 1) % 256) as u8)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{blob, lrc_store};

    #[test]
    fn engine_gauges_are_fresh_without_a_read() {
        let store = lrc_store();
        store.append(&blob(10_000, 2));
        store.flush();
        let io = store.array().io_stats().snapshot();
        assert!(io.submitted > 0, "the seal wrote through the engine");
        let snap = store.recorder().snapshot();
        assert_eq!(snap.counters["reads"], 0);
        assert_eq!(snap.gauges["io.submitted"], io.submitted as i64);
        assert_eq!(snap.gauges["io.completed"], io.completed as i64);
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
}
