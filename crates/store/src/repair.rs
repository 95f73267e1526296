//! Background repair: rate-limited parallel reconstruction of lost
//! disks while foreground reads keep flowing.
//!
//! [`ObjectStore::recover_disk`](crate::ObjectStore::recover_disk)
//! drives the rebuild engine
//! ([`ObjectStore::repair_stripe`](crate::ObjectStore::repair_stripe))
//! over every stripe in one blocking call; production clusters repair
//! *online*. This module drives the same engine as a subsystem:
//!
//! * **Detection** — a detector thread watches the array's suspect set
//!   (fed by dead workers and by reads that hit unresponsive disks),
//!   probes each suspect, and either clears it (the disk answered — a
//!   transient) or promotes it to *lost* and starts reconstruction. Disks
//!   already marked failed on the store are adopted the same way.
//! * **Queueing** — what a lost disk still owes is one record in the
//!   store's [`RepairQueue`]: the stripes left to rebuild, each once, with
//!   the ones degraded foreground reads actually touched taken first, so
//!   hot data regains redundancy first. The record outlives the manager,
//!   so a new one resumes where the last stopped.
//! * **Reconstruction** — a small worker pool drains the queue, one
//!   `repair_stripe` per stripe: helpers pre-sum server-side where every
//!   one of them is a dialable shard, otherwise one vectored request per
//!   source disk and the SIMD decode kernels; either way the rebuilt
//!   elements are written back.
//! * **Backpressure** — a token-bucket rate limiter bounds repair
//!   traffic (bytes/second of source reads + rebuilt writes) so
//!   foreground reads keep a bounded p99 while repair proceeds; leave it
//!   unset to rebuild at full speed.
//! * **Completion** — when every stripe of a disk is rebuilt the disk is
//!   healed, the planner stops planning around it, and the
//!   time-to-full-redundancy lands in the metrics registry.
//!
//! ```
//! use std::sync::Arc;
//! use ecfrm_codes::RsCode;
//! use ecfrm_core::Scheme;
//! use ecfrm_store::{ObjectStore, RepairConfig, RepairManager};
//!
//! let store = Arc::new(ObjectStore::new(
//!     Scheme::builder(Arc::new(RsCode::vandermonde(6, 3)))
//!         .layout(ecfrm_core::LayoutKind::EcFrm)
//!         .build(),
//!     512,
//! ));
//! store.put("obj", &vec![7u8; 30_000]).unwrap();
//! store.flush();
//!
//! // Lose a disk for real, then let the background pipeline restore it.
//! store.fail_disk(2).unwrap();
//! store.array().disk(2).wipe();
//! let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
//! assert!(mgr.wait_idle(std::time::Duration::from_secs(10)));
//! assert!(store.stats().failed_disks.is_empty());
//! assert_eq!(store.get("obj").unwrap(), vec![7u8; 30_000]);
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecfrm_obs::{Counter, Gauge, Histogram, Recorder};
use ecfrm_sim::DiskBackend;
use ecfrm_util::{Mutex, TokenBucket};

use crate::store::ObjectStore;

/// Tries per stripe before the queue gives up on it (a failed try goes
/// back among the owed stripes, so transient source outages retry).
const MAX_TRIES: u32 = 5;

/// How often the detector looks, and how long an idle worker sleeps
/// before it looks again.
const TICK: Duration = Duration::from_millis(2);

/// Everything one disk still owes, from the first degraded read that
/// hinted it to the tick that heals it or gives up on it.
#[derive(Debug, Default)]
struct DiskRepair {
    /// Stripes degraded reads touched: staged while the disk is only
    /// suspected or failed (so a suspicion the foreground withdraws
    /// never causes repair traffic), taken first once it is promoted.
    hot: BTreeSet<u64>,
    /// When the disk was promoted to lost (time-to-full-redundancy
    /// starts here); `None` while only hints are staged.
    since: Option<Instant>,
    /// Stripes `0..sealed_to` are owed; stripes sealed since promotion
    /// join once the rest is done.
    sealed_to: u64,
    /// Owed stripes neither hot nor taken. It is also the dedup: a
    /// stripe in flight or rebuilt is in neither set.
    todo: BTreeSet<u64>,
    /// Where the next `todo` pop starts: a stripe whose try failed goes
    /// back behind it, so the rest of the pass comes first.
    next: u64,
    in_flight: usize,
    tries: HashMap<u64, u32>,
    abandoned: u64,
    /// Out of tries: the disk stays failed and is not promoted again
    /// until it leaves the failed set (otherwise the detector would
    /// promote-abandon-promote forever).
    gave_up: bool,
}

impl DiskRepair {
    fn promoted(&self) -> bool {
        self.since.is_some()
    }

    /// Stripes queued or in flight.
    fn owed(&self) -> usize {
        if self.promoted() {
            self.hot.len() + self.todo.len() + self.in_flight
        } else {
            0
        }
    }

    /// Take the next stripe from `hot`, or from `todo` at the cursor.
    fn take(&mut self, hot: bool) -> Option<u64> {
        let stripe = if hot {
            self.hot.pop_first()?
        } else {
            let s = *self
                .todo
                .range(self.next..)
                .next()
                .or_else(|| self.todo.first())?;
            self.todo.remove(&s);
            self.next = s + 1;
            s
        };
        self.in_flight += 1;
        Some(stripe)
    }
}

/// What a detector tick settled for a promoted disk that has nothing
/// queued or in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// Every owed stripe is rebuilt: heal the disk, then
    /// [`RepairQueue::forget`] it. Carries the promotion instant.
    Heal(Instant),
    /// This many stripes ran out of tries; the disk is given up on.
    GaveUp(u64),
}

/// One record per disk of what it still owes, under one lock.
///
/// The store owns the queue, so degraded reads can hint into it with no
/// manager attached (no-ops until a [`RepairManager`] enables it), and
/// the manager drains it. A record lives until its disk heals, which is
/// what makes pausing/resuming — or replacing the manager mid-repair —
/// safe: no stripe is rebuilt twice.
#[derive(Debug, Default)]
pub struct RepairQueue {
    enabled: AtomicBool,
    disks: Mutex<BTreeMap<usize, DiskRepair>>,
}

impl RepairQueue {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Hints are ignored until a manager attaches, so a store without
    /// background repair never accumulates queue state.
    pub(crate) fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Record that a degraded read touched `stripes` with `disks` down —
    /// a priority hint: if a disk turns out to be lost, those stripes
    /// repair before cold ones. One lock for the whole read.
    pub fn hint(&self, disks: impl IntoIterator<Item = usize>, stripes: Range<u64>) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        let mut records = self.disks.lock();
        for disk in disks {
            let r = records.entry(disk).or_default();
            if r.gave_up {
                continue;
            }
            for s in stripes.clone() {
                // Once promoted, only a stripe still owed moves up.
                if !r.promoted() || r.todo.remove(&s) {
                    r.hot.insert(s);
                }
            }
        }
    }

    /// Staged hints not yet promoted into repair work.
    pub fn hint_count(&self) -> usize {
        let records = self.disks.lock();
        let staged = records.values().filter(|r| !r.promoted());
        staged.map(|r| r.hot.len()).sum()
    }

    /// Stripes queued or in flight.
    pub fn depth(&self) -> usize {
        self.disks.lock().values().map(DiskRepair::owed).sum()
    }

    /// Disks under reconstruction.
    fn active(&self) -> Vec<usize> {
        let records = self.disks.lock();
        let active = records.iter().filter(|(_, r)| r.promoted());
        active.map(|(&d, _)| d).collect()
    }

    /// Promote `disk` to lost, owing stripes `0..sealed` with its staged
    /// hints first. False, and nothing changes, when it is already
    /// promoted or was given up on.
    fn promote(&self, disk: usize, sealed: u64) -> bool {
        let mut records = self.disks.lock();
        let r = records.entry(disk).or_default();
        if r.promoted() || r.gave_up {
            return false;
        }
        let mut hot = std::mem::take(&mut r.hot);
        hot.retain(|&s| s < sealed);
        *r = DiskRepair {
            todo: (0..sealed).filter(|s| !hot.contains(s)).collect(),
            hot,
            since: Some(Instant::now()),
            sealed_to: sealed,
            ..DiskRepair::default()
        };
        true
    }

    /// Next stripe to repair: every disk's hot stripes first.
    fn pop(&self) -> Option<(usize, u64)> {
        let mut records = self.disks.lock();
        for hot in [true, false] {
            for (&d, r) in records.iter_mut().filter(|(_, r)| r.promoted()) {
                if let Some(s) = r.take(hot) {
                    return Some((d, s));
                }
            }
        }
        None
    }

    /// Report how a try at a popped stripe ended. A failed one is owed
    /// again until it has had [`MAX_TRIES`], then abandoned (and its
    /// disk can never finish repairing until it is forgotten).
    fn finish(&self, disk: usize, stripe: u64, ok: bool) {
        let mut records = self.disks.lock();
        let Some(r) = records.get_mut(&disk) else {
            return;
        };
        r.in_flight -= 1;
        if ok {
            r.tries.remove(&stripe);
            return;
        }
        let tries = r.tries.entry(stripe).or_insert(0);
        *tries += 1;
        if *tries < MAX_TRIES {
            r.todo.insert(stripe);
        } else {
            r.tries.remove(&stripe);
            r.abandoned += 1;
        }
    }

    /// One detector tick over every record. Staged hints of a disk that
    /// is neither `failed` nor suspect go (the foreground vouched for it
    /// again), and so does a gave-up mark once its disk leaves `failed`.
    /// A promoted disk with nothing queued or in flight is settled: its
    /// `todo` is extended to the stripes sealed since (`sealed` is the
    /// store's count now), or, with none, it is given up on if a stripe
    /// ran out of tries and healed otherwise.
    fn settle(
        &self,
        failed: &BTreeSet<usize>,
        suspects: &[usize],
        sealed: u64,
    ) -> Vec<(usize, Settled)> {
        let mut records = self.disks.lock();
        records.retain(|d, r| {
            r.promoted() || failed.contains(d) || (!r.gave_up && suspects.contains(d))
        });
        let mut settled = Vec::new();
        for (&d, r) in records.iter_mut() {
            let Some(since) = r.since else { continue };
            if r.owed() > 0 {
                continue;
            }
            if r.abandoned > 0 {
                settled.push((d, Settled::GaveUp(r.abandoned)));
                *r = DiskRepair {
                    gave_up: true,
                    ..DiskRepair::default()
                };
            } else if sealed > r.sealed_to {
                r.todo.extend(r.sealed_to..sealed);
                r.sealed_to = sealed;
            } else {
                settled.push((d, Settled::Heal(since)));
            }
        }
        settled
    }

    /// Drop `disk`'s record: it healed, or a suspicion was withdrawn
    /// before repair started. A later loss starts a clean record.
    fn forget(&self, disk: usize) {
        self.disks.lock().remove(&disk);
    }

    /// No disk under reconstruction, and every one of `failed` given up
    /// on.
    fn idle(&self, failed: &[usize]) -> bool {
        let records = self.disks.lock();
        records.values().all(|r| !r.promoted())
            && failed
                .iter()
                .all(|d| records.get(d).is_some_and(|r| r.gave_up))
    }
}

/// Factory for replacement backends: given a lost disk's index, supply
/// the empty disk to re-register in its slot (see
/// [`ecfrm_sim::ThreadedArray::replace_disk`]).
pub type Replacer = Arc<dyn Fn(usize) -> Arc<dyn DiskBackend> + Send + Sync>;

/// Tuning for a [`RepairManager`].
#[derive(Clone)]
pub struct RepairConfig {
    /// Concurrent stripe-repair workers. More workers rebuild faster but
    /// press harder on the surviving disks. Default 2.
    pub workers: usize,
    /// Token-bucket rate limit on repair traffic, in bytes/second of
    /// source reads + rebuilt writes. `None` repairs at full speed.
    pub rate_limit: Option<u64>,
    /// How to obtain a replacement backend for a disk whose node is
    /// gone (killed or crashed — reads `None`, writes dropped). `None`
    /// repairs in place onto the existing backend, which is right for
    /// transient `fail()`-style failures and wiped-but-usable disks.
    pub replacer: Option<Replacer>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            rate_limit: None,
            replacer: None,
        }
    }
}

impl std::fmt::Debug for RepairConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairConfig")
            .field("workers", &self.workers)
            .field("rate_limit", &self.rate_limit)
            .field("replacer", &self.replacer.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// Pre-resolved repair instruments (registered on the store's
/// [`Recorder`], so one snapshot shows foreground and repair together).
struct RepairMetrics {
    stripes_done: Counter,
    bytes: Counter,
    read_bytes: Counter,
    queue_depth: Gauge,
    active_disks: Gauge,
    repair_us: Histogram,
    redundancy_ms: Gauge,
    disks_restored: Counter,
    abandoned_stripes: Counter,
}

impl RepairMetrics {
    fn new(recorder: &Recorder) -> Self {
        Self {
            stripes_done: recorder.counter("repair.stripes_done"),
            bytes: recorder.counter("repair.bytes"),
            read_bytes: recorder.counter("repair.read_bytes"),
            queue_depth: recorder.gauge("repair.queue_depth"),
            active_disks: recorder.gauge("repair.active_disks"),
            repair_us: recorder.histogram("repair_us"),
            redundancy_ms: recorder.gauge("repair.time_to_redundancy_ms"),
            disks_restored: recorder.counter("repair.disks_restored"),
            abandoned_stripes: recorder.counter("repair.abandoned_stripes"),
        }
    }
}

/// A point-in-time view of the repair pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairProgress {
    /// Stripes rebuilt since the manager started.
    pub stripes_done: u64,
    /// Rebuilt bytes written back.
    pub bytes: u64,
    /// Stripes queued or in flight.
    pub queue_depth: usize,
    /// Disks currently under reconstruction.
    pub active_disks: Vec<usize>,
    /// Disks fully restored since the manager started.
    pub disks_restored: u64,
    /// Whether the pipeline is paused.
    pub paused: bool,
}

struct Shared {
    store: Arc<ObjectStore>,
    cfg: RepairConfig,
    stop: AtomicBool,
    paused: AtomicBool,
    bucket: Option<TokenBucket>,
    metrics: RepairMetrics,
}

/// The background repair subsystem: detector + worker pool over an
/// [`ObjectStore`] (see the [module docs](self) for the pipeline).
///
/// Dropping the manager stops and joins every thread; in-flight stripe
/// repairs finish, and what is still owed stays in the store's
/// [`RepairQueue`] and resumes if a new manager attaches.
pub struct RepairManager {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RepairManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RepairManager({} threads)", self.threads.len())
    }
}

impl RepairManager {
    /// Start the detector and `cfg.workers` repair workers over `store`.
    pub fn spawn(store: Arc<ObjectStore>, cfg: RepairConfig) -> Self {
        store.repair_queue().enable();
        let metrics = RepairMetrics::new(store.recorder());
        let shared = Arc::new(Shared {
            bucket: cfg.rate_limit.map(TokenBucket::new),
            store,
            cfg,
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            metrics,
        });
        let mut threads = Vec::with_capacity(shared.cfg.workers + 1);
        {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("repair-detector".into())
                    .spawn(move || detector_loop(&sh))
                    .expect("spawn repair detector"),
            );
        }
        for w in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("repair-worker-{w}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn repair worker"),
            );
        }
        Self { shared, threads }
    }

    /// Stop picking up new stripes (in-flight ones finish). Progress is
    /// kept; [`Self::resume`] continues where repair left off.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resume after [`Self::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }

    /// Current pipeline state.
    pub fn progress(&self) -> RepairProgress {
        let m = &self.shared.metrics;
        let queue = self.shared.store.repair_queue();
        RepairProgress {
            stripes_done: m.stripes_done.get(),
            bytes: m.bytes.get(),
            queue_depth: queue.depth(),
            active_disks: queue.active(),
            disks_restored: m.disks_restored.get(),
            paused: self.shared.paused.load(Ordering::Acquire),
        }
    }

    /// Block until the pipeline is idle — no unprobed suspects, no disk
    /// under reconstruction, and every failed disk either restored or
    /// given up on — or `timeout` elapses. Returns whether the pipeline
    /// went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let store = &self.shared.store;
        let deadline = Instant::now() + timeout;
        loop {
            // Read in the order a lost disk moves through the pipeline —
            // suspect, failed, and its record last: a record is promoted
            // before the disk stops being suspect and dropped only after
            // it is healed, so one that changes state while this looks
            // is still seen.
            let idle = store.array().suspects().is_empty()
                && store.repair_queue().idle(&store.stats().failed_disks);
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(TICK);
        }
    }

    /// Stop and join every thread. (Also happens on drop.)
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RepairManager {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Promote a lost disk: promote its record, re-register a replacement
/// (when configured), and mark it failed so the planner avoids it. A
/// disk already under repair — a new manager resuming its record — or
/// given up on is left as it is.
fn promote(sh: &Shared, disk: usize, stripes: u64) {
    // The record comes before the slot is touched: `replace_disk` clears
    // the suspect flag, and until `fail_disk` nothing else says the disk
    // is in trouble ([`RepairManager::wait_idle`] reads records last).
    if !sh.store.repair_queue().promote(disk, stripes) {
        return;
    }
    if let Some(replacer) = &sh.cfg.replacer {
        let fresh = replacer(disk);
        sh.store.array().replace_disk(disk, fresh);
    }
    let _ = sh.store.fail_disk(disk);
    sh.store.array().clear_suspect(disk);
}

fn detector_loop(sh: &Shared) {
    let store = &sh.store;
    let queue = store.repair_queue();
    while !sh.stop.load(Ordering::Acquire) {
        std::thread::sleep(TICK);
        if sh.paused.load(Ordering::Acquire) {
            continue;
        }
        let stats = store.stats();
        let failed: BTreeSet<usize> = stats.failed_disks.iter().copied().collect();

        // 1. Probe suspects: answering disks are cleared (and their
        //    staged hints dropped — no double repair); silent ones are
        //    promoted to lost.
        let active = queue.active();
        for d in store.array().suspects() {
            if sh.stop.load(Ordering::Acquire) {
                return;
            }
            if failed.contains(&d) || active.contains(&d) || stats.stripes == 0 {
                continue; // under repair, or nothing sealed to probe against
            }
            // Every disk stores offset 0 once a stripe is sealed. The
            // probe verifies the cell's checksum footer, so a disk that
            // answers with *corrupt* bytes (silent corruption, not
            // silence) is promoted instead of vouched for — without
            // this, a lying disk would cycle suspect → cleared forever.
            if store.probe_disk(d) {
                store.array().clear_suspect(d);
                queue.forget(d);
            } else {
                promote(sh, d, stats.stripes);
            }
        }

        // 2. Adopt disks already marked failed on the store (e.g. via
        //    `fail_disk` from an operator or a fault drill).
        for &d in &failed {
            promote(sh, d, stats.stripes);
        }

        // 3. Settle every record in one call: heal what is rebuilt and
        //    record time-to-full-redundancy, count what was given up.
        let sealed = store.stats().stripes;
        for (d, settled) in queue.settle(&failed, &store.array().suspects(), sealed) {
            match settled {
                Settled::GaveUp(stripes) => sh.metrics.abandoned_stripes.add(stripes),
                Settled::Heal(since) => {
                    let _ = store.heal_disk(d);
                    store.array().clear_suspect(d);
                    queue.forget(d);
                    let ms = since.elapsed().as_millis() as i64;
                    sh.metrics.redundancy_ms.set(ms);
                    sh.metrics.disks_restored.inc();
                }
            }
        }
        sh.metrics.active_disks.set(queue.active().len() as i64);
        sh.metrics.queue_depth.set(queue.depth() as i64);
    }
}

fn worker_loop(sh: &Shared) {
    let store = &sh.store;
    let queue = store.repair_queue();
    while !sh.stop.load(Ordering::Acquire) {
        if sh.paused.load(Ordering::Acquire) {
            std::thread::sleep(TICK);
            continue;
        }
        // Wait for the limiter before taking a stripe: a worker stopped
        // while it waits holds none, so no stripe is charged a try it
        // never had.
        if let Some(bucket) = &sh.bucket {
            bucket.wait_ready(&sh.stop);
            if sh.stop.load(Ordering::Acquire) {
                return;
            }
        }
        let Some((disk, stripe)) = queue.pop() else {
            std::thread::sleep(TICK);
            continue;
        };
        let t0 = Instant::now();
        let repaired = store.repair_stripe(disk, stripe);
        if let Ok(r) = &repaired {
            if let Some(bucket) = &sh.bucket {
                bucket.spend(r.bytes_read + r.bytes_written);
            }
            sh.metrics.stripes_done.inc();
            sh.metrics.bytes.add(r.bytes_written);
            sh.metrics.read_bytes.add(r.bytes_read);
            sh.metrics.repair_us.record_duration(t0.elapsed());
        }
        // Last: the disk is healed once its last stripe is reported, and
        // by then the counters must say so.
        queue.finish(disk, stripe, repaired.is_ok());
        if repaired.is_err() {
            std::thread::sleep(TICK);
        }
        sh.metrics.queue_depth.set(queue.depth() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enabled queue with `disk` promoted, owing `0..sealed`.
    fn promoted(disk: usize, sealed: u64) -> Arc<RepairQueue> {
        let q = RepairQueue::new();
        q.enable();
        assert!(q.promote(disk, sealed));
        q
    }

    #[test]
    fn queue_hints_are_noops_until_enabled() {
        let q = RepairQueue::new();
        q.hint([1], 3..4);
        assert_eq!(q.hint_count(), 0);
        q.enable();
        q.hint([1], 3..4);
        assert_eq!(q.hint_count(), 1);
        assert_eq!(q.depth(), 0, "staged hints are not repair work");
    }

    #[test]
    fn queue_dedups_and_prioritises_hints() {
        let q = RepairQueue::new();
        q.enable();
        q.hint([0], 7..8); // hot stripe, staged
        q.hint([0], 7..8); // duplicate hint is a no-op
        q.hint([0], 12..13); // not sealed at promotion: owed later, not hot
        assert_eq!(q.hint_count(), 2);
        // Promotion: the hint jumps ahead of the full sweep.
        assert!(q.promote(0, 9));
        assert!(!q.promote(0, 9), "already promoted");
        assert_eq!(q.hint_count(), 0);
        assert_eq!(q.depth(), 9);
        assert_eq!(q.pop(), Some((0, 7)));
        assert_eq!(q.pop(), Some((0, 0)));
        // A hint that lands under repair moves an owed stripe up.
        q.hint([0], 5..6);
        assert_eq!(q.pop(), Some((0, 5)));
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.depth(), 9, "four in flight, five owed");
    }

    #[test]
    fn queue_never_requeues_a_done_or_in_flight_stripe() {
        let q = promoted(0, 3);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((0, 1)));
        q.finish(0, 0, true);
        // Stripe 0 is done and 1 in flight: neither is hinted or owed
        // again, whatever degraded reads touch.
        q.hint([0], 0..2);
        assert_eq!(q.depth(), 2);
        q.finish(0, 1, true);
        assert_eq!(q.pop(), Some((0, 2)));
        assert_eq!(q.pop(), None);
        q.finish(0, 2, true);
        // Sealed since promotion: only the new stripe is added.
        let failed = BTreeSet::from([0]);
        assert_eq!(q.settle(&failed, &[], 4), vec![]);
        assert_eq!(q.pop(), Some((0, 3)));
        assert_eq!(q.pop(), None);
        q.finish(0, 3, true);
        let settled = q.settle(&failed, &[], 4);
        assert!(matches!(settled[..], [(0, Settled::Heal(_))]));
    }

    #[test]
    fn queue_gc_drops_hints_for_recovered_disks() {
        let q = RepairQueue::new();
        q.enable();
        q.hint([1, 2], 0..1);
        assert_eq!(q.hint_count(), 2);
        q.settle(&BTreeSet::new(), &[2], 1);
        assert_eq!(q.hint_count(), 1, "disk 1 recovered: its hints drop");
        assert!(q.promote(2, 2));
        assert_eq!(q.pop(), Some((2, 0)));
    }

    #[test]
    fn queue_reset_disk_clears_generation() {
        let q = promoted(2, 2);
        assert!(q.promote(3, 1));
        q.hint([2], 1..2);
        let (d, s) = q.pop().unwrap();
        q.finish(d, s, true);
        q.forget(2);
        assert_eq!(q.active(), vec![3], "other disks untouched");
        assert_eq!(q.depth(), 1);
        assert_eq!(q.hint_count(), 0);
        // A fresh generation may re-repair the same stripe.
        assert!(q.promote(2, 2));
        assert_eq!(q.pop(), Some((2, 0)));
    }

    #[test]
    fn queue_abandons_after_max_attempts() {
        let q = promoted(0, 1);
        for _ in 0..MAX_TRIES {
            let (d, s) = q.pop().unwrap();
            q.finish(d, s, false);
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.depth(), 0);
        let failed = BTreeSet::from([0]);
        assert_eq!(q.settle(&failed, &[], 1), vec![(0, Settled::GaveUp(1))]);
        // Given up on while the disk stays failed: idle, not promoted
        // again, deaf to hints.
        assert!(q.idle(&[0]));
        assert!(!q.promote(0, 1));
        q.hint([0], 0..1);
        assert_eq!(q.hint_count(), 0);
        // Out of the failed set, the mark goes.
        q.settle(&BTreeSet::new(), &[], 1);
        assert!(q.promote(0, 1));
    }
}
