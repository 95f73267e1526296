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
//! * **Queueing** — every sealed stripe of a lost disk becomes one unit
//!   of repair work in a [`RepairQueue`]: deduplicated, resumable, with
//!   two priorities — stripes that degraded foreground reads actually
//!   touched jump the queue, so hot data regains redundancy first.
//! * **Reconstruction** — a small worker pool drains the queue, one
//!   `repair_stripe` per key: helpers pre-sum server-side where every
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

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecfrm_obs::{Counter, Gauge, Histogram, Recorder};
use ecfrm_sim::DiskBackend;
use ecfrm_util::{Mutex, TokenBucket};

use crate::store::ObjectStore;

/// One unit of repair work: `(disk, stripe)`.
pub type RepairKey = (usize, u64);

/// Attempts per stripe before the queue gives up on it (each failure
/// requeues at normal priority, so transient source outages retry).
const MAX_ATTEMPTS: u32 = 5;

/// The deduplicated, two-priority, resumable stripe queue.
///
/// The store owns the queue (so degraded reads can drop priority hints
/// into it with no manager attached — they are no-ops until a
/// [`RepairManager`] enables it), and the manager drains it. Completed
/// stripes are remembered until their disk's repair finishes, which is
/// what makes pausing/resuming — or replacing the manager mid-repair —
/// safe: no stripe is rebuilt twice.
#[derive(Debug, Default)]
pub struct RepairQueue {
    enabled: AtomicBool,
    inner: Mutex<QueueState>,
}

#[derive(Debug, Default)]
struct QueueState {
    /// Breadcrumbs from degraded reads: stripes the foreground actually
    /// touched with a disk down. Not yet repair work — the detector
    /// drains them to the front of the queue when (and only when) it
    /// promotes the disk to lost, so a suspicion the foreground
    /// withdraws on its own never causes repair traffic.
    hints: HashSet<RepairKey>,
    /// Stripes degraded foreground reads touched — repaired first.
    high: VecDeque<RepairKey>,
    /// Everything else, in stripe order.
    normal: VecDeque<RepairKey>,
    /// Keys currently in a deque or being repaired (dedup set).
    queued: HashSet<RepairKey>,
    /// Keys repaired during the current generation of their disk.
    done: HashSet<RepairKey>,
    /// Keys abandoned after [`MAX_ATTEMPTS`] failures.
    abandoned: HashSet<RepairKey>,
    attempts: HashMap<RepairKey, u32>,
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

    /// Record that a degraded read touched `stripe` with `disk` down —
    /// a priority hint: if the disk turns out to be lost, that stripe
    /// repairs before cold ones.
    pub fn hint(&self, disk: usize, stripe: u64) {
        if !self.enabled.load(Ordering::Acquire) {
            return;
        }
        let key = (disk, stripe);
        let mut q = self.inner.lock();
        if q.queued.contains(&key) || q.done.contains(&key) || q.abandoned.contains(&key) {
            return;
        }
        q.hints.insert(key);
    }

    /// Turn `disk`'s staged hints into front-of-queue repair work
    /// (called by the detector at promotion and on every tick while the
    /// disk is under repair, so hints from ongoing degraded reads keep
    /// jumping the queue).
    fn drain_hints(&self, disk: usize) {
        let mut q = self.inner.lock();
        let keys: Vec<RepairKey> = q
            .hints
            .iter()
            .filter(|(d, _)| *d == disk)
            .copied()
            .collect();
        for key in keys {
            q.hints.remove(&key);
            if q.queued.contains(&key) || q.done.contains(&key) || q.abandoned.contains(&key) {
                continue;
            }
            q.queued.insert(key);
            q.high.push_back(key);
        }
    }

    /// Drop staged hints for every disk *not* in `keep` — garbage
    /// collection for suspicions the foreground withdrew on its own
    /// (the disk answered again before the detector probed it).
    fn retain_hint_disks(&self, keep: &BTreeSet<usize>) {
        self.inner.lock().hints.retain(|(d, _)| keep.contains(d));
    }

    /// Staged hints not yet promoted into repair work.
    pub fn hint_count(&self) -> usize {
        self.inner.lock().hints.len()
    }

    /// Enqueue a stripe at normal priority (no-op if already queued,
    /// done, or abandoned).
    fn enqueue(&self, disk: usize, stripe: u64) {
        let key = (disk, stripe);
        let mut q = self.inner.lock();
        if q.queued.contains(&key) || q.done.contains(&key) || q.abandoned.contains(&key) {
            return;
        }
        q.queued.insert(key);
        q.normal.push_back(key);
    }

    /// Next stripe to repair: priority hints first. The key stays in the
    /// dedup set while in flight.
    fn pop(&self) -> Option<RepairKey> {
        let mut q = self.inner.lock();
        q.high.pop_front().or_else(|| q.normal.pop_front())
    }

    /// Mark a stripe rebuilt.
    fn complete(&self, key: RepairKey) {
        let mut q = self.inner.lock();
        q.queued.remove(&key);
        q.attempts.remove(&key);
        q.done.insert(key);
    }

    /// Record a failed attempt; requeues unless the stripe is out of
    /// attempts, in which case it is abandoned (and its disk can never
    /// finish repairing until [`Self::reset_disk`]).
    fn fail_attempt(&self, key: RepairKey) {
        let mut q = self.inner.lock();
        let attempts = q.attempts.entry(key).or_insert(0);
        *attempts += 1;
        if *attempts >= MAX_ATTEMPTS {
            q.attempts.remove(&key);
            q.queued.remove(&key);
            q.abandoned.insert(key);
        } else {
            q.normal.push_back(key);
        }
    }

    /// Outstanding keys for `disk` (queued or in flight).
    fn pending_for(&self, disk: usize) -> usize {
        self.inner
            .lock()
            .queued
            .iter()
            .filter(|(d, _)| *d == disk)
            .count()
    }

    /// Abandoned keys for `disk`.
    fn abandoned_for(&self, disk: usize) -> usize {
        self.inner
            .lock()
            .abandoned
            .iter()
            .filter(|(d, _)| *d == disk)
            .count()
    }

    /// Stripes completed for `disk` this generation.
    pub fn done_for(&self, disk: usize) -> usize {
        self.inner
            .lock()
            .done
            .iter()
            .filter(|(d, _)| *d == disk)
            .count()
    }

    /// Forget everything about `disk` — called when its repair finishes
    /// (a later failure of the same disk starts a fresh generation) or
    /// when a suspicion is withdrawn before repair started.
    fn reset_disk(&self, disk: usize) {
        let mut q = self.inner.lock();
        q.hints.retain(|(d, _)| *d != disk);
        q.high.retain(|(d, _)| *d != disk);
        q.normal.retain(|(d, _)| *d != disk);
        q.queued.retain(|(d, _)| *d != disk);
        q.done.retain(|(d, _)| *d != disk);
        q.abandoned.retain(|(d, _)| *d != disk);
        q.attempts.retain(|(d, _), _| *d != disk);
    }

    /// Keys waiting or in flight.
    pub fn depth(&self) -> usize {
        self.inner.lock().queued.len()
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
    /// Detector poll / idle-worker sleep interval. Default 2 ms.
    pub poll: Duration,
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
            poll: Duration::from_millis(2),
            replacer: None,
        }
    }
}

impl std::fmt::Debug for RepairConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairConfig")
            .field("workers", &self.workers)
            .field("rate_limit", &self.rate_limit)
            .field("poll", &self.poll)
            .field("replacer", &self.replacer.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// Live repair state for one lost disk.
#[derive(Debug, Clone)]
struct ActiveRepair {
    /// When the loss was detected (time-to-full-redundancy starts here).
    since: Instant,
    /// Stripes `0..enqueued_to` have been enqueued; stripes sealed after
    /// promotion are picked up at finalization.
    enqueued_to: u64,
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
    active: Mutex<BTreeMap<usize, ActiveRepair>>,
    /// Disks whose repair ran out of attempts: left failed, not
    /// re-promoted until an operator heals or replaces them (otherwise
    /// the detector would promote-abandon-promote forever).
    given_up: Mutex<BTreeSet<usize>>,
}

/// The background repair subsystem: detector + worker pool over an
/// [`ObjectStore`] (see the [module docs](self) for the pipeline).
///
/// Dropping the manager stops and joins every thread; in-flight stripe
/// repairs finish, queued ones stay in the store's [`RepairQueue`] and
/// resume if a new manager attaches.
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
            active: Mutex::new(BTreeMap::new()),
            given_up: Mutex::new(BTreeSet::new()),
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
        RepairProgress {
            stripes_done: m.stripes_done.get(),
            bytes: m.bytes.get(),
            queue_depth: self.shared.store.repair_queue().depth(),
            active_disks: self.shared.active.lock().keys().copied().collect(),
            disks_restored: m.disks_restored.get(),
            paused: self.shared.paused.load(Ordering::Acquire),
        }
    }

    /// Block until the pipeline is idle — no active repair, an empty
    /// queue, no unprobed suspects, and every failed disk either
    /// restored or given up on — or `timeout` elapses. Returns whether
    /// the pipeline went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let sh = &self.shared;
        let deadline = Instant::now() + timeout;
        loop {
            // Read in the order a lost disk moves through the pipeline —
            // suspect, failed, queued — and `active` last: a disk is
            // registered there before it stops being suspect and stays
            // until after it is healed, so one that changes state while
            // this looks is still seen.
            let idle = sh.store.array().suspects().is_empty()
                && {
                    let failed = sh.store.stats().failed_disks;
                    let given_up = sh.given_up.lock();
                    failed.iter().all(|d| given_up.contains(d))
                }
                && sh.store.repair_queue().depth() == 0
                && sh.active.lock().is_empty();
            if idle {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(sh.cfg.poll);
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

/// Promote a lost disk: register its repair, re-register a replacement
/// (when configured), mark it failed so the planner avoids it, and
/// enqueue every sealed stripe.
fn promote(sh: &Shared, disk: usize, stripes: u64) {
    // Registered before the slot is touched: `replace_disk` clears the
    // suspect flag, and until `fail_disk` nothing else says the disk is
    // in trouble ([`RepairManager::wait_idle`] reads `active` last).
    let repair = ActiveRepair {
        since: Instant::now(),
        enqueued_to: stripes,
    };
    sh.active.lock().insert(disk, repair);
    sh.metrics.active_disks.set(sh.active.lock().len() as i64);
    if let Some(replacer) = &sh.cfg.replacer {
        let fresh = replacer(disk);
        sh.store.array().replace_disk(disk, fresh);
    }
    let _ = sh.store.fail_disk(disk);
    sh.store.array().clear_suspect(disk);
    let queue = sh.store.repair_queue();
    // Hot stripes (hinted by degraded reads) jump the queue; the full
    // sweep fills in behind them.
    queue.drain_hints(disk);
    for s in 0..stripes {
        queue.enqueue(disk, s);
    }
}

fn detector_loop(sh: &Shared) {
    let store = &sh.store;
    let queue = store.repair_queue();
    while !sh.stop.load(Ordering::Acquire) {
        std::thread::sleep(sh.cfg.poll);
        if sh.paused.load(Ordering::Acquire) {
            continue;
        }
        let stats = store.stats();
        let failed: BTreeSet<usize> = stats.failed_disks.iter().copied().collect();

        // 1. Probe suspects: answering disks are cleared (and any
        //    priority hints for them dropped — no double repair);
        //    silent ones are promoted to lost.
        for d in store.array().suspects() {
            if sh.stop.load(Ordering::Acquire) {
                return;
            }
            if failed.contains(&d) || sh.active.lock().contains_key(&d) {
                continue;
            }
            if stats.stripes == 0 {
                continue; // nothing sealed: nothing to probe against or repair
            }
            // Every disk stores offset 0 once a stripe is sealed. The
            // probe verifies the cell's checksum footer, so a disk that
            // answers with *corrupt* bytes (silent corruption, not
            // silence) is promoted instead of vouched for — without
            // this, a lying disk would cycle suspect → cleared forever.
            if store.probe_disk(d) {
                store.array().clear_suspect(d);
                queue.reset_disk(d);
            } else {
                promote(sh, d, stats.stripes);
            }
        }

        // 2. Adopt disks already marked failed on the store (e.g. via
        //    `fail_disk` from an operator or a fault drill) — unless a
        //    previous repair of that disk already ran out of attempts.
        sh.given_up.lock().retain(|d| failed.contains(d));
        for &d in &failed {
            if !sh.active.lock().contains_key(&d) && !sh.given_up.lock().contains(&d) {
                promote(sh, d, stats.stripes);
            }
        }

        // Hints from degraded reads that landed since promotion keep
        // jumping the queue while their disk is under repair.
        let active_disks: Vec<usize> = sh.active.lock().keys().copied().collect();
        for &d in &active_disks {
            queue.drain_hints(d);
        }
        // Garbage-collect hints for disks the foreground vouched for
        // again before we ever probed them.
        let keep: BTreeSet<usize> = failed
            .iter()
            .copied()
            .chain(active_disks.iter().copied())
            .chain(store.array().suspects())
            .collect();
        queue.retain_hint_disks(&keep);

        // 3. Finalize finished repairs: enqueue stripes sealed since
        //    promotion, then heal and record time-to-full-redundancy.
        let active_now: Vec<(usize, ActiveRepair)> = sh
            .active
            .lock()
            .iter()
            .map(|(d, a)| (*d, a.clone()))
            .collect();
        for (d, info) in active_now {
            if queue.pending_for(d) > 0 {
                continue;
            }
            if queue.abandoned_for(d) > 0 {
                // Out of attempts (e.g. too many concurrent failures):
                // give up on this disk for now; it stays failed and a
                // fresh generation can retry after `reset_disk`.
                sh.metrics
                    .abandoned_stripes
                    .add(queue.abandoned_for(d) as u64);
                queue.reset_disk(d);
                sh.given_up.lock().insert(d);
                sh.active.lock().remove(&d);
                sh.metrics.active_disks.set(sh.active.lock().len() as i64);
                continue;
            }
            let sealed_now = store.stats().stripes;
            if sealed_now > info.enqueued_to {
                for s in info.enqueued_to..sealed_now {
                    queue.enqueue(d, s);
                }
                if let Some(a) = sh.active.lock().get_mut(&d) {
                    a.enqueued_to = sealed_now;
                }
                continue;
            }
            let _ = store.heal_disk(d);
            store.array().clear_suspect(d);
            queue.reset_disk(d);
            sh.active.lock().remove(&d);
            sh.metrics.active_disks.set(sh.active.lock().len() as i64);
            sh.metrics
                .redundancy_ms
                .set(info.since.elapsed().as_millis() as i64);
            sh.metrics.disks_restored.inc();
        }
        sh.metrics.queue_depth.set(queue.depth() as i64);
    }
}

fn worker_loop(sh: &Shared) {
    let store = &sh.store;
    let queue = store.repair_queue();
    while !sh.stop.load(Ordering::Acquire) {
        if sh.paused.load(Ordering::Acquire) {
            std::thread::sleep(sh.cfg.poll);
            continue;
        }
        // Wait for the limiter before taking a key: a worker stopped
        // while it waits holds none, so no stripe is charged an attempt
        // it never had.
        if let Some(bucket) = &sh.bucket {
            bucket.wait_ready(&sh.stop, sh.cfg.poll);
            if sh.stop.load(Ordering::Acquire) {
                return;
            }
        }
        let Some(key) = queue.pop() else {
            std::thread::sleep(sh.cfg.poll);
            continue;
        };
        let (disk, stripe) = key;
        let t0 = Instant::now();
        match store.repair_stripe(disk, stripe) {
            Ok(r) => {
                if let Some(bucket) = &sh.bucket {
                    bucket.spend(r.bytes_read + r.bytes_written);
                }
                sh.metrics.stripes_done.inc();
                sh.metrics.bytes.add(r.bytes_written);
                sh.metrics.read_bytes.add(r.bytes_read);
                sh.metrics.repair_us.record_duration(t0.elapsed());
                // Last: the disk is healed once its last stripe is
                // complete, and by then the counters must say so.
                queue.complete(key);
            }
            Err(_) => {
                queue.fail_attempt(key);
                std::thread::sleep(sh.cfg.poll);
            }
        }
        sh.metrics.queue_depth.set(queue.depth() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_dedups_and_prioritises_hints() {
        let q = RepairQueue::new();
        q.enable();
        q.hint(0, 7); // hot stripe, staged
        q.hint(0, 7); // duplicate hint is a no-op
        assert_eq!(q.hint_count(), 1);
        assert_eq!(q.depth(), 0, "hints are not repair work yet");
        // Promotion: hints jump ahead of the full sweep.
        q.drain_hints(0);
        q.enqueue(0, 5);
        q.enqueue(0, 6);
        q.enqueue(0, 7); // already queued high: no-op
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some((0, 7)));
        assert_eq!(q.pop(), Some((0, 5)));
        q.complete((0, 7));
        q.hint(0, 7); // done this generation: not re-staged
        assert_eq!(q.hint_count(), 0);
        assert_eq!(q.pop(), Some((0, 6)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.done_for(0), 1);
    }

    #[test]
    fn queue_hints_are_noops_until_enabled() {
        let q = RepairQueue::new();
        q.hint(1, 3);
        assert_eq!(q.hint_count(), 0);
        q.enable();
        q.hint(1, 3);
        assert_eq!(q.hint_count(), 1);
    }

    #[test]
    fn queue_gc_drops_hints_for_recovered_disks() {
        let q = RepairQueue::new();
        q.enable();
        q.hint(1, 0);
        q.hint(2, 0);
        q.retain_hint_disks(&BTreeSet::from([2]));
        assert_eq!(q.hint_count(), 1, "disk 1 recovered: its hints drop");
        q.drain_hints(2);
        assert_eq!(q.pop(), Some((2, 0)));
    }

    #[test]
    fn queue_reset_disk_clears_generation() {
        let q = RepairQueue::new();
        q.enable();
        q.enqueue(2, 0);
        q.enqueue(2, 1);
        q.hint(2, 1);
        q.enqueue(3, 0);
        let k = q.pop().unwrap();
        q.complete(k);
        q.reset_disk(2);
        assert_eq!(q.done_for(2), 0);
        assert_eq!(q.pending_for(2), 0);
        assert_eq!(q.hint_count(), 0);
        assert_eq!(q.pending_for(3), 1, "other disks untouched");
        // A fresh generation may re-repair the same stripe.
        q.enqueue(2, 0);
        assert_eq!(q.pending_for(2), 1);
    }

    #[test]
    fn queue_abandons_after_max_attempts() {
        let q = RepairQueue::new();
        q.enable();
        q.enqueue(0, 9);
        for _ in 0..MAX_ATTEMPTS {
            let k = q.pop().unwrap();
            q.fail_attempt(k);
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.abandoned_for(0), 1);
        assert_eq!(q.pending_for(0), 0);
    }
}
