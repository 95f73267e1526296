//! Background repair: rate-limited parallel reconstruction of lost
//! disks while foreground reads keep flowing.
//!
//! Whether a disk is up, suspect, failed, rebuilding or given up on is
//! one row of the store's [`DiskTable`], under one lock, changed only by
//! the table's methods (DESIGN.md §12 has the states and transitions).
//! [`ObjectStore::recover_disk`](crate::ObjectStore::recover_disk)
//! drains a lost disk's row in the caller's thread; a [`RepairManager`]
//! drains the same rows online:
//!
//! * **Detection** — a detector thread probes each suspect and returns
//!   it to up (it answered: a transient) or promotes it to rebuilding;
//!   failed disks are adopted the same way.
//! * **Reconstruction** — a small worker pool pops owed stripes, the
//!   ones degraded reads touched first, one `repair_stripe` each. The
//!   row outlives the manager, so a new one resumes where the last
//!   stopped.
//! * **Backpressure** — a token bucket bounds repair traffic
//!   (bytes/second of source reads + rebuilt writes) so foreground
//!   reads keep a bounded p99; leave it unset to rebuild at full speed.
//! * **Completion** — when every stripe of a disk is rebuilt the disk is
//!   healed and the time-to-full-redundancy lands in the registry.
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
//! let obj = store.append(&vec![7u8; 30_000]);
//! assert_eq!(store.read(obj).unwrap().0, vec![7u8; 30_000]);
//!
//! // Lose a disk for real, then let the background pipeline restore it.
//! store.fail_disk(2).unwrap();
//! store.array().disk(2).wipe();
//! let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
//! assert!(mgr.wait_idle(std::time::Duration::from_secs(10)));
//! assert!(store.stats().failed_disks.is_empty());
//! let (bytes, stats) = store.read(obj).unwrap();
//! assert_eq!(bytes, vec![7u8; 30_000]);
//! assert!(!stats.degraded);
//! ```

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecfrm_obs::{Counter, Gauge, Histogram, Recorder};
use ecfrm_sim::DiskBackend;
use ecfrm_util::{Mutex, TokenBucket};

use crate::store::ObjectStore;

/// Tries per stripe before the table gives up on it (a failed try goes
/// back among the owed stripes, so transient source outages retry).
const MAX_TRIES: u32 = 5;

/// How often the detector looks, and how long an idle rebuilder sleeps
/// before it looks again.
pub(crate) const TICK: Duration = Duration::from_millis(2);

/// Where one disk stands; the planner plans around the last three.
#[derive(Debug, Default)]
enum State {
    #[default]
    Up,
    /// A fetch found it silent or lying; still planned until it answers
    /// again or the detector's probe settles it.
    Suspect,
    /// Marked failed by the operator; not rebuilding yet.
    Failed,
    /// Lost, and owing stripes.
    Rebuilding(Rebuild),
    /// A stripe ran out of tries; never promoted again until healed.
    GaveUp,
}

/// What a lost disk still owes, from promotion to the tick that heals
/// it or gives up on it.
#[derive(Debug)]
struct Rebuild {
    /// When it was promoted (time-to-full-redundancy starts here).
    since: Instant,
    /// Stripes `0..sealed_to` are owed; stripes sealed since join once
    /// the rest is done.
    sealed_to: u64,
    /// Owed stripes neither hot nor in flight. A stripe is in at most
    /// one of the three sets, and in none once rebuilt.
    todo: BTreeSet<u64>,
    /// Where the next `todo` pop starts: a stripe whose try failed goes
    /// back behind it, so the rest of the pass comes first.
    next: u64,
    in_flight: BTreeSet<u64>,
    tries: HashMap<u64, u32>,
    abandoned: u64,
}

/// One disk's row: its state, and the stripes degraded reads touched
/// while it was down — staged while it is suspect or failed (so a
/// suspicion the foreground withdraws causes no repair traffic), popped
/// first once it is rebuilding, empty otherwise.
#[derive(Debug, Default)]
struct Row {
    state: State,
    hot: BTreeSet<u64>,
}

impl Row {
    /// Become `Rebuilding`, owing `0..sealed` with staged hints first.
    fn promote(&mut self, sealed: u64) {
        let hot = &mut self.hot;
        hot.retain(|&s| s < sealed);
        self.state = State::Rebuilding(Rebuild {
            since: Instant::now(),
            sealed_to: sealed,
            todo: (0..sealed).filter(|s| !hot.contains(s)).collect(),
            next: 0,
            in_flight: BTreeSet::new(),
            tries: HashMap::new(),
            abandoned: 0,
        });
    }

    /// Stripes queued or in flight.
    fn owed(&self) -> usize {
        match &self.state {
            State::Rebuilding(r) => self.hot.len() + r.todo.len() + r.in_flight.len(),
            _ => 0,
        }
    }

    /// Take the next stripe from `hot`, or from `todo` at the cursor.
    fn take(&mut self, hot: bool) -> Option<u64> {
        let State::Rebuilding(r) = &mut self.state else {
            return None;
        };
        let stripe = if hot {
            self.hot.pop_first()?
        } else {
            let s = *r.todo.range(r.next..).next().or_else(|| r.todo.first())?;
            r.todo.remove(&s);
            r.next = s + 1;
            s
        };
        r.in_flight.insert(stripe);
        Some(stripe)
    }

    /// A rebuilding disk with nothing owed: its `todo` is extended to
    /// the stripes sealed since (`sealed` is the store's count now), or,
    /// with none, it is given up on if a stripe ran out of tries and
    /// ready to heal otherwise.
    fn settle(&mut self, sealed: u64) -> Option<Settled> {
        if self.owed() > 0 {
            return None;
        }
        let State::Rebuilding(r) = &mut self.state else {
            return None;
        };
        if r.abandoned > 0 {
            let abandoned = r.abandoned;
            self.state = State::GaveUp;
            Some(Settled::GaveUp(abandoned))
        } else if sealed > r.sealed_to {
            r.todo.extend(r.sealed_to..sealed);
            r.sealed_to = sealed;
            None
        } else {
            Some(Settled::Heal(r.since))
        }
    }
}

/// What settling found for a rebuilding disk with nothing owed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Every owed stripe is rebuilt: heal it (promoted at this instant).
    Heal(Instant),
    /// This many stripes ran out of tries; the disk is given up on.
    GaveUp(u64),
}

/// One row per disk of whether it is up, suspect, failed, rebuilding or
/// given up on, under one lock — the only place the store keeps it.
///
/// Reads report what they found and hint the stripes they touched, an
/// operator fails and heals disks, and the manager's workers or
/// [`ObjectStore::recover_disk`](crate::ObjectStore::recover_disk) drain
/// a rebuilding row. A row lives until its disk heals, so pausing or
/// replacing a manager mid-repair, or running `recover_disk` beside one,
/// rebuilds no stripe twice.
#[derive(Debug)]
pub struct DiskTable {
    rows: Mutex<Vec<Row>>,
}

impl DiskTable {
    pub(crate) fn new(n_disks: usize) -> Arc<Self> {
        let rows = (0..n_disks).map(|_| Row::default()).collect();
        Arc::new(Self {
            rows: Mutex::new(rows),
        })
    }

    /// The disks whose row `keep` accepts, ascending.
    fn select(&self, keep: impl Fn(&Row) -> bool) -> Vec<usize> {
        let rows = self.rows.lock();
        (0..rows.len()).filter(|&d| keep(&rows[d])).collect()
    }

    /// Disks the planner avoids: failed, rebuilding or given up on.
    pub(crate) fn down(&self) -> Vec<usize> {
        self.select(|r| {
            matches!(
                r.state,
                State::Failed | State::Rebuilding(_) | State::GaveUp
            )
        })
    }

    pub(crate) fn suspect_disks(&self) -> Vec<usize> {
        self.select(|r| matches!(r.state, State::Suspect))
    }

    pub(crate) fn rebuilding(&self) -> Vec<usize> {
        self.select(|r| matches!(r.state, State::Rebuilding(_)))
    }

    /// What one fetch found: each of `bad` that was up is suspect, and
    /// each of `answered` that was suspect and not in `bad` is up again,
    /// its staged hints dropped.
    pub(crate) fn report(&self, answered: impl IntoIterator<Item = usize>, bad: &BTreeSet<usize>) {
        let mut rows = self.rows.lock();
        for d in answered {
            if !bad.contains(&d) && matches!(rows[d].state, State::Suspect) {
                rows[d] = Row::default();
            }
        }
        for &d in bad {
            if matches!(rows[d].state, State::Up) {
                rows[d].state = State::Suspect;
            }
        }
    }

    /// A degraded read touched `stripes` with `disks` down: if one turns
    /// out to be lost, those stripes rebuild before cold ones.
    pub(crate) fn hint(&self, disks: impl IntoIterator<Item = usize>, stripes: Range<u64>) {
        let mut rows = self.rows.lock();
        for d in disks {
            let row = &mut rows[d];
            match &mut row.state {
                State::Suspect | State::Failed => row.hot.extend(stripes.clone()),
                // Under repair, only a stripe still owed moves up.
                State::Rebuilding(r) => {
                    let owed = stripes.clone().filter(|s| r.todo.remove(s));
                    row.hot.extend(owed);
                }
                State::Up | State::GaveUp => {}
            }
        }
    }

    /// Staged hints not yet promoted into repair work.
    pub fn hint_count(&self) -> usize {
        let rows = self.rows.lock();
        let staged = rows
            .iter()
            .filter(|r| !matches!(r.state, State::Rebuilding(_)));
        staged.map(|r| r.hot.len()).sum()
    }

    /// Stripes queued or in flight.
    pub fn depth(&self) -> usize {
        self.rows.lock().iter().map(Row::owed).sum()
    }

    /// An up or suspect disk is failed; one already planned around stays.
    pub(crate) fn fail(&self, disk: usize) {
        let row = &mut self.rows.lock()[disk];
        if matches!(row.state, State::Up | State::Suspect) {
            row.state = State::Failed;
        }
    }

    /// Up from any state, record and hints dropped.
    pub(crate) fn heal(&self, disk: usize) {
        self.rows.lock()[disk] = Row::default();
    }

    /// The detector probed a suspect: a pass returns it to up, a failure
    /// promotes it, owing `0..sealed` (true). A disk that stopped being
    /// suspect meanwhile is left as it is.
    fn probed(&self, disk: usize, passed: bool, sealed: u64) -> bool {
        let row = &mut self.rows.lock()[disk];
        match row.state {
            State::Suspect if passed => *row = Row::default(),
            State::Suspect => row.promote(sealed),
            _ => return false,
        }
        !passed
    }

    /// Promote every failed disk, owing `0..sealed`, and return them.
    fn adopt(&self, sealed: u64) -> Vec<usize> {
        let mut rows = self.rows.lock();
        let failed = rows.iter_mut().enumerate();
        let failed = failed.filter(|(_, r)| matches!(r.state, State::Failed));
        let promote = |(d, r): (usize, &mut Row)| {
            r.promote(sealed);
            d
        };
        failed.map(promote).collect()
    }

    /// Unless `disk` is already rebuilding, run `wipe` and promote it,
    /// owing `0..sealed` — under the lock, so no stripe is popped and
    /// rebuilt before the wipe would erase it.
    pub(crate) fn start(&self, disk: usize, sealed: u64, wipe: impl FnOnce()) {
        let row = &mut self.rows.lock()[disk];
        if !matches!(row.state, State::Rebuilding(_)) {
            wipe();
            row.promote(sealed);
        }
    }

    /// Next stripe to rebuild — every disk's hot stripes first — of
    /// `only` that disk when given.
    pub(crate) fn pop(&self, only: Option<usize>) -> Option<(usize, u64)> {
        let mut rows = self.rows.lock();
        for hot in [true, false] {
            let mine = rows.iter_mut().enumerate();
            let mut mine = mine.filter(|&(d, _)| only.is_none_or(|o| o == d));
            if let Some(popped) = mine.find_map(|(d, r)| Some((d, r.take(hot)?))) {
                return Some(popped);
            }
        }
        None
    }

    /// How a try at a popped stripe ended. A failed one is owed again
    /// until it has had [`MAX_TRIES`], then abandoned (and its disk can
    /// never finish until healed). A stripe no longer in flight — its
    /// disk healed meanwhile — is ignored.
    pub(crate) fn finish(&self, disk: usize, stripe: u64, ok: bool) {
        let mut rows = self.rows.lock();
        let State::Rebuilding(r) = &mut rows[disk].state else {
            return;
        };
        if !r.in_flight.remove(&stripe) {
            return;
        }
        let tries = r.tries.remove(&stripe).unwrap_or(0) + 1;
        if !ok && tries < MAX_TRIES {
            r.tries.insert(stripe, tries);
            r.todo.insert(stripe);
        }
        r.abandoned += u64::from(!ok && tries >= MAX_TRIES);
    }

    /// Settle every rebuilding disk with nothing owed — of `only` that
    /// disk when given — in one lock (see [`Row::settle`]).
    pub(crate) fn settle(&self, sealed: u64, only: Option<usize>) -> Vec<(usize, Settled)> {
        let mut rows = self.rows.lock();
        let mine = rows.iter_mut().enumerate();
        let mine = mine.filter(|&(d, _)| only.is_none_or(|o| o == d));
        mine.filter_map(|(d, row)| Some((d, row.settle(sealed)?)))
            .collect()
    }

    /// No disk is suspect, failed or rebuilding.
    fn idle(&self) -> bool {
        let rows = self.rows.lock();
        rows.iter()
            .all(|r| matches!(r.state, State::Up | State::GaveUp))
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
    /// repairs in place onto the existing backend, which is right for a
    /// disk failed in the table only and for wiped-but-usable disks.
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
/// [`DiskTable`] and resumes if a new manager attaches.
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
        let disks = self.shared.store.disks();
        RepairProgress {
            stripes_done: m.stripes_done.get(),
            bytes: m.bytes.get(),
            queue_depth: disks.depth(),
            active_disks: disks.rebuilding(),
            disks_restored: m.disks_restored.get(),
            paused: self.shared.paused.load(Ordering::Acquire),
        }
    }

    /// Block until the pipeline is idle — no disk suspect, failed or
    /// rebuilding: every one up, or given up on — or `timeout` elapses.
    /// Returns whether the pipeline went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.store.disks().idle() {
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

/// A disk just promoted to rebuilding gets a fresh backend in its slot
/// when the config has a replacer (a killed node reads nothing and drops
/// writes).
fn replace(sh: &Shared, disk: usize) {
    if let Some(replacer) = &sh.cfg.replacer {
        sh.store.array().replace_disk(disk, replacer(disk));
    }
}

fn detector_loop(sh: &Shared) {
    let store = &sh.store;
    let disks = store.disks();
    while !sh.stop.load(Ordering::Acquire) {
        std::thread::sleep(TICK);
        if sh.paused.load(Ordering::Acquire) {
            continue;
        }
        let stats = store.stats();

        // 1. Probe suspects: answering disks go back up (and their staged
        //    hints go — no double repair); silent ones are promoted. Every
        //    disk stores offset 0 once a stripe is sealed, so nothing is
        //    probed before. The probe verifies the cell's checksum
        //    footer, so a disk that answers with *corrupt* bytes is
        //    promoted instead of vouched for — without this, a lying disk
        //    would cycle suspect → up forever.
        let suspects = stats.suspect_disks.into_iter();
        for d in suspects.filter(|_| stats.stripes > 0) {
            if sh.stop.load(Ordering::Acquire) {
                return;
            }
            if disks.probed(d, store.probe_disk(d), stats.stripes) {
                replace(sh, d);
            }
        }

        // 2. Adopt disks an operator or a fault drill marked failed.
        for d in disks.adopt(stats.stripes) {
            replace(sh, d);
        }

        // 3. Settle every rebuilding disk in one call: heal what is
        //    rebuilt and record time-to-full-redundancy, count what was
        //    given up.
        for (d, settled) in disks.settle(store.stats().stripes, None) {
            match settled {
                Settled::GaveUp(stripes) => sh.metrics.abandoned_stripes.add(stripes),
                Settled::Heal(since) => {
                    let _ = store.heal_disk(d);
                    let ms = since.elapsed().as_millis() as i64;
                    sh.metrics.redundancy_ms.set(ms);
                    sh.metrics.disks_restored.inc();
                }
            }
        }
        sh.metrics.active_disks.set(disks.rebuilding().len() as i64);
        sh.metrics.queue_depth.set(disks.depth() as i64);
    }
}

fn worker_loop(sh: &Shared) {
    let store = &sh.store;
    let disks = store.disks();
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
        let Some((disk, stripe)) = disks.pop(None) else {
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
        disks.finish(disk, stripe, repaired.is_ok());
        if repaired.is_err() {
            std::thread::sleep(TICK);
        }
        sh.metrics.queue_depth.set(disks.depth() as i64);
    }
}

#[cfg(test)]
mod tests {
    use ecfrm_util::Rng;

    use super::*;

    /// A table of 4 disks with `disk` rebuilding, owing `0..sealed`.
    fn rebuilding(disk: usize, sealed: u64) -> Arc<DiskTable> {
        let t = DiskTable::new(4);
        t.fail(disk);
        assert_eq!(t.adopt(sealed), vec![disk]);
        t
    }

    /// Make `disks` suspect, the way a read that found them silent does.
    fn suspect(t: &DiskTable, disks: &[usize]) {
        t.report([], &disks.iter().copied().collect());
    }

    #[test]
    fn queue_dedups_and_prioritises_hints() {
        let t = DiskTable::new(4);
        suspect(&t, &[0]);
        t.hint([0], 7..8); // hot stripe, staged
        t.hint([0], 7..8); // duplicate hint is a no-op
        t.hint([0], 12..13); // not sealed at promotion: owed later, not hot
        t.hint([1], 7..8); // disk 1 is up: nothing to stage
        assert_eq!(t.hint_count(), 2);
        // Promotion: the hint jumps ahead of the full sweep.
        assert!(t.probed(0, false, 9));
        assert!(!t.probed(0, false, 9), "already rebuilding");
        assert_eq!(t.hint_count(), 0);
        assert_eq!(t.depth(), 9);
        assert_eq!(t.pop(None), Some((0, 7)));
        assert_eq!(t.pop(None), Some((0, 0)));
        // A hint that lands under repair moves an owed stripe up.
        t.hint([0], 5..6);
        assert_eq!(t.pop(None), Some((0, 5)));
        assert_eq!(t.pop(None), Some((0, 1)));
        assert_eq!(t.depth(), 9, "four in flight, five owed");
    }

    #[test]
    fn queue_never_requeues_a_done_or_in_flight_stripe() {
        let t = rebuilding(0, 3);
        assert_eq!(t.pop(None), Some((0, 0)));
        assert_eq!(t.pop(None), Some((0, 1)));
        t.finish(0, 0, true);
        // Stripe 0 is done and 1 in flight: neither is hinted or owed
        // again, whatever degraded reads touch.
        t.hint([0], 0..2);
        assert_eq!(t.depth(), 2);
        t.finish(0, 1, true);
        assert_eq!(t.pop(None), Some((0, 2)));
        assert_eq!(t.pop(None), None);
        t.finish(0, 2, true);
        // Sealed since promotion: only the new stripe is added.
        assert_eq!(t.settle(4, None), vec![]);
        assert_eq!(t.pop(None), Some((0, 3)));
        assert_eq!(t.pop(None), None);
        t.finish(0, 3, true);
        let settled = t.settle(4, None);
        assert!(matches!(settled[..], [(0, Settled::Heal(_))]));
    }

    #[test]
    fn queue_gc_drops_hints_for_recovered_disks() {
        let t = DiskTable::new(4);
        suspect(&t, &[1, 2]);
        t.hint([1, 2], 0..1);
        assert_eq!(t.hint_count(), 2);
        // Disk 1 answers a read again: it is up, and its hints drop.
        t.report([1, 2], &BTreeSet::from([2]));
        assert_eq!(t.suspect_disks(), vec![2]);
        assert_eq!(t.hint_count(), 1, "disk 1 recovered: its hints drop");
        assert!(t.probed(2, false, 2));
        assert_eq!(t.pop(None), Some((2, 0)));
    }

    #[test]
    fn queue_reset_disk_clears_generation() {
        let t = rebuilding(2, 2);
        t.fail(3);
        assert_eq!(
            t.adopt(1),
            vec![3],
            "a rebuilding disk is not adopted again"
        );
        t.hint([2], 1..2);
        let (d, s) = t.pop(None).unwrap();
        t.finish(d, s, true);
        t.heal(2);
        assert_eq!(t.rebuilding(), vec![3], "other disks untouched");
        assert_eq!(t.depth(), 1);
        assert_eq!(t.hint_count(), 0);
        // The healed disk's late report is ignored...
        t.finish(2, 0, true);
        // ... and a fresh generation may rebuild the same stripe.
        t.fail(2);
        assert_eq!(t.adopt(2), vec![2]);
        assert_eq!(t.pop(Some(2)), Some((2, 0)));
    }

    #[test]
    fn queue_abandons_after_max_attempts() {
        let t = rebuilding(0, 1);
        for _ in 0..MAX_TRIES {
            let (d, s) = t.pop(None).unwrap();
            t.finish(d, s, false);
        }
        assert_eq!(t.pop(None), None);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.settle(1, None), vec![(0, Settled::GaveUp(1))]);
        // Given up on: down, idle, not adopted again, deaf to hints.
        assert_eq!(t.down(), vec![0]);
        assert!(t.idle());
        t.fail(0);
        assert_eq!(t.adopt(1), vec![]);
        t.hint([0], 0..1);
        assert_eq!(t.hint_count(), 0);
        // Healed, the mark goes.
        t.heal(0);
        t.fail(0);
        assert_eq!(t.adopt(1), vec![0]);
    }

    /// The state names the model test compares.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Label {
        Up,
        Suspect,
        Failed,
        Rebuilding,
        GaveUp,
    }

    fn labels(t: &DiskTable) -> Vec<Label> {
        let rows = t.rows.lock();
        let label = |r: &Row| match r.state {
            State::Up => Label::Up,
            State::Suspect => Label::Suspect,
            State::Failed => Label::Failed,
            State::Rebuilding(_) => Label::Rebuilding,
            State::GaveUp => Label::GaveUp,
        };
        rows.iter().map(label).collect()
    }

    /// Check the table against the model after a step: the same state
    /// per disk, the down set and `idle` read off the model, hints only
    /// where a state keeps them, and no stripe in two of hot, `todo` and
    /// in flight.
    fn check(t: &DiskTable, model: &[Label]) -> Result<(), String> {
        let got = labels(t);
        if got != model {
            return Err(format!("states {got:?}, model {model:?}"));
        }
        let is = |keep: &[Label]| -> Vec<usize> {
            (0..model.len())
                .filter(|&d| keep.contains(&model[d]))
                .collect()
        };
        let down = is(&[Label::Failed, Label::Rebuilding, Label::GaveUp]);
        if t.down() != down {
            return Err(format!("down {:?}, want {down:?}", t.down()));
        }
        if t.suspect_disks() != is(&[Label::Suspect]) {
            return Err(format!("suspects {:?}", t.suspect_disks()));
        }
        let busy = is(&[Label::Suspect, Label::Failed, Label::Rebuilding]);
        if t.idle() != busy.is_empty() {
            return Err(format!("idle() = {} with {busy:?} busy", t.idle()));
        }
        let rows = t.rows.lock();
        for (d, row) in rows.iter().enumerate() {
            if matches!(row.state, State::Up | State::GaveUp) && !row.hot.is_empty() {
                return Err(format!("disk {d} keeps hints {:?}", row.hot));
            }
            if let State::Rebuilding(r) = &row.state {
                let sets = [&row.hot, &r.todo, &r.in_flight];
                let total: usize = sets.iter().map(|s| s.len()).sum();
                let union: BTreeSet<u64> = sets.iter().flat_map(|s| s.iter().copied()).collect();
                if union.len() != total {
                    return Err(format!("disk {d}: a stripe in two sets: {sets:?}"));
                }
            }
        }
        Ok(())
    }

    /// Apply one random step to the table and the model; return what it
    /// did, or how the table's answer differed from the model's.
    fn step(
        rng: &mut Rng,
        t: &DiskTable,
        model: &mut [Label],
        popped: &mut Vec<(usize, u64)>,
        sealed: &mut u64,
    ) -> Result<String, String> {
        let n = model.len();
        let d = rng.random_range(0..n);
        Ok(match rng.random_range(0..11u32) {
            0 => {
                let answered: Vec<usize> =
                    (0..n).filter(|_| rng.random_range(0..2u32) == 0).collect();
                let bad: BTreeSet<usize> =
                    (0..n).filter(|_| rng.random_range(0..4u32) == 0).collect();
                t.report(answered.iter().copied(), &bad);
                for &a in &answered {
                    if !bad.contains(&a) && model[a] == Label::Suspect {
                        model[a] = Label::Up;
                    }
                }
                for &b in &bad {
                    if model[b] == Label::Up {
                        model[b] = Label::Suspect;
                    }
                }
                format!("report(answered {answered:?}, bad {bad:?})")
            }
            1 => {
                let s = rng.random_range(0..*sealed + 2);
                t.hint([d], s..s + rng.random_range(1..3u64));
                format!("hint({d}, {s}..)")
            }
            2 => {
                t.fail(d);
                if matches!(model[d], Label::Up | Label::Suspect) {
                    model[d] = Label::Failed;
                }
                format!("fail({d})")
            }
            3 => {
                t.heal(d);
                model[d] = Label::Up;
                format!("heal({d})")
            }
            4 | 5 => {
                let passed = rng.random_range(0..2u32) == 0;
                let promoted = t.probed(d, passed, *sealed);
                if promoted != (model[d] == Label::Suspect && !passed) {
                    return Err(format!("probed({d}, passed {passed}) = {promoted}"));
                }
                if model[d] == Label::Suspect {
                    model[d] = if passed { Label::Up } else { Label::Rebuilding };
                }
                format!("probed({d}, passed {passed})")
            }
            6 => {
                let adopted = t.adopt(*sealed);
                let want: Vec<usize> = (0..n).filter(|&d| model[d] == Label::Failed).collect();
                if adopted != want {
                    return Err(format!("adopt({sealed}) = {adopted:?}, want {want:?}"));
                }
                for d in adopted {
                    model[d] = Label::Rebuilding;
                }
                format!("adopt({sealed})")
            }
            7 => {
                let got = t.pop(None);
                if let Some(p) = got {
                    if model[p.0] != Label::Rebuilding {
                        return Err(format!("pop() = {p:?} from a {:?} disk", model[p.0]));
                    }
                    popped.push(p);
                }
                format!("pop() = {got:?}")
            }
            8 | 9 if !popped.is_empty() => {
                let (d, s) = popped.swap_remove(rng.random_range(0..popped.len()));
                let ok = rng.random_range(0..3u32) > 0;
                t.finish(d, s, ok);
                format!("finish({d}, {s}, ok {ok})")
            }
            8 | 9 => {
                *sealed += 1;
                format!("seal → {sealed}")
            }
            _ => {
                for (d, settled) in t.settle(*sealed, None) {
                    if model[d] != Label::Rebuilding {
                        return Err(format!("settled a {:?} disk {d}", model[d]));
                    }
                    match settled {
                        Settled::GaveUp(_) => model[d] = Label::GaveUp,
                        // What the detector does with a rebuilt disk.
                        Settled::Heal(_) => {
                            t.heal(d);
                            model[d] = Label::Up;
                        }
                    }
                }
                format!("settle({sealed})")
            }
        })
    }

    #[test]
    fn table_model_holds_its_invariants_on_random_schedules() {
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let t = DiskTable::new(5);
            let mut model = vec![Label::Up; 5];
            let mut popped = Vec::new();
            let mut sealed = 3;
            let mut steps = Vec::new();
            for _ in 0..300 {
                let done = step(&mut rng, &t, &mut model, &mut popped, &mut sealed)
                    .and_then(|s| check(&t, &model).map(|()| s));
                match done {
                    Ok(s) => steps.push(s),
                    Err(e) => panic!("seed {seed}: {e}\nafter:\n  {}", steps.join("\n  ")),
                }
            }
        }
    }
}
