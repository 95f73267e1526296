//! Completion-driven I/O core: submission/completion queues without an
//! async runtime.
//!
//! The engine has two halves:
//!
//! * [`IoHandle`] / [`IoCompleter`] — a one-shot completion slot created
//!   by [`io_pair`]. The submitter keeps the handle; whoever services
//!   the operation keeps the completer. Completion can be consumed
//!   blocking ([`IoHandle::wait`]), polled ([`IoHandle::try_take`]), or
//!   delivered as a callback ([`IoHandle::on_complete`]) the moment the
//!   result lands — the shape `ThreadedArray`'s streaming reads use so
//!   decode starts while slower disks are still working.
//! * [`Reactor`] — a bounded worker pool draining a shared submission
//!   queue of vectored backend operations. Blocking backends (memory,
//!   files) are serviced here; backends that are themselves
//!   completion-driven (a multiplexed remote client) bypass the pool
//!   entirely and complete their handles from their own demux thread.
//!
//! Everything is built from `std` primitives (`Mutex`, `Condvar`,
//! `VecDeque`) in the `ecfrm-util` spirit: no external async runtime,
//! no dependency.
//!
//! # Lifecycle invariant
//!
//! Every submission completes exactly once. If the servicing side dies —
//! the backend panics, the reactor shuts down with ops still queued, the
//! remote connection drops — the [`IoCompleter`] is dropped and the slot
//! completes as all-`None` ("every element absent"), which is the same
//! failure surface as a failed disk. Waiters therefore never deadlock on
//! a lost operation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use ecfrm_util::{Mutex, Queue};

use crate::threaded::{DiskBackend, RunBuf, WriteRun};

/// The payload of a completed vectored read: one entry per submitted
/// offset, in submission order (`None` = absent or failed element).
pub type IoResults = Vec<Option<Vec<u8>>>;

/// Callback invoked when a submission completes.
type IoCallback = Box<dyn FnOnce(IoResults) + Send + 'static>;

struct IoSlot {
    outcome: Option<IoResults>,
    callback: Option<IoCallback>,
}

struct IoShared {
    slot: Mutex<IoSlot>,
    cv: Condvar,
}

/// The submitter's half of a one-shot completion slot: redeem it for the
/// operation's results by blocking, polling, or registering a callback.
///
/// Obtained from [`DiskBackend::submit_read_many`],
/// [`DiskBackend::submit_write_many`] or [`io_pair`].
pub struct IoHandle {
    shared: Arc<IoShared>,
}

/// The servicing half of a one-shot completion slot. Call
/// [`IoCompleter::complete`] with the results; dropping it without
/// completing delivers all-`None` for the `expected` submitted offsets,
/// so an abandoned operation still completes (see module docs).
pub struct IoCompleter {
    shared: Arc<IoShared>,
    expected: usize,
    done: bool,
}

impl std::fmt::Debug for IoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self.shared.slot.lock().outcome.is_some();
        write!(f, "IoHandle(done: {done})")
    }
}

impl std::fmt::Debug for IoCompleter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IoCompleter(expected: {})", self.expected)
    }
}

/// Create a linked handle/completer pair for an operation covering
/// `expected` offsets. The completer guarantees completion: dropped
/// without a result, it delivers `vec![None; expected]`.
pub fn io_pair(expected: usize) -> (IoHandle, IoCompleter) {
    let shared = Arc::new(IoShared {
        slot: Mutex::new(IoSlot {
            outcome: None,
            callback: None,
        }),
        cv: Condvar::new(),
    });
    (
        IoHandle {
            shared: Arc::clone(&shared),
        },
        IoCompleter {
            shared,
            expected,
            done: false,
        },
    )
}

impl IoHandle {
    /// A handle that is already complete — for backends that service the
    /// request inline (memory, files) and only need the completion
    /// *shape*, not actual asynchrony.
    pub fn ready(results: IoResults) -> Self {
        let (handle, completer) = io_pair(results.len());
        completer.complete(results);
        handle
    }

    /// Take the results if the operation has completed, without
    /// blocking.
    pub fn try_take(&mut self) -> Option<IoResults> {
        self.shared.slot.lock().outcome.take()
    }

    /// Block until the operation completes and return its results.
    pub fn wait(self) -> IoResults {
        let mut slot = self.shared.slot.lock();
        loop {
            if let Some(results) = slot.outcome.take() {
                return results;
            }
            slot = self
                .shared
                .cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Block for at most `timeout`: the results if the operation
    /// completed in time, `None` (handle still redeemable) otherwise —
    /// for waiters that must also watch a stop flag.
    pub fn wait_timeout(&mut self, timeout: std::time::Duration) -> Option<IoResults> {
        let slot = self.shared.slot.lock();
        let (mut slot, _) = self
            .shared
            .cv
            .wait_timeout_while(slot, timeout, |s| s.outcome.is_none())
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.outcome.take()
    }

    /// Deliver the results to `f` as soon as they land — immediately if
    /// the operation already completed, otherwise from the thread that
    /// completes it. Consumes the handle; exactly one delivery happens.
    pub fn on_complete<F>(self, f: F)
    where
        F: FnOnce(IoResults) + Send + 'static,
    {
        let results = {
            let mut slot = self.shared.slot.lock();
            match slot.outcome.take() {
                Some(results) => results,
                None => {
                    slot.callback = Some(Box::new(f));
                    return;
                }
            }
        };
        f(results);
    }
}

impl IoCompleter {
    /// Deliver the operation's results, waking waiters and firing any
    /// registered callback (outside the slot lock).
    pub fn complete(mut self, results: IoResults) {
        self.done = true;
        self.deliver(results);
    }

    fn deliver(&self, results: IoResults) {
        let callback = {
            let mut slot = self.shared.slot.lock();
            match slot.callback.take() {
                Some(callback) => callback,
                None => {
                    slot.outcome = Some(results);
                    self.shared.cv.notify_all();
                    return;
                }
            }
        };
        callback(results);
    }
}

impl Drop for IoCompleter {
    fn drop(&mut self) {
        if !self.done {
            self.deliver(vec![None; self.expected]);
        }
    }
}

/// Live counters for the I/O engine: submissions, completions, panics,
/// plus queue-depth / in-flight gauges. Cheap to clone (all handles
/// share the same atomics); snapshot with [`ReactorStats::snapshot`].
#[derive(Debug, Default)]
pub struct ReactorStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    panics: AtomicU64,
    queue_depth: AtomicI64,
    inflight: AtomicI64,
}

/// A point-in-time snapshot of [`ReactorStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Vectored operations submitted (pool and async paths).
    pub submitted: u64,
    /// Operations whose completion has been delivered.
    pub completed: u64,
    /// Operations whose backend panicked (completed as all-`None`).
    pub panics: u64,
    /// Operations queued, waiting for a pool worker.
    pub queue_depth: i64,
    /// Operations currently being serviced (pool + async in flight).
    pub inflight: i64,
}

impl ReactorStats {
    /// Snapshot the current values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    fn inflight_add(&self, delta: i64) {
        self.inflight.fetch_add(delta, Ordering::Relaxed);
    }

    /// An operation that bypasses the pool — the array is handing it to
    /// a completion-driven backend itself — is submitted and in flight.
    pub(crate) fn direct_submitted(&self) {
        self.note_submitted();
        self.inflight_add(1);
    }

    /// That operation completed.
    pub(crate) fn direct_completed(&self) {
        self.inflight_add(-1);
        self.note_completed();
    }

    fn depth_add(&self, delta: i64) {
        self.queue_depth.fetch_add(delta, Ordering::Relaxed);
    }
}

impl IoSnapshot {
    /// This snapshot as registry gauges: `io.queue_depth` /
    /// `io.inflight` (point-in-time) and `io.submitted` /
    /// `io.completed` / `io.panics` (the engine's lifetime totals).
    pub(crate) fn gauges(&self) -> [(&'static str, i64); 5] {
        [
            ("io.queue_depth", self.queue_depth),
            ("io.inflight", self.inflight),
            ("io.submitted", self.submitted as i64),
            ("io.completed", self.completed as i64),
            ("io.panics", self.panics as i64),
        ]
    }
}

/// One vectored backend operation: what [`Reactor::submit`] queues and
/// `ThreadedArray` hands a completion-driven backend directly.
#[derive(Debug)]
pub enum Op {
    /// Read these offsets: one result entry per offset.
    Read(Vec<u64>),
    /// Write these runs: an empty result once they are applied.
    Write(Vec<RunBuf>),
}

impl Op {
    /// Hand the operation to `backend` through the submission entry
    /// point it belongs to.
    pub(crate) fn submit_to(&self, backend: &dyn DiskBackend) -> IoHandle {
        match self {
            Op::Read(offsets) => backend.submit_read_many(offsets),
            Op::Write(runs) => {
                let views: Vec<WriteRun<'_>> = runs.iter().map(RunBuf::as_run).collect();
                backend.submit_write_many(&views)
            }
        }
    }
}

/// One queued submission: the backend to drive, what to do, and where
/// to complete.
struct Job {
    backend: Arc<dyn DiskBackend>,
    op: Op,
    completer: IoCompleter,
}

/// A bounded worker pool servicing vectored backend operations from a
/// shared submission queue, delivering each result through its
/// [`IoCompleter`] as it lands.
///
/// A panicking backend does **not** kill its worker: the panic is
/// caught, the op completes as all-`None` — what the caller makes of a
/// disk that answers nothing — and the worker moves on to the next
/// submission.
pub struct Reactor {
    queue: Arc<Queue<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<ReactorStats>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Reactor({} workers)", self.workers.lock().len())
    }
}

impl Reactor {
    /// Spawn a reactor with `workers` pool threads (at least one).
    pub fn new(workers: usize) -> Self {
        let queue = Arc::new(Queue::new());
        let stats = Arc::new(ReactorStats::default());
        let handles = (0..workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || Self::worker_loop(&queue, &stats))
            })
            .collect();
        Self {
            queue,
            workers: Mutex::new(handles),
            stats,
        }
    }

    fn worker_loop(queue: &Queue<Job>, stats: &ReactorStats) {
        while let Some(job) = queue.pop() {
            stats.depth_add(-1);
            stats.inflight_add(1);
            let outcome = catch_unwind(AssertUnwindSafe(|| job.op.submit_to(&*job.backend).wait()));
            stats.inflight_add(-1);
            stats.note_completed();
            match outcome {
                Ok(results) => job.completer.complete(results),
                // Dropping the completer delivers all-None.
                Err(_) => stats.note_panic(),
            }
        }
    }

    /// Shared counters/gauges for this engine.
    pub fn stats(&self) -> &Arc<ReactorStats> {
        &self.stats
    }

    /// Queue `op` against `backend`; the returned handle completes when
    /// a pool worker has submitted it and waited it out (all-`None` if
    /// the backend panics).
    pub fn submit(&self, backend: Arc<dyn DiskBackend>, op: Op) -> IoHandle {
        // What a lost op completes with: a `None` per offset read.
        let (handle, completer) = io_pair(match &op {
            Op::Read(offsets) => offsets.len(),
            Op::Write(_) => 0,
        });
        self.stats.note_submitted();
        self.stats.depth_add(1);
        let job = Job {
            backend,
            op,
            completer,
        };
        if self.queue.push(job).is_err() {
            self.stats.depth_add(-1); // dropped: completer → all-None
        }
        handle
    }

    /// Stop accepting submissions, complete queued-but-unserviced ops as
    /// all-`None`, and join the pool. Idempotent.
    pub fn shutdown(&self) {
        for job in self.queue.close() {
            self.stats.depth_add(-1);
            self.stats.note_completed();
            drop(job); // completer delivers all-None
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::MemDisk;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn ready_handle_completes_immediately() {
        let h = IoHandle::ready(vec![Some(vec![1]), None]);
        assert_eq!(format!("{h:?}"), "IoHandle(done: true)");
        assert_eq!(h.wait(), vec![Some(vec![1]), None]);
    }

    #[test]
    fn wait_blocks_until_completion() {
        let (h, c) = io_pair(1);
        let waiter = std::thread::spawn(move || h.wait());
        std::thread::sleep(Duration::from_millis(10));
        c.complete(vec![Some(vec![7])]);
        assert_eq!(waiter.join().unwrap(), vec![Some(vec![7])]);
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let (mut h, c) = io_pair(1);
        assert_eq!(h.try_take(), None);
        c.complete(vec![None]);
        assert_eq!(h.try_take(), Some(vec![None]));
        assert_eq!(h.try_take(), None, "results are taken once");
    }

    #[test]
    fn wait_timeout_gives_up_and_can_be_retried() {
        let (mut h, c) = io_pair(1);
        assert_eq!(h.wait_timeout(Duration::from_millis(1)), None);
        c.complete(vec![Some(vec![3])]);
        assert_eq!(
            h.wait_timeout(Duration::from_secs(5)),
            Some(vec![Some(vec![3])])
        );
    }

    #[test]
    fn dropped_completer_delivers_all_none() {
        let (h, c) = io_pair(3);
        drop(c);
        assert_eq!(h.wait(), vec![None, None, None]);
    }

    #[test]
    fn callback_fires_on_late_and_early_completion() {
        // Early: already complete when the callback is registered.
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        IoHandle::ready(vec![Some(vec![1])]).on_complete(move |r| tx2.send(r).unwrap());
        assert_eq!(rx.recv().unwrap(), vec![Some(vec![1])]);
        // Late: callback registered first, completion arrives after.
        let (h, c) = io_pair(1);
        h.on_complete(move |r| tx.send(r).unwrap());
        c.complete(vec![Some(vec![2])]);
        assert_eq!(rx.recv().unwrap(), vec![Some(vec![2])]);
    }

    #[test]
    fn reactor_services_reads_and_writes() {
        let reactor = Reactor::new(2);
        let disk: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        let run = RunBuf {
            start: 0,
            cell_len: 1,
            bytes: vec![1, 2],
        };
        reactor
            .submit(Arc::clone(&disk), Op::Write(vec![run]))
            .wait();
        let got = reactor
            .submit(Arc::clone(&disk), Op::Read(vec![0, 1, 9]))
            .wait();
        assert_eq!(got, vec![Some(vec![1]), Some(vec![2]), None]);
        let snap = reactor.stats().snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!((snap.queue_depth, snap.inflight), (0, 0));
    }

    #[derive(Debug)]
    struct PanicBackend;
    impl DiskBackend for PanicBackend {
        fn submit_read_many(&self, _offsets: &[u64]) -> IoHandle {
            panic!("injected backend panic");
        }
        fn submit_write_many(&self, _runs: &[WriteRun<'_>]) -> IoHandle {
            panic!("injected backend panic");
        }
        fn fail(&self) {}
        fn heal(&self) {}
        fn wipe(&self) {}
        fn len(&self) -> usize {
            0
        }
    }

    #[test]
    fn panicking_backend_completes_all_none() {
        let reactor = Reactor::new(1);
        let got = reactor
            .submit(Arc::new(PanicBackend), Op::Read(vec![0, 1]))
            .wait();
        assert_eq!(got, vec![None, None]);
        // The worker survived the panic and serves the next op.
        let disk: Arc<dyn DiskBackend> = Arc::new(MemDisk::new());
        disk.write(0, vec![5]);
        assert_eq!(
            reactor.submit(disk, Op::Read(vec![0])).wait(),
            vec![Some(vec![5])]
        );
        assert_eq!(reactor.stats().snapshot().panics, 1);
    }

    #[test]
    fn shutdown_completes_queued_ops_as_all_none() {
        // One worker, blocked on a slow op; queued ops behind it are
        // abandoned by shutdown and must still complete.
        let reactor = Reactor::new(1);
        let slow: Arc<dyn DiskBackend> = Arc::new(MemDisk::with_latency(Duration::from_millis(30)));
        slow.write(0, vec![1]);
        let first = reactor.submit(Arc::clone(&slow), Op::Read(vec![0]));
        // Wait for the worker to dequeue `first` (queue_depth drops to
        // zero) — otherwise shutdown races the dequeue and may abandon
        // it too.
        while reactor.stats().snapshot().queue_depth > 0 {
            std::thread::yield_now();
        }
        let queued = reactor.submit(Arc::clone(&slow), Op::Read(vec![0, 0]));
        reactor.shutdown();
        assert_eq!(first.wait(), vec![Some(vec![1])]);
        assert_eq!(queued.wait(), vec![None, None]);
    }
}
