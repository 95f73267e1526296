//! Panic-safe synchronisation wrappers.
//!
//! `std::sync::Mutex::lock` returns a `Result` purely to surface
//! poisoning; across this workspace a poisoned lock means a worker thread
//! already panicked, and propagating the inner value (parking_lot's
//! behaviour) is what every call site wants. This wrapper collapses the
//! `Result` so the lock reads as `m.lock()`.
//!
//! [`Queue`] is the one closable FIFO under both worker pools of the
//! workspace: the I/O engine's (`ecfrm_sim::Reactor`) and a shard
//! connection's (`ecfrm-net`'s mux pool).

use std::collections::VecDeque;
use std::sync::{Condvar, MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never returns `Err`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A closable multi-producer, multi-consumer FIFO: producers
/// [`push`](Self::push), pool workers park in [`pop`](Self::pop), and
/// whoever owns the pool [`close`](Self::close)s it to send the workers
/// home. Unbounded.
#[derive(Debug)]
pub struct Queue<T> {
    /// Queued items, and whether the queue has been closed.
    state: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> Default for Queue<T> {
    fn default() -> Self {
        Self {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }
}

impl<T> Queue<T> {
    /// An open, empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `item` and wake one parked [`pop`](Self::pop).
    ///
    /// # Errors
    /// Hands `item` back once the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock();
        if state.1 {
            return Err(item);
        }
        state.0.push_back(item);
        self.cv.notify_one();
        Ok(())
    }

    /// The oldest item, parking while the queue is open and empty;
    /// `None` once it is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.0.pop_front() {
                return Some(item);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue, wake every parked [`pop`](Self::pop), and return
    /// what was still queued, oldest first (nothing on a second call).
    pub fn close(&self) -> VecDeque<T> {
        let mut state = self.state.lock();
        state.1 = true;
        self.cv.notify_all();
        std::mem::take(&mut state.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn survives_poisoning() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock usable after a panicking holder");
    }

    #[test]
    fn queue_is_fifo() {
        let q = Queue::new();
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(
            (0..5).map(|_| q.pop().unwrap()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    /// `n` threads that each call `pop` once and report what they got.
    fn poppers(q: &Arc<Queue<u32>>, n: usize) -> std::sync::mpsc::Receiver<Option<u32>> {
        let (tx, rx) = channel();
        for _ in 0..n {
            let (q, tx) = (Arc::clone(q), tx.clone());
            std::thread::spawn(move || tx.send(q.pop()).unwrap());
        }
        rx
    }

    #[test]
    fn pop_parks_then_wakes_on_push() {
        let q = Arc::new(Queue::new());
        let got = poppers(&q, 1);
        assert!(got.try_recv().is_err(), "nothing to pop yet");
        q.push(7).unwrap();
        assert_eq!(got.recv().unwrap(), Some(7));
    }

    #[test]
    fn close_wakes_every_parked_pop() {
        let q = Arc::new(Queue::new());
        let got = poppers(&q, 3);
        assert!(q.close().is_empty());
        for _ in 0..3 {
            assert_eq!(got.recv().unwrap(), None);
        }
    }

    #[test]
    fn push_after_close_returns_the_item() {
        let q = Queue::new();
        q.close();
        assert_eq!(q.push(9), Err(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_returns_the_backlog_once() {
        let q = Queue::new();
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.close(), [1, 2]);
        assert!(q.close().is_empty());
        assert_eq!(q.pop(), None, "closed and drained");
    }
}
