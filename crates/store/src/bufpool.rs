//! A small thread-local buffer pool for the decode scrub's hot loop.
//!
//! `scrub_decode` churns through element-sized `Vec<u8>` scratch
//! buffers: it re-derives every group's parities and drops the cells it
//! compared them with. Routing those buffers through a per-thread free
//! list turns the steady state allocation-free — each group reuses the
//! previous group's capacity instead of going back to the allocator.
//! The read path does not use it: a read keeps the buffers its cells
//! arrived in (the front door's cache owns them afterwards), and nothing
//! on that path ever takes from the pool.
//!
//! The pool is deliberately modest: a bounded `thread_local!` stack of
//! retired buffers, no cross-thread sharing, no size classes. Buffers
//! handed out are zero-filled to the requested length so callers see
//! exactly what `vec![0u8; len]` would give them. `ecfrm_util::par_map`
//! workers get their own (initially empty) pool and recycle across the
//! items they process within one call; buffers whose ownership leaves
//! the store (e.g. regions moved into a disk write batch) are simply
//! never returned.

use std::cell::RefCell;

/// Retired buffers kept per thread. Beyond this, [`give`] drops the
/// buffer — the pool must never become an unbounded memory hog when a
/// burst retires more buffers than the steady state reuses.
const MAX_POOLED: usize = 64;

/// Buffers above this capacity are dropped rather than pooled, so one
/// giant read doesn't pin its peak footprint forever.
const MAX_POOLED_CAPACITY: usize = 4 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Take a zero-filled buffer of exactly `len` bytes, reusing a retired
/// buffer's capacity when one is available.
pub fn take(len: usize) -> Vec<u8> {
    let reused = POOL.with(|p| p.borrow_mut().pop());
    match reused {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0);
            buf
        }
        None => vec![0u8; len],
    }
}

/// Retire a buffer into the current thread's pool for a later [`take`].
pub fn give(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// Retire a whole batch of buffers.
pub fn give_all<I: IntoIterator<Item = Vec<u8>>>(bufs: I) {
    for b in bufs {
        give(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_of_requested_len() {
        let mut b = take(16);
        b.iter_mut().for_each(|x| *x = 0xAB);
        give(b);
        let b2 = take(8);
        assert_eq!(b2, vec![0u8; 8]);
        let b3 = take(32); // growth past recycled capacity still zeroed
        assert_eq!(b3, vec![0u8; 32]);
    }

    #[test]
    fn pool_reuses_capacity() {
        let b = take(1024);
        let cap = b.capacity();
        let ptr = b.as_ptr() as usize;
        give(b);
        let b2 = take(512);
        // Not guaranteed by the allocator in general, but with a
        // freshly-pooled buffer the same allocation must come back.
        assert_eq!(b2.capacity(), cap);
        assert_eq!(b2.as_ptr() as usize, ptr);
    }

    #[test]
    fn zero_capacity_buffers_not_pooled() {
        give(Vec::new());
        // Must not panic and must still serve fresh allocations.
        assert_eq!(take(4), vec![0u8; 4]);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED + 20) {
            give(vec![0u8; 8]);
        }
        POOL.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
