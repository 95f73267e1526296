//! Scoped-thread parallel mapping — the `par_iter().map().collect()`
//! shape the store's encode/rebuild paths and the figure harness use,
//! built on `std::thread::scope` with an atomic work queue.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: available parallelism, capped by the job count.
fn workers_for(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    cores.min(jobs).max(1)
}

/// Parallel map over a slice, preserving order. The closure receives
/// `(index, &item)`. Runs inline when there is at most one item or one
/// core. Panics in workers propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers_for(n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Each worker claims indices from the shared counter and returns
    // the `(index, result)` pairs it produced, which are put back in
    // index order once every worker has joined.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i, &items[i])));
        }
    };
    let mut pairs: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => pairs.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = par_map(&xs, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // single-core CI runner: nothing to assert
        }
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let xs: Vec<usize> = (0..64).collect();
        par_map(&xs, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "no overlap observed");
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let xs = [1, 2, 3];
        par_map(&xs, |_, &x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
