//! Fault injection for chaos-testing the array mid-workload.
//!
//! [`FaultyDisk`] decorates any [`DiskBackend`] with an armable fault
//! that fires after a configurable number of served reads — so a test or
//! benchmark can start a workload against a healthy array and have one
//! disk die, straggle, or silently corrupt *in the middle of it*, the
//! failure timing that exercises suspect detection, degraded replanning
//! and background repair rather than the easy before-the-read case.
//!
//! Three fault kinds are modelled:
//!
//! * [`FaultKind::Kill`] — the disk stops answering entirely: reads
//!   return `None`, writes are dropped, `len()` reads 0. A killed node
//!   is indistinguishable from a crashed remote shard; recovery requires
//!   re-registering a replacement backend
//!   ([`ThreadedArray::replace_disk`](crate::ThreadedArray::replace_disk)).
//! * [`FaultKind::Delay`] — every read pays an extra service delay: the
//!   straggler that trips request deadlines and suspect timeouts.
//! * [`FaultKind::FlipCorrupt`] — served bytes come back with one bit
//!   flipped (at an offset-derived position, so no fixed byte a reader
//!   could special-case): silent corruption, invisible to the
//!   transport, caught by the store's per-element checksum
//!   verification on read or by a verifying scrub.
//!
//! ```
//! use std::sync::Arc;
//! use ecfrm_sim::{DiskBackend, FaultKind, FaultyDisk, MemDisk};
//!
//! let disk = FaultyDisk::wrap(Arc::new(MemDisk::new()));
//! disk.write(0, vec![1, 2, 3]);
//! disk.arm(FaultKind::Kill, 2); // die after two served reads
//! assert!(disk.read(0).is_some());
//! assert!(disk.read(0).is_some());
//! assert!(disk.read(0).is_none()); // the fault has fired
//! assert!(disk.fired());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ecfrm_util::Mutex;

use crate::metrics::NetStats;
use crate::threaded::{DiskBackend, WriteRun};

/// What a [`FaultyDisk`] does once its fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stop answering: reads return `None`, writes are dropped.
    Kill,
    /// Serve reads after an extra per-read delay (a straggler).
    Delay(Duration),
    /// Serve reads with one bit flipped in the returned bytes, at a
    /// position derived from the element's offset (silent corruption —
    /// only checksum verification or a scrub can see it).
    FlipCorrupt,
}

/// A [`DiskBackend`] decorator that injects a fault mid-workload.
///
/// The fault is *armed* with a read countdown: the first `after_reads`
/// read attempts pass through untouched, then the fault fires and stays
/// active until [`FaultyDisk::clear`]. Attempts are counted per element
/// (a vectored read of 8 elements is 8 attempts), matching how
/// [`MemDisk`](crate::MemDisk) charges service time.
#[derive(Debug)]
pub struct FaultyDisk {
    inner: Arc<dyn DiskBackend>,
    fault: Mutex<Option<FaultKind>>,
    /// Read attempts remaining before the armed fault fires; `u64::MAX`
    /// when disarmed.
    fuse: AtomicU64,
    fired: AtomicBool,
    reads: AtomicU64,
}

impl FaultyDisk {
    /// Decorate `inner`; no fault is armed yet.
    pub fn wrap(inner: Arc<dyn DiskBackend>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            fault: Mutex::new(None),
            fuse: AtomicU64::new(u64::MAX),
            fired: AtomicBool::new(false),
            reads: AtomicU64::new(0),
        })
    }

    /// Arm `kind` to fire after `after_reads` further read attempts
    /// (0 = immediately). Re-arming replaces any previous fault.
    pub fn arm(&self, kind: FaultKind, after_reads: u64) {
        *self.fault.lock() = Some(kind);
        self.fired.store(after_reads == 0, Ordering::Release);
        self.fuse.store(after_reads, Ordering::Release);
    }

    /// Disarm and deactivate any fault; the disk behaves normally again.
    pub fn clear(&self) {
        *self.fault.lock() = None;
        self.fuse.store(u64::MAX, Ordering::Release);
        self.fired.store(false, Ordering::Release);
    }

    /// True once the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Total read attempts observed (fired or not).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Acquire)
    }

    /// The wrapped backend (e.g. to inspect surviving contents after a
    /// kill).
    pub fn inner(&self) -> &Arc<dyn DiskBackend> {
        &self.inner
    }

    /// Count `n` read attempts against the fuse and return the active
    /// fault, if it has fired.
    fn tick(&self, n: u64) -> Option<FaultKind> {
        self.reads.fetch_add(n, Ordering::AcqRel);
        let fuse = self.fuse.load(Ordering::Acquire);
        if fuse == u64::MAX {
            return None;
        }
        if !self.fired.load(Ordering::Acquire) {
            // CAS decrement: a call whose attempts still fit the fuse
            // passes through whole; a call that would overrun it fires
            // the fault for the entire call (the node died mid-request).
            let mut cur = fuse;
            loop {
                if cur == u64::MAX {
                    return None; // disarmed meanwhile
                }
                if cur < n {
                    self.fired.store(true, Ordering::Release);
                    break;
                }
                match self.fuse.compare_exchange_weak(
                    cur,
                    cur - n,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return None,
                    Err(seen) => cur = seen,
                }
            }
        }
        *self.fault.lock()
    }

    /// Flip one bit of a served element. Both the byte index and the
    /// bit are derived from the offset, so a batch of elements corrupts
    /// in different positions and nothing short of an actual integrity
    /// check (not a "first byte looks odd" heuristic) can catch it.
    fn corrupt(offset: u64, bytes: Option<Vec<u8>>) -> Option<Vec<u8>> {
        bytes.map(|mut b| {
            if !b.is_empty() {
                let byte = (offset as usize).wrapping_mul(31) % b.len();
                b[byte] ^= 1 << (offset % 8);
            }
            b
        })
    }
}

impl DiskBackend for FaultyDisk {
    /// One vectored entry point covers the whole read surface: the
    /// per-element `read` shim ticks the fuse by one through here, a
    /// vectored batch ticks it by its length. Served inline (the fault
    /// decision and any delay happen on the servicing thread), so a
    /// wrapped blocking backend keeps its timing behaviour.
    fn submit_read_many(&self, offsets: &[u64]) -> crate::reactor::IoHandle {
        let results = match self.tick(offsets.len() as u64) {
            Some(FaultKind::Kill) => vec![None; offsets.len()],
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.read_many(offsets)
            }
            Some(FaultKind::FlipCorrupt) => self
                .inner
                .read_many(offsets)
                .into_iter()
                .zip(offsets)
                .map(|(bytes, &off)| Self::corrupt(off, bytes))
                .collect(),
            None => self.inner.read_many(offsets),
        };
        crate::reactor::IoHandle::ready(results)
    }

    /// A killed node accepts nothing — the whole call is dropped; other
    /// faults leave writes alone.
    fn submit_write_many(&self, runs: &[WriteRun<'_>]) -> crate::reactor::IoHandle {
        if self.fired() && matches!(*self.fault.lock(), Some(FaultKind::Kill)) {
            return crate::reactor::IoHandle::ready(Vec::new());
        }
        self.inner.submit_write_many(runs)
    }

    fn cell_len(&self) -> Option<usize> {
        self.inner.cell_len()
    }

    fn fail(&self) {
        self.inner.fail();
    }

    fn heal(&self) {
        self.inner.heal();
    }

    fn wipe(&self) {
        self.inner.wipe();
    }

    fn len(&self) -> usize {
        if self.fired() && matches!(*self.fault.lock(), Some(FaultKind::Kill)) {
            return 0;
        }
        self.inner.len()
    }

    fn net_stats(&self) -> Option<NetStats> {
        self.inner.net_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn loaded() -> Arc<FaultyDisk> {
        let inner = Arc::new(MemDisk::new());
        for o in 0..8u64 {
            inner.write(o, vec![o as u8; 4]);
        }
        FaultyDisk::wrap(inner)
    }

    #[test]
    fn passthrough_until_armed() {
        let d = loaded();
        assert_eq!(d.read(3), Some(vec![3; 4]));
        assert_eq!(d.read_many(&[0, 1]).len(), 2);
        assert!(!d.fired());
        assert_eq!(d.reads(), 3);
    }

    #[test]
    fn kill_fires_after_countdown_and_clears() {
        let d = loaded();
        d.arm(FaultKind::Kill, 3);
        assert!(d.read(0).is_some());
        assert!(d.read(1).is_some());
        assert!(d.read(2).is_some());
        assert!(d.read(0).is_none(), "fourth read crosses the fuse");
        assert!(d.fired());
        assert_eq!(d.read_many(&[0, 1]), vec![None, None]);
        assert_eq!(d.len(), 0);
        // Writes to a killed node are dropped.
        d.write(99, vec![1]);
        d.clear();
        assert_eq!(d.read(0), Some(vec![0; 4]));
        assert!(d.read(99).is_none(), "write during kill was dropped");
    }

    #[test]
    fn kill_counts_vectored_reads_per_element() {
        let d = loaded();
        d.arm(FaultKind::Kill, 4);
        // One 6-element batch crosses the 4-read fuse: the whole batch
        // fails (the node died mid-request).
        assert_eq!(d.read_many(&[0, 1, 2, 3, 4, 5]), vec![None; 6]);
        assert!(d.fired());
    }

    #[test]
    fn delay_serves_correct_bytes_slowly() {
        let d = loaded();
        d.arm(FaultKind::Delay(Duration::from_millis(30)), 0);
        let t0 = std::time::Instant::now();
        assert_eq!(d.read(2), Some(vec![2; 4]));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    /// Bits that differ between `a` and `b`.
    fn hamming(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    #[test]
    fn flip_corrupt_flips_exactly_one_offset_derived_bit() {
        let d = loaded();
        d.arm(FaultKind::FlipCorrupt, 0);
        let got5 = d.read(5).unwrap();
        assert_eq!(hamming(&got5, &[5; 4]), 1, "exactly one bit flipped");
        let got2 = d.read(2).unwrap();
        assert_eq!(hamming(&got2, &[2; 4]), 1);
        // Different offsets corrupt different positions: no fixed byte
        // a reader could special-case.
        let pos = |got: &[u8], clean: u8| got.iter().position(|&x| x != clean);
        assert_ne!(pos(&got5, 5), pos(&got2, 2));
        // Absent elements stay absent, not corrupted into existence.
        assert!(d.read(100).is_none());
    }

    #[test]
    fn flip_corrupt_reaches_vectored_batch_replies() {
        let inner = Arc::new(MemDisk::new());
        for o in 0..4u64 {
            inner.write(o, vec![7u8; 16]);
        }
        let d = FaultyDisk::wrap(inner);
        d.arm(FaultKind::FlipCorrupt, 0);
        let got = d.read_many(&[0, 1, 2, 100]);
        for (i, g) in got[..3].iter().enumerate() {
            let g = g.as_ref().unwrap();
            assert_eq!(hamming(g, &[7u8; 16]), 1, "element {i}: one bit flipped");
        }
        assert_eq!(got[3], None);
        // Per-offset positions differ across the batch.
        let pos = |g: &Option<Vec<u8>>| g.as_ref().unwrap().iter().position(|&x| x != 7);
        assert_ne!(pos(&got[0]), pos(&got[1]));
    }

    #[test]
    fn flip_corrupt_reaches_threaded_array_batches() {
        use crate::ThreadedArray;
        let make = || {
            let m = Arc::new(MemDisk::new());
            for o in 0..4u64 {
                m.write(o, vec![7u8; 16]);
            }
            m
        };
        let faulty = FaultyDisk::wrap(make());
        let array = ThreadedArray::from_backends(vec![
            Arc::clone(&faulty) as Arc<dyn DiskBackend>,
            make() as Arc<dyn DiskBackend>,
        ]);
        faulty.arm(FaultKind::FlipCorrupt, 0);
        let got = array.read_batch(&[(0, 0), (0, 1), (1, 0)]);
        // The faulty disk's replies are corrupted even through the
        // array's per-disk vectored read path; the clean disk's are not.
        assert_eq!(hamming(got[0].as_ref().unwrap(), &[7u8; 16]), 1);
        assert_eq!(hamming(got[1].as_ref().unwrap(), &[7u8; 16]), 1);
        assert_eq!(got[2].as_ref().unwrap(), &vec![7u8; 16]);
    }

    #[test]
    fn arm_zero_fires_immediately() {
        let d = loaded();
        d.arm(FaultKind::Kill, 0);
        assert!(d.fired());
        assert!(d.read(0).is_none());
    }
}
