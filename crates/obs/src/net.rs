//! Network transport counters.
//!
//! Incremented by remote disk clients (`ecfrm-net`) and snapshotted into
//! [`NetStats`] for reporting. These predate the [`Recorder`] registry
//! (they came in with the shard service) and keep their struct shape
//! because `ReadStats` embeds the snapshot per read; the store also
//! folds the same values into its registry as plain counters.
//!
//! [`Recorder`]: crate::Recorder

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe network transport counters.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Frames re-sent on a fresh connection because the first write
    /// never fully left this host.
    pub retries: AtomicU64,
    /// Requests that hit their per-request deadline.
    pub timeouts: AtomicU64,
    /// Connections re-established after a transport error.
    pub reconnects: AtomicU64,
    /// Requests that failed: refused, timed out, lost with their
    /// connection, or answered with an error.
    pub failed_requests: AtomicU64,
    /// Connections dropped instead of being returned for reuse, because
    /// an error or timeout left their framing state unknown.
    pub conns_discarded: AtomicU64,
}

impl NetCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the current values.
    pub fn snapshot(&self) -> NetStats {
        NetStats {
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            failed_requests: self.failed_requests.load(Ordering::Relaxed),
            conns_discarded: self.conns_discarded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of [`NetCounters`]. Subtraction gives the
/// delta over a window (e.g. one `get_range` call).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Frames re-sent on a fresh connection because the first write
    /// never fully left this host.
    pub retries: u64,
    /// Requests that hit their per-request deadline.
    pub timeouts: u64,
    /// Connections re-established after a transport error.
    pub reconnects: u64,
    /// Requests that failed: refused, timed out, lost with their
    /// connection, or answered with an error.
    pub failed_requests: u64,
    /// Connections dropped instead of being returned for reuse, because
    /// an error or timeout left their framing state unknown.
    pub conns_discarded: u64,
}

impl NetStats {
    /// True when every counter is zero (e.g. a purely local read).
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Counter-wise sum.
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            retries: self.retries + other.retries,
            timeouts: self.timeouts + other.timeouts,
            reconnects: self.reconnects + other.reconnects,
            failed_requests: self.failed_requests + other.failed_requests,
            conns_discarded: self.conns_discarded + other.conns_discarded,
        }
    }

    /// Counter-wise saturating difference (`self - earlier`), for
    /// windowed deltas across a single operation.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            retries: self.retries.saturating_sub(earlier.retries),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
            failed_requests: self.failed_requests.saturating_sub(earlier.failed_requests),
            conns_discarded: self.conns_discarded.saturating_sub(earlier.conns_discarded),
        }
    }

    /// Fold this delta into a [`Recorder`](crate::Recorder)'s counters
    /// under `net.*` names, so transport activity shows up alongside
    /// the rest of a subsystem's metrics.
    pub fn record_into(&self, recorder: &crate::Recorder) {
        if self.is_zero() {
            return;
        }
        for (name, v) in [
            ("net.retries", self.retries),
            ("net.timeouts", self.timeouts),
            ("net.reconnects", self.reconnects),
            ("net.failed_requests", self.failed_requests),
            ("net.conns_discarded", self.conns_discarded),
        ] {
            if v > 0 {
                recorder.counter(name).add(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_counters_snapshot_merge_since() {
        let c = NetCounters::new();
        assert!(c.snapshot().is_zero());
        c.retries.fetch_add(3, Ordering::Relaxed);
        c.timeouts.fetch_add(1, Ordering::Relaxed);
        let a = c.snapshot();
        assert_eq!((a.retries, a.timeouts), (3, 1));
        c.reconnects.fetch_add(2, Ordering::Relaxed);
        c.retries.fetch_add(1, Ordering::Relaxed);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!((d.retries, d.reconnects, d.timeouts), (1, 2, 0));
        let m = a.merge(&d);
        assert_eq!(m, b);
    }

    #[test]
    fn record_into_folds_nonzero_counters() {
        let r = crate::Recorder::new();
        NetStats::default().record_into(&r);
        assert!(r.snapshot().counters.is_empty());
        let d = NetStats {
            retries: 2,
            timeouts: 1,
            ..Default::default()
        };
        d.record_into(&r);
        d.record_into(&r);
        let s = r.snapshot();
        assert_eq!(s.counters["net.retries"], 4);
        assert_eq!(s.counters["net.timeouts"], 2);
        assert!(!s.counters.contains_key("net.reconnects"));
    }
}
