//! Network transport counters.
//!
//! A remote disk client (`ecfrm-net`) owns one [`NetCounters`] and
//! bumps it as it retries, times out and reconnects; [`NetStats`] is
//! the plain-integer snapshot a backend hands out
//! (`DiskBackend::net_stats`). That tally is the only copy: an array
//! sums its backends' snapshots ([`NetStats::merge`]) in the source it
//! registers with [`Recorder::observe`], so a registry's `net.*`
//! counters are the clients' totals as of the snapshot that asked.
//!
//! [`Recorder::observe`]: crate::Recorder::observe

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

/// A point-in-time snapshot of [`NetCounters`].
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_counters_snapshot_and_merge() {
        let c = NetCounters::new();
        assert_eq!(c.snapshot(), NetStats::default());
        c.retries.fetch_add(3, Ordering::Relaxed);
        c.timeouts.fetch_add(1, Ordering::Relaxed);
        let a = c.snapshot();
        assert_eq!((a.retries, a.timeouts), (3, 1));
        let other = NetStats {
            retries: 1,
            reconnects: 2,
            ..NetStats::default()
        };
        let m = a.merge(&other);
        assert_eq!((m.retries, m.timeouts, m.reconnects), (4, 1, 2));
    }
}
