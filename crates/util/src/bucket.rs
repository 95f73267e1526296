//! Pay-after token bucket shared by background repair and front-door
//! admission control.
//!
//! The bucket refills continuously at `rate` bytes/second up to a burst
//! allowance of ~100 ms worth of rate. A caller may start work only
//! while the balance is non-negative, then charges the work's *actual*
//! byte cost afterwards — possibly driving the balance negative, which
//! future refill pays off. Long-run throughput converges to exactly
//! `rate` with no need to estimate a request's cost up front.
//!
//! Two consumption styles share the same balance:
//!
//! * **Blocking** ([`TokenBucket::wait_ready`] + [`TokenBucket::spend`])
//!   — what the repair workers use: park until the balance recovers,
//!   then charge.
//! * **Deadline-aware** ([`TokenBucket::ready_in`] + `spend`) — what
//!   admission control uses: ask how long until the balance recovers,
//!   then delay the request up to a bound or reject it outright.
//!
//! ```
//! use ecfrm_util::TokenBucket;
//! use std::sync::atomic::AtomicBool;
//! use std::time::Duration;
//!
//! let bucket = TokenBucket::new(1_000_000); // 1 MB/s
//! let stop = AtomicBool::new(false);
//! bucket.wait_ready(&stop);
//! bucket.spend(500_000); // charge actual bytes after the work
//! // Overdrawn by ~0.5 s of rate: refill pays the debt off over time,
//! // so long-run throughput converges to exactly `rate`.
//! assert!(bucket.ready_in() > Duration::ZERO);
//! ```

use crate::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pay-after token bucket: start work only while the balance is
/// non-negative, then charge the work's actual bytes.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    state: Mutex<(f64, Instant)>,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bytes_per_sec` (clamped to ≥ 1) with
    /// ~100 ms of burst allowance so consumers are smooth, not lumpy.
    pub fn new(rate_bytes_per_sec: u64) -> Self {
        let rate = rate_bytes_per_sec.max(1) as f64;
        Self {
            rate,
            burst: rate * 0.1,
            state: Mutex::new((0.0, Instant::now())),
        }
    }

    /// The configured refill rate in bytes/second.
    pub fn rate(&self) -> u64 {
        self.rate as u64
    }

    /// Block until the balance is non-negative (or `stop` is raised).
    ///
    /// Each sleep is sized from the token deficit and capped at 50 ms,
    /// which bounds how late a raised `stop` is seen.
    pub fn wait_ready(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            let wait = self.ready_in();
            if wait.is_zero() {
                return;
            }
            std::thread::sleep(wait.min(Duration::from_millis(50)));
        }
    }

    /// How long until the balance recovers to non-negative.
    ///
    /// Returns [`Duration::ZERO`] when work may start immediately.
    /// Admission control uses this to decide delay-vs-reject without
    /// parking a server thread on the bucket.
    pub fn ready_in(&self) -> Duration {
        let mut s = self.state.lock();
        let now = Instant::now();
        let (ref mut tokens, ref mut last) = *s;
        *tokens = (*tokens + last.elapsed().as_secs_f64() * self.rate).min(self.burst);
        *last = now;
        if *tokens >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-*tokens / self.rate)
        }
    }

    /// Charge `bytes` against the balance.
    pub fn spend(&self, bytes: u64) {
        self.state.lock().0 -= bytes as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_bounds_long_run_rate() {
        let bucket = TokenBucket::new(1_000_000); // 1 MB/s
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        // Spend 300 KB in 50 KB chunks: at 1 MB/s this must take at
        // least ~150 ms (the first ~100 KB rides the burst allowance).
        for _ in 0..6 {
            bucket.wait_ready(&stop);
            bucket.spend(50_000);
        }
        assert!(t0.elapsed() >= Duration::from_millis(150));
    }

    #[test]
    fn ready_in_tracks_deficit() {
        let bucket = TokenBucket::new(1_000_000); // 1 MB/s
        assert_eq!(bucket.ready_in(), Duration::ZERO);
        // Overdraw by 500 KB: recovery takes ~0.5 s at 1 MB/s.
        bucket.spend(500_000);
        let wait = bucket.ready_in();
        assert!(wait > Duration::from_millis(300), "wait {wait:?}");
        assert!(wait < Duration::from_millis(700), "wait {wait:?}");
    }

    #[test]
    fn stop_flag_unparks_wait_ready() {
        let bucket = TokenBucket::new(1);
        bucket.spend(10_000_000); // ~115 days of deficit at 1 B/s
        let stop = AtomicBool::new(true);
        let t0 = Instant::now();
        bucket.wait_ready(&stop);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
