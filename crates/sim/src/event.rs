//! Discrete-event queueing simulation: many outstanding requests.
//!
//! The paper evaluates one request at a time (§VI), where completion time
//! is simply the max per-disk service sum ([`crate::ArraySim`]). Real
//! frontends keep several requests in flight; under concurrency the
//! most-loaded-disk effect *compounds*, because a hot disk delays every
//! queued request behind it. This module simulates closed-loop clients
//! over FIFO per-disk queues so that effect can be measured — the
//! `figures -- concurrency` ablation.
//!
//! Backs EXPERIMENTS.md "Ablations → Closed-loop concurrency", "Zipf
//! trace" and "Open-loop tail latency" (DESIGN §5).

use crate::disk::DiskModel;

/// One request: how many elements it needs from each disk.
#[derive(Debug, Clone)]
pub struct Request {
    /// Per-disk element counts (length = number of disks).
    pub loads: Vec<usize>,
    /// Elements the user asked for (for speed accounting).
    pub requested: usize,
}

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// When the client issued the request (ms).
    pub issue_ms: f64,
    /// When the last element arrived (ms).
    pub finish_ms: f64,
    /// Elements requested.
    pub requested: usize,
}

impl Completion {
    /// Request latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.finish_ms - self.issue_ms
    }
}

/// A closed-loop simulation: `clients` concurrent clients each issue the
/// next request from the shared queue the moment their previous one
/// completes.
///
/// ```
/// use ecfrm_sim::{DiskModel, EventSim, Request};
///
/// let sim = EventSim::uniform(4, DiskModel::savvio_10k3(), 1_000_000);
/// let reqs = vec![
///     Request { loads: vec![1, 1, 0, 0], requested: 2 },
///     Request { loads: vec![0, 0, 1, 1], requested: 2 },
/// ];
/// // Two clients: disjoint disks, both finish in one service time.
/// let done = sim.run_closed_loop(&reqs, 2);
/// assert_eq!(done[0].finish_ms, done[1].finish_ms);
/// ```
#[derive(Debug, Clone)]
pub struct EventSim {
    disks: Vec<DiskModel>,
    element_size: usize,
}

impl EventSim {
    /// A homogeneous array of `n` copies of `model`.
    pub fn uniform(n: usize, model: DiskModel, element_size: usize) -> Self {
        assert!(n > 0, "array needs at least one disk");
        Self {
            disks: vec![model; n],
            element_size,
        }
    }

    /// Run `requests` (in order) over `clients` closed-loop clients.
    ///
    /// Each disk serves a FIFO queue: a request's accesses on a disk are
    /// appended when the request is issued, and the request completes
    /// when every disk has finished its share.
    ///
    /// # Panics
    /// Panics if `clients == 0` or any request's load vector has the
    /// wrong length.
    pub fn run_closed_loop(&self, requests: &[Request], clients: usize) -> Vec<Completion> {
        assert!(clients > 0, "need at least one client");
        let n = self.disks.len();
        let per_elem: Vec<f64> = self
            .disks
            .iter()
            .map(|d| d.service_time_ms(self.element_size))
            .collect();

        // Each client's next-available time; disks' queue-free times.
        let mut client_free = vec![0.0f64; clients];
        let mut disk_free = vec![0.0f64; n];
        let mut out = Vec::with_capacity(requests.len());

        for req in requests {
            assert_eq!(req.loads.len(), n, "request load vector length");
            // The earliest-free client issues the request.
            let (ci, issue) = client_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, &t)| (i, t))
                .unwrap();
            // Dispatch to each disk's FIFO queue.
            let mut finish = issue;
            for (d, &q) in req.loads.iter().enumerate() {
                if q == 0 {
                    continue;
                }
                let start = disk_free[d].max(issue);
                let end = start + q as f64 * per_elem[d];
                disk_free[d] = end;
                finish = finish.max(end);
            }
            client_free[ci] = finish;
            out.push(Completion {
                issue_ms: issue,
                finish_ms: finish,
                requested: req.requested,
            });
        }
        out
    }

    /// Run `requests` open-loop: request `i` is issued at
    /// `i × interarrival_ms` regardless of completions (an arrival-rate
    /// sweep drives the array toward saturation; queueing delay shows up
    /// in the latency percentiles).
    ///
    /// # Panics
    /// Panics if `interarrival_ms` is negative or a load vector has the
    /// wrong length.
    pub fn run_open_loop(&self, requests: &[Request], interarrival_ms: f64) -> Vec<Completion> {
        assert!(interarrival_ms >= 0.0, "negative interarrival time");
        let n = self.disks.len();
        let per_elem: Vec<f64> = self
            .disks
            .iter()
            .map(|d| d.service_time_ms(self.element_size))
            .collect();
        let mut disk_free = vec![0.0f64; n];
        let mut out = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(req.loads.len(), n, "request load vector length");
            let issue = i as f64 * interarrival_ms;
            let mut finish = issue;
            for (d, &q) in req.loads.iter().enumerate() {
                if q == 0 {
                    continue;
                }
                let start = disk_free[d].max(issue);
                let end = start + q as f64 * per_elem[d];
                disk_free[d] = end;
                finish = finish.max(end);
            }
            out.push(Completion {
                issue_ms: issue,
                finish_ms: finish,
                requested: req.requested,
            });
        }
        out
    }

    /// Latency percentile (e.g. `0.5`, `0.99`) over a completed run, by
    /// nearest-rank. Returns 0 for an empty run.
    pub fn latency_percentile_ms(&self, completions: &[Completion], p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if completions.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = completions.iter().map(|c| c.latency_ms()).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    }

    /// Aggregate throughput in MB/s over a completed run: total requested
    /// bytes / makespan.
    pub fn throughput_mb_s(&self, completions: &[Completion]) -> f64 {
        let makespan = completions
            .iter()
            .map(|c| c.finish_ms)
            .fold(0.0f64, f64::max);
        if makespan == 0.0 {
            return 0.0;
        }
        let bytes: usize = completions
            .iter()
            .map(|c| c.requested * self.element_size)
            .sum();
        crate::metrics::speed_mb_s(bytes, makespan)
    }

    /// Mean request latency in milliseconds.
    pub fn mean_latency_ms(&self, completions: &[Completion]) -> f64 {
        crate::metrics::mean(
            &completions
                .iter()
                .map(|c| c.latency_ms())
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_ms_disks(n: usize) -> EventSim {
        // A disk model whose element service time is exactly 1 ms.
        let d = DiskModel {
            seek_ms: 0.5,
            rotational_ms: 0.5,
            transfer_mb_s: 1.0,
            speed_factor: 1.0,
            track_to_track_ms: None,
        };
        EventSim::uniform(n, d, 0)
    }

    #[test]
    fn single_client_matches_analytic_model() {
        let sim = one_ms_disks(4);
        let reqs = vec![
            Request {
                loads: vec![2, 1, 0, 0],
                requested: 3,
            },
            Request {
                loads: vec![0, 0, 3, 1],
                requested: 4,
            },
        ];
        let done = sim.run_closed_loop(&reqs, 1);
        // Request 0: max(2,1) = 2 ms. Request 1 issues at 2, takes 3 ms.
        assert_eq!(done[0].finish_ms, 2.0);
        assert_eq!(done[1].issue_ms, 2.0);
        assert_eq!(done[1].finish_ms, 5.0);
        assert_eq!(done[1].latency_ms(), 3.0);
    }

    #[test]
    fn concurrency_overlaps_disjoint_requests() {
        let sim = one_ms_disks(4);
        // Two requests on disjoint disks: with 2 clients both finish at 2.
        let reqs = vec![
            Request {
                loads: vec![2, 0, 0, 0],
                requested: 2,
            },
            Request {
                loads: vec![0, 0, 2, 0],
                requested: 2,
            },
        ];
        let done = sim.run_closed_loop(&reqs, 2);
        assert_eq!(done[0].finish_ms, 2.0);
        assert_eq!(done[1].finish_ms, 2.0);
    }

    #[test]
    fn hot_disk_serialises_under_concurrency() {
        let sim = one_ms_disks(4);
        // Two requests hitting the SAME disk: even with 2 clients the
        // second queues behind the first.
        let reqs = vec![
            Request {
                loads: vec![2, 0, 0, 0],
                requested: 2,
            },
            Request {
                loads: vec![2, 0, 0, 0],
                requested: 2,
            },
        ];
        let done = sim.run_closed_loop(&reqs, 2);
        assert_eq!(done[0].finish_ms, 2.0);
        assert_eq!(done[1].finish_ms, 4.0, "queued behind the hot disk");
    }

    #[test]
    fn throughput_and_latency_aggregates() {
        let d = DiskModel {
            seek_ms: 0.0,
            rotational_ms: 0.0,
            transfer_mb_s: 1.0, // 1 MB element = 1000 ms
            speed_factor: 1.0,
            track_to_track_ms: None,
        };
        let sim = EventSim::uniform(2, d, 1_000_000);
        let reqs = vec![Request {
            loads: vec![1, 1],
            requested: 2,
        }];
        let done = sim.run_closed_loop(&reqs, 1);
        // 2 MB in 1000 ms = 2 MB/s.
        assert!((sim.throughput_mb_s(&done) - 2.0).abs() < 1e-9);
        assert!((sim.mean_latency_ms(&done) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_arrivals_are_clocked() {
        let sim = one_ms_disks(2);
        let reqs = vec![
            Request {
                loads: vec![1, 0],
                requested: 1,
            },
            Request {
                loads: vec![1, 0],
                requested: 1,
            },
            Request {
                loads: vec![1, 0],
                requested: 1,
            },
        ];
        // Arrivals every 0.5 ms on a 1 ms/element disk: queue builds up.
        let done = sim.run_open_loop(&reqs, 0.5);
        assert_eq!(done[0].issue_ms, 0.0);
        assert_eq!(done[1].issue_ms, 0.5);
        assert_eq!(done[0].finish_ms, 1.0);
        assert_eq!(done[1].finish_ms, 2.0); // queued behind request 0
        assert_eq!(done[2].finish_ms, 3.0);
        assert!((done[2].latency_ms() - 2.0).abs() < 1e-12);
        // Slower arrivals than service: no queueing.
        let relaxed = sim.run_open_loop(&reqs, 2.0);
        assert!(relaxed.iter().all(|c| (c.latency_ms() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn latency_percentiles() {
        let sim = one_ms_disks(1);
        let done: Vec<Completion> = (0..100)
            .map(|i| Completion {
                issue_ms: 0.0,
                finish_ms: (i + 1) as f64,
                requested: 1,
            })
            .collect();
        assert_eq!(sim.latency_percentile_ms(&done, 0.5), 50.0);
        assert_eq!(sim.latency_percentile_ms(&done, 0.99), 99.0);
        assert_eq!(sim.latency_percentile_ms(&done, 1.0), 100.0);
        assert_eq!(sim.latency_percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn empty_run_is_zero() {
        let sim = one_ms_disks(2);
        let done = sim.run_closed_loop(&[], 3);
        assert!(done.is_empty());
        assert_eq!(sim.throughput_mb_s(&done), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_clients_rejected() {
        one_ms_disks(2).run_closed_loop(&[], 0);
    }
}
