//! Discrete-event queueing simulation: many outstanding requests.
//!
//! The paper evaluates one request at a time (§VI), where completion time
//! is simply the max per-disk service sum
//! ([`ReadModel::read_time_ms`]). Real frontends keep several requests in
//! flight; under concurrency the most-loaded-disk effect *compounds*,
//! because a hot disk delays every queued request behind it. The drivers
//! here feed closed-loop clients or open-loop arrivals into FIFO per-disk
//! queues, each served by [`ReadModel::disk_ms`], so that effect can be
//! measured — the `figures -- concurrency` ablation.
//!
//! Backs EXPERIMENTS.md "Ablations → Closed-loop concurrency", "Zipf
//! trace" and "Open-loop tail latency" (DESIGN §5).

use ecfrm_util::Rng;

use crate::array::ReadModel;
use crate::net::NetModel;

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

impl ReadModel {
    /// Run `requests` (in order) over `clients` closed-loop clients: each
    /// issues the next request from the shared queue the moment its
    /// previous one completes.
    ///
    /// Each disk serves a FIFO queue: a request's accesses on a disk are
    /// appended when the request is issued, and the request completes
    /// when every disk has finished its share.
    ///
    /// ```
    /// use ecfrm_sim::{DiskModel, ReadModel, Request};
    /// use ecfrm_util::Rng;
    ///
    /// let model = ReadModel::uniform(4, DiskModel::savvio_10k3(), 1_000_000);
    /// let reqs = vec![
    ///     Request { loads: vec![1, 1, 0, 0], requested: 2 },
    ///     Request { loads: vec![0, 0, 1, 1], requested: 2 },
    /// ];
    /// // Two clients: disjoint disks, both finish in one service time.
    /// let done = model.run_closed_loop(&reqs, 2, &mut Rng::seed_from_u64(1));
    /// assert_eq!(done[0].finish_ms, done[1].finish_ms);
    /// ```
    ///
    /// # Panics
    /// Panics if `clients == 0`, the network is not sufficient, or any
    /// request's load vector has the wrong length.
    pub fn run_closed_loop(
        &self,
        requests: &[Request],
        clients: usize,
        rng: &mut Rng,
    ) -> Vec<Completion> {
        assert!(clients > 0, "need at least one client");
        let mut disk_free = self.idle_queues();
        let mut client_free = vec![0.0f64; clients];
        requests
            .iter()
            .map(|req| {
                // The earliest-free client issues the request.
                let (ci, &issue) = client_free
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap();
                let done = self.dispatch(&mut disk_free, req, issue, rng);
                client_free[ci] = done.finish_ms;
                done
            })
            .collect()
    }

    /// Run `requests` open-loop: request `i` is issued at
    /// `i × interarrival_ms` regardless of completions (an arrival-rate
    /// sweep drives the array toward saturation; queueing delay shows up
    /// in the latency percentiles).
    ///
    /// # Panics
    /// Panics if `interarrival_ms` is negative, the network is not
    /// sufficient, or a load vector has the wrong length.
    pub fn run_open_loop(
        &self,
        requests: &[Request],
        interarrival_ms: f64,
        rng: &mut Rng,
    ) -> Vec<Completion> {
        assert!(interarrival_ms >= 0.0, "negative interarrival time");
        let mut disk_free = self.idle_queues();
        requests
            .iter()
            .enumerate()
            .map(|(i, req)| self.dispatch(&mut disk_free, req, i as f64 * interarrival_ms, rng))
            .collect()
    }

    /// Every disk's queue free at time 0. The drivers serve disk time
    /// only, so they refuse a model whose network could bind.
    fn idle_queues(&self) -> Vec<f64> {
        assert_eq!(
            self.net,
            NetModel::sufficient(),
            "the event drivers model disk time only"
        );
        vec![0.0; self.disks.len()]
    }

    /// Append `req`'s accesses, issued at `issue`, to each disk's FIFO
    /// queue (`disk_free` holds when each queue drains).
    fn dispatch(
        &self,
        disk_free: &mut [f64],
        req: &Request,
        issue: f64,
        rng: &mut Rng,
    ) -> Completion {
        assert_eq!(
            req.loads.len(),
            disk_free.len(),
            "request load vector length"
        );
        let mut finish = issue;
        for (d, &q) in req.loads.iter().enumerate().filter(|(_, &q)| q > 0) {
            let end = disk_free[d].max(issue) + self.disk_ms(d, q, rng);
            disk_free[d] = end;
            finish = finish.max(end);
        }
        Completion {
            issue_ms: issue,
            finish_ms: finish,
            requested: req.requested,
        }
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
}

/// Latency percentile (e.g. `0.5`, `0.99`) over a completed run, by
/// nearest-rank. Returns 0 for an empty run.
pub fn latency_percentile_ms(completions: &[Completion], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
    if completions.is_empty() {
        return 0.0;
    }
    let mut lat: Vec<f64> = completions.iter().map(|c| c.latency_ms()).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
    lat[rank - 1]
}

/// Mean request latency in milliseconds.
pub fn mean_latency_ms(completions: &[Completion]) -> f64 {
    crate::metrics::mean(
        &completions
            .iter()
            .map(|c| c.latency_ms())
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn one_ms_disks(n: usize) -> ReadModel {
        // A disk model whose element service time is exactly 1 ms.
        let d = DiskModel {
            seek_ms: 0.5,
            rotational_ms: 0.5,
            transfer_mb_s: 1.0,
            speed_factor: 1.0,
            track_to_track_ms: None,
        };
        ReadModel::uniform(n, d, 0)
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
        let done = sim.run_closed_loop(&reqs, 1, &mut rng());
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
        let done = sim.run_closed_loop(&reqs, 2, &mut rng());
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
        let done = sim.run_closed_loop(&reqs, 2, &mut rng());
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
        let sim = ReadModel::uniform(2, d, 1_000_000);
        let reqs = vec![Request {
            loads: vec![1, 1],
            requested: 2,
        }];
        let done = sim.run_closed_loop(&reqs, 1, &mut rng());
        // 2 MB in 1000 ms = 2 MB/s.
        assert!((sim.throughput_mb_s(&done) - 2.0).abs() < 1e-9);
        assert!((mean_latency_ms(&done) - 1000.0).abs() < 1e-9);
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
        let done = sim.run_open_loop(&reqs, 0.5, &mut rng());
        assert_eq!(done[0].issue_ms, 0.0);
        assert_eq!(done[1].issue_ms, 0.5);
        assert_eq!(done[0].finish_ms, 1.0);
        assert_eq!(done[1].finish_ms, 2.0); // queued behind request 0
        assert_eq!(done[2].finish_ms, 3.0);
        assert!((done[2].latency_ms() - 2.0).abs() < 1e-12);
        // Slower arrivals than service: no queueing.
        let relaxed = sim.run_open_loop(&reqs, 2.0, &mut rng());
        assert!(relaxed.iter().all(|c| (c.latency_ms() - 1.0).abs() < 1e-12));
    }

    #[test]
    fn latency_percentiles() {
        let done: Vec<Completion> = (0..100)
            .map(|i| Completion {
                issue_ms: 0.0,
                finish_ms: (i + 1) as f64,
                requested: 1,
            })
            .collect();
        assert_eq!(latency_percentile_ms(&done, 0.5), 50.0);
        assert_eq!(latency_percentile_ms(&done, 0.99), 99.0);
        assert_eq!(latency_percentile_ms(&done, 1.0), 100.0);
        assert_eq!(latency_percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn empty_run_is_zero() {
        let sim = one_ms_disks(2);
        let done = sim.run_closed_loop(&[], 3, &mut rng());
        assert!(done.is_empty());
        assert_eq!(sim.throughput_mb_s(&done), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_clients_rejected() {
        one_ms_disks(2).run_closed_loop(&[], 0, &mut rng());
    }
}
