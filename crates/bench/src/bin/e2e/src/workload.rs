//! The four workloads and the one lifecycle they share:
//!
//! ```text
//! set-up (×3)       boot → ingest through FrontClient::put → flush → warm-up half-round
//! measured phase    main rounds: closed loop, 2 client threads, one connection each
//!               or  drills, per victim: fail + wipe → degraded rounds (no repair
//!                   running) → RepairManager rebuilds the disk while one client
//!                   keeps reading
//! teardown          flush, byte accounting, scrub, I/O balance
//! ```
//!
//! A workload is a [`Spec`]: which disks, how much cache, which reads,
//! whether a writer or a standard-layout twin runs beside them, whether
//! it drills instead of running main rounds. Every op list is a pure
//! function of `--seed`, the phase and the round (see [`crate::ops`]);
//! every reply is checked against regenerated reference bytes; a failed
//! op is counted, never a panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecfrm_core::LayoutKind;
use ecfrm_net::FrontClient;
use ecfrm_sim::DiskBackend;
use ecfrm_store::{RepairConfig, RepairManager};

use crate::host::{self, HostCpu};
use crate::metrics::Values;
use crate::ops::{self, object_name, range_reads, stream, ReadOp, ZipfReads, ELEMENT, WRITTEN};
use crate::stack::{Disks, Stack, TENANT};
use crate::stats::{median, rel_iqr, Round, Rounds};

/// Closed loop, this many client threads (the reference box has two
/// vCPUs; [`host::pin_to_one_cpu`] holds the process on one of them),
/// one connection each.
pub const CLIENTS: usize = 2;

/// Fewest rounds a full run reduces: main rounds, or degraded rounds
/// over all victims.
pub const MIN_ROUNDS: usize = 11;

/// Set-ups per full run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Share of `--seconds` a drilling workload spends on degraded rounds;
/// the three rebuilds (~3 s each) take about the rest.
pub const DEGRADED_SHARE: f64 = 0.4;

/// Which reads the clients issue.
#[derive(Debug, Clone, Copy)]
pub enum Reads {
    /// The paper's §VI-B shapes: uniform object, element-aligned start,
    /// 1–20 elements, via `read_range`.
    Ranges,
    /// Whole-object `read`s, zipf(`s`) over the first `universe`
    /// objects.
    Zipf {
        /// Objects the popularity ranks cover.
        universe: u64,
        /// Zipf exponent.
        s: f64,
    },
}

/// `ingest_mix`'s second client: `per_round` back-to-back `put`s of
/// `object_bytes`, then idle to the end of the round. Both numbers are
/// chosen so that every round writes whole stripes: nothing written in
/// an earlier round is ever unsealed, no read forces a flush, and
/// `stored_bytes_per_user_byte` stays exact.
#[derive(Debug, Clone, Copy)]
pub struct Writer {
    /// Bytes per written object.
    pub object_bytes: u64,
    /// Objects per round.
    pub per_round: u64,
    /// The reader's every-fifth op picks among this many newest objects.
    pub recent: u64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub why: &'static str,
    /// Shard devices.
    pub disks: Disks,
    /// Front-door cache capacity (0 = off).
    pub cache_bytes: usize,
    /// Objects ingested at set-up.
    pub objects: u64,
    /// Bytes per ingested object.
    pub object_bytes: u64,
    /// The read mix.
    pub reads: Reads,
    /// Run a second stack in the standard layout and alternate legs.
    pub standard_twin: bool,
    /// Replace the second reader by a writer.
    pub writer: Option<Writer>,
    /// Reads per client per main or degraded round (the warm-up is half
    /// a round). Two clients of 250 leave 50 samples beyond a round's
    /// p90. The CPU-bound workloads keep a round near a third of a
    /// second: the host changes speed every few seconds, and the
    /// estimator ([`crate::stats::quiet_quarter`]) wants many rounds
    /// that each lie inside one such regime.
    pub ops_per_round: usize,
    /// Instead of main rounds, drill: fail and wipe each victim in turn,
    /// read degraded, let `RepairManager` rebuild it.
    pub drills: bool,
}

/// Disks failed in turn by the degraded rounds and the drills.
pub const VICTIMS: [usize; 3] = [0, 4, 8];

const MIB: u64 = 1 << 20;
const KIB: u64 = 1 << 10;

/// The four workloads.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "paper_read",
        why: "1 ms disks under the paper's 1-20 element reads: device time is >= 2/3 of latency, so layout, planner and fan-out decide it (Fig. 8 through the whole stack)",
        disks: Disks::Mem(Duration::from_millis(1)),
        cache_bytes: 0,
        objects: 48,
        object_bytes: MIB,
        reads: Reads::Ranges,
        standard_twin: true,
        writer: None,
        ops_per_round: 300,
        drills: false,
    },
    Spec {
        name: "zipf_get",
        why: "nothing waits on a disk (page-cache-warm FileDisk) and 1/8 of the data fits the cache: the two TCP hops, mux, cache and file I/O are all of the latency; p50 is the hit path, p90 the miss path",
        disks: Disks::File,
        cache_bytes: 16 << 20,
        objects: 4104,
        object_bytes: 32 * KIB,
        reads: Reads::Zipf { universe: 4104, s: 1.08 },
        standard_twin: false,
        writer: None,
        ops_per_round: 1500,
        drills: false,
    },
    Spec {
        name: "ingest_mix",
        why: "the same layers used the other way: one client puts 256 KiB objects (encode, footers, merkle roots, seal, file writes) while the other reads a cached hot set and just-written objects",
        disks: Disks::File,
        cache_bytes: 16 << 20,
        objects: 4104,
        object_bytes: 32 * KIB,
        reads: Reads::Zipf { universe: 256, s: 1.0 },
        standard_twin: false,
        writer: Some(Writer {
            object_bytes: 256 * KIB,
            per_round: 27,
            recent: 16,
        }),
        ops_per_round: 5000,
        drills: false,
    },
    Spec {
        name: "failure_drill",
        why: "three disk losses on 600 us disks: degraded reads, then RepairManager rebuilding under foreground reads - the only workload where repair, CombineRange, decode and the degraded planner do the work",
        disks: Disks::Mem(Duration::from_micros(600)),
        cache_bytes: 0,
        objects: 144,
        object_bytes: MIB,
        reads: Reads::Ranges,
        standard_twin: false,
        writer: None,
        ops_per_round: 250,
        drills: true,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// How a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Wall time of the measured phase, seconds: the main rounds, or for
    /// a workload that drills its degraded rounds and rebuilds.
    pub seconds: f64,
    /// Smoke mode: a quarter of the dataset, one set-up, three short
    /// rounds, or one victim and one degraded round. Same checks;
    /// numbers not for comparison.
    pub quick: bool,
}

impl Spec {
    /// The spec a run actually executes: itself, or its smoke-sized
    /// version under `--quick`.
    pub fn sized(mut self, opts: &Opts) -> Spec {
        if opts.quick {
            self.objects /= 4;
            if let Reads::Zipf { universe, s } = self.reads {
                self.reads = Reads::Zipf {
                    universe: universe.min(self.objects),
                    s,
                };
            }
            self.cache_bytes /= 8;
            // The writer keeps its 27 puts a round: whole stripes.
            self.ops_per_round /= 16;
        }
        self
    }
}

// Stream tags: one per phase, so no two phases share an op list.
const TAG_WARM: u64 = 1;
pub const TAG_MAIN: u64 = 2;
const TAG_DEGRADED: u64 = 3;
const TAG_REPAIR: u64 = 4;

/// What one client does in one round.
pub enum Task {
    /// Issue these reads in order.
    Reads(Vec<ReadOp>),
    /// `put` objects `WRITTEN + first ..` back to back.
    Puts {
        /// First written-object index.
        first: u64,
        /// How many.
        count: u64,
        /// Bytes each.
        bytes: u64,
    },
}

/// What one client measured in one round.
#[derive(Default)]
pub struct Done {
    /// Per-op latency, µs.
    pub lat_us: Vec<f64>,
    /// User bytes returned or acknowledged by ops that passed.
    pub bytes: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or returned wrong bytes.
    pub failed: u64,
    /// First op to last op, seconds.
    pub busy_s: f64,
}

/// Time one read and check its bytes.
fn read_one(client: &FrontClient, seed: u64, name: &str, op: &ReadOp, done: &mut Done) {
    let t = Instant::now();
    let reply = client.read_range(TENANT, name, op.start, op.len);
    done.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    done.attempted += 1;
    match reply {
        Ok(bytes) if ops::matches(seed, op.object, op.start, op.len, &bytes) => {
            done.bytes += op.len;
        }
        _ => done.failed += 1,
    }
}

/// Run one client's task to completion.
pub fn execute(client: &FrontClient, seed: u64, task: &Task) -> Done {
    let mut done = Done::default();
    match task {
        Task::Reads(list) => {
            let names: Vec<String> = list.iter().map(|op| object_name(op.object)).collect();
            let t0 = Instant::now();
            for (op, name) in list.iter().zip(&names) {
                read_one(client, seed, name, op, &mut done);
            }
            done.busy_s = t0.elapsed().as_secs_f64();
        }
        Task::Puts {
            first,
            count,
            bytes,
        } => {
            let t0 = Instant::now();
            for id in (WRITTEN + first)..(WRITTEN + first + count) {
                ingest_one(client, seed, id, *bytes, &mut done);
            }
            done.busy_s = t0.elapsed().as_secs_f64();
        }
    }
    done
}

/// Generate, time and account one `put`. The payload is made outside
/// the timed section.
fn ingest_one(client: &FrontClient, seed: u64, id: u64, bytes: u64, done: &mut Done) {
    let payload = ops::fill(seed, id, 0, bytes as usize);
    let name = object_name(id);
    let t = Instant::now();
    let ack = client.put(TENANT, &name, &payload);
    done.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    done.attempted += 1;
    match ack {
        Ok(()) => done.bytes += bytes,
        Err(_) => done.failed += 1,
    }
}

/// Running totals a report needs besides the rounds.
#[derive(Default)]
pub struct Tally {
    /// Ops attempted, all phases.
    pub attempted: u64,
    /// Ops failed, all phases.
    pub failed: u64,
    /// Correctness-gate violations, printed and turned into
    /// `correct: false`.
    pub violations: Vec<String>,
}

impl Tally {
    /// Count the ops of finished tasks.
    pub fn add(&mut self, done: &[Done]) {
        self.attempted += done.iter().map(|d| d.attempted).sum::<u64>();
        self.failed += done.iter().map(|d| d.failed).sum::<u64>();
    }

    /// Record a violated gate.
    pub fn violation(&mut self, what: String) {
        eprintln!("  VIOLATION: {what}");
        self.violations.push(what);
    }
}

/// Run one task per client concurrently; the clients start together.
fn concurrently(clients: &[FrontClient], seed: u64, tasks: &[Task]) -> Vec<Done> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(tasks)
            .map(|(c, t)| s.spawn(move || execute(c, seed, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Reduce the readers of one round to a [`Round`]: latencies pooled,
/// bytes over the longest reader's busy time.
fn reduce(done: &[&Done]) -> Round {
    let lat: Vec<f64> = done.iter().flat_map(|d| d.lat_us.iter().copied()).collect();
    let bytes = done.iter().map(|d| d.bytes).sum();
    let wall = done.iter().map(|d| d.busy_s).fold(0.0, f64::max);
    Round::of(lat, bytes, wall)
}

/// What [`Bed::round`] measured.
pub struct RoundOut {
    /// The readers' round.
    pub read: Round,
    /// User bytes the readers got back (and that checked out).
    pub read_bytes: u64,
    /// The writer's round, when the spec has a writer.
    pub write: Option<Round>,
}

/// One stack with its clients and what has been put into it.
pub struct Bed {
    /// The stack.
    pub stack: Stack,
    /// One client per client thread.
    pub clients: Vec<FrontClient>,
    /// User bytes acknowledged so far.
    pub user_bytes: u64,
    /// Written-object count so far (`ingest_mix`).
    pub written: u64,
}

impl Bed {
    fn boot(spec: &Spec, layout: LayoutKind) -> Bed {
        let stack = Stack::boot(layout, spec.disks, spec.cache_bytes);
        let clients = (0..CLIENTS).map(|_| stack.client()).collect();
        Bed {
            stack,
            clients,
            user_bytes: 0,
            written: 0,
        }
    }

    /// Ingest the dataset: the clients split the objects between them.
    /// `in_order` leaves it all to one client, so that object `id`
    /// starts at stream byte `id × object_bytes` (the traced run reads
    /// extents by address).
    fn ingest(&mut self, spec: &Spec, seed: u64, in_order: bool, tally: &mut Tally) -> Round {
        let writers = if in_order { 1 } else { CLIENTS };
        let done: Vec<Done> = std::thread::scope(|s| {
            let handles: Vec<_> = self.clients[..writers]
                .iter()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut done = Done::default();
                        let t0 = Instant::now();
                        for id in (c as u64..spec.objects).step_by(writers) {
                            ingest_one(client, seed, id, spec.object_bytes, &mut done);
                        }
                        done.busy_s = t0.elapsed().as_secs_f64();
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest thread panicked"))
                .collect()
        });
        tally.add(&done);
        self.user_bytes += done.iter().map(|d| d.bytes).sum::<u64>();
        self.stack.store.flush();
        reduce(&done.iter().collect::<Vec<_>>())
    }

    /// The op lists of one round, one per reading client.
    pub fn read_tasks(&self, spec: &Spec, seed: u64, tag: u64, round: u64, n: usize) -> Vec<Task> {
        let readers = if spec.writer.is_some() { 1 } else { CLIENTS };
        (0..readers as u64)
            .map(|c| {
                let s = stream(seed, tag, round, c);
                Task::Reads(match (spec.reads, spec.writer) {
                    (Reads::Ranges, _) => range_reads(s, n, spec.objects, spec.object_bytes),
                    (Reads::Zipf { universe, s: exp }, None) => {
                        ZipfReads::new(universe, spec.object_bytes, exp).reads(s, n)
                    }
                    (Reads::Zipf { universe, s: exp }, Some(w)) => ZipfReads::new(
                        universe,
                        spec.object_bytes,
                        exp,
                    )
                    .reads_with_recent(s, n, self.written, w.recent, w.object_bytes),
                })
            })
            .collect()
    }

    /// One round: the readers' op lists (and the writer's puts, if the
    /// spec has one) run concurrently.
    pub fn round(
        &mut self,
        spec: &Spec,
        seed: u64,
        tag: u64,
        round: u64,
        n: usize,
        tally: &mut Tally,
    ) -> RoundOut {
        let mut tasks = self.read_tasks(spec, seed, tag, round, n);
        if let Some(w) = spec.writer {
            tasks.push(Task::Puts {
                first: self.written,
                count: w.per_round,
                bytes: w.object_bytes,
            });
        }
        let done = concurrently(&self.clients, seed, &tasks);
        tally.add(&done);
        let (readers, writers): (Vec<_>, Vec<_>) = done
            .iter()
            .zip(&tasks)
            .partition(|(_, t)| matches!(t, Task::Reads(_)));
        let readers: Vec<&Done> = readers.into_iter().map(|(d, _)| d).collect();
        let write = writers.first().map(|(d, _)| {
            self.written += d.attempted;
            self.user_bytes += d.bytes;
            reduce(&[*d])
        });
        RoundOut {
            read: reduce(&readers),
            read_bytes: readers.iter().map(|d| d.bytes).sum(),
            write,
        }
    }

    /// A store counter or gauge by name (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.stack.counters().get(name).copied().unwrap_or(0)
    }
}

/// One main round of the EC-FRM stack and, when there is a standard
/// twin, of the twin on the same op lists — the order of the two legs
/// alternating with `round`, so drift inside a round cancels. Returns
/// the EC-FRM leg and the ratio of its MB/s to the twin's.
pub fn paired_round(
    spec: &Spec,
    opts: &Opts,
    bed: &mut Bed,
    twin: Option<&mut Bed>,
    round: u64,
    tally: &mut Tally,
) -> (RoundOut, Option<f64>) {
    let mut leg =
        |b: &mut Bed| b.round(spec, opts.seed, TAG_MAIN, round, spec.ops_per_round, tally);
    let Some(twin) = twin else {
        return (leg(bed), None);
    };
    let (ours, theirs) = if round.is_multiple_of(2) {
        let ours = leg(bed);
        (ours, leg(twin))
    } else {
        let theirs = leg(twin);
        (leg(bed), theirs)
    };
    let gain = ours.read.mb_s / theirs.read.mb_s;
    (ours, Some(gain))
}

/// Everything one set-up builds.
pub struct SetUp {
    /// The EC-FRM stack.
    pub bed: Bed,
    /// The standard-layout stack, when the spec has a twin.
    pub twin: Option<Bed>,
    /// The ingest, as a write round.
    pub ingest: Round,
    /// Boot through warm-up, seconds.
    pub seconds: f64,
}

/// Boot, ingest, flush, warm up.
pub fn set_up(spec: &Spec, seed: u64, in_order: bool, tally: &mut Tally) -> SetUp {
    let t0 = Instant::now();
    let mut bed = Bed::boot(spec, LayoutKind::EcFrm);
    let ingest = bed.ingest(spec, seed, in_order, tally);
    let mut twin = spec.standard_twin.then(|| {
        let mut twin = Bed::boot(spec, LayoutKind::Standard);
        twin.ingest(spec, seed, in_order, tally);
        twin
    });
    // Warm-up: connections, mux/range/checked latches, decoder cache,
    // front cache. Half a main round of the same shape, own op stream.
    for b in std::iter::once(&mut bed).chain(twin.as_mut()) {
        b.round(spec, seed, TAG_WARM, 0, spec.ops_per_round / 2, tally);
    }
    SetUp {
        bed,
        twin,
        ingest,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// What the fault phases measured.
#[derive(Default)]
pub struct Faults {
    /// Degraded rounds, all victims.
    pub degraded: Rounds,
    /// Store counter `fetched_elements` over the degraded rounds.
    pub degraded_fetched_elements: u64,
    /// User bytes returned by the degraded rounds.
    pub degraded_bytes: u64,
    /// Foreground read rounds inside the repair windows.
    pub repair_reads: Rounds,
    /// Seconds from `RepairManager::spawn` to redundancy restored, per
    /// drill.
    pub repair_s: Vec<f64>,
    /// `repair.wire_bytes` delta and bytes lost, summed over drills.
    pub wire_bytes: u64,
    /// Bytes that were on the wiped disks.
    pub lost_bytes: u64,
}

/// Foreground ops per round inside a repair window.
const REPAIR_CHUNK: usize = 250;

/// The drills of a workload that has them: per victim, degraded rounds
/// for its share of `degraded_s` (four at least, so three victims make
/// [`MIN_ROUNDS`]) and then a repair under foreground reads.
pub fn fault_phases(
    spec: &Spec,
    opts: &Opts,
    bed: &mut Bed,
    victims: &[usize],
    degraded_s: f64,
    tally: &mut Tally,
) -> Faults {
    let mut f = Faults::default();
    if !spec.drills {
        return f;
    }
    let cell_bytes = bed.stack.cell_bytes;
    let min_rounds = if opts.quick {
        1
    } else {
        MIN_ROUNDS.div_ceil(VICTIMS.len())
    };
    let ops = spec.ops_per_round;
    let mut round_id = 0u64;
    for (drill, &victim) in victims.iter().enumerate() {
        let store = Arc::clone(&bed.stack.store);
        let lost = bed.stack.raw[victim].len() as u64 * cell_bytes;
        if store.fail_disk(victim).is_err() {
            tally.violation(format!("fail_disk({victim}) refused"));
            continue;
        }
        bed.stack.cluster.client(victim).wipe();

        // Degraded rounds: one disk lost, nothing repairing yet.
        let fetched0 = bed.counter("fetched_elements");
        let t0 = Instant::now();
        let share = degraded_s / victims.len() as f64;
        for r in 0.. {
            if r >= min_rounds && (opts.quick || t0.elapsed().as_secs_f64() >= share) {
                break;
            }
            let out = bed.round(spec, opts.seed, TAG_DEGRADED, round_id, ops, tally);
            round_id += 1;
            f.degraded_bytes += out.read_bytes;
            f.degraded.0.push(out.read);
        }
        f.degraded_fetched_elements += bed.counter("fetched_elements") - fetched0;

        // Repair: the manager rebuilds the wiped disk while one client
        // keeps reading.
        let wire0 = bed.counter("repair.wire_bytes");
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let mgr = RepairManager::spawn(Arc::clone(&store), RepairConfig::default());
        let (restored, fg) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let client = &bed.clients[0];
                let mut rounds = Vec::new();
                let mut total = Done::default();
                for chunk in 0u64.. {
                    let s = stream(opts.seed, TAG_REPAIR, drill as u64, chunk);
                    let list = range_reads(s, REPAIR_CHUNK, spec.objects, spec.object_bytes);
                    let mut done = Done::default();
                    let t = Instant::now();
                    let mut open = true;
                    for op in &list {
                        open = !stop.load(Ordering::Acquire);
                        if !open {
                            break;
                        }
                        read_one(client, opts.seed, &object_name(op.object), op, &mut done);
                    }
                    done.busy_s = t.elapsed().as_secs_f64();
                    total.attempted += done.attempted;
                    total.failed += done.failed;
                    // The window's last, cut-short round counts while it
                    // still has a few samples beyond its p90.
                    if open || done.attempted as usize >= REPAIR_CHUNK / 10 {
                        rounds.push(reduce(&[&done]));
                    }
                    if !open {
                        break;
                    }
                }
                (rounds, total)
            });
            let restored = mgr.wait_idle(Duration::from_secs(120));
            let secs = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::Release);
            let fg = reader.join().expect("foreground reader panicked");
            (restored.then_some(secs), fg)
        });
        mgr.shutdown();
        tally.add(&[fg.1]);
        f.repair_reads.0.extend(fg.0);
        match restored {
            Some(secs) => f.repair_s.push(secs),
            None => tally.violation(format!("repair of disk {victim} did not converge in 120 s")),
        }
        f.wire_bytes += bed.counter("repair.wire_bytes") - wire0;
        f.lost_bytes += lost;
    }
    f
}

/// A finished run: header, metric values, op counts.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Environment header and noise sentinel, in print order.
    pub header: Vec<(&'static str, String)>,
    /// Metric values by name.
    pub values: Values,
    /// Relative IQR over rounds, for the metrics that have rounds.
    pub spread: Values,
    /// Op counts and violated gates.
    pub tally: Tally,
}

impl Report {
    /// No op failed and no gate was violated.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.violations.is_empty()
    }
}

/// The environment header every report starts with.
pub fn header(spec: &Spec, opts: &Opts, io_backend: &str) -> Vec<(&'static str, String)> {
    vec![
        ("workload", spec.name.to_string()),
        ("commit", host::git_commit()),
        (
            "kernel_backend",
            ecfrm_gf::kernel::active().name.to_string(),
        ),
        ("file_io_backend", io_backend.to_string()),
        ("cpu", host::placement().to_string()),
        ("seed", opts.seed.to_string()),
        (
            "load",
            format!("closed loop, {CLIENTS} client threads, one connection each"),
        ),
        (
            "comparable",
            if opts.quick {
                "NO (--quick: smoke sizes)".to_string()
            } else {
                "yes".to_string()
            },
        ),
    ]
}

/// Teardown gates shared by both modes: everything written is sealed,
/// the byte accounting is exact, and a drill leaves a clean store.
pub fn teardown(spec: &Spec, bed: &Bed, tally: &mut Tally) -> f64 {
    bed.stack.store.flush();
    let stored = bed.stack.stored_bytes() as f64 / bed.user_bytes.max(1) as f64;
    if !(1.50..=1.51).contains(&stored) {
        tally.violation(format!(
            "stored_bytes_per_user_byte {stored} outside 1.50-1.51"
        ));
    }
    if spec.drills {
        match bed.stack.store.scrub() {
            Ok(r) if r.is_clean() => {}
            Ok(r) => tally.violation(format!(
                "scrub after the drills: {} corrupt, {} missing elements",
                r.corrupt_elements.len(),
                r.missing_elements
            )),
            Err(e) => tally.violation(format!("scrub after the drills failed: {e}")),
        }
        let io = bed.stack.store.array().io_stats().snapshot();
        if io.submitted != io.completed {
            tally.violation(format!(
                "io.submitted {} != io.completed {}",
                io.submitted, io.completed
            ));
        }
    }
    let (_, _, net_failed) = bed.stack.net_totals();
    if net_failed > 0 {
        tally.violation(format!(
            "{net_failed} shard requests exhausted their retries"
        ));
    }
    stored
}

/// Run a workload untraced and report every end-to-end metric.
pub fn run(spec: Spec, opts: &Opts, proc_start: Instant) -> Report {
    let spec = spec.sized(opts);
    let mut tally = Tally::default();

    // Set-up, several times over, each timed alike from boot to the end
    // of its warm-up: the reported time is their median (plus what the
    // process spent before the first boot), the last stack is the one
    // measured.
    let before_boot = proc_start.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut writes = Rounds::default();
    let mut last = None;
    for i in 0..if opts.quick { 1 } else { SETUPS } {
        drop(last.take());
        let built = set_up(&spec, opts.seed, false, &mut tally);
        eprintln!("  set-up {}: {:.3} s", i + 1, built.seconds);
        setup_s.push(built.seconds);
        writes.0.push(built.ingest);
        last = Some(built);
    }
    let SetUp {
        mut bed, mut twin, ..
    } = last.expect("at least one set-up");
    let mut head = header(&spec, opts, bed.stack.io_backend);
    let (mut values, mut spread) = (Values::new(), Values::new());

    // The measured phase: main rounds for `--seconds` (and the fewest
    // rounds at least), or, for a workload that drills, its fault
    // phases and no main round at all.
    let cpu0 = HostCpu::now();
    let t_measure = Instant::now();
    let fetched0 = bed.counter("fetched_elements");
    let (mut main, mut measured_writes) = (Rounds::default(), Rounds::default());
    let mut gains = Vec::new();
    let mut main_bytes = 0u64;
    let min_rounds = if opts.quick { 3 } else { MIN_ROUNDS };
    while !spec.drills
        && (main.0.len() < min_rounds
            || !opts.quick && t_measure.elapsed().as_secs_f64() < opts.seconds)
    {
        let round = main.0.len() as u64;
        let (out, gain) = paired_round(&spec, opts, &mut bed, twin.as_mut(), round, &mut tally);
        main_bytes += out.read_bytes;
        main.0.push(out.read);
        measured_writes.0.extend(out.write);
        gains.extend(gain);
    }
    let main_fetched = bed.counter("fetched_elements") - fetched0;
    if !measured_writes.0.is_empty() {
        writes = measured_writes;
    }
    let victims = if opts.quick {
        &VICTIMS[..1]
    } else {
        &VICTIMS[..]
    };
    let degraded_s = opts.seconds * DEGRADED_SHARE;
    let faults = fault_phases(&spec, opts, &mut bed, victims, degraded_s, &mut tally);
    let steal = HostCpu::now().steal_pct_since(&cpu0);
    let measured_s = t_measure.elapsed().as_secs_f64();
    let stored = teardown(&spec, &bed, &mut tally);

    // failure_drill's reads are its degraded rounds; the foreground
    // reads inside the repair windows are a per-layer metric.
    let (reads, fetched, returned) = if spec.drills {
        (
            &faults.degraded,
            faults.degraded_fetched_elements,
            faults.degraded_bytes,
        )
    } else {
        (&main, main_fetched, main_bytes)
    };
    let amplification = fetched as f64 * ELEMENT as f64 / returned.max(1) as f64;
    let mut put = |name: &'static str, (value, iqr): (f64, f64)| {
        values.insert(name, value);
        spread.insert(name, iqr);
    };
    put(
        "setup_s",
        (before_boot + median(&setup_s), rel_iqr(&setup_s)),
    );
    put("read_p50_us", reads.p50_us());
    put("read_p90_us", reads.p90_us());
    put("read_mb_s", reads.mb_s());
    put("stored_bytes_per_user_byte", (stored, 0.0));
    put("fetched_bytes_per_read_byte", (amplification, 0.0));
    put("peak_rss_mb", (host::peak_rss_mb(), 0.0));

    // Sanity of what was measured, as gates.
    if spec.standard_twin {
        let gain = median(&gains);
        head.push((
            "gain_vs_standard",
            format!("{gain:.4} (median of {} rounds)", gains.len()),
        ));
        if gain <= 1.10 {
            tally.violation(format!("gain_vs_standard {gain:.3} <= 1.10"));
        }
        // Element-aligned reads fetch what they return — but for the
        // odd read the front door plans around a momentarily hot disk.
        if !(1.0..1.02).contains(&amplification) {
            tally.violation(format!(
                "fetched_bytes_per_read_byte {amplification} on aligned healthy reads"
            ));
        }
    }
    head.extend([
        (
            "write_p50_us",
            format!("{:.1} ({} write rounds)", writes.p50_us().0, writes.0.len()),
        ),
        ("write_mb_s", format!("{:.1}", writes.mb_s().0)),
    ]);
    if !faults.degraded.0.is_empty() {
        head.push((
            "degraded_p50_us",
            format!("{:.1}", faults.degraded.p50_us().0),
        ));
    }
    if !faults.repair_reads.0.is_empty() {
        head.push((
            "repair_read_p50_us",
            format!("{:.1}", faults.repair_reads.p50_us().0),
        ));
    }
    if spec.drills {
        let degraded_amp = faults.degraded_fetched_elements as f64 * ELEMENT as f64
            / faults.degraded_bytes.max(1) as f64;
        if degraded_amp <= 1.0 {
            tally.violation(format!("degraded read amplification {degraded_amp} <= 1"));
        }
        let wire = faults.wire_bytes as f64 / faults.lost_bytes.max(1) as f64;
        if wire > 1.0 {
            tally.violation(format!(
                "repair moved {wire} wire bytes per lost byte (combined repair moves 1)"
            ));
        }
        head.push(("repair_s", format!("{:?}", faults.repair_s)));
        head.push(("repair_wire_bytes_per_lost_byte", format!("{wire}")));
    }
    head.extend([
        (
            "rounds",
            format!(
                "{} main, {} degraded, {} in repair windows",
                main.0.len(),
                faults.degraded.0.len(),
                faults.repair_reads.0.len()
            ),
        ),
        ("measured_s", format!("{measured_s:.1}")),
        ("host.steal_pct", format!("{steal:.1}")),
        ("host.spin_mops", format!("{:.1}", host::spin_calibration())),
        ("host.wake_us", format!("{:.1}", host::wake_calibration())),
    ]);
    Report {
        workload: spec.name,
        header: head,
        values,
        spread,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_workload_that_drills_runs_no_main_round() {
        // A small, fast failure_drill: 24 MiB under --quick, 50 µs disks.
        let small = Spec {
            objects: 96,
            disks: Disks::Mem(Duration::from_micros(50)),
            ..spec("failure_drill").expect("failure_drill exists")
        };
        let opts = Opts {
            seed: 3,
            seconds: 1.0,
            quick: true,
        };
        let report = run(small, &opts, Instant::now());
        assert!(
            report.correct(),
            "violations: {:?}",
            report.tally.violations
        );
        let rounds = &report
            .header
            .iter()
            .find(|(k, _)| *k == "rounds")
            .expect("the header counts rounds")
            .1;
        assert!(rounds.starts_with("0 main, 1 degraded, "), "{rounds}");
        // The reads reported are the degraded ones: they fetch more than
        // they return.
        assert!(report.values["fetched_bytes_per_read_byte"] > 1.0);
    }
}
