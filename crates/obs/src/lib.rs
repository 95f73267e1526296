//! Lock-light observability substrate for the EC-FRM workspace.
//!
//! The paper's entire argument (§VI) is that read speed is set by the
//! *most-loaded* disk, so the one thing this codebase must be able to
//! show is per-disk load and the latency distribution it produces —
//! means hide exactly the tail the layout transformation is buying.
//! This crate provides the primitives every layer records into:
//!
//! * [`Counter`] / [`Gauge`] — single atomics behind a cheap-clone
//!   handle; `inc`/`add` are one relaxed `fetch_add`, no locks.
//! * [`Histogram`] — fixed-bucket log-scale (HDR-style: power-of-two
//!   octaves split into 4 linear sub-buckets, ≤ 25 % relative error)
//!   with p50/p95/p99/max readout. Recording is one atomic add into a
//!   fixed 252-slot table; no allocation, no lock.
//! * [`DiskBoard`] — per-disk element and byte totals, the direct
//!   observable behind the paper's max/mean load-imbalance metric.
//! * [`Recorder`] — a registry handing out the above by name. Cloning
//!   a `Recorder` clones an `Arc`; looking up an instrument takes a
//!   short mutex hold, after which the returned handle is lock-free,
//!   so hot paths resolve their instruments once and then only touch
//!   atomics.
//! * [`Snapshot`] — a point-in-time readout of a whole registry, with
//!   a human table ([`Snapshot::render`]), a flat `(name, u64)` list
//!   for the wire protocol ([`Snapshot::flatten`]), and a hand-rolled
//!   JSON emitter ([`Snapshot::to_json`]; the workspace is offline and
//!   carries no serde).
//!
//! [`NetCounters`]/[`NetStats`] — the transport counters the remote
//! disk client increments — live here too.

#![warn(missing_docs)]

pub mod board;
pub mod hist;
pub mod json;
pub mod net;
pub mod recorder;

pub use board::{DiskBoard, DiskBoardSnapshot};
pub use hist::{Histogram, HistogramSnapshot};
pub use net::{NetCounters, NetStats};
pub use recorder::{Counter, Gauge, Recorder, Snapshot};
