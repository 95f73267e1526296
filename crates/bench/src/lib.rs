//! Experiment harness regenerating every figure of the EC-FRM paper.
//!
//! The evaluation (§VI) compares three *forms* of each code — standard,
//! rotated ("R-"), and EC-FRM — over the Table I parameters, under the
//! §VI-B/§VI-C random-read workloads, on a Savvio 10K.3 disk array.
//! This crate packages those pieces:
//!
//! * [`params`] — Table I's parameter sets and scheme constructors;
//! * [`experiment`] — run one (scheme, workload) cell and summarise
//!   speed / cost / load metrics;
//! * [`report`] — the one [`report::Report`] shape every figure and
//!   every microbenchmark prints and writes, and the paper-style gain
//!   percentage.
//!
//! Two binaries drive it — `figures` for the paper's figures, `micro`
//! for the per-layer microbenchmarks:
//!
//! ```text
//! cargo run -p ecfrm-bench --release --bin figures -- all
//! cargo run -p ecfrm-bench --release --bin micro -- all
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod params;
pub mod report;

pub use experiment::{run_degraded, run_normal, DegradedResult, ExperimentConfig, NormalResult};
pub use params::{lrc_params, lrc_schemes, rs_params, rs_schemes, three_forms};
