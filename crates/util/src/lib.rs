//! Dependency-free utilities shared across the EC-FRM workspace.
//!
//! The build environment is fully offline, so the workspace carries no
//! external crates. This crate supplies the pieces the rest of the
//! workspace would otherwise pull from crates.io:
//!
//! * [`Rng`] — a small, fast, seedable PRNG (xoshiro256**) with the
//!   `random_range` / `random` surface the simulators and workload
//!   generators need. Deterministic given a seed, so every figure and
//!   test regenerates bit-identically.
//! * [`Mutex`] — a [`std::sync::Mutex`] wrapper whose `lock()` returns
//!   the guard directly (poisoning is collapsed into the inner value,
//!   parking_lot-style), keeping call sites free of `unwrap()` noise.
//! * [`Queue`] — the closable FIFO under every worker pool in the
//!   workspace (the I/O engine's, a shard connection's).
//! * [`TokenBucket`] — the pay-after rate limiter shared by background
//!   repair and the front door's per-tenant admission control.

#![warn(missing_docs)]

pub mod bucket;
pub mod rng;
pub mod sync;

pub use bucket::TokenBucket;
pub use rng::Rng;
pub use sync::{Mutex, Queue};
