//! # EC-FRM — An Erasure Coding Framework to Speed Up Reads
//!
//! A from-scratch Rust reproduction of *EC-FRM: An Erasure Coding
//! Framework to Speed up Reads for Erasure Coded Cloud Storage Systems*
//! (Fu, Shu, Shen — ICPP 2015).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`gf`] — Galois field arithmetic, region kernels, matrices
//!   (the GF-Complete/Jerasure substrate, rebuilt);
//! * [`codes`] — candidate codes: Reed–Solomon, Azure LRC, XOR;
//! * [`layout`] — standard / rotated / EC-FRM / shuffled placements;
//! * [`core`] — the framework: [`Scheme`](core::Scheme), read planners,
//!   recovery;
//! * [`sim`] — the disk-array testbed: calibrated timing model and a
//!   real threaded I/O engine;
//! * [`store`] — an append-only erasure-coded object store built on all
//!   of the above;
//! * [`integrity`] — end-to-end integrity: a from-scratch keyed block
//!   hash, per-element checksum footers, and merkle stripe manifests
//!   that let a scrub localize a flipped byte without decoding;
//! * [`net`] — a real networked shard service: wire protocol, shard
//!   servers, multiplexed remote-disk clients, and a loopback cluster
//!   harness;
//! * [`vertical`] — the vertical codes (X-Code, WEAVER) whose
//!   restrictions motivate EC-FRM (paper §II-B);
//! * [`util`] — dependency-free RNG, lock, and parallel-map utilities.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use ecfrm::codes::LrcCode;
//! use ecfrm::core::{LayoutKind, Scheme};
//!
//! // Transform (6,2,2) LRC into its EC-FRM form and compare read plans.
//! let code = Arc::new(LrcCode::new(6, 2, 2));
//! let standard = Scheme::builder(code.clone()).build();
//! let ecfrm = Scheme::builder(code).layout(LayoutKind::EcFrm).build();
//!
//! // Paper Figure 3 vs Figure 7(a): the 8-element read's bottleneck.
//! assert_eq!(standard.normal_read_plan(0, 8).max_load(), 2);
//! assert_eq!(ecfrm.normal_read_plan(0, 8).max_load(), 1);
//! ```

pub use ecfrm_codes as codes;
pub use ecfrm_core as core;
pub use ecfrm_gf as gf;
pub use ecfrm_integrity as integrity;
pub use ecfrm_layout as layout;
pub use ecfrm_net as net;
pub use ecfrm_obs as obs;
pub use ecfrm_sim as sim;
pub use ecfrm_store as store;
pub use ecfrm_util as util;
pub use ecfrm_vertical as vertical;

/// Crate version, from the workspace manifest.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
