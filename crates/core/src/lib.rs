//! The EC-FRM framework (paper §IV): candidate code + layout = scheme.
//!
//! A [`Scheme`] binds a [`CandidateCode`](ecfrm_codes::CandidateCode)
//! (Reed–Solomon, LRC, …) to a [`Layout`](ecfrm_layout::Layout)
//! (standard, rotated, EC-FRM, …) and provides everything a storage
//! system needs:
//!
//! * **stripe construction** ([`Scheme::encode_stripe`]) — paper §IV-B
//!   Step 2: each layout group is logically one candidate-code row, so
//!   parities are computed group by group with the candidate's own rules;
//! * **read planning** ([`Scheme::normal_read_plan`],
//!   [`Scheme::degraded_read_plan`]) — maps requested data elements to
//!   per-disk accesses and, under failures, adds minimal repair traffic,
//!   greedily balancing the most-loaded disk (the paper's bottleneck
//!   metric, §III-B);
//! * **reconstruction** ([`Scheme::reconstruct`], [`Scheme::fill_holes`],
//!   [`recover::DiskRecovery`]) — paper §IV-D: identify failed elements
//!   at stripe level, solve the candidate code's equations per group.
//!   A degraded read and a disk rebuild pick a lost element's helpers by
//!   one rule and decode through the scheme's one coefficient cache;
//! * **fault-tolerance checking** ([`Scheme::verify_disk_tolerance`]) —
//!   machine-checkable form of paper §IV-C (Lemma 1): EC-FRM preserves
//!   the candidate code's tolerance.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ecfrm_codes::LrcCode;
//! use ecfrm_core::Scheme;
//!
//! // (6,2,2) EC-FRM-LRC — the paper's running example.
//! let scheme = Scheme::builder(Arc::new(LrcCode::new(6, 2, 2)))
//!     .layout(ecfrm_core::LayoutKind::EcFrm)
//!     .build();
//! let plan = scheme.normal_read_plan(0, 8);
//! // Figure 7(a): the most loaded disk serves exactly one element.
//! assert_eq!(plan.max_load(), 1);
//! ```

#![warn(missing_docs)]

pub mod plan;
pub mod recover;
pub mod scheme;
pub mod stripe;
pub mod update;

pub use ecfrm_layout::{DomainMap, LayoutKind};
pub use plan::{Fetch, Purpose, ReadPlan};
pub use recover::DiskRecovery;
pub use scheme::{ReadCtx, Scheme, SchemeBuilder};
pub use stripe::StripeImage;
pub use update::{append_stripe_plan, update_plan, WritePlan};
