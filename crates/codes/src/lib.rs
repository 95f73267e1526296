//! Candidate erasure codes for the EC-FRM framework.
//!
//! The EC-FRM paper (ICPP'15) defines a *candidate code* as any erasure
//! code whose stripe is a single row — i.e. a systematic `(n, k)` code
//! over one row of `n` elements, `k` of them data. This crate provides:
//!
//! * [`CandidateCode`] — the trait EC-FRM integrates against, exposing the
//!   generator matrix, encoding, full matrix decoding, per-element repair
//!   plans, and recoverability checks;
//! * [`RsCode`] — systematic Reed–Solomon `(k, m)` (the Google/Facebook
//!   code in the paper), with Vandermonde-derived or Cauchy generators;
//! * [`LrcCode`] — Azure-style Local Reconstruction Codes `(k, l, m)`
//!   with `l` XOR local parities and `m` Galois-field global parities
//!   (paper Eq. (5)–(8));
//! * [`XorCode`] — single-parity RAID-5 style code, the smallest possible
//!   candidate code, useful for exhaustive testing and as a third
//!   demonstration that the framework is generic.
//!
//! # Example
//!
//! ```
//! use ecfrm_codes::{CandidateCode, RsCode};
//!
//! let rs = RsCode::vandermonde(6, 3);
//! let data: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 16]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
//! let mut parity = vec![vec![0u8; 16]; 3];
//! rs.encode(&refs, &mut parity);
//!
//! // Erase any three elements and decode.
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
//! shards[0] = None;
//! shards[4] = None;
//! shards[7] = None;
//! rs.decode(&mut shards, 16).unwrap();
//! assert_eq!(shards[0].as_deref().unwrap(), &data[0][..]);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod decode;
pub mod lrc;
pub mod rs;
pub mod traits;
pub mod xor;

pub use cache::DecoderCache;
pub use decode::{matrix_decode, select_independent_rows};
pub use lrc::LrcCode;
pub use rs::RsCode;
pub use traits::{CandidateCode, CodeError, ElementClass, RepairSpec};
pub use xor::XorCode;
