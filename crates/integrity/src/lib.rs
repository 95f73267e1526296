//! End-to-end integrity primitives for the EC-FRM store.
//!
//! Erasure coding protects against *loss* — a disk that stops answering.
//! It does nothing against *lies*: a disk (or a wire) that answers with
//! the wrong bytes is happily decoded and served, and a parity scrub can
//! only say "some group disagrees", not which element. This crate gives
//! every element a verified identity so the store can treat a corrupt
//! answer exactly like an erasure:
//!
//! * [`hash`] — a from-scratch keyed 64/128-bit block hash (no external
//!   crates, per workspace policy) with a byte-at-a-time portable
//!   reference implementation used by the differential test suite;
//! * [`hash::element_checksum`] / [`hash::append_footer`] — the 8-byte
//!   per-element checksum footer persisted next to each element. The
//!   element's disk offset is folded into the key, so a *misdirected*
//!   read (right bytes, wrong address) also fails verification;
//! * [`merkle`] — per-stripe merkle manifests over element leaf hashes,
//!   so a scrub can check any single element against the stripe root in
//!   O(log n) hashes without decoding the stripe.
//!
//! The store wires these into seal (footer + manifest creation), the
//! batched read path (verify-on-read: a bad footer marks the element
//! absent and the read replans degraded), the repair pipeline (sources
//! are verified, rebuilt elements are re-footered), and the wire
//! protocol (a shard ships each cell as stored, and checks footers only
//! on the sources of a combined repair before they enter its sum).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hash;
pub mod merkle;

pub use hash::{
    append_footer, element_checksum, hash128, hash64, verify_footer, HashKey, FOOTER_LEN,
};
pub use merkle::{leaf_hash, MerkleStep, MerkleTree};
