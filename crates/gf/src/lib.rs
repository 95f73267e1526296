//! Galois field arithmetic and linear algebra for erasure coding.
//!
//! This crate is the from-scratch substitute for the GF-Complete and
//! Jerasure C libraries that the EC-FRM paper builds on. It provides:
//!
//! * [`Field`] — an abstraction over binary extension fields `GF(2^w)`,
//!   with [`Gf8`], the one field every code, store and bench computes in
//!   (the paper's Jerasure `w = 8`), and [`Gf4`], small enough for the
//!   matrix tests to check every case; both are backed by compile-time
//!   generated logarithm/antilogarithm tables;
//! * [`region`] — bulk "region" operations over byte buffers (XOR,
//!   multiply-by-constant, multiply-accumulate, fused multi-parity dot
//!   products), the hot loops of erasure encoding and decoding;
//! * [`kernel`] — the runtime-dispatched split-table backends behind the
//!   region ops: SSSE3/AVX2/NEON byte-shuffle kernels where available, the
//!   scalar product-row loop otherwise, overridable via the
//!   `ECFRM_FORCE_KERNEL` environment variable;
//! * [`matrix`] — dense matrices over a field, with Gauss–Jordan
//!   inversion, rank computation, and the Vandermonde / Cauchy
//!   constructors used to derive systematic Reed–Solomon generator
//!   matrices.
//!
//! # Example
//!
//! ```
//! use ecfrm_gf::{Field, Gf8};
//!
//! let a = 0x57;
//! let b = 0x83;
//! let p = Gf8::mul(a, b);
//! assert_eq!(Gf8::div(p, b), a);
//! assert_eq!(Gf8::add(a, a), 0); // characteristic 2
//! ```

#![warn(missing_docs)]

pub mod field;
pub mod gf4;
pub mod gf8;
pub mod kernel;
pub mod matrix;
pub mod region;

pub use field::Field;
pub use gf4::Gf4;
pub use gf8::Gf8;
pub use matrix::Matrix;
