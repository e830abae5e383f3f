//! Physical coupling capacitance modeling (Section 3.1 of the paper).
//!
//! Two neighboring parallel wires `i` and `j` form a coupling capacitor
//!
//! ```text
//! c_ij = f̂_ij · l_ij / (d_ij − (x_i + x_j)/2)
//!      = (f̂_ij · l_ij / d_ij) · 1 / (1 − (x_i + x_j) / (2 d_ij))
//! ```
//!
//! where `f̂_ij` is the unit-length fringing capacitance between the wires,
//! `l_ij` their overlap length, `d_ij` their middle-to-middle distance, and
//! `x_i`, `x_j` their widths. The second factor is expanded as a geometric
//! series and truncated (Theorem 1 of the paper), which yields a
//! **posynomial** expression — the property that makes the whole sizing
//! problem convex after the usual variable transformation.
//!
//! The crate provides:
//!
//! * [`WirePairGeometry`] / [`CouplingPair`] — the per-pair geometry and the
//!   exact, truncated, and linearized (k = 2) capacitance models;
//! * [`posynomial`] — the truncated geometric series and its error bound;
//! * [`CouplingSet`] — all coupling pairs of a circuit (32 bytes each, the
//!   only copy: the sizing engine reads them in place), the per-node
//!   Theorem-5 coefficient sums, total-crosstalk evaluation and the
//!   per-node coupling load used by the Elmore engine;
//! * [`Neighborhoods`] — the neighborhood map `N(i)` and the dominating
//!   index `I(i)`, built on demand by [`CouplingSet::neighborhoods`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacitance;
pub mod error;
pub mod posynomial;
pub mod set;

pub use capacitance::{CouplingPair, WirePairGeometry};
pub use error::CouplingError;
pub use posynomial::{exact_factor, truncated_factor, truncation_error_ratio};
pub use set::{CouplingSet, Neighborhoods};
