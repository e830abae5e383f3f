//! Wire ordering for the Switching-Similarity (SS) problem — stage 1 of the
//! paper's two-stage crosstalk minimization strategy (Section 3.2).
//!
//! Given `n` wires that will share a routing region and the pairwise
//! switching similarity of their signals, the SS problem asks for a linear
//! ordering (track assignment) `<w_1, …, w_n>` minimizing the total effective
//! loading `Σ_i weight(w_i, w_{i+1})`, where `weight(i, j) = 1 − similarity(i, j)`.
//! Placing wires that switch alike next to each other exploits the
//! anti-Miller effect and reduces effective crosstalk before any sizing
//! happens.
//!
//! The problem is NP-hard (the paper reduces MCWO to it and also shows no
//! constant-factor approximation exists unless P = NP), so the paper proposes
//! the greedy **WOSS** heuristic (Figure 7). This crate implements:
//!
//! * [`SsProblem`] — the complete graph `K_n` with `1 − similarity` weights;
//! * [`woss()`] — the paper's heuristic, and [`woss_into`], the same sweep
//!   in caller-provided buffers;
//! * [`exact_ordering`] — a Held–Karp dynamic program usable up to ~16 wires,
//!   as an optimality reference for tests and ablations;
//! * [`baselines`] — identity / random / best-start nearest-neighbor
//!   orderings for comparisons;
//! * [`WireOrdering`] — the resulting track order. Adjacent tracks couple;
//!   the paper's `N(i)` / `I(i)` maps are answered by the coupling set built
//!   from the orderings (`ncgws_coupling::CouplingSet::neighbors` and
//!   `dominating`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod error;
pub mod exact;
pub mod problem;
pub mod woss;

pub use error::OrderingError;
pub use exact::exact_ordering;
pub use problem::{path_cost, SsProblem, WireOrdering};
pub use woss::{woss, woss_into};
