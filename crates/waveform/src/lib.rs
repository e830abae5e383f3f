//! Switching-behavior substrate (Section 3.2 of the paper).
//!
//! The paper weights physical coupling by how similarly two wires switch:
//!
//! ```text
//! crosstalk(i, j) = switching_similarity(i, j) × coupling_capacitance(i, j)
//! similarity(i, j) = (1 / T_D) ∫₀^{T_D} f(i, t) f(j, t) dt
//! ```
//!
//! where `f(i, t) ∈ {−1, +1}` is the normalized waveform of wire `i`. Two
//! wires that always switch together (`similarity → 1`) enjoy the anti-Miller
//! effect (effective coupling → 0); two wires that always switch in opposite
//! directions (`similarity → −1`) suffer the Miller effect (effective
//! coupling → 2 × physical).
//!
//! The paper obtains waveforms "from the logic simulation stage". This crate
//! provides that stage from scratch:
//!
//! * [`PatternSet`] — reproducible pseudo-random primary-input vectors
//!   (our substitution for production test patterns), packed 64 time steps
//!   per machine word;
//! * [`LogicSimulator`] — bit-parallel zero-delay logic simulation of the
//!   circuit graph, producing a logic value for every node and every vector,
//!   64 vectors per word operation;
//! * [`Waveform`] / [`SimulationTrace`] — the normalized ±1 waveforms, the
//!   trace packed like the patterns, one row of words per node;
//! * [`similarity()`], [`SimilarityMatrix`] — pairwise switching similarity,
//!   and [`fill_similarities`], the matrix written into a caller's buffer;
//! * [`miller_factor`] — the mapping from similarity to the effective
//!   coupling multiplier in `[0, 2]`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod logic_sim;
pub mod miller;
pub mod patterns;
pub mod similarity;
pub mod trace;

pub use logic_sim::LogicSimulator;
pub use miller::{miller_factor, ordering_weight};
pub use patterns::PatternSet;
pub use similarity::{fill_similarities, similarity, SimilarityMatrix};
pub use trace::{SimulationTrace, Waveform};
