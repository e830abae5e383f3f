//! Benchmark circuits for the ncgws workspace.
//!
//! The paper evaluates on the ISCAS85 benchmark suite (c432 … c7552, between
//! 640 and 9 656 components). Those netlists — and in particular the wire
//! geometry and test patterns the paper pairs them with — are not
//! redistributable inputs of this reproduction, so this crate provides a
//! stand-in:
//!
//! * [`CircuitSpec`] / [`SyntheticGenerator`] — a reproducible random
//!   generator of combinational circuits with an exact gate and wire count,
//!   bounded fan-in, reconvergent fan-out, routing-channel wire groups and
//!   randomized wire geometry;
//! * [`iscas`] — presets matching the ten Table 1 circuits' gate/wire counts;
//! * [`mod@format`] — a small text netlist format (writer + parser) so externally
//!   prepared circuits can be dropped in;
//! * [`ProblemInstance`] — the bundle the optimizer consumes: the circuit,
//!   its routing channels and geometry, and the primary-input patterns;
//! * [`stats`] — structural statistics used by the experiment reports.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod format;
pub mod generator;
pub mod instance;
pub mod iscas;
pub mod spec;
pub mod stats;

pub use error::NetlistError;
pub use generator::SyntheticGenerator;
pub use instance::{ChannelGeometry, Channels, ProblemInstance};
pub use iscas::{iscas85_spec, table1_specs, xl_spec, xl_wide_spec};
pub use ncgws_waveform::PatternSet;
pub use spec::CircuitSpec;
pub use stats::CircuitStats;
