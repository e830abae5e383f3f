//! Circuit representation and timing substrate for the ncgws workspace.
//!
//! This crate implements Section 2 of the DAC 1999 paper *"Noise-Constrained
//! Performance Optimization by Simultaneous Gate and Wire Sizing Based on
//! Lagrangian Relaxation"*:
//!
//! * the **circuit graph** `H = (V, E)` — a directed acyclic graph whose nodes
//!   are circuit *components* (input drivers, gates, wires) plus an artificial
//!   source and sink, indexed in topological order ([`CircuitGraph`]);
//! * the **RC models** of gates and wires (Figure 3 of the paper): a gate of
//!   size `x` has resistance `r̂ / x` and input capacitance `ĉ · x`; a wire of
//!   size `x` has resistance `r̂ / x` and capacitance `ĉ · x + f` represented by
//!   the π-model ([`NodeAttrs`], [`Technology`]);
//! * the **Elmore delay** engine: downstream capacitances `C_i`, per-component
//!   delays `D_i = r_i · C_i`, arrival times `a_i` and the critical path
//!   ([`elmore`], [`timing`]);
//! * circuit-wide **area** and **power** evaluation used as objective and
//!   constraint by the sizing engine ([`area`], [`power`]).
//!
//! # Stage-bounded Elmore model
//!
//! The paper lumps each component's delay as `D_i = r_i · C_i` where `C_i` is
//! the capacitance downstream of component `i`. We use the standard
//! *stage-bounded* interpretation (the same one used by the Chen–Chu–Wong
//! ICCAD'98 formulation the paper builds on): a gate regenerates its output,
//! so the capacitance behind a gate input does **not** load the stage driving
//! that input. Concretely, a *stage* is the RC tree hanging from a driver or a
//! gate output; it is terminated by gate input capacitances and primary-output
//! loads. Path delay is then the sum of the per-component delays along the
//! path, exactly the quantity constrained by `a_j + D_i ≤ a_i` in the paper's
//! problem `PP`.
//!
//! # Example
//!
//! ```rust
//! use ncgws_circuit::{CircuitBuilder, GateKind, Technology};
//!
//! # fn main() -> Result<(), ncgws_circuit::CircuitError> {
//! let tech = Technology::dac99();
//! let mut builder = CircuitBuilder::new(tech);
//!
//! // One driver -> wire -> inverter -> wire -> output load.
//! let d = builder.add_driver("in", 100.0)?;
//! let w1 = builder.add_wire("w1", 50.0)?;
//! let g = builder.add_gate("g", GateKind::Inv)?;
//! let w2 = builder.add_wire("w2", 80.0)?;
//! builder.connect(d, w1)?;
//! builder.connect(w1, g)?;
//! builder.connect(g, w2)?;
//! builder.connect_output(w2, 5.0)?;
//!
//! let circuit = builder.build()?;
//! assert_eq!(circuit.num_components(), 3); // w1, g, w2 (the driver is not sizable)
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod builder;
pub mod elmore;
pub mod engine;
pub mod error;
pub mod graph;
pub mod id;
mod names;
pub mod node;
pub mod power;
pub mod sizing;
pub mod tech;
pub mod timing;
pub mod topo;
pub mod validate;

pub use area::total_area;
pub use builder::CircuitBuilder;
pub use elmore::{DownstreamCaps, ElmoreAnalyzer};
pub use engine::{
    propagate_arrivals_into, CircuitTopology, EvalWorkspace, Settled, Space, Tile, Tiles, NO_PRED,
};
pub use error::CircuitError;
pub use graph::{Attributes, CircuitGraph, SizeBounds};
pub use id::NodeId;
pub use node::{GateKind, Node, NodeAttrs, NodeKind, NodeRc};
pub use power::total_capacitance;
#[doc(hidden)]
pub use sizing::EngineCacheStamp;
pub use sizing::SizeVector;
pub use tech::Technology;
pub use timing::{ArrivalTimes, TimingAnalysis};
pub use topo::TopologicalOrder;
pub use validate::validate;
