//! The bundle of inputs the optimizer consumes.

use ncgws_circuit::{CircuitGraph, NodeId};
use ncgws_waveform::PatternSet;
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize};

use crate::error::NetlistError;

/// Geometry shared by all routing channels of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelGeometry {
    /// Track pitch (middle-to-middle distance of adjacent tracks, µm).
    pub pitch: f64,
    /// Fraction of the shorter wire's length that overlaps its neighbor.
    pub overlap_fraction: f64,
    /// Unit-length fringing capacitance between adjacent wires (fF/µm).
    pub unit_fringing: f64,
}

impl ChannelGeometry {
    /// Overlap length between two wires of the given lengths.
    pub fn overlap_length(&self, len_a: f64, len_b: f64) -> f64 {
        self.overlap_fraction * len_a.min(len_b)
    }
}

/// A complete optimization problem instance: the circuit, its routing
/// channels (groups of wires that run in parallel and therefore couple), the
/// channel geometry, and the primary-input patterns used to derive switching
/// similarity.
#[derive(Debug, Clone, Serialize)]
pub struct ProblemInstance {
    /// Benchmark name.
    pub name: String,
    /// The circuit graph.
    pub circuit: CircuitGraph,
    /// Routing channels: each entry lists the wires sharing one channel.
    pub channels: Vec<Vec<NodeId>>,
    /// Geometry of every channel.
    pub geometry: ChannelGeometry,
    /// Primary-input vectors for logic simulation.
    pub patterns: PatternSet,
}

/// Decodes the parts (the circuit and patterns check their own
/// invariants), then checks the whole with [`ProblemInstance::validate`].
impl Deserialize for ProblemInstance {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "ProblemInstance")?;
        let instance = ProblemInstance {
            name: f.field("name")?,
            circuit: f.field("circuit")?,
            channels: f.field("channels")?,
            geometry: f.field("geometry")?,
            patterns: f.field("patterns")?,
        };
        instance
            .validate()
            .map_err(|e| Error::custom(e.to_string()))?;
        Ok(instance)
    }
}

impl ProblemInstance {
    /// Checks what the parts cannot check alone: every channel wire lies
    /// inside the circuit, and the pattern set has one input per driver.
    /// The fields are public, so an instance built in code is checked here
    /// by whoever consumes it, as a decoded one is by the decoder.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ChannelWireOutOfRange`] for the first channel wire
    /// that is not a node of the circuit, and
    /// [`NetlistError::PatternWidth`] when the pattern width differs from
    /// the driver count.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let nodes = self.circuit.num_nodes();
        for (channel, wires) in self.channels.iter().enumerate() {
            if let Some(&wire) = wires.iter().find(|id| id.index() >= nodes) {
                return Err(NetlistError::ChannelWireOutOfRange { channel, wire });
            }
        }
        let (inputs, drivers) = (self.patterns.num_inputs(), self.circuit.num_drivers());
        if inputs != drivers {
            return Err(NetlistError::PatternWidth { inputs, drivers });
        }
        Ok(())
    }

    /// Length (µm) of a wire, recovered from its area coefficient.
    ///
    /// Returns 0 for non-wire nodes.
    pub fn wire_length(&self, id: NodeId) -> f64 {
        let i = id.index();
        if self.circuit.kinds()[i].is_wire() {
            self.circuit.area_coefficients()[i] / self.circuit.technology().wire_area_coefficient
        } else {
            0.0
        }
    }

    /// Total number of sizable components.
    pub fn num_components(&self) -> usize {
        self.circuit.num_components()
    }

    /// Number of wires that belong to some routing channel
    /// (only those can suffer crosstalk).
    pub fn num_channel_wires(&self) -> usize {
        self.channels.iter().map(Vec::len).sum()
    }

    /// An estimate (in bytes) of the instance's memory, used by the
    /// Figure 10(a) reproduction.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.circuit.memory_bytes()
            + self
                .channels
                .iter()
                .map(|c| size_of::<Vec<NodeId>>() + c.capacity() * size_of::<NodeId>())
                .sum::<usize>()
            + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_uses_the_shorter_wire() {
        let g = ChannelGeometry {
            pitch: 14.0,
            overlap_fraction: 0.5,
            unit_fringing: 0.03,
        };
        assert!((g.overlap_length(100.0, 40.0) - 20.0).abs() < 1e-12);
        assert!((g.overlap_length(40.0, 100.0) - 20.0).abs() < 1e-12);
    }
}
