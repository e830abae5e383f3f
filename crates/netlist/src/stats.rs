//! Structural statistics of a circuit, used in experiment reports.

use ncgws_circuit::{CircuitGraph, TopologicalOrder};
use serde::Serialize;

/// Summary statistics of a circuit's structure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CircuitStats {
    /// Number of gates.
    pub num_gates: usize,
    /// Number of wires.
    pub num_wires: usize,
    /// Number of input drivers.
    pub num_drivers: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of edges in the circuit graph.
    pub num_edges: usize,
    /// Longest source-to-sink path length in edges.
    pub depth: usize,
    /// Average gate fan-in.
    pub avg_gate_fanin: f64,
    /// Maximum gate fan-in.
    pub max_gate_fanin: usize,
    /// Average fan-out over gates and drivers.
    pub avg_fanout: f64,
}

impl CircuitStats {
    /// Computes the statistics of a circuit.
    pub fn of(circuit: &CircuitGraph) -> Self {
        let topo = TopologicalOrder::of(circuit);
        let gate_fanins: Vec<usize> = circuit.gate_ids().map(|g| circuit.fanin(g).len()).collect();
        let num_gates = gate_fanins.len();
        let avg_gate_fanin = if num_gates == 0 {
            0.0
        } else {
            gate_fanins.iter().sum::<usize>() as f64 / num_gates as f64
        };
        let max_gate_fanin = gate_fanins.iter().copied().max().unwrap_or(0);
        let fanout_sources: Vec<usize> = circuit
            .node_ids()
            .filter(|&id| circuit.is_stage_root(id))
            .map(|id| circuit.fanout(id).len())
            .collect();
        let avg_fanout = if fanout_sources.is_empty() {
            0.0
        } else {
            fanout_sources.iter().sum::<usize>() as f64 / fanout_sources.len() as f64
        };
        CircuitStats {
            num_gates,
            num_wires: circuit.num_wires(),
            num_drivers: circuit.num_drivers(),
            num_outputs: circuit.primary_output_drivers().len(),
            num_edges: circuit.num_edges(),
            depth: topo.longest_path_len(circuit),
            avg_gate_fanin,
            max_gate_fanin,
            avg_fanout,
        }
    }

    /// Total number of sizable components.
    pub fn total_components(&self) -> usize {
        self.num_gates + self.num_wires
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticGenerator;
    use crate::spec::CircuitSpec;

    #[test]
    fn stats_of_a_generated_circuit() {
        let inst = SyntheticGenerator::new(CircuitSpec::new("s", 50, 110).with_seed(1))
            .generate()
            .unwrap();
        let stats = CircuitStats::of(&inst.circuit);
        assert_eq!(stats.num_gates, 50);
        assert_eq!(stats.num_wires, 110);
        assert_eq!(stats.total_components(), 160);
        assert!(stats.num_outputs >= 2);
        assert!(stats.avg_gate_fanin >= 1.0);
        assert!(stats.max_gate_fanin >= 1);
        assert!(stats.depth >= 3);
        assert!(stats.num_edges > stats.total_components());
    }
}
