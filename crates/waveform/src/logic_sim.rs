//! Zero-delay logic simulation over the circuit graph.

use ncgws_circuit::{CircuitGraph, NodeKind};

use crate::patterns::PatternSet;
use crate::trace::SimulationTrace;

/// Zero-delay logic simulator.
///
/// Every node of the circuit graph carries a logic value per time step:
/// drivers take the primary-input vector, wires copy their single fanin, and
/// gates evaluate their [`GateKind`](ncgws_circuit::GateKind) over their
/// fanin values. One forward topological sweep per vector makes simulation
/// `O(E)` per time step.
#[derive(Debug, Clone, Copy)]
pub struct LogicSimulator<'a> {
    graph: &'a CircuitGraph,
}

impl<'a> LogicSimulator<'a> {
    /// Creates a simulator bound to a circuit.
    pub fn new(graph: &'a CircuitGraph) -> Self {
        LogicSimulator { graph }
    }

    /// Evaluates one input vector and returns the logic value of every node
    /// (raw node index). The source and sink mirror constant `false`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not provide one value per driver.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        let g = self.graph;
        assert_eq!(
            inputs.len(),
            g.num_drivers(),
            "one input value per driver required"
        );
        let mut values = vec![false; g.num_nodes()];
        let mut fanin_buf: Vec<bool> = Vec::new();
        let kinds = g.kinds();
        for id in g.node_ids() {
            let idx = id.index();
            match kinds[idx] {
                NodeKind::Source | NodeKind::Sink => values[idx] = false,
                NodeKind::Driver => values[idx] = inputs[idx - 1],
                NodeKind::Wire => {
                    // A wire has exactly one fanin (validated at build time).
                    let src = g.fanin(id)[0];
                    values[idx] = values[src.index()];
                }
                NodeKind::Gate(kind) => {
                    fanin_buf.clear();
                    fanin_buf.extend(g.fanin(id).iter().map(|j| values[j.index()]));
                    values[idx] = kind.eval(&fanin_buf);
                }
            }
        }
        values
    }

    /// Simulates the whole pattern set and collects the per-node waveforms.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the number of drivers.
    pub fn simulate(&self, patterns: &PatternSet) -> SimulationTrace {
        let mut per_step = Vec::with_capacity(patterns.len());
        for vector in patterns.iter() {
            per_step.push(self.evaluate(vector));
        }
        SimulationTrace::from_steps(self.graph.num_nodes(), per_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};

    /// d1, d2 -> w1, w2 -> NAND g -> w3 -> out; also d1 -> w4 -> INV g2 -> w5 -> out.
    fn circuit() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d1 = b.add_driver("d1", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        let w2 = b.add_wire("w2", 10.0).unwrap();
        let w4 = b.add_wire("w4", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Nand).unwrap();
        let g2 = b.add_gate("g2", GateKind::Inv).unwrap();
        let w3 = b.add_wire("w3", 10.0).unwrap();
        let w5 = b.add_wire("w5", 10.0).unwrap();
        b.connect(d1, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(d1, w4).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(w2, g).unwrap();
        b.connect(w4, g2).unwrap();
        b.connect(g, w3).unwrap();
        b.connect(g2, w5).unwrap();
        b.connect_output(w3, 2.0).unwrap();
        b.connect_output(w5, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn nand_and_inverter_evaluate_correctly() {
        let c = circuit();
        let sim = LogicSimulator::new(&c);
        let w3 = c.node_by_name("w3").unwrap();
        let w5 = c.node_by_name("w5").unwrap();
        // Exhaustive over the two inputs.
        let truth = [
            ((false, false), (true, true)),
            ((false, true), (true, true)),
            ((true, false), (true, false)),
            ((true, true), (false, false)),
        ];
        for ((a, b), (nand, inv)) in truth {
            let values = sim.evaluate(&[a, b]);
            assert_eq!(values[w3.index()], nand, "nand({a},{b})");
            assert_eq!(values[w5.index()], inv, "inv({a})");
        }
    }

    #[test]
    fn wires_copy_their_driver() {
        let c = circuit();
        let sim = LogicSimulator::new(&c);
        let values = sim.evaluate(&[true, false]);
        let d1 = c.node_by_name("d1").unwrap();
        let w1 = c.node_by_name("w1").unwrap();
        let w4 = c.node_by_name("w4").unwrap();
        assert_eq!(values[w1.index()], values[d1.index()]);
        assert_eq!(values[w4.index()], values[d1.index()]);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let c = circuit();
        let _ = LogicSimulator::new(&c).evaluate(&[true]);
    }

    #[test]
    fn simulate_produces_one_step_per_vector() {
        let c = circuit();
        let sim = LogicSimulator::new(&c);
        let patterns = crate::PatternSet::random(c.num_drivers(), 32, 5);
        let trace = sim.simulate(&patterns);
        assert_eq!(trace.num_steps(), 32);
        assert_eq!(trace.num_nodes(), c.num_nodes());
    }
}
