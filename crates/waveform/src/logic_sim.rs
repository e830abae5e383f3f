//! Zero-delay logic simulation over the circuit graph, 64 patterns per
//! machine word.

use ncgws_circuit::{CircuitGraph, GateKind, NodeId, NodeKind};

use crate::patterns::PatternSet;
use crate::trace::SimulationTrace;

/// Zero-delay logic simulator.
///
/// Every node of the circuit graph carries a logic value per time step:
/// drivers take their primary input, wires copy their single fanin, and
/// gates evaluate their [`GateKind`] over their fanin values. The
/// simulation is bit-parallel (the parallel-pattern technique of
/// Abramovici, Breuer & Friedman, *Digital Systems Testing and Testable
/// Design*): one forward topological sweep evaluates every node on whole
/// 64-step words of the packed patterns, so simulation costs
/// `O(E · ⌈T/64⌉)` word operations for `T` time steps.
#[derive(Debug, Clone, Copy)]
pub struct LogicSimulator<'a> {
    graph: &'a CircuitGraph,
}

impl<'a> LogicSimulator<'a> {
    /// Creates a simulator bound to a circuit.
    pub fn new(graph: &'a CircuitGraph) -> Self {
        LogicSimulator { graph }
    }

    /// Simulates the whole pattern set and collects the per-node waveforms.
    /// The source and sink stay constant `false`.
    ///
    /// Node ids are topological, so when a node is reached every fanin row
    /// is already final: each node's row is written once, in place, into
    /// the trace's single buffer.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the number of drivers.
    pub fn simulate(&self, patterns: &PatternSet) -> SimulationTrace {
        let g = self.graph;
        assert_eq!(
            patterns.num_inputs(),
            g.num_drivers(),
            "one input row per driver required"
        );
        let steps = patterns.len();
        let w = patterns.words_per_input();
        let mut words = vec![0u64; g.num_nodes() * w];
        if w > 0 {
            // Steps past `T` in the last word of every row stay zero.
            let tail = u64::MAX >> (w * 64 - steps);
            for (id, &kind) in g.node_ids().zip(g.kinds()) {
                let idx = id.index();
                let (done, rest) = words.split_at_mut(idx * w);
                let row = &mut rest[..w];
                match kind {
                    NodeKind::Source | NodeKind::Sink => {}
                    NodeKind::Driver => row.copy_from_slice(patterns.row(idx - 1)),
                    NodeKind::Wire => {
                        // A wire has exactly one fanin (validated at build time).
                        let src = g.fanin(id)[0].index();
                        row.copy_from_slice(&done[src * w..(src + 1) * w]);
                    }
                    NodeKind::Gate(gate) => {
                        eval_gate_words(gate, g.fanin(id), done, row);
                        row[w - 1] &= tail;
                    }
                }
            }
        }
        SimulationTrace::from_words(g.num_nodes(), steps, words)
    }
}

/// Evaluates one gate on whole words: `out` receives the gate's row, from
/// the rows of `fanin` in `done` (node-major, `out.len()` words per node).
/// Follows [`GateKind::eval`] bit for bit, including its conventions for
/// an empty fanin (`Buf`, `And`, `Or`, `Xor` low; their complements high)
/// and for `Buf`/`Inv` reading only the first input. Inverting gates also
/// set the bits past the last step, which the caller masks off.
fn eval_gate_words(gate: GateKind, fanin: &[NodeId], done: &[u64], out: &mut [u64]) {
    let w = out.len();
    let row = |j: NodeId| &done[j.index() * w..(j.index() + 1) * w];
    out.fill(0);
    match gate {
        GateKind::Buf | GateKind::Inv => {
            if let Some(&j) = fanin.first() {
                out.copy_from_slice(row(j));
            }
        }
        GateKind::And | GateKind::Nand => {
            if let Some((&first, rest)) = fanin.split_first() {
                out.copy_from_slice(row(first));
                for &j in rest {
                    out.iter_mut().zip(row(j)).for_each(|(o, x)| *o &= x);
                }
            }
        }
        GateKind::Or | GateKind::Nor => {
            for &j in fanin {
                out.iter_mut().zip(row(j)).for_each(|(o, x)| *o |= x);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            for &j in fanin {
                out.iter_mut().zip(row(j)).for_each(|(o, x)| *o ^= x);
            }
        }
    }
    if matches!(
        gate,
        GateKind::Inv | GateKind::Nand | GateKind::Nor | GateKind::Xnor
    ) {
        out.iter_mut().for_each(|o| *o = !*o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, Technology};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// The scalar oracle: every node's value at one step, in topological
    /// order, with [`GateKind::eval`] on the gates.
    fn evaluate_step(g: &CircuitGraph, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; g.num_nodes()];
        for (id, &kind) in g.node_ids().zip(g.kinds()) {
            let fanin: Vec<bool> = g.fanin(id).iter().map(|j| values[j.index()]).collect();
            values[id.index()] = match kind {
                NodeKind::Source | NodeKind::Sink => false,
                NodeKind::Driver => inputs[id.index() - 1],
                NodeKind::Wire => fanin[0],
                NodeKind::Gate(gate) => gate.eval(&fanin),
            };
        }
        values
    }

    /// A random layered circuit: one wire per driver, then `gates` gates of
    /// random kinds, each reading one to four distinct earlier wires and
    /// driving a new one; wires nothing reads become primary outputs.
    fn random_circuit(rng: &mut ChaCha8Rng, drivers: usize, gates: usize) -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let mut wires = Vec::new();
        let mut read = Vec::new();
        for d in 0..drivers {
            let driver = b.add_driver(&format!("d{d}"), 100.0).unwrap();
            let wire = b.add_wire(&format!("dw{d}"), 10.0).unwrap();
            b.connect(driver, wire).unwrap();
            wires.push(wire);
            read.push(false);
        }
        for k in 0..gates {
            let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
            let gate = b.add_gate(&format!("g{k}"), kind).unwrap();
            let fanin = rng.gen_range(1..=4usize).min(wires.len());
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < fanin {
                let w = rng.gen_range(0..wires.len());
                if !picked.contains(&w) {
                    picked.push(w);
                }
            }
            for w in picked {
                b.connect(wires[w], gate).unwrap();
                read[w] = true;
            }
            let out = b.add_wire(&format!("gw{k}"), 10.0).unwrap();
            b.connect(gate, out).unwrap();
            wires.push(out);
            read.push(false);
        }
        for (w, was_read) in wires.iter().zip(read) {
            if !was_read {
                b.connect_output(*w, 1.0).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn nand_and_inverter_evaluate_correctly() {
        let c = circuit();
        let w3 = c.node_by_name("w3").unwrap();
        let w5 = c.node_by_name("w5").unwrap();
        // Exhaustive over the two inputs.
        let truth = [
            ((false, false), (true, true)),
            ((false, true), (true, true)),
            ((true, false), (true, false)),
            ((true, true), (false, false)),
        ];
        let vectors = truth.iter().map(|&((a, b), _)| vec![a, b]).collect();
        let trace = LogicSimulator::new(&c).simulate(&PatternSet::from_vectors(2, vectors));
        for (t, ((a, b), (nand, inv))) in truth.into_iter().enumerate() {
            assert_eq!(trace.level(w3, t), nand, "nand({a},{b})");
            assert_eq!(trace.level(w5, t), inv, "inv({a})");
        }
        // The inverters' tail bits past step 4 stay low.
        assert_eq!(trace.row(w5), &[0b0011]);
    }

    #[test]
    fn wires_copy_their_driver() {
        let c = circuit();
        let patterns = PatternSet::random(2, 70, 3);
        let trace = LogicSimulator::new(&c).simulate(&patterns);
        let d1 = c.node_by_name("d1").unwrap();
        let w1 = c.node_by_name("w1").unwrap();
        let w4 = c.node_by_name("w4").unwrap();
        assert_eq!(trace.row(d1), patterns.row(0));
        assert_eq!(trace.row(w1), trace.row(d1));
        assert_eq!(trace.row(w4), trace.row(d1));
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let c = circuit();
        let _ = LogicSimulator::new(&c).simulate(&PatternSet::random(1, 4, 0));
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

    /// Property: on random circuits and across word boundaries, every bit
    /// of the packed trace is the scalar step-by-step evaluation, and every
    /// bit past the last step is zero.
    #[test]
    fn packed_trace_equals_the_step_by_step_evaluation() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for case in 0..24 {
            let drivers = rng.gen_range(1..=6);
            let gates = rng.gen_range(1..=40);
            let g = random_circuit(&mut rng, drivers, gates);
            for steps in [0, 1, 63, 64, 65, 130] {
                let patterns = PatternSet::random(drivers, steps, case * 100 + steps as u64);
                let trace = LogicSimulator::new(&g).simulate(&patterns);
                assert_eq!(trace.num_steps(), steps);
                assert_eq!(trace.words_per_node(), steps.div_ceil(64));
                for t in 0..steps {
                    let inputs: Vec<bool> = (0..drivers).map(|i| patterns.bit(t, i)).collect();
                    let expected = evaluate_step(&g, &inputs);
                    for id in g.node_ids() {
                        assert_eq!(
                            trace.level(id, t),
                            expected[id.index()],
                            "case {case}, T={steps}, step {t}, node {id}"
                        );
                    }
                }
                for id in g.node_ids() {
                    if let Some(&last) = trace.row(id).last() {
                        let live = steps - 64 * (trace.words_per_node() - 1);
                        assert_eq!(
                            last.checked_shr(live as u32).unwrap_or(0),
                            0,
                            "tail of {id}"
                        );
                    }
                }
            }
        }
    }

    /// The word kernel follows `GateKind::eval` on every kind, including an
    /// empty fanin (which a built circuit never has) and `Buf`/`Inv` with
    /// more than one input.
    #[test]
    fn word_kernel_follows_eval_conventions() {
        // Three "nodes", one word each, covering all input combinations.
        let done = [0b1111_0000u64, 0b1100_1100, 0b1010_1010];
        let fanins: [&[NodeId]; 4] = [
            &[],
            &[NodeId::new(1)],
            &[NodeId::new(0), NodeId::new(2)],
            &[NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        ];
        for gate in GateKind::ALL {
            for fanin in fanins {
                let mut out = [0u64];
                eval_gate_words(gate, fanin, &done, &mut out);
                for t in 0..8 {
                    let inputs: Vec<bool> = fanin
                        .iter()
                        .map(|j| (done[j.index()] >> t) & 1 == 1)
                        .collect();
                    assert_eq!(
                        (out[0] >> t) & 1 == 1,
                        gate.eval(&inputs),
                        "{gate:?} {fanin:?} step {t}"
                    );
                }
            }
        }
    }
}
