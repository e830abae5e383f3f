//! Elmore delay analysis: downstream capacitances and per-component delays.
//!
//! Following Section 2.1 of the paper, every component `i` contributes a
//! lumped delay `D_i = r_i · C_i`, where `r_i` is the component's resistance
//! at its current size and `C_i` is the capacitance downstream of `r_i`
//! *within the RC stage* of component `i` (see the crate-level documentation
//! for the stage-bounded convention). The wire π-model places half of a
//! wire's own capacitance on each side of its resistance, so only the far
//! half contributes to the wire's own `C_i`, while the full capacitance loads
//! the components upstream of the wire.
//!
//! Coupling capacitance is injected by the caller through the `extra_cap`
//! argument (one value per node, lumped on the downstream side of that node),
//! which keeps this crate independent of the coupling model. Section 4 of the
//! paper makes `C_i` "also contain the physical coupling capacitance" in
//! exactly this way.

use crate::graph::CircuitGraph;
use crate::id::NodeId;
use crate::node::NodeKind;
use crate::sizing::SizeVector;

/// Result of a downstream-capacitance computation.
#[derive(Debug, Clone, PartialEq)]
pub struct DownstreamCaps {
    /// `C_i` per node: the capacitance charged through the node's resistance.
    /// Indexed by raw node index; zero for source and sink.
    pub charged: Vec<f64>,
    /// The capacitance each node presents to its stage parent (full wire
    /// subtree capacitance for wires, input capacitance for gates).
    /// Indexed by raw node index.
    pub presented: Vec<f64>,
}

impl DownstreamCaps {
    /// `C_i` for a node.
    pub fn charged_of(&self, id: NodeId) -> f64 {
        self.charged[id.index()]
    }

    /// Load the node presents to the stage that drives it.
    pub fn presented_of(&self, id: NodeId) -> f64 {
        self.presented[id.index()]
    }
}

/// Elmore delay analyzer bound to a circuit graph.
///
/// All methods are linear in the number of nodes and edges, but each call
/// walks the pointer-rich graph and allocates its result vectors. This is
/// the *allocate-per-call reference path*, kept verbatim as the oracle the
/// allocation-free engine (a [`CircuitTopology`](crate::CircuitTopology)
/// with an [`EvalWorkspace`](crate::EvalWorkspace)) is checked against — the two
/// must produce bitwise identical numbers. Hot loops should use the engine.
#[derive(Debug, Clone, Copy)]
pub struct ElmoreAnalyzer<'a> {
    graph: &'a CircuitGraph,
}

impl<'a> ElmoreAnalyzer<'a> {
    /// Creates an analyzer for the given circuit.
    pub fn new(graph: &'a CircuitGraph) -> Self {
        ElmoreAnalyzer { graph }
    }

    /// The circuit this analyzer is bound to.
    pub fn graph(&self) -> &'a CircuitGraph {
        self.graph
    }

    fn child_load(
        &self,
        parent: NodeId,
        child: NodeId,
        sizes: &SizeVector,
        presented: &[f64],
    ) -> f64 {
        let g = self.graph;
        match g.kinds()[child.index()] {
            NodeKind::Sink => g.output_load(parent),
            NodeKind::Gate(_) => g.capacitance(child, sizes),
            NodeKind::Wire => presented[child.index()],
            // Drivers and the source can never be fanout children.
            NodeKind::Driver | NodeKind::Source => 0.0,
        }
    }

    /// Computes `C_i` (and the presented loads) for every node, by a single
    /// reverse-topological traversal.
    ///
    /// `extra_cap`, when provided, must hold one value per node (raw node
    /// index); it is added on the downstream side of that node. The sizing
    /// engine uses it to inject coupling capacitance.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `extra_cap` has the wrong length or `sizes`
    /// does not match the circuit.
    pub fn downstream_caps(&self, sizes: &SizeVector, extra_cap: Option<&[f64]>) -> DownstreamCaps {
        let g = self.graph;
        debug_assert_eq!(sizes.len(), g.num_components());
        if let Some(extra) = extra_cap {
            debug_assert_eq!(extra.len(), g.num_nodes());
        }
        let n = g.num_nodes();
        let mut charged = vec![0.0; n];
        let mut presented = vec![0.0; n];

        for idx in (0..n).rev() {
            let id = NodeId::new(idx);
            let kind = g.kinds()[idx];
            let extra = extra_cap.map(|e| e[idx]).unwrap_or(0.0);
            match kind {
                NodeKind::Source | NodeKind::Sink => {}
                NodeKind::Driver | NodeKind::Gate(_) => {
                    let mut c = 0.0;
                    for &child in g.fanout(id) {
                        c += self.child_load(id, child, sizes, &presented);
                    }
                    // Coupling on a gate output (rare, but allowed) loads the stage.
                    c += extra;
                    charged[idx] = c;
                    presented[idx] = match kind {
                        NodeKind::Gate(_) => g.capacitance(id, sizes),
                        _ => 0.0,
                    };
                }
                NodeKind::Wire => {
                    let own = g.capacitance(id, sizes);
                    let mut downstream = 0.0;
                    for &child in g.fanout(id) {
                        downstream += self.child_load(id, child, sizes, &presented);
                    }
                    // π-model: the far half of the wire's own capacitance plus
                    // all coupling capacitance is charged through r_i.
                    charged[idx] = own / 2.0 + extra + downstream;
                    // The full wire capacitance loads everything upstream.
                    presented[idx] = own + extra + downstream;
                }
            }
        }
        DownstreamCaps { charged, presented }
    }

    /// Per-component Elmore delays `D_i = r_i · C_i`, indexed by raw node
    /// index (zero for source and sink).
    pub fn delays(&self, sizes: &SizeVector, extra_cap: Option<&[f64]>) -> Vec<f64> {
        let caps = self.downstream_caps(sizes, extra_cap);
        self.delays_from_caps(sizes, &caps)
    }

    /// Per-component delays given a precomputed [`DownstreamCaps`].
    fn delays_from_caps(&self, sizes: &SizeVector, caps: &DownstreamCaps) -> Vec<f64> {
        let g = self.graph;
        g.node_ids()
            .map(|id| match g.kinds()[id.index()] {
                NodeKind::Source | NodeKind::Sink => 0.0,
                _ => g.resistance(id, sizes) * caps.charged[id.index()],
            })
            .collect()
    }

    /// The λ-weighted upstream resistance `R_i` of Theorem 5 for every node:
    /// the sum of `λ_k · r_k` over the components `k` whose downstream
    /// capacitance `C_k` contains node `i`'s capacitance.
    ///
    /// `weights` holds `λ_k` per raw node index (use all-ones for the plain
    /// upstream resistance). Stage roots (gates and drivers) reset the
    /// accumulation: resistance behind a driving gate does not charge this
    /// stage's capacitance.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `weights` has the wrong length.
    pub fn weighted_upstream_resistance(&self, sizes: &SizeVector, weights: &[f64]) -> Vec<f64> {
        let g = self.graph;
        debug_assert_eq!(weights.len(), g.num_nodes());
        let n = g.num_nodes();
        let mut upstream = vec![0.0; n];
        for idx in 0..n {
            let id = NodeId::new(idx);
            let mut acc = 0.0;
            for &pred in g.fanin(id) {
                let p = pred.index();
                match g.kinds()[p] {
                    NodeKind::Source => {}
                    NodeKind::Driver | NodeKind::Gate(_) => {
                        acc += weights[p] * g.resistance(pred, sizes);
                    }
                    NodeKind::Wire => {
                        acc += upstream[p] + weights[p] * g.resistance(pred, sizes);
                    }
                    NodeKind::Sink => unreachable!("sink has no fanout"),
                }
            }
            upstream[idx] = acc;
        }
        upstream
    }

    /// Plain (unweighted) upstream resistance per node.
    pub fn upstream_resistance(&self, sizes: &SizeVector) -> Vec<f64> {
        let ones = vec![1.0; self.graph.num_nodes()];
        self.weighted_upstream_resistance(sizes, &ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::{GateKind, NodeKind};
    use crate::tech::Technology;

    /// driver(100Ω) -> w1(len 100) -> g1 -> w2(len 200) -> out(5 fF)
    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.build().unwrap()
    }

    fn id(c: &CircuitGraph, name: &str) -> NodeId {
        c.node_by_name(name).unwrap()
    }

    #[test]
    fn downstream_caps_match_hand_computation() {
        let c = chain();
        let tech = *c.technology();
        let sizes = c.uniform_sizes(1.0);
        let an = ElmoreAnalyzer::new(&c);
        let caps = an.downstream_caps(&sizes, None);

        let w1_cap = tech.wire_unit_capacitance * 100.0 + tech.wire_fringing_per_um * 100.0;
        let w2_cap = tech.wire_unit_capacitance * 200.0 + tech.wire_fringing_per_um * 200.0;
        let g1_cap = tech.gate_unit_capacitance;

        // w2: C = own/2 + output load; presents own + load.
        let w2 = id(&c, "w2");
        assert!((caps.charged_of(w2) - (w2_cap / 2.0 + 5.0)).abs() < 1e-9);
        assert!((caps.presented_of(w2) - (w2_cap + 5.0)).abs() < 1e-9);

        // g1: drives w2's full subtree.
        let g1 = id(&c, "g1");
        assert!((caps.charged_of(g1) - (w2_cap + 5.0)).abs() < 1e-9);
        assert!((caps.presented_of(g1) - g1_cap).abs() < 1e-9);

        // w1: own/2 + g1 input cap.
        let w1 = id(&c, "w1");
        assert!((caps.charged_of(w1) - (w1_cap / 2.0 + g1_cap)).abs() < 1e-9);

        // driver: full w1 cap + g1 input cap.
        let d = id(&c, "d");
        assert!((caps.charged_of(d) - (w1_cap + g1_cap)).abs() < 1e-9);
    }

    #[test]
    fn delays_are_resistance_times_charge() {
        let c = chain();
        let sizes = c.uniform_sizes(1.0);
        let an = ElmoreAnalyzer::new(&c);
        let caps = an.downstream_caps(&sizes, None);
        let delays = an.delays(&sizes, None);
        for node in c.node_ids() {
            let expected = match c.node(node).kind {
                NodeKind::Source | NodeKind::Sink => 0.0,
                _ => c.resistance(node, &sizes) * caps.charged_of(node),
            };
            assert!((delays[node.index()] - expected).abs() < 1e-12);
        }
        // Driver delay: 100 Ω times the first stage load.
        let d = id(&c, "d");
        assert!(delays[d.index()] > 0.0);
    }

    #[test]
    fn extra_cap_increases_downstream_and_delay() {
        let c = chain();
        let sizes = c.uniform_sizes(1.0);
        let an = ElmoreAnalyzer::new(&c);
        let base = an.delays(&sizes, None);
        let mut extra = vec![0.0; c.num_nodes()];
        let w1 = id(&c, "w1");
        extra[w1.index()] = 10.0;
        let with_extra = an.delays(&sizes, Some(&extra));
        assert!(with_extra[w1.index()] > base[w1.index()]);
        // The driver also sees the extra capacitance (it is within its stage).
        let d = id(&c, "d");
        assert!(with_extra[d.index()] > base[d.index()]);
        // But the downstream gate does not.
        let g1 = id(&c, "g1");
        assert!((with_extra[g1.index()] - base[g1.index()]).abs() < 1e-12);
    }

    #[test]
    fn upsizing_a_gate_reduces_its_delay_but_loads_upstream() {
        let c = chain();
        let an = ElmoreAnalyzer::new(&c);
        let g1 = id(&c, "g1");
        let d = id(&c, "d");
        let g_idx = c.component_index(g1).unwrap();

        let small = c.uniform_sizes(1.0);
        let mut big = c.uniform_sizes(1.0);
        big[g_idx] = 4.0;

        let delays_small = an.delays(&small, None);
        let delays_big = an.delays(&big, None);
        assert!(
            delays_big[g1.index()] < delays_small[g1.index()],
            "larger gate drives its load faster"
        );
        assert!(
            delays_big[d.index()] > delays_small[d.index()],
            "larger gate presents more input capacitance upstream"
        );
    }

    #[test]
    fn upstream_resistance_is_stage_bounded() {
        let c = chain();
        let sizes = c.uniform_sizes(1.0);
        let an = ElmoreAnalyzer::new(&c);
        let r = an.upstream_resistance(&sizes);
        let tech = *c.technology();

        let w1 = id(&c, "w1");
        let g1 = id(&c, "g1");
        let w2 = id(&c, "w2");
        // w1 is charged by the driver only.
        assert!((r[w1.index()] - 100.0).abs() < 1e-9);
        // g1's input cap is charged by driver + w1 resistance.
        let w1_res = tech.wire_unit_resistance * 100.0;
        assert!((r[g1.index()] - (100.0 + w1_res)).abs() < 1e-9);
        // w2 is in a new stage: only g1's resistance charges it.
        assert!((r[w2.index()] - tech.gate_unit_resistance).abs() < 1e-9);
    }

    #[test]
    fn weighted_upstream_resistance_scales_with_weights() {
        let c = chain();
        let sizes = c.uniform_sizes(1.0);
        let an = ElmoreAnalyzer::new(&c);
        let ones = an.upstream_resistance(&sizes);
        let weights = vec![2.0; c.num_nodes()];
        let doubled = an.weighted_upstream_resistance(&sizes, &weights);
        for (a, b) in ones.iter().zip(doubled.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-9);
        }
    }

    #[test]
    fn branching_stage_sums_subtree_caps() {
        // driver -> w1 -> {w2 -> out1, w3 -> out2}
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 50.0).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        let w2 = b.add_wire("w2", 20.0).unwrap();
        let w3 = b.add_wire("w3", 30.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, w2).unwrap();
        b.connect(w1, w3).unwrap();
        b.connect_output(w2, 2.0).unwrap();
        b.connect_output(w3, 3.0).unwrap();
        let c = b.build().unwrap();
        let tech = *c.technology();
        let sizes = c.uniform_sizes(1.0);
        let caps = ElmoreAnalyzer::new(&c).downstream_caps(&sizes, None);
        let cap_of = |len: f64| tech.wire_unit_capacitance * len + tech.wire_fringing_per_um * len;
        let w1_id = c.node_by_name("w1").unwrap();
        let expected = cap_of(10.0) / 2.0 + (cap_of(20.0) + 2.0) + (cap_of(30.0) + 3.0);
        assert!((caps.charged_of(w1_id) - expected).abs() < 1e-9);
    }
}
