//! Projection of the edge multipliers onto the optimality (flow-conservation)
//! condition of Theorem 3.
//!
//! Theorem 3 states that at any dual-feasible point the multipliers must
//! satisfy, for every node `i` except the source and sink,
//!
//! ```text
//! Σ_{k ∈ output(i)} λ_{ik}  =  Σ_{j ∈ input(i)} λ_{ji}
//! ```
//!
//! — the analogue of Kirchhoff's current law the paper points out. After a
//! subgradient step the equality is generally violated; step A5 of OGWS
//! projects the multipliers back. We use the standard network-flow style
//! projection: traverse the nodes in reverse topological order and rescale
//! each node's incoming multipliers so that their sum matches the (already
//! final) outgoing sum; if all incoming multipliers are zero the outgoing sum
//! is distributed evenly. The sink's incoming multipliers are the free
//! variables of the flow and are left untouched.

use ncgws_circuit::{CircuitGraph, NodeKind, Space, Tile};

use std::ops::Range;

use crate::lagrangian::Multipliers;
use crate::par::{LevelGrid, ParRuntime};

/// Precomputed dense view of the graph structure the OGWS outer loop walks
/// every iteration: for every node, the positions (in the
/// [`Multipliers::flat`] value array) of its *outgoing* edge multipliers
/// (its slot in each fanout node's fanin list). The index owns only these
/// positions. Their per-node offsets are the graph's fanout offsets, and
/// the per-node kinds and the fanin lists — which parallel the flat
/// multiplier slots — are the graph's too: all are borrowed, not copied.
///
/// Building this index once per run turns every projection — and the A4
/// subgradient update — into a contiguous `O(V + E)` walk of the flat
/// positions instead of a search through the fanin lists for each fanout
/// slot (`O(E · fanin)` per projection).
#[derive(Debug, Clone)]
pub struct FlowIndex<'g> {
    /// The circuit the index describes. The walks that take an index check
    /// they were handed this very graph before touching a slot through it.
    graph: &'g CircuitGraph,
    /// CSR offsets into `out_pos`, one entry per node plus a trailing
    /// total: the graph's fanout offsets, borrowed.
    pub(crate) out_start: &'g [u32],
    /// Flat-value positions of each node's outgoing edge multipliers, in
    /// fanout order.
    out_pos: Vec<u32>,
    /// Node kind per raw node index: the graph's column, borrowed.
    kinds: &'g [NodeKind],
}

impl<'g> FlowIndex<'g> {
    /// Builds the index for a circuit (one `O(E · fanin)` search, amortized
    /// over every projection of the run).
    pub fn new(graph: &'g CircuitGraph) -> Self {
        // The flat multiplier layout: node `i`'s fanin slots start at
        // `offsets[i]` (see `Multipliers::uniform`). The out positions run
        // in fanout order, so node `i`'s start at its fanout offset.
        let offsets = graph.fanin_offsets();
        let mut out_pos = Vec::with_capacity(graph.num_edges());
        for id in graph.node_ids() {
            for &succ in graph.fanout(id) {
                let slot = graph
                    .fanin(succ)
                    .iter()
                    .position(|&p| p == id)
                    .expect("fanout/fanin lists are consistent");
                out_pos.push(offsets[succ.index()] + slot as u32);
            }
        }
        FlowIndex {
            graph,
            out_start: graph.fanout_offsets(),
            out_pos,
            kinds: graph.kinds(),
        }
    }

    /// Node kind per raw node index (the graph's column).
    pub fn kinds(&self) -> &'g [NodeKind] {
        self.kinds
    }

    /// Asserts that the index was built for `graph` and that the
    /// multiplier `offsets` are `graph`'s fanin layout. Every out position
    /// of the index and every fanin slot of the graph then lies within the
    /// multiplier values (the offsets end at their length), which is what
    /// the unchecked slot accesses of the walks rely on. The live
    /// multipliers of a run borrow the graph's offsets, which passes
    /// without comparing them.
    ///
    /// # Panics
    ///
    /// Panics when either does not hold.
    pub(crate) fn assert_matches(&self, graph: &CircuitGraph, offsets: &[u32]) {
        assert!(
            std::ptr::eq(self.graph, graph),
            "index must match the multipliers"
        );
        let own = graph.fanin_offsets();
        assert!(
            std::ptr::eq(offsets, own) || offsets == own,
            "multipliers must match the circuit"
        );
    }

    /// Bytes of the tables the index owns (for memory accounting): the out
    /// positions. The offsets, kinds and fanin lists it reads are the
    /// graph's.
    pub fn memory_bytes(&self) -> usize {
        self.out_pos.capacity() * std::mem::size_of::<u32>()
    }
}

/// Projects `multipliers` onto the flow-conservation condition, in place,
/// through the fanout→slot cross-reference `index` (see [`FlowIndex`]):
/// one contiguous `O(V + E)` walk of the flat multiplier array. The OGWS
/// loop builds the index once per run and projects through the block-grid
/// form of the same per-node body, with bitwise identical results.
///
/// Only the **edge** (delay) multipliers participate in the flow condition;
/// the scalar multipliers `β`, `γ` and every extra-family block `μ` are
/// structurally unconstrained by Theorem 3 and are only clamped
/// non-negative here (condition (4) of Theorem 6), which is exactly the
/// projection of a scalar onto its feasible half-line.
///
/// # Panics
///
/// Panics when `index` was not built for the multipliers' circuit.
pub fn project_flow_conservation_indexed(
    graph: &CircuitGraph,
    index: &FlowIndex<'_>,
    multipliers: &mut Multipliers<'_>,
) {
    multipliers.clamp_non_negative();
    let skipped = [graph.sink().index(), graph.source().index()];
    let n = graph.num_nodes();
    let (offsets, values) = multipliers.flat_mut();
    index.assert_matches(graph, offsets);
    project_block(0..n, skipped, index, offsets, &mut Tile::whole(values));
}

/// [`project_flow_conservation_indexed`] over the block grid (step A5):
/// blocks settle in reverse dependency order, and within a level each node
/// rescales only its own fanin slots while reading its fanout nodes'
/// already-settled slots — so each block is handed the slots of its nodes
/// and reads the slots of later steps. The per-node body is the same, so
/// results are bitwise identical to the whole-circuit walk for every
/// thread count.
pub(crate) fn project_flow_conservation_leveled(
    graph: &CircuitGraph,
    index: &FlowIndex<'_>,
    multipliers: &mut Multipliers<'_>,
    grid: &LevelGrid,
    par: &ParRuntime,
) {
    multipliers.clamp_non_negative();
    let skipped = [graph.sink().index(), graph.source().index()];
    let n = graph.num_nodes();
    let (offsets, values) = multipliers.flat_mut();
    index.assert_matches(graph, offsets);
    assert_eq!(grid.num_nodes(), n, "grid must match the circuit");
    for step in grid.steps(true) {
        let mut slots = step.tiles(&mut *values, Space::Slots(offsets));
        let blocks = step
            .blocks()
            .map(|block| (slots.next(&block.nodes()), block.nodes()));
        par.run(blocks, |(mut values, nodes)| {
            project_block(nodes, skipped, index, offsets, &mut values);
        });
    }
}

/// The A5 projection of the nodes `nodes` but the `skipped` ones, in
/// reverse: `values` owns their fanin slots and holds the settled slots
/// after them. A node's out positions lie after its level: in the
/// block's own later levels (a folded block) or in the settled part.
fn project_block(
    nodes: Range<usize>,
    skipped: [usize; 2],
    index: &FlowIndex<'_>,
    offsets: &[u32],
    values: &mut Tile<'_, f64>,
) {
    let (first, end) = (offsets[nodes.start] as usize, offsets[nodes.end] as usize);
    let (slots, settled) = values.level(&(first..end), true);
    // Reverse topological order; node indices are topological by
    // construction, so every out position lies after the node's own slots.
    for idx in nodes.rev().filter(|idx| !skipped.contains(idx)) {
        // Outgoing sum over the precomputed flat positions (fanout order).
        let mut out_sum = 0.0;
        for &pos in &index.out_pos[index.out_start[idx] as usize..index.out_start[idx + 1] as usize]
        {
            let pos = pos as usize;
            out_sum += if pos < end {
                slots[pos - first]
            } else {
                settled.get(pos)
            };
        }
        let own = offsets[idx] as usize - first..offsets[idx + 1] as usize - first;
        project_node(out_sum, &mut slots[own]);
    }
}

/// The A5 projection of one node: rescales its fanin multipliers `slots`
/// so their sum matches its (already final) outgoing sum `out_sum`, or
/// shares the outgoing sum evenly when every incoming multiplier is zero.
#[inline(always)]
fn project_node(out_sum: f64, slots: &mut [f64]) {
    if slots.is_empty() {
        return;
    }
    let mut in_sum = 0.0;
    for &value in slots.iter() {
        in_sum += value;
    }
    if in_sum > 1e-300 {
        let scale = out_sum / in_sum;
        for value in slots.iter_mut() {
            *value *= scale;
        }
    } else {
        slots.fill(out_sum / slots.len() as f64);
    }
}

/// Maximum absolute flow-conservation residual
/// `|Σ_out λ − Σ_in λ|` over all nodes except source and sink. Useful for
/// tests and KKT verification.
pub fn flow_conservation_residual(graph: &CircuitGraph, multipliers: &Multipliers<'_>) -> f64 {
    let mut worst: f64 = 0.0;
    for id in graph.node_ids() {
        if id == graph.source() || id == graph.sink() {
            continue;
        }
        let in_sum: f64 = multipliers.edges_of(id).iter().sum();
        let mut out_sum = 0.0;
        for &succ in graph.fanout(id) {
            let slot = graph
                .fanin(succ)
                .iter()
                .position(|&p| p == id)
                .expect("fanout/fanin lists are consistent");
            out_sum += multipliers.edge(succ, slot);
        }
        worst = worst.max((in_sum - out_sum).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};

    fn reconvergent() -> CircuitGraph {
        // d1 -> w1 -> g1 -> w3 ---\
        //                          g3 -> w5 -> out
        // d2 -> w2 -> g2 -> w4 ---/
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d1 = b.add_driver("d1", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 20.0).unwrap();
        let w2 = b.add_wire("w2", 20.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let g2 = b.add_gate("g2", GateKind::Inv).unwrap();
        let w3 = b.add_wire("w3", 20.0).unwrap();
        let w4 = b.add_wire("w4", 20.0).unwrap();
        let g3 = b.add_gate("g3", GateKind::Nand).unwrap();
        let w5 = b.add_wire("w5", 20.0).unwrap();
        b.connect(d1, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(w2, g2).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect(g2, w4).unwrap();
        b.connect(w3, g3).unwrap();
        b.connect(w4, g3).unwrap();
        b.connect(g3, w5).unwrap();
        b.connect_output(w5, 5.0).unwrap();
        b.build().unwrap()
    }

    /// Projects `m` through a fresh index of `g`.
    fn project(g: &CircuitGraph, m: &mut Multipliers<'_>) {
        project_flow_conservation_indexed(g, &FlowIndex::new(g), m);
    }

    #[test]
    fn projection_establishes_flow_conservation() {
        let g = reconvergent();
        // Start from a deliberately unbalanced state.
        let mut m = Multipliers::uniform(&g, 1.0, 1.0);
        let w3 = g.node_by_name("w3").unwrap();
        *m.edge_mut(w3, 0) = 7.0;
        let g3 = g.node_by_name("g3").unwrap();
        *m.edge_mut(g3, 0) = 0.25;
        assert!(flow_conservation_residual(&g, &m) > 0.1);
        project(&g, &mut m);
        assert!(flow_conservation_residual(&g, &m) < 1e-9);
    }

    #[test]
    fn projection_is_idempotent() {
        let g = reconvergent();
        let mut m = Multipliers::uniform(&g, 0.7, 1.0);
        project(&g, &mut m);
        let snapshot = m.clone();
        project(&g, &mut m);
        for id in g.node_ids() {
            for slot in 0..g.fanin(id).len() {
                assert!((m.edge(id, slot) - snapshot.edge(id, slot)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sink_multipliers_drive_the_total_flow() {
        let g = reconvergent();
        let mut m = Multipliers::uniform(&g, 1.0, 1.0);
        // Set the single sink edge multiplier to 3; after projection the flow
        // into every cut equals 3.
        let sink = g.sink();
        *m.edge_mut(sink, 0) = 3.0;
        project(&g, &mut m);
        // Flow out of the source equals flow into the sink.
        let source_out: f64 = g
            .driver_ids()
            .map(|d| m.edges_of(d).iter().sum::<f64>())
            .sum();
        assert!((source_out - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_incoming_multipliers_get_an_even_share() {
        let g = reconvergent();
        let mut m = Multipliers::uniform(&g, 0.0, 1.0);
        let sink = g.sink();
        *m.edge_mut(sink, 0) = 2.0;
        project(&g, &mut m);
        assert!(flow_conservation_residual(&g, &m) < 1e-9);
        // The NAND gate g3 has two fanins; each should carry half of its flow.
        let g3 = g.node_by_name("g3").unwrap();
        let edges = m.edges_of(g3);
        assert!((edges[0] - edges[1]).abs() < 1e-9);
    }

    /// An index built for a different circuit with as many nodes is
    /// rejected before the walk reads a slot through it.
    #[test]
    #[should_panic(expected = "index must match the multipliers")]
    fn mismatched_index_is_rejected() {
        let g = reconvergent();
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d1 = b.add_driver("d1", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 20.0).unwrap();
        let w2 = b.add_wire("w2", 20.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 20.0).unwrap();
        let g2 = b.add_gate("g2", GateKind::Inv).unwrap();
        let w4 = b.add_wire("w4", 20.0).unwrap();
        let g3 = b.add_gate("g3", GateKind::Inv).unwrap();
        let w5 = b.add_wire("w5", 20.0).unwrap();
        b.connect(d1, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(w2, g1).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect(w3, g2).unwrap();
        b.connect(g2, w4).unwrap();
        b.connect(w4, g3).unwrap();
        b.connect(g3, w5).unwrap();
        b.connect_output(w5, 5.0).unwrap();
        let other = b.build().unwrap();
        assert_eq!(other.num_nodes(), g.num_nodes());
        let mut m = Multipliers::uniform(&g, 1.0, 1.0);
        project_flow_conservation_indexed(&g, &FlowIndex::new(&other), &mut m);
    }

    #[test]
    fn projection_clamps_negative_inputs_first() {
        let g = reconvergent();
        let mut m = Multipliers::uniform(&g, 1.0, 1.0);
        let w1 = g.node_by_name("w1").unwrap();
        *m.edge_mut(w1, 0) = -5.0;
        project(&g, &mut m);
        assert!(m.edge(w1, 0) >= 0.0);
        assert!(flow_conservation_residual(&g, &m) < 1e-9);
    }
}
