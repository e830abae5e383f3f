//! Incremental construction of [`CircuitGraph`]s.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::error::CircuitError;
use crate::graph::CircuitGraph;
use crate::id::NodeId;
use crate::node::{GateKind, Node, NodeAttrs, NodeKind};
use crate::tech::Technology;

/// Handle returned by the builder for a component added to the circuit under
/// construction. It is only meaningful for the builder that produced it; the
/// final [`CircuitGraph`] re-indexes all nodes topologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildNode(usize);

/// Builder for [`CircuitGraph`].
///
/// Components may be added and connected in any order; [`CircuitBuilder::build`]
/// performs the topological re-indexing required by the paper's convention
/// (every edge goes from a lower to a higher index), inserts the artificial
/// source and sink, and validates the structure.
///
/// Every `add_*` and [`CircuitBuilder::connect`] call runs in amortized
/// O(1), and [`CircuitBuilder::build`] in O(nodes + edges) apart from
/// sorting each adjacency list, so assembling a circuit is linear in its
/// size.
///
/// ```rust
/// use ncgws_circuit::{CircuitBuilder, GateKind, Technology};
///
/// # fn main() -> Result<(), ncgws_circuit::CircuitError> {
/// let mut b = CircuitBuilder::new(Technology::dac99());
/// let d1 = b.add_driver("a", 120.0)?;
/// let d2 = b.add_driver("b", 120.0)?;
/// let w1 = b.add_wire("w1", 30.0)?;
/// let w2 = b.add_wire("w2", 30.0)?;
/// let g = b.add_gate("g", GateKind::Nand)?;
/// let w3 = b.add_wire("w3", 60.0)?;
/// b.connect(d1, w1)?;
/// b.connect(d2, w2)?;
/// b.connect(w1, g)?;
/// b.connect(w2, g)?;
/// b.connect(g, w3)?;
/// b.connect_output(w3, 8.0)?;
/// let circuit = b.build()?;
/// assert_eq!(circuit.num_drivers(), 2);
/// assert_eq!(circuit.num_components(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    tech: Technology,
    nodes: Vec<Node>,
    /// `driven[i]` is set once component `i` has accepted a fanin edge; it
    /// enforces the one-driver rule for wires.
    driven: Vec<bool>,
    edges: Vec<(usize, usize)>,
    edge_set: HashSet<(usize, usize)>,
    names: HashSet<String>,
    output_loads: HashMap<usize, f64>,
}

impl CircuitBuilder {
    /// Creates an empty builder with the given technology.
    pub fn new(tech: Technology) -> Self {
        CircuitBuilder {
            tech,
            nodes: Vec::new(),
            driven: Vec::new(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
            names: HashSet::new(),
            output_loads: HashMap::new(),
        }
    }

    /// The technology this builder hands to the finished circuit.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Number of components added so far (drivers, gates and wires).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no component has been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn register_name(&mut self, name: &str) -> Result<(), CircuitError> {
        if !self.names.insert(name.to_string()) {
            return Err(CircuitError::DuplicateName(name.to_string()));
        }
        Ok(())
    }

    fn push_node(&mut self, kind: NodeKind, name: &str, attrs: NodeAttrs) -> BuildNode {
        self.nodes.push(Node {
            kind,
            name: name.to_string(),
            attrs,
        });
        self.driven.push(false);
        BuildNode(self.nodes.len() - 1)
    }

    /// Adds an input driver with resistance `rd` (Ω).
    ///
    /// # Errors
    ///
    /// Returns an error if `rd` is not positive and finite, or the name is
    /// already used.
    pub fn add_driver(&mut self, name: &str, rd: f64) -> Result<BuildNode, CircuitError> {
        if !(rd.is_finite() && rd > 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "driver_resistance",
                value: rd,
            });
        }
        self.register_name(name)?;
        Ok(self.push_node(NodeKind::Driver, name, NodeAttrs::driver(rd)))
    }

    /// Adds a gate of the given logic kind.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already used.
    pub fn add_gate(&mut self, name: &str, kind: GateKind) -> Result<BuildNode, CircuitError> {
        self.register_name(name)?;
        let attrs = NodeAttrs::gate(&self.tech);
        Ok(self.push_node(NodeKind::Gate(kind), name, attrs))
    }

    /// Adds a wire of the given length (µm).
    ///
    /// # Errors
    ///
    /// Returns an error if `length` is not positive and finite, or the name is
    /// already used.
    pub fn add_wire(&mut self, name: &str, length: f64) -> Result<BuildNode, CircuitError> {
        if !(length.is_finite() && length > 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "length",
                value: length,
            });
        }
        self.register_name(name)?;
        let attrs = NodeAttrs::wire(&self.tech, length);
        Ok(self.push_node(NodeKind::Wire, name, attrs))
    }

    /// Overrides the size bounds of a sizable component.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, non-sizable nodes, or inverted /
    /// non-positive bounds.
    pub fn set_size_bounds(
        &mut self,
        node: BuildNode,
        lower: f64,
        upper: f64,
    ) -> Result<(), CircuitError> {
        let n = self
            .nodes
            .get_mut(node.0)
            .ok_or(CircuitError::UnknownNode(NodeId::new(node.0)))?;
        if !n.kind.is_sizable() {
            return Err(CircuitError::InvalidConnection {
                from: NodeId::new(node.0),
                to: NodeId::new(node.0),
                reason: "only gates and wires have size bounds",
            });
        }
        if !(lower.is_finite() && lower > 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "lower_bound",
                value: lower,
            });
        }
        if !(upper.is_finite() && upper >= lower) {
            return Err(CircuitError::InvalidBounds {
                node: NodeId::new(node.0),
                lower,
                upper,
            });
        }
        n.attrs.lower_bound = lower;
        n.attrs.upper_bound = upper;
        Ok(())
    }

    /// Connects component `from` to component `to` (data flows `from → to`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, self-loops, duplicate edges, edges
    /// into a driver, edges out of nothing sensible, or a second driver of a
    /// wire (a wire has exactly one fanin).
    pub fn connect(&mut self, from: BuildNode, to: BuildNode) -> Result<(), CircuitError> {
        let from_id = NodeId::new(from.0);
        let to_id = NodeId::new(to.0);
        if from.0 >= self.nodes.len() {
            return Err(CircuitError::UnknownNode(from_id));
        }
        if to.0 >= self.nodes.len() {
            return Err(CircuitError::UnknownNode(to_id));
        }
        if from.0 == to.0 {
            return Err(CircuitError::SelfLoop(from_id));
        }
        if self.nodes[to.0].kind.is_driver() {
            return Err(CircuitError::InvalidConnection {
                from: from_id,
                to: to_id,
                reason: "input drivers cannot have fanin",
            });
        }
        if !self.edge_set.insert((from.0, to.0)) {
            return Err(CircuitError::DuplicateEdge(from_id, to_id));
        }
        if self.nodes[to.0].kind.is_wire() && self.driven[to.0] {
            self.edge_set.remove(&(from.0, to.0));
            return Err(CircuitError::InvalidConnection {
                from: from_id,
                to: to_id,
                reason: "a wire is driven by exactly one component",
            });
        }
        self.driven[to.0] = true;
        self.edges.push((from.0, to.0));
        Ok(())
    }

    /// Marks `node` as driving a primary output with load capacitance
    /// `load` (fF). A component may drive at most one primary output; calling
    /// this twice accumulates the load.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, drivers, or a non-positive load.
    pub fn connect_output(&mut self, node: BuildNode, load: f64) -> Result<(), CircuitError> {
        if node.0 >= self.nodes.len() {
            return Err(CircuitError::UnknownNode(NodeId::new(node.0)));
        }
        if !(load.is_finite() && load >= 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "output_load",
                value: load,
            });
        }
        if self.nodes[node.0].kind.is_driver() {
            return Err(CircuitError::InvalidConnection {
                from: NodeId::new(node.0),
                to: NodeId::new(node.0),
                reason: "an input driver cannot directly drive a primary output",
            });
        }
        *self.output_loads.entry(node.0).or_insert(0.0) += load;
        Ok(())
    }

    /// Finalizes the circuit: inserts source and sink, re-indexes all nodes in
    /// topological order (drivers first), and validates connectivity.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is cyclic, has no drivers or primary
    /// outputs, or contains dangling components.
    pub fn build(self) -> Result<CircuitGraph, CircuitError> {
        let CircuitBuilder {
            tech,
            nodes,
            driven: _,
            edges,
            edge_set: _,
            names: _,
            output_loads,
        } = self;
        tech.validate()?;

        let total = nodes.len();
        let drivers: Vec<usize> = (0..total).filter(|&i| nodes[i].kind.is_driver()).collect();
        if drivers.is_empty() {
            return Err(CircuitError::NoDrivers);
        }
        if output_loads.is_empty() {
            return Err(CircuitError::NoPrimaryOutputs);
        }

        // Adjacency over the user's components only.
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); total];
        let mut fanin: Vec<Vec<usize>> = vec![Vec::new(); total];
        for &(u, v) in &edges {
            fanout[u].push(v);
            fanin[v].push(u);
        }

        // Every non-driver component needs a fanin; every component that does
        // not drive a primary output needs a fanout.
        for i in 0..total {
            if !nodes[i].kind.is_driver() && fanin[i].is_empty() {
                return Err(CircuitError::DanglingInput(NodeId::new(i)));
            }
            if fanout[i].is_empty() && !output_loads.contains_key(&i) {
                return Err(CircuitError::DanglingOutput(NodeId::new(i)));
            }
        }

        // Kahn topological sort over the sizable components (drivers are
        // sources of the DAG and are placed first by convention).
        let mut indegree: Vec<usize> = fanin.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &d in &drivers {
            queue.push_back(d);
        }
        // Non-driver nodes with zero indegree were rejected above.
        let mut topo_components: Vec<usize> = Vec::with_capacity(total - drivers.len());
        let mut visited = 0usize;
        while let Some(u) = queue.pop_front() {
            visited += 1;
            if !nodes[u].kind.is_driver() {
                topo_components.push(u);
            }
            for &v in &fanout[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if visited != total {
            return Err(CircuitError::CyclicGraph);
        }

        // New indexing: source 0, drivers 1..=s, components s+1..=n+s, sink last.
        let s = drivers.len();
        let n = topo_components.len();
        // Every component was visited above, so each slot is overwritten.
        let mut old_to_new = vec![usize::MAX; total];
        for (k, &d) in drivers.iter().enumerate() {
            old_to_new[d] = 1 + k;
        }
        for (k, &c) in topo_components.iter().enumerate() {
            old_to_new[c] = s + 1 + k;
        }
        let sink_index = n + s + 1;

        let mut new_nodes: Vec<Node> = Vec::with_capacity(n + s + 2);
        new_nodes.push(Node {
            kind: NodeKind::Source,
            name: "~source".to_string(),
            attrs: NodeAttrs::artificial(),
        });
        // Move drivers then components into the new order.
        let mut slots: Vec<Option<Node>> = nodes.into_iter().map(Some).collect();
        for &old in drivers.iter().chain(&topo_components) {
            let mut node = slots[old].take().expect("each component is placed once");
            if let Some(&load) = output_loads.get(&old) {
                node.attrs.output_load = if load > 0.0 {
                    load
                } else {
                    tech.default_output_load
                };
            }
            new_nodes.push(node);
        }
        new_nodes.push(Node {
            kind: NodeKind::Sink,
            name: "~sink".to_string(),
            attrs: NodeAttrs::artificial(),
        });

        let mut new_fanin: Vec<Vec<NodeId>> = vec![Vec::new(); n + s + 2];
        let mut new_fanout: Vec<Vec<NodeId>> = vec![Vec::new(); n + s + 2];
        // Source feeds every driver.
        for &d in &drivers {
            let nd = old_to_new[d];
            new_fanout[0].push(NodeId::new(nd));
            new_fanin[nd].push(NodeId::new(0));
        }
        // User edges.
        for &(u, v) in &edges {
            let (nu, nv) = (old_to_new[u], old_to_new[v]);
            new_fanout[nu].push(NodeId::new(nv));
            new_fanin[nv].push(NodeId::new(nu));
        }
        // Primary outputs feed the sink.
        let mut po: Vec<usize> = output_loads.keys().map(|&old| old_to_new[old]).collect();
        po.sort_unstable();
        for p in po {
            new_fanout[p].push(NodeId::new(sink_index));
            new_fanin[sink_index].push(NodeId::new(p));
        }
        // Keep adjacency lists sorted for determinism.
        for list in new_fanin.iter_mut().chain(new_fanout.iter_mut()) {
            list.sort_unstable();
        }

        let graph = CircuitGraph::from_parts(new_nodes, new_fanin, new_fanout, tech, s, n);
        crate::validate::validate(&graph)?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::dac99()
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = CircuitBuilder::new(tech());
        b.add_wire("w", 10.0).unwrap();
        assert!(matches!(
            b.add_wire("w", 10.0),
            Err(CircuitError::DuplicateName(_))
        ));
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut b = CircuitBuilder::new(tech());
        assert!(b.add_driver("d", 0.0).is_err());
        assert!(b.add_driver("d", f64::NAN).is_err());
        assert!(b.add_wire("w", -3.0).is_err());
        let w = b.add_wire("w", 3.0).unwrap();
        assert!(b.connect_output(w, -1.0).is_err());
        assert!(b.set_size_bounds(w, -1.0, 2.0).is_err());
        assert!(b.set_size_bounds(w, 3.0, 2.0).is_err());
    }

    #[test]
    fn rejects_self_loop_and_duplicate_edges() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        assert!(matches!(b.connect(w, w), Err(CircuitError::SelfLoop(_))));
        b.connect(d, w).unwrap();
        assert!(matches!(
            b.connect(d, w),
            Err(CircuitError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejects_edge_into_driver_and_multi_driven_wire() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        assert!(b.connect(w, d).is_err());
        b.connect(d, w).unwrap();
        assert!(matches!(
            b.connect(d2, w),
            Err(CircuitError::InvalidConnection { .. })
        ));
    }

    #[test]
    fn rejected_second_driver_leaves_no_trace() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.connect(d, w).unwrap();
        for _ in 0..2 {
            // The rejected edge is rolled back, so a retry hits the
            // one-driver rule again rather than `DuplicateEdge`.
            assert!(matches!(
                b.connect(d2, w),
                Err(CircuitError::InvalidConnection { .. })
            ));
        }
        assert!(matches!(
            b.connect(d, w),
            Err(CircuitError::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejected_connections_do_not_mark_a_wire_driven() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Buf).unwrap();
        assert!(matches!(b.connect(w, w), Err(CircuitError::SelfLoop(_))));
        assert!(matches!(
            b.connect(w, d),
            Err(CircuitError::InvalidConnection { .. })
        ));
        assert!(matches!(
            b.connect(BuildNode(99), w),
            Err(CircuitError::UnknownNode(_))
        ));
        b.connect(w, g).unwrap();
        assert!(matches!(
            b.connect(w, g),
            Err(CircuitError::DuplicateEdge(_, _))
        ));
        // None of the rejections above drove `w`: its first driver is accepted.
        b.connect(d, w).unwrap();
        b.connect_output(g, 5.0).unwrap();
        let c = b.build().unwrap();
        let wid = c.node_by_name("w").unwrap();
        assert_eq!(c.fanin(wid), &[c.node_by_name("d").unwrap()]);
    }

    #[test]
    fn rejects_cycles() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Buf).unwrap();
        let g2 = b.add_gate("g2", GateKind::Buf).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g1).unwrap();
        b.connect(g1, g2).unwrap();
        b.connect(g2, g1).unwrap();
        b.connect_output(g2, 5.0).unwrap();
        assert!(matches!(b.build(), Err(CircuitError::CyclicGraph)));
    }

    #[test]
    fn rejects_dangling_components() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let _orphan = b.add_gate("orphan", GateKind::Inv).unwrap();
        b.connect(d, w).unwrap();
        b.connect_output(w, 5.0).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            CircuitError::DanglingInput(_) | CircuitError::DanglingOutput(_)
        ));
    }

    #[test]
    fn requires_drivers_and_outputs() {
        let b = CircuitBuilder::new(tech());
        assert!(matches!(b.build(), Err(CircuitError::NoDrivers)));

        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.connect(d, w).unwrap();
        assert!(matches!(b.build(), Err(CircuitError::NoPrimaryOutputs)));
    }

    #[test]
    fn build_reindexes_topologically() {
        // Add components in reverse order to force re-indexing.
        let mut b = CircuitBuilder::new(tech());
        let w2 = b.add_wire("w2", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        let d = b.add_driver("d", 100.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        let c = b.build().unwrap();
        for id in c.node_ids() {
            for &succ in c.fanout(id) {
                assert!(id < succ);
            }
        }
        // Names preserved.
        assert!(c.node_by_name("w1").is_some());
        assert!(c.node_by_name("g").is_some());
    }

    #[test]
    fn size_bound_overrides_are_kept() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.set_size_bounds(w, 0.5, 2.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect_output(w, 5.0).unwrap();
        let c = b.build().unwrap();
        let wid = c.node_by_name("w").unwrap();
        assert_eq!(c.node(wid).attrs.lower_bound, 0.5);
        assert_eq!(c.node(wid).attrs.upper_bound, 2.0);
    }

    #[test]
    fn zero_output_load_defaults_to_technology_value() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect_output(w, 0.0).unwrap();
        let c = b.build().unwrap();
        let wid = c.node_by_name("w").unwrap();
        assert_eq!(c.node(wid).attrs.output_load, tech().default_output_load);
    }
}
