//! Incremental construction of [`CircuitGraph`]s.

use crate::error::CircuitError;
use crate::graph::{AdjacencyFill, CircuitGraph, NodeColumns, MAX_NODES};
use crate::id::NodeId;
use crate::names::{first_repeat, NameTable};
use crate::node::{GateKind, Node, NodeAttrs, NodeKind};
use crate::tech::Technology;

/// Handle returned by the builder for a component added to the circuit under
/// construction. It is only meaningful for the builder that produced it; the
/// final [`CircuitGraph`] re-indexes all nodes topologically, and
/// [`CircuitBuilder::build_mapped`] returns where each handle landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildNode(usize);

impl BuildNode {
    /// The handle of the component added `index`-th, counting from zero. A
    /// builder numbers its components in the order they are added, so a
    /// caller that adds them in a known order may compute their handles
    /// rather than keep them. A handle past the builder's components is
    /// [`CircuitError::UnknownNode`] to every call that takes one.
    pub fn new(index: usize) -> Self {
        BuildNode(index)
    }

    /// Position of this component in the order it was added (`0..len`).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Names of the artificial source and sink, reserved by the builder.
const SOURCE_NAME: &str = "~source";
const SINK_NAME: &str = "~sink";

/// The most components a builder takes: with the source and sink they fill
/// the 32-bit [`NodeId`] range.
const MAX_COMPONENTS: usize = MAX_NODES - 2;

/// A wire's entry in `CircuitBuilder::wire_driver` before it has a
/// driver, and a component's entry in `build`'s last-tail table before an
/// edge into it is seen. Components are numbered below [`MAX_COMPONENTS`],
/// so no component has this number.
const NO_DRIVER: u32 = u32::MAX;

/// A component's entry in `CircuitBuilder::output_loads` while it drives
/// no primary output. Every load `connect_output` takes is finite and not
/// negative, and no sum of such loads is NaN, so no accumulated load is
/// this value.
const NO_OUTPUT: f64 = f64::NAN;

/// Builder for [`CircuitGraph`].
///
/// Components may be added and connected in any order; [`CircuitBuilder::build`]
/// performs the topological re-indexing required by the paper's convention
/// (every edge goes from a lower to a higher index), inserts the artificial
/// source and sink, and validates the structure.
///
/// Every `add_*` and [`CircuitBuilder::connect`] call runs in amortized
/// O(1) and probes no table: an `add_*` appends the name, and a `connect`
/// appends the edge (into a wire it also records the wire's single
/// driver). [`CircuitBuilder::build`] runs in expected O(nodes + edges):
/// it first finds a repeated name by bucketing the names' keyed hashes and
/// a repeated edge by walking the fanout lists, then two counting passes
/// fill the graph's compressed fanin and fanout arrays already sorted, and
/// one pass in topological order writes every node column of the graph.
///
/// Under construction a component is only its kind and one parameter (a
/// driver's resistance or a wire's length); its attributes are computed
/// from the technology when `build` writes its node. Its primary-output
/// load takes eight bytes (NaN while it drives no output). `build` keeps
/// its topological order in 32-bit component numbers and frees each table
/// of the builder as soon as it is spent, so the builder's tables and the
/// graph's arrays overlap as little as they can.
///
/// Components are numbered in the order they are added: the `k`-th
/// component added (counting from zero) is `BuildNode::new(k)`, so a
/// caller that adds them in a known order can compute its handles rather
/// than keep them.
///
/// The names are appended to one string in the order the components are
/// added; no name is copied into a map key or a node of its own, and the
/// builder resolves no name: a caller that refers to components by name
/// keeps its own map from names to handles.
/// [`build`](CircuitBuilder::build) writes the graph's name string in
/// topological order in one pass, and the graph keeps no name index.
///
/// The names `~source` and `~sink` belong to the artificial nodes and are
/// rejected by every `add_*` as [`CircuitError::DuplicateName`]; a name
/// added twice, and an edge into a gate connected twice, are reported by
/// `build`. Every node id and name offset of the finished graph fits 32
/// bits: an `add_*` call past `u32::MAX - 1` components or `u32::MAX`
/// bytes of names, or a `build` whose names and the artificial nodes' no
/// longer fit, returns [`CircuitError::TooLarge`].
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
    /// The kinds of the components, in the order they were added.
    kinds: Vec<NodeKind>,
    /// `param[i]` is the resistance of driver `i`, the length of wire `i`,
    /// and zero for a gate.
    param: Vec<f64>,
    /// `set_size_bounds` overrides `(component, lower, upper)`, in call
    /// order; `build` applies them after writing the nodes.
    bounds: Vec<(u32, f64, f64)>,
    /// `names.get(i)` is the name of component `i`.
    names: NameTable,
    /// `wire_driver[i]` is the component driving wire `i` once it has
    /// accepted its one fanin edge, [`NO_DRIVER`] before; it enforces the
    /// one-driver rule and detects a repeated wire edge at the call.
    wire_driver: Vec<u32>,
    /// The accepted edges, in call order.
    edges: Vec<(u32, u32)>,
    /// `output_loads[i]` is the accumulated primary-output load of
    /// component `i`, or [`NO_OUTPUT`] if it drives none: eight bytes a
    /// component, where an `Option<f64>` takes sixteen.
    output_loads: Vec<f64>,
}

impl CircuitBuilder {
    /// Creates an empty builder with the given technology.
    pub fn new(tech: Technology) -> Self {
        CircuitBuilder::with_capacity(tech, 0, 0)
    }

    /// Creates an empty builder with room for `components` components
    /// (drivers, gates and wires) and `edges` connections, so a caller that
    /// knows the circuit's size up front builds it without regrowing a
    /// table.
    pub fn with_capacity(tech: Technology, components: usize, edges: usize) -> Self {
        CircuitBuilder {
            tech,
            kinds: Vec::with_capacity(components),
            param: Vec::with_capacity(components),
            bounds: Vec::new(),
            names: NameTable::with_capacity(components, 0),
            wire_driver: Vec::with_capacity(components),
            edges: Vec::with_capacity(edges),
            output_loads: Vec::with_capacity(components),
        }
    }

    /// The technology this builder hands to the finished circuit.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Number of components added so far (drivers, gates and wires).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no component has been added yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Appends `name` for the component about to be pushed. Whether it
    /// repeats an earlier name is checked by `build`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DuplicateName`] for a reserved name, else
    /// [`CircuitError::TooLarge`] when the components or their names
    /// outgrow 32 bits. Nothing is appended on an error.
    fn push_name(&mut self, name: &str) -> Result<(), CircuitError> {
        if name == SOURCE_NAME || name == SINK_NAME {
            return Err(CircuitError::DuplicateName(name.to_string()));
        }
        if self.names.len() >= MAX_COMPONENTS {
            return Err(CircuitError::TooLarge {
                what: "components",
                limit: MAX_COMPONENTS,
            });
        }
        self.names.push(name)
    }

    fn push_node(&mut self, kind: NodeKind, param: f64) -> BuildNode {
        debug_assert_eq!(self.kinds.len() + 1, self.names.len());
        self.kinds.push(kind);
        self.param.push(param);
        self.wire_driver.push(NO_DRIVER);
        self.output_loads.push(NO_OUTPUT);
        BuildNode(self.kinds.len() - 1)
    }

    /// Adds an input driver with resistance `rd` (Ω).
    ///
    /// # Errors
    ///
    /// Returns an error if `rd` is not positive and finite, or the name is
    /// reserved. A name already used is reported by
    /// [`build`](Self::build).
    pub fn add_driver(&mut self, name: &str, rd: f64) -> Result<BuildNode, CircuitError> {
        if !(rd.is_finite() && rd > 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "driver_resistance",
                value: rd,
            });
        }
        self.push_name(name)?;
        Ok(self.push_node(NodeKind::Driver, rd))
    }

    /// Adds a gate of the given logic kind.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is reserved. A name already used is
    /// reported by [`build`](Self::build).
    pub fn add_gate(&mut self, name: &str, kind: GateKind) -> Result<BuildNode, CircuitError> {
        self.push_name(name)?;
        Ok(self.push_node(NodeKind::Gate(kind), 0.0))
    }

    /// Adds a wire of the given length (µm).
    ///
    /// # Errors
    ///
    /// Returns an error if `length` is not positive and finite, or the name is
    /// reserved. A name already used is reported by [`build`](Self::build).
    pub fn add_wire(&mut self, name: &str, length: f64) -> Result<BuildNode, CircuitError> {
        if !(length.is_finite() && length > 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "length",
                value: length,
            });
        }
        self.push_name(name)?;
        Ok(self.push_node(NodeKind::Wire, length))
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
        let kind = self
            .kinds
            .get(node.0)
            .ok_or(CircuitError::UnknownNode(NodeId::new(node.0)))?;
        if !kind.is_sizable() {
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
        // `node.0` is a component, so below `MAX_COMPONENTS`.
        self.bounds.push((node.0 as u32, lower, upper));
        Ok(())
    }

    /// Connects component `from` to component `to` (data flows `from → to`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, self-loops, edges into a driver,
    /// a repeat of a wire's edge, or a second driver of a wire (a wire has
    /// exactly one fanin). A repeated edge into a gate is reported by
    /// [`build`](Self::build).
    pub fn connect(&mut self, from: BuildNode, to: BuildNode) -> Result<(), CircuitError> {
        let from_id = NodeId::new(from.0);
        let to_id = NodeId::new(to.0);
        if from.0 >= self.kinds.len() {
            return Err(CircuitError::UnknownNode(from_id));
        }
        if to.0 >= self.kinds.len() {
            return Err(CircuitError::UnknownNode(to_id));
        }
        if from.0 == to.0 {
            return Err(CircuitError::SelfLoop(from_id));
        }
        if self.kinds[to.0].is_driver() {
            return Err(CircuitError::InvalidConnection {
                from: from_id,
                to: to_id,
                reason: "input drivers cannot have fanin",
            });
        }
        // Both are components, so below `MAX_COMPONENTS`.
        let edge = (from.0 as u32, to.0 as u32);
        if self.kinds[to.0].is_wire() {
            match self.wire_driver[to.0] {
                NO_DRIVER => self.wire_driver[to.0] = edge.0,
                driver if driver == edge.0 => {
                    return Err(CircuitError::DuplicateEdge(from_id, to_id));
                }
                _ => {
                    return Err(CircuitError::InvalidConnection {
                        from: from_id,
                        to: to_id,
                        reason: "a wire is driven by exactly one component",
                    });
                }
            }
        }
        self.edges.push(edge);
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
        if node.0 >= self.kinds.len() {
            return Err(CircuitError::UnknownNode(NodeId::new(node.0)));
        }
        if !(load.is_finite() && load >= 0.0) {
            return Err(CircuitError::InvalidParameter {
                name: "output_load",
                value: load,
            });
        }
        if self.kinds[node.0].is_driver() {
            return Err(CircuitError::InvalidConnection {
                from: NodeId::new(node.0),
                to: NodeId::new(node.0),
                reason: "an input driver cannot directly drive a primary output",
            });
        }
        let total = &mut self.output_loads[node.0];
        if total.is_nan() {
            *total = 0.0;
        }
        *total += load;
        Ok(())
    }

    /// Finalizes the circuit: inserts source and sink, re-indexes all nodes in
    /// topological order (drivers first), and validates connectivity.
    ///
    /// # Errors
    ///
    /// Before any other check, [`CircuitError::DuplicateName`] for the
    /// earliest-added component whose name an earlier one has, then
    /// [`CircuitError::DuplicateEdge`] (in builder handles, as
    /// `NodeId::new(handle.index())`) for an edge connected twice, the one
    /// with the smallest tail. Then an error if the graph is cyclic, has no
    /// drivers or primary outputs, or contains dangling components.
    pub fn build(self) -> Result<CircuitGraph, CircuitError> {
        self.build_mapped().map(|(graph, _)| graph)
    }

    /// Like [`build`](Self::build), and also returns where every component
    /// landed: `ids[b.index()]` is the graph node of the component added as
    /// `b`.
    ///
    /// # Errors
    ///
    /// The same as [`build`](Self::build).
    pub fn build_mapped(self) -> Result<(CircuitGraph, Vec<NodeId>), CircuitError> {
        let CircuitBuilder {
            tech,
            kinds,
            param,
            bounds,
            names,
            wire_driver,
            edges,
            output_loads,
        } = self;
        if let Some(j) = first_repeat(names.len(), |i| names.get(i))? {
            return Err(CircuitError::DuplicateName(names.get(j).to_string()));
        }

        let total = kinds.len();
        // Fanout over the user's components only, in insertion order, plus
        // each component's fanin count.
        let mut indegree = vec![0u32; total];
        let mut outdegree = vec![0u32; total];
        for &(u, v) in &edges {
            outdegree[u as usize] += 1;
            indegree[v as usize] += 1;
        }
        let mut fill = AdjacencyFill::new(outdegree.into_iter().map(|d| d as usize))?;
        for &(u, v) in &edges {
            fill.push(u as usize, NodeId::new(v as usize));
        }
        let fanout = fill.finish();
        drop(edges);

        // A repeated edge: `last_tail[v]` is the last component whose list
        // named `v`. The lists are walked in increasing tail order, so the
        // first repeat found has the smallest tail.
        let mut last_tail = wire_driver;
        last_tail.fill(NO_DRIVER);
        for u in 0..total {
            for &v in fanout.list(u) {
                // `u < total <= MAX_COMPONENTS`, so it is never `NO_DRIVER`.
                let tail = &mut last_tail[v.index()];
                if *tail == u as u32 {
                    return Err(CircuitError::DuplicateEdge(NodeId::new(u), v));
                }
                *tail = u as u32;
            }
        }
        drop(last_tail);
        tech.validate()?;

        // Kahn's queue, in 32-bit component numbers (`total` is at most
        // `MAX_COMPONENTS`): drivers are the sources of the DAG and go
        // first by convention.
        let mut order: Vec<u32> = Vec::with_capacity(total);
        order.extend((0..total as u32).filter(|&i| kinds[i as usize].is_driver()));
        if order.is_empty() {
            return Err(CircuitError::NoDrivers);
        }
        let is_output = |old: usize| !output_loads[old].is_nan();
        let num_outputs = (0..total).filter(|&old| is_output(old)).count();
        if num_outputs == 0 {
            return Err(CircuitError::NoPrimaryOutputs);
        }

        // Every non-driver component needs a fanin; every component that does
        // not drive a primary output needs a fanout.
        for i in 0..total {
            if !kinds[i].is_driver() && indegree[i] == 0 {
                return Err(CircuitError::DanglingInput(NodeId::new(i)));
            }
            if fanout.list(i).is_empty() && !is_output(i) {
                return Err(CircuitError::DanglingOutput(NodeId::new(i)));
            }
        }

        // Kahn topological sort. `order` doubles as the FIFO queue, so it
        // ends as drivers followed by the components in topological order.
        let s = order.len();
        let mut pending = indegree.clone();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in fanout.list(u as usize) {
                let v = v.index();
                pending[v] -= 1;
                if pending[v] == 0 {
                    order.push(v as u32);
                }
            }
        }
        drop(pending);
        if order.len() != total {
            return Err(CircuitError::CyclicGraph);
        }

        // New indexing: source 0, drivers 1..=s, components s+1..=n+s, sink last.
        let n = total - s;
        let sink = n + s + 1;
        let mut ids = vec![NodeId::new(0); total];
        for (k, &old) in order.iter().enumerate() {
            ids[old as usize] = NodeId::new(k + 1);
        }

        // Fanin lists fill in increasing tail order and fanout lists in
        // increasing head order, so both come out sorted.
        // The source feeds each driver.
        let fanin_degrees = std::iter::once(0)
            .chain(std::iter::repeat_n(1, s))
            .chain(
                order[s..]
                    .iter()
                    .map(|&old| indegree[old as usize] as usize),
            )
            .chain(std::iter::once(num_outputs));
        let mut fill = AdjacencyFill::new(fanin_degrees)?;
        for d in 1..=s {
            fill.push(d, NodeId::new(0));
        }
        for (k, &old) in order.iter().enumerate() {
            let u = NodeId::new(k + 1);
            for &v in fanout.list(old as usize) {
                fill.push(ids[v.index()].index(), u);
            }
            if is_output(old as usize) {
                fill.push(sink, u);
            }
        }
        let new_fanin = fill.finish();
        let fanout_degrees = std::iter::once(s)
            .chain(order.iter().map(|&old| {
                let old = old as usize;
                fanout.list(old).len() + usize::from(is_output(old))
            }))
            .chain(std::iter::once(0));
        let mut fill = AdjacencyFill::new(fanout_degrees)?;
        drop(fanout);
        drop(indegree);
        for v in 0..=sink {
            for &u in new_fanin.list(v) {
                fill.push(u.index(), NodeId::new(v));
            }
        }
        let new_fanout = fill.finish();

        // The graph's names, in the new indexing, in one pass.
        let mut graph_names = NameTable::with_capacity(
            total + 2,
            names.text_len() + SOURCE_NAME.len() + SINK_NAME.len(),
        );
        graph_names.push(SOURCE_NAME)?;
        for &old in &order {
            graph_names.push(names.get(old as usize))?;
        }
        graph_names.push(SINK_NAME)?;
        drop(names);

        // The node columns, in the new indexing, in one pass: each node's
        // attributes are computed from its kind and parameter as it is
        // written, then the size-bound overrides are applied in call order.
        let mut columns = NodeColumns::with_capacity(total + 2, num_outputs);
        let artificial = |kind| Node {
            kind,
            attrs: NodeAttrs::artificial(),
        };
        columns.push(artificial(NodeKind::Source));
        for &old in &order {
            let old = old as usize;
            let kind = kinds[old];
            let mut attrs = match kind {
                NodeKind::Driver => NodeAttrs::driver(param[old]),
                NodeKind::Gate(_) => NodeAttrs::gate(&tech),
                // The builder adds only drivers, gates and wires.
                _ => NodeAttrs::wire(&tech, param[old]),
            };
            if is_output(old) {
                let load = output_loads[old];
                attrs.output_load = if load > 0.0 {
                    load
                } else {
                    tech.default_output_load
                };
            }
            columns.push(Node { kind, attrs });
        }
        columns.push(artificial(NodeKind::Sink));
        drop((kinds, param, output_loads, order));
        for (old, lower, upper) in bounds {
            let id = ids[old as usize].index();
            columns.lower_bound[id] = lower;
            columns.upper_bound[id] = upper;
        }

        let graph =
            CircuitGraph::from_parts(columns, graph_names, new_fanin, new_fanout, tech, s, n);
        crate::validate::validate(&graph)?;
        Ok((graph, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::first_repeat_hashed;

    fn tech() -> Technology {
        Technology::dac99()
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect_output(w, 5.0).unwrap();
        // The call accepts the repeat; `build` rejects it.
        let again = b.add_wire("w", 10.0).unwrap();
        assert_eq!(again, BuildNode(w.0 + 1));
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateName("w".to_string())
        );
    }

    #[test]
    fn the_earliest_added_repeat_is_reported() {
        let mut b = CircuitBuilder::new(tech());
        for name in ["a", "b", "a", "b"] {
            b.add_gate(name, GateKind::Buf).unwrap();
        }
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateName("a".to_string())
        );
    }

    #[test]
    fn duplicates_are_reported_before_the_structural_checks() {
        // No driver, no primary output, and every component dangling: the
        // repeated name and the repeated edge still come first.
        let mut b = CircuitBuilder::new(tech());
        b.add_gate("g", GateKind::Buf).unwrap();
        b.add_wire("g", 10.0).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateName("g".to_string())
        );

        let mut b = CircuitBuilder::new(tech());
        let w = b.add_wire("w", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Buf).unwrap();
        b.add_gate("dangling", GateKind::Inv).unwrap();
        b.connect(w, g).unwrap();
        b.connect(w, g).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateEdge(NodeId::new(0), NodeId::new(1))
        );

        // With a driver but no primary output.
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Buf).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g).unwrap();
        b.connect(w, g).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateEdge(NodeId::new(1), NodeId::new(2))
        );
    }

    #[test]
    fn the_repeated_edge_with_the_smallest_tail_is_reported() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::And).unwrap();
        let w: Vec<BuildNode> = (0..3)
            .map(|i| b.add_wire(&format!("w{i}"), 10.0).unwrap())
            .collect();
        for &wire in &w {
            b.connect(d, wire).unwrap();
        }
        // Repeated in call order w2 first, then w1.
        for wire in [w[2], w[1], w[2], w[1], w[0]] {
            b.connect(wire, g).unwrap();
        }
        b.connect_output(g, 5.0).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateEdge(NodeId::new(w[1].0), NodeId::new(g.0))
        );
    }

    #[test]
    fn rejects_the_reserved_source_and_sink_names() {
        let mut b = CircuitBuilder::new(tech());
        for name in [SOURCE_NAME, SINK_NAME] {
            assert_eq!(
                b.add_driver(name, 100.0),
                Err(CircuitError::DuplicateName(name.to_string()))
            );
            assert_eq!(
                b.add_gate(name, GateKind::Inv),
                Err(CircuitError::DuplicateName(name.to_string()))
            );
            assert_eq!(
                b.add_wire(name, 10.0),
                Err(CircuitError::DuplicateName(name.to_string()))
            );
        }
        assert!(b.is_empty());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect_output(w, 5.0).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.node_by_name(SOURCE_NAME), Some(c.source()));
        assert_eq!(c.node_by_name(SINK_NAME), Some(c.sink()));
    }

    #[test]
    fn names_under_one_hash_are_told_apart() {
        const FORCED: u64 = 0x5eed;
        let mut b = CircuitBuilder::new(tech());
        for name in ["a", "b", "c"] {
            b.add_wire(name, 10.0).unwrap();
        }
        let repeat = |b: &CircuitBuilder| {
            let hashes = vec![FORCED; b.names.len()];
            first_repeat_hashed(&hashes, |i| b.names.get(i))
                .unwrap()
                .map(|j| CircuitError::DuplicateName(b.names.get(j).to_string()))
        };
        // Three distinct names under one hash are told apart.
        assert_eq!(repeat(&b), None);
        for name in [SOURCE_NAME, SINK_NAME] {
            assert_eq!(
                b.add_wire(name, 10.0),
                Err(CircuitError::DuplicateName(name.to_string()))
            );
        }
        // A repeat under the same hash is found, whichever name it repeats.
        b.add_wire("b", 10.0).unwrap();
        b.add_wire("a", 10.0).unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(
            repeat(&b),
            Some(CircuitError::DuplicateName("b".to_string()))
        );
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateName("b".to_string())
        );
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
        // None of the rejections above drove `w`: its first driver is accepted.
        b.connect(d, w).unwrap();
        b.connect_output(g, 5.0).unwrap();
        let built = b.clone().build().unwrap();
        let wid = built.node_by_name("w").unwrap();
        assert_eq!(built.fanin(wid), &[built.node_by_name("d").unwrap()]);
        // A repeated edge into the gate is accepted by the call and
        // rejected by `build`.
        b.connect(w, g).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            CircuitError::DuplicateEdge(NodeId::new(w.0), NodeId::new(g.0))
        );
    }

    #[test]
    fn wire_edge_errors_keep_their_precedence() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::Buf).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        // Before the wire has a driver: the structural checks come first.
        assert_eq!(b.connect(w, w), Err(CircuitError::SelfLoop(NodeId::new(2))));
        assert!(matches!(
            b.connect(w, d),
            Err(CircuitError::InvalidConnection { .. })
        ));
        b.connect(d, w).unwrap();
        // A repeat of the one edge is a duplicate; any other driver breaks
        // the one-driver rule, however often it is retried.
        for _ in 0..2 {
            assert_eq!(
                b.connect(d, w),
                Err(CircuitError::DuplicateEdge(NodeId::new(0), NodeId::new(2)))
            );
            assert!(matches!(
                b.connect(g, w),
                Err(CircuitError::InvalidConnection { from, to, .. })
                    if from == NodeId::new(1) && to == NodeId::new(2)
            ));
        }
        // The self-loop check still precedes the driver check.
        assert_eq!(b.connect(w, w), Err(CircuitError::SelfLoop(NodeId::new(2))));
    }

    #[test]
    fn duplicate_edge_into_a_wide_gate_is_rejected() {
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::And).unwrap();
        let wires: Vec<BuildNode> = (0..200)
            .map(|i| b.add_wire(&format!("w{i}"), 10.0).unwrap())
            .collect();
        for &w in &wires {
            b.connect(d, w).unwrap();
            b.connect(w, g).unwrap();
        }
        b.connect_output(g, 5.0).unwrap();
        let c = b.clone().build().unwrap();
        assert_eq!(c.fanin(c.node_by_name("g").unwrap()).len(), 200);
        for &w in &[wires[0], wires[117], wires[199]] {
            let mut repeated = b.clone();
            repeated.connect(w, g).unwrap();
            assert_eq!(
                repeated.build().unwrap_err(),
                CircuitError::DuplicateEdge(NodeId::new(w.index()), NodeId::new(g.index()))
            );
        }
    }

    #[test]
    fn builds_a_50k_fanin_gate_and_a_50k_fanout_wire() {
        const WIDE: usize = 50_000;
        let mut b = CircuitBuilder::new(tech());
        let d = b.add_driver("d", 100.0).unwrap();
        // One gate fed by WIDE wires from one driver...
        let sum = b.add_gate("sum", GateKind::Or).unwrap();
        for i in 0..WIDE {
            let w = b.add_wire(&format!("in{i}"), 10.0).unwrap();
            b.connect(d, w).unwrap();
            b.connect(w, sum).unwrap();
        }
        // ...driving one wire that feeds WIDE gates.
        let bus = b.add_wire("bus", 10.0).unwrap();
        b.connect(sum, bus).unwrap();
        for i in 0..WIDE {
            let g = b.add_gate(&format!("g{i}"), GateKind::Buf).unwrap();
            b.connect(bus, g).unwrap();
            b.connect_output(g, 1.0).unwrap();
        }
        let c = b.build().unwrap();
        let sum = c.node_by_name("sum").unwrap();
        let bus = c.node_by_name("bus").unwrap();
        assert_eq!(c.fanin(sum).len(), WIDE);
        assert_eq!(c.fanout(bus).len(), WIDE);
        assert_eq!(c.fanin(c.sink()).len(), WIDE);
        assert!(c.fanin(sum).windows(2).all(|p| p[0] < p[1]));
        assert!(c.fanout(bus).windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn build_mapped_returns_where_each_component_landed() {
        let mut b = CircuitBuilder::new(tech());
        let w2 = b.add_wire("w2", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        let d = b.add_driver("d", 100.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        let (c, ids) = b.build_mapped().unwrap();
        assert_eq!(ids.len(), 4);
        for (handle, name) in [(w2, "w2"), (g, "g"), (w1, "w1"), (d, "d")] {
            assert_eq!(ids[handle.index()], c.node_by_name(name).unwrap());
            assert_eq!(c.name(ids[handle.index()]), name);
        }
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
