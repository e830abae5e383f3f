//! The circuit graph `H = (V, E)`.

use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize, Serializer};

use crate::error::CircuitError;
use crate::id::NodeId;
use crate::names::{first_repeat, NameTable};
use crate::node::{Node, NodeAttrs, NodeKind};
use crate::sizing::SizeVector;
use crate::tech::Technology;

/// The most nodes a graph holds: every id fits the 32-bit [`NodeId`].
pub(crate) const MAX_NODES: usize = u32::MAX as usize + 1;

/// One direction of the graph's adjacency in compressed sparse row form:
/// the list of node `i` is `targets[offsets[i]..offsets[i + 1]]`, so the
/// whole direction is two allocations however many nodes there are. The
/// offsets are 32-bit, so one direction holds at most `u32::MAX` edges.
///
/// It serializes as the nested arrays of a `Vec<Vec<NodeId>>`.
#[derive(Debug, Clone)]
pub(crate) struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

/// The 32-bit offset `end` of an adjacency, or the typed error for a
/// direction with more than `u32::MAX` edges.
fn edge_offset(end: usize) -> Result<u32, CircuitError> {
    u32::try_from(end).map_err(|_| CircuitError::TooLarge {
        what: "edges",
        limit: u32::MAX as usize,
    })
}

impl Adjacency {
    /// Copies explicit per-node lists.
    fn from_lists(lists: &[Vec<NodeId>]) -> Result<Self, CircuitError> {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for list in lists {
            end += list.len();
            offsets.push(edge_offset(end)?);
        }
        Ok(Adjacency {
            offsets,
            targets: lists.concat(),
        })
    }

    /// The list of node `i`.
    pub(crate) fn list(&self, i: usize) -> &[NodeId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The list offsets, one per node plus the trailing total: the list of
    /// node `i` is `targets()[offsets()[i]..offsets()[i + 1]]`.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every list, back to back in node order.
    pub(crate) fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Total length of all lists.
    pub(crate) fn num_edges(&self) -> usize {
        self.targets.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>() + self.targets.capacity() * size_of::<NodeId>()
    }
}

impl Serialize for Adjacency {
    fn serialize_json(&self, serializer: &mut Serializer) {
        serializer.begin_array();
        for i in 0..self.offsets.len() - 1 {
            serializer.element();
            self.list(i).serialize_json(serializer);
        }
        serializer.end_array();
    }
}

/// An [`Adjacency`] filled in one counting pass: the degrees fix every
/// list's slot up front, and [`push`](Self::push) appends to a list.
pub(crate) struct AdjacencyFill {
    adjacency: Adjacency,
    next: Vec<u32>,
}

impl AdjacencyFill {
    /// Reserves the lists of nodes `0..degrees.len()`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::TooLarge`] when the degrees sum past `u32::MAX`.
    pub(crate) fn new(degrees: impl IntoIterator<Item = usize>) -> Result<Self, CircuitError> {
        let mut offsets = vec![0];
        let mut end = 0;
        for degree in degrees {
            end += degree;
            offsets.push(edge_offset(end)?);
        }
        let next = offsets[..offsets.len() - 1].to_vec();
        Ok(AdjacencyFill {
            adjacency: Adjacency {
                offsets,
                targets: vec![NodeId::new(0); end],
            },
            next,
        })
    }

    /// Appends `target` to the list of node `i`.
    pub(crate) fn push(&mut self, i: usize, target: NodeId) {
        self.adjacency.targets[self.next[i] as usize] = target;
        self.next[i] += 1;
    }

    /// The lists, each holding exactly its reserved degree.
    pub(crate) fn finish(self) -> Adjacency {
        debug_assert!(self
            .next
            .iter()
            .zip(&self.adjacency.offsets[1..])
            .all(|(next, end)| next == end));
        self.adjacency
    }
}

/// The nodes of a graph as columns: entry `i` of every column belongs to
/// node `i`. A column holds only the attribute a node's kind has, so
/// `resistance` merges the two resistances no kind has both of: `r̂` for
/// gates and wires, `R_D` for drivers and zero for the source and sink.
/// Likewise `unit_capacitance` is zero off the gates and wires and
/// `fringing` zero off the wires.
///
/// The primary-output loads are sparse: only the few nodes that drive the
/// sink carry one, so `output_loads` holds `(node, load)` pairs, sorted by
/// node, for exactly the nodes whose load is not bit-zero (`-0.0` is
/// kept). A load on a node that does not drive the sink, which a decoded
/// graph may carry, is kept the same way.
#[derive(Debug, Clone)]
pub(crate) struct NodeColumns {
    pub(crate) kind: Vec<NodeKind>,
    pub(crate) resistance: Vec<f64>,
    pub(crate) unit_capacitance: Vec<f64>,
    pub(crate) fringing: Vec<f64>,
    pub(crate) area_coefficient: Vec<f64>,
    pub(crate) lower_bound: Vec<f64>,
    pub(crate) upper_bound: Vec<f64>,
    output_loads: Vec<(NodeId, f64)>,
}

impl NodeColumns {
    /// Empty columns with room for `n` nodes, `loads` of them with an
    /// output load.
    pub(crate) fn with_capacity(n: usize, loads: usize) -> Self {
        NodeColumns {
            kind: Vec::with_capacity(n),
            resistance: Vec::with_capacity(n),
            unit_capacitance: Vec::with_capacity(n),
            fringing: Vec::with_capacity(n),
            area_coefficient: Vec::with_capacity(n),
            lower_bound: Vec::with_capacity(n),
            upper_bound: Vec::with_capacity(n),
            output_loads: Vec::with_capacity(loads),
        }
    }

    /// Appends `node`. An attribute its kind does not have is dropped (see
    /// `Node::attribute_of_another_kind`).
    pub(crate) fn push(&mut self, node: Node) {
        let Node { kind, attrs } = node;
        if attrs.output_load.to_bits() != 0 {
            self.output_loads
                .push((NodeId::new(self.kind.len()), attrs.output_load));
        }
        self.kind.push(kind);
        self.resistance.push(match kind {
            NodeKind::Driver => attrs.driver_resistance,
            NodeKind::Gate(_) | NodeKind::Wire => attrs.unit_resistance,
            NodeKind::Source | NodeKind::Sink => 0.0,
        });
        self.unit_capacitance.push(if kind.is_sizable() {
            attrs.unit_capacitance
        } else {
            0.0
        });
        self.fringing.push(if kind.is_wire() {
            attrs.fringing_capacitance
        } else {
            0.0
        });
        self.area_coefficient.push(attrs.area_coefficient);
        self.lower_bound.push(attrs.lower_bound);
        self.upper_bound.push(attrs.upper_bound);
    }

    /// The output load of node `i`: one binary search of the load list.
    fn output_load(&self, i: usize) -> f64 {
        self.output_loads
            .binary_search_by_key(&i, |&(id, _)| id.index())
            .map_or(0.0, |at| self.output_loads[at].1)
    }

    /// Node `i`, reassembled, with `output_load` as its load.
    fn get(&self, i: usize, output_load: f64) -> Node {
        let kind = self.kind[i];
        let resistance = self.resistance[i];
        let only = |owned: bool| if owned { resistance } else { 0.0 };
        Node {
            kind,
            attrs: NodeAttrs {
                unit_resistance: only(kind.is_sizable()),
                unit_capacitance: self.unit_capacitance[i],
                fringing_capacitance: self.fringing[i],
                area_coefficient: self.area_coefficient[i],
                lower_bound: self.lower_bound[i],
                upper_bound: self.upper_bound[i],
                driver_resistance: only(kind.is_driver()),
                output_load,
            },
        }
    }

    fn len(&self) -> usize {
        self.kind.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kind.capacity() * size_of::<NodeKind>()
            + (self.resistance.capacity()
                + self.unit_capacitance.capacity()
                + self.fringing.capacity()
                + self.area_coefficient.capacity()
                + self.lower_bound.capacity()
                + self.upper_bound.capacity())
                * size_of::<f64>()
            + self.output_loads.capacity() * size_of::<(NodeId, f64)>()
    }
}

/// A combinational circuit represented as the directed acyclic graph of the
/// paper's Section 2.1.
///
/// Nodes are indexed in topological order:
///
/// * node `0` is the artificial source `~s`,
/// * nodes `1..=s` are the `s` input drivers,
/// * nodes `s+1..=n+s` are the `n` sizable components (gates and wires),
/// * node `n+s+1` is the artificial sink `~t`.
///
/// The graph is immutable once built by [`CircuitBuilder`](crate::CircuitBuilder);
/// all analyses borrow it together with a [`SizeVector`] holding the current
/// component sizes. Fanin and fanout lists are stored in compressed sparse
/// row form and are sorted by node index. The nodes are stored as columns,
/// one per attribute ([`kinds`](Self::kinds),
/// [`resistances`](Self::resistances), …), which the evaluation engine
/// borrows; [`node`](Self::node) reassembles one [`Node`] from them. The
/// primary-output loads are the exception: only the sink's drivers carry
/// one, so they are kept sparse, as `(node, load)` pairs sorted by node for
/// the nodes whose load is not bit-zero, and read with
/// [`output_load`](Self::output_load) by binary search. Every
/// node name is stored once, back to back with the others in one string
/// indexed by 32-bit offsets and read with [`name`](Self::name); there is no
/// separate name index.
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    nodes: NodeColumns,
    names: NameTable,
    fanin: Adjacency,
    fanout: Adjacency,
    tech: Technology,
    num_drivers: usize,
    num_sizable: usize,
}

/// Writes the nodes as `{"kind","name","attrs"}` objects, then the other
/// fields in declaration order, followed by a `name_index` object mapping
/// every node name to its id. The index is derived from the names here
/// rather than stored, and its entries are sorted by their rendered JSON
/// key, exactly as a serialized `HashMap`.
impl Serialize for CircuitGraph {
    fn serialize_json(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("nodes");
        s.begin_array();
        // The nodes run in order, so the sorted load list is merged in
        // rather than searched per node.
        let mut loads = self.nodes.output_loads.iter().peekable();
        for (i, name) in self.names.iter().enumerate() {
            let load = loads
                .next_if(|(id, _)| id.index() == i)
                .map_or(0.0, |&(_, l)| l);
            let node = self.nodes.get(i, load);
            s.element();
            s.begin_object();
            s.key("kind");
            node.kind.serialize_json(s);
            s.key("name");
            s.string(name);
            s.key("attrs");
            node.attrs.serialize_json(s);
            s.end_object();
        }
        s.end_array();
        s.key("fanin");
        self.fanin.serialize_json(s);
        s.key("fanout");
        self.fanout.serialize_json(s);
        s.key("tech");
        self.tech.serialize_json(s);
        s.key("num_drivers");
        self.num_drivers.serialize_json(s);
        s.key("num_sizable");
        self.num_sizable.serialize_json(s);
        s.key("name_index");
        let mut keys: Vec<(String, usize)> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut probe = Serializer::new();
                probe.string(name);
                (probe.into_string(), i)
            })
            .collect();
        keys.sort_unstable();
        s.begin_object();
        for (_, i) in keys {
            s.key(self.names.get(i));
            NodeId::new(i).serialize_json(s);
        }
        s.end_object();
        s.end_object();
    }
}

/// Decodes through [`CircuitGraph::from_serialized_parts`], so a decoded
/// graph passes the same structural checks as one assembled by hand. The
/// names are borrowed from the parsed nodes and copied once, into the
/// graph's name table; the serialized `name_index` is ignored.
impl Deserialize for CircuitGraph {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "CircuitGraph")?;
        let items = value
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::custom("CircuitGraph.nodes: expected an array of nodes"))?;
        let mut nodes = Vec::with_capacity(items.len());
        let mut names = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            nodes.push(
                Node::deserialize_json(item)
                    .map_err(|e| Error::custom(format!("CircuitGraph.nodes.{i}: {e}")))?,
            );
            names.push(item.get("name").and_then(Value::as_str).ok_or_else(|| {
                Error::custom(format!("CircuitGraph.nodes.{i}: expected a string `name`"))
            })?);
        }
        CircuitGraph::from_serialized_parts(
            nodes,
            &names,
            f.field("fanin")?,
            f.field("fanout")?,
            f.field("tech")?,
            f.field("num_drivers")?,
            f.field("num_sizable")?,
        )
        .map_err(|e| Error::custom(format!("invalid circuit graph: {e}")))
    }
}

impl CircuitGraph {
    /// Assembles a graph from already-ordered parts.
    ///
    /// This is `pub(crate)`: user code goes through
    /// [`CircuitBuilder`](crate::CircuitBuilder), which establishes the
    /// topological indexing convention and validates connectivity.
    pub(crate) fn from_parts(
        nodes: NodeColumns,
        names: NameTable,
        fanin: Adjacency,
        fanout: Adjacency,
        tech: Technology,
        num_drivers: usize,
        num_sizable: usize,
    ) -> Self {
        debug_assert_eq!(nodes.len(), names.len());
        CircuitGraph {
            nodes,
            names,
            fanin,
            fanout,
            tech,
            num_drivers,
            num_sizable,
        }
    }

    /// Reassembles a graph from untrusted serialized parts (the read side of
    /// the serve crate's durable job journal), validating everything the
    /// builder normally guarantees: consistent vector lengths, in-range
    /// edge endpoints, mirrored fanin/fanout lists, unique node names, and
    /// the structural invariants of [`validate`](crate::validate::validate),
    /// and last that no node carries an attribute its kind does not have.
    /// `names[i]` is the name of node `i`; the names are copied into one
    /// table, and the nodes into the graph's columns.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CircuitError`]; an
    /// attribute of another kind (a driver's `unit_resistance`, a gate's or
    /// wire's `driver_resistance`, a `unit_capacitance` off the gates and
    /// wires, a `fringing_capacitance` off the wires, or a resistance on
    /// the source or sink) is [`CircuitError::AttributeOfAnotherKind`].
    pub fn from_serialized_parts(
        nodes: Vec<Node>,
        names: &[&str],
        fanin: Vec<Vec<NodeId>>,
        fanout: Vec<Vec<NodeId>>,
        tech: Technology,
        num_drivers: usize,
        num_sizable: usize,
    ) -> Result<Self, CircuitError> {
        let n = nodes.len();
        if fanin.len() != n || fanout.len() != n {
            return Err(CircuitError::SizeLengthMismatch {
                expected: n,
                actual: fanin.len().max(fanout.len()),
            });
        }
        if names.len() != n {
            return Err(CircuitError::SizeLengthMismatch {
                expected: n,
                actual: names.len(),
            });
        }
        if n > MAX_NODES {
            return Err(CircuitError::TooLarge {
                what: "node ids",
                limit: MAX_NODES,
            });
        }
        if num_drivers
            .checked_add(num_sizable)
            .and_then(|c| c.checked_add(2))
            != Some(n)
        {
            return Err(CircuitError::SizeLengthMismatch {
                expected: n,
                actual: num_drivers.saturating_add(num_sizable).saturating_add(2),
            });
        }
        for list in fanin.iter().chain(fanout.iter()) {
            for &id in list {
                if id.index() >= n {
                    return Err(CircuitError::UnknownNode(id));
                }
            }
        }
        // Fanin and fanout must be exact mirrors: every edge u -> v appears
        // once in fanout[u] and once in fanin[v]. The fanin side is counted
        // through a sorted list of (u, v) pairs, so the check is
        // O(E log E) even when one node has thousands of fanins.
        let mut fanin_pairs: Vec<(usize, usize)> = fanin
            .iter()
            .enumerate()
            .flat_map(|(v, ins)| ins.iter().map(move |u| (u.index(), v)))
            .collect();
        fanin_pairs.sort_unstable();
        for (u, outs) in fanout.iter().enumerate() {
            for &v in outs {
                let pair = (u, v.index());
                let first = fanin_pairs.partition_point(|&p| p < pair);
                let hits = fanin_pairs[first..]
                    .iter()
                    .take(2)
                    .take_while(|&&p| p == pair)
                    .count();
                if hits != 1 {
                    return Err(CircuitError::InvalidConnection {
                        from: NodeId::new(u),
                        to: v,
                        reason: "fanout edge is not mirrored exactly once in fanin",
                    });
                }
            }
        }
        let edges_out: usize = fanout.iter().map(Vec::len).sum();
        let edges_in: usize = fanin.iter().map(Vec::len).sum();
        if edges_out != edges_in {
            return Err(CircuitError::SizeLengthMismatch {
                expected: edges_out,
                actual: edges_in,
            });
        }
        tech.validate()?;
        if let Some(j) = first_repeat(n, |i| names[i])? {
            return Err(CircuitError::DuplicateName(names[j].to_string()));
        }
        let mut table = NameTable::with_capacity(n, names.iter().map(|name| name.len()).sum());
        for name in names {
            table.push(name)?;
        }
        let loads = nodes
            .iter()
            .filter(|node| node.attrs.output_load.to_bits() != 0)
            .count();
        let mut columns = NodeColumns::with_capacity(n, loads);
        let mut foreign = None;
        for (i, node) in nodes.into_iter().enumerate() {
            if foreign.is_none() {
                foreign = node.attribute_of_another_kind().map(|attribute| {
                    CircuitError::AttributeOfAnotherKind {
                        node: NodeId::new(i),
                        attribute,
                    }
                });
            }
            columns.push(node);
        }
        let graph = CircuitGraph::from_parts(
            columns,
            table,
            Adjacency::from_lists(&fanin)?,
            Adjacency::from_lists(&fanout)?,
            tech,
            num_drivers,
            num_sizable,
        );
        crate::validate::validate(&graph)?;
        match foreign {
            Some(err) => Err(err),
            None => Ok(graph),
        }
    }

    /// The technology parameters of this circuit.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Total number of nodes, including source and sink (`n + s + 2`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of input drivers `s`.
    pub fn num_drivers(&self) -> usize {
        self.num_drivers
    }

    /// Number of sizable components `n` (gates plus wires).
    pub fn num_components(&self) -> usize {
        self.num_sizable
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        let kinds = &self.nodes.kind[self.component_range()];
        kinds.iter().filter(|k| k.is_gate()).count()
    }

    /// Number of wires.
    pub fn num_wires(&self) -> usize {
        let kinds = &self.nodes.kind[self.component_range()];
        kinds.iter().filter(|k| k.is_wire()).count()
    }

    /// The artificial source node `~s` (always node 0).
    pub fn source(&self) -> NodeId {
        NodeId::new(0)
    }

    /// The artificial sink node `~t` (always the last node).
    pub fn sink(&self) -> NodeId {
        NodeId::new(self.nodes.len() - 1)
    }

    /// The node data for `id`, reassembled from the node columns. Its
    /// output load costs one binary search of the load list (see
    /// [`output_load`](Self::output_load)); a loop over every node that
    /// needs no load reads the columns instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; node identifiers obtained from this
    /// graph are always valid.
    pub fn node(&self, id: NodeId) -> Node {
        let i = id.index();
        self.nodes.get(i, self.nodes.output_load(i))
    }

    /// The kind of every node, indexed by raw node index.
    pub fn kinds(&self) -> &[NodeKind] {
        &self.nodes.kind
    }

    /// The resistance of every node: `r̂` for gates and wires, `R_D` for
    /// drivers, zero for the source and sink.
    pub fn resistances(&self) -> &[f64] {
        &self.nodes.resistance
    }

    /// The unit capacitance `ĉ` of every node (zero off the gates and
    /// wires).
    pub fn unit_capacitances(&self) -> &[f64] {
        &self.nodes.unit_capacitance
    }

    /// The fringing capacitance `f` of every node (zero off the wires).
    pub fn fringing_capacitances(&self) -> &[f64] {
        &self.nodes.fringing
    }

    /// The area coefficient `α` of every node.
    pub fn area_coefficients(&self) -> &[f64] {
        &self.nodes.area_coefficient
    }

    /// The lower size bound `L` of every node.
    pub fn lower_bounds(&self) -> &[f64] {
        &self.nodes.lower_bound
    }

    /// The upper size bound `U` of every node.
    pub fn upper_bounds(&self) -> &[f64] {
        &self.nodes.upper_bound
    }

    /// The primary-output load `C_L` of node `id`: zero unless it drives a
    /// primary output (or a decoded graph gave it one). The graph keeps the
    /// loads sparse, as `(node, load)` pairs sorted by node for exactly the
    /// nodes whose load is not bit-zero, so this is one binary search over
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, as [`node`](Self::node) does.
    pub fn output_load(&self, id: NodeId) -> f64 {
        assert!(id.index() < self.nodes.len(), "node {id} out of range");
        self.nodes.output_load(id.index())
    }

    /// The unique name of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, as [`node`](Self::node) does.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.get(id.index())
    }

    /// Looks a node up by its unique name.
    ///
    /// This scans the name table, so it costs O(n) per call: the graph
    /// keeps no name index, only the names back to back in one string. A
    /// caller resolving many names should keep the handles from
    /// [`CircuitBuilder::build_mapped`](crate::CircuitBuilder::build_mapped),
    /// or build its own map once.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|candidate| candidate == name)
            .map(NodeId::new)
    }

    /// The fanin list `input(i)` of a node.
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        self.fanin.list(id.index())
    }

    /// The fanout list `output(i)` of a node.
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        self.fanout.list(id.index())
    }

    /// The offsets of the fanin lists, one per node plus the trailing edge
    /// count: node `i`'s fanin list holds `offsets[i + 1] - offsets[i]`
    /// entries and starts at flat position `offsets[i]`. This is the slot
    /// layout of the per-edge delay multipliers, so a multiplier set built
    /// for this graph has exactly these offsets.
    pub fn fanin_offsets(&self) -> &[u32] {
        self.fanin.offsets()
    }

    /// The offsets of the fanout lists, one per node plus the trailing edge
    /// count: node `i`'s fanout list holds `offsets[i + 1] - offsets[i]`
    /// entries and starts at flat position `offsets[i]`.
    pub fn fanout_offsets(&self) -> &[u32] {
        self.fanout.offsets()
    }

    /// The fanin adjacency, borrowed by the evaluation engine.
    pub(crate) fn fanin_csr(&self) -> &Adjacency {
        &self.fanin
    }

    /// The fanout adjacency, borrowed by the evaluation engine.
    pub(crate) fn fanout_csr(&self) -> &Adjacency {
        &self.fanout
    }

    /// Iterator over every node identifier, in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterator over the input-driver node identifiers (`1..=s`).
    pub fn driver_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..=self.num_drivers).map(NodeId::new)
    }

    /// Iterator over the sizable component identifiers (`s+1..=n+s`),
    /// in topological order.
    pub fn component_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.component_range().map(NodeId::new)
    }

    /// Iterator over wire component identifiers.
    pub fn wire_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.component_ids()
            .filter(move |&id| self.nodes.kind[id.index()].is_wire())
    }

    /// Iterator over gate component identifiers.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.component_ids()
            .filter(move |&id| self.nodes.kind[id.index()].is_gate())
    }

    /// Maps a node identifier to its dense index in a [`SizeVector`]
    /// (`0..n`), or `None` for non-sizable nodes.
    pub fn component_index(&self, id: NodeId) -> Option<usize> {
        let i = id.index();
        if i > self.num_drivers && i <= self.num_drivers + self.num_sizable {
            Some(i - self.num_drivers - 1)
        } else {
            None
        }
    }

    /// Maps a dense component index (`0..n`) back to the node identifier.
    pub fn component_id(&self, index: usize) -> NodeId {
        debug_assert!(index < self.num_sizable);
        NodeId::new(self.num_drivers + 1 + index)
    }

    /// The node identifiers of components that drive a primary output
    /// (i.e. `input(sink)` excluding nothing — exactly the paper's `input(m)`).
    pub fn primary_output_drivers(&self) -> &[NodeId] {
        self.fanin(self.sink())
    }

    /// Returns `true` if this node drives a primary output.
    pub fn drives_primary_output(&self, id: NodeId) -> bool {
        self.fanout(id).contains(&self.sink())
    }

    /// A [`SizeVector`] with every sizable component at the given size,
    /// clamped into its bounds.
    pub fn uniform_sizes(&self, size: f64) -> SizeVector {
        let components = self.component_range();
        let values = self.nodes.lower_bound[components.clone()]
            .iter()
            .zip(&self.nodes.upper_bound[components])
            .map(|(&lower, &upper)| size.clamp(lower, upper))
            .collect();
        SizeVector::new(values)
    }

    /// A [`SizeVector`] with every component at its lower bound (the LRS
    /// subroutine's starting point, step S1 of Figure 8).
    pub fn minimum_sizes(&self) -> SizeVector {
        SizeVector::new(self.nodes.lower_bound[self.component_range()].to_vec())
    }

    /// A [`SizeVector`] with every component at its upper bound.
    pub fn maximum_sizes(&self) -> SizeVector {
        SizeVector::new(self.nodes.upper_bound[self.component_range()].to_vec())
    }

    /// The raw node indices of the components (`s+1..=n+s`), in dense
    /// component order: slicing a node column with it gives the column's
    /// per-component view.
    pub(crate) fn component_range(&self) -> std::ops::Range<usize> {
        self.num_drivers + 1..self.num_drivers + 1 + self.num_sizable
    }

    /// The size of node `id` under `sizes` (1.0 for non-sizable nodes, which
    /// makes `resistance`/`capacitance` behave correctly for drivers).
    pub fn size_of(&self, id: NodeId, sizes: &SizeVector) -> f64 {
        match self.component_index(id) {
            Some(idx) => sizes[idx],
            None => 1.0,
        }
    }

    /// Node `id` without its output load, which neither its resistance nor
    /// its capacitance reads: the columns alone, no search of the load
    /// list.
    fn unloaded(&self, id: NodeId) -> Node {
        self.nodes.get(id.index(), 0.0)
    }

    /// Resistance of node `id` under `sizes`.
    pub fn resistance(&self, id: NodeId, sizes: &SizeVector) -> f64 {
        self.unloaded(id).resistance(self.size_of(id, sizes))
    }

    /// Capacitance of node `id` under `sizes` (excluding coupling).
    pub fn capacitance(&self, id: NodeId, sizes: &SizeVector) -> f64 {
        self.unloaded(id).capacitance(self.size_of(id, sizes))
    }

    /// Checks a size vector against this circuit: length `n`, finite values,
    /// within each component's bounds (up to a small tolerance).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SizeLengthMismatch`] or
    /// [`CircuitError::InvalidParameter`]/[`CircuitError::InvalidBounds`] on
    /// the first violation found.
    pub fn check_sizes(&self, sizes: &SizeVector) -> Result<(), CircuitError> {
        if sizes.len() != self.num_sizable {
            return Err(CircuitError::SizeLengthMismatch {
                expected: self.num_sizable,
                actual: sizes.len(),
            });
        }
        const TOL: f64 = 1e-9;
        for (idx, &x) in sizes.iter().enumerate() {
            if !x.is_finite() || x <= 0.0 {
                return Err(CircuitError::InvalidParameter {
                    name: "size",
                    value: x,
                });
            }
            let id = self.component_id(idx);
            let (lower, upper) = (
                self.nodes.lower_bound[id.index()],
                self.nodes.upper_bound[id.index()],
            );
            if x < lower - TOL || x > upper + TOL {
                return Err(CircuitError::InvalidBounds {
                    node: id,
                    lower,
                    upper,
                });
            }
        }
        Ok(())
    }

    /// Number of edges in the graph.
    pub fn num_edges(&self) -> usize {
        self.fanout.num_edges()
    }

    /// An estimate (in bytes) of the memory held by this graph's data
    /// structures, used by the Figure 10(a) reproduction: the node columns,
    /// the name string and its offsets, and the two compressed adjacency
    /// arrays (one offset per node plus one entry per edge, in each
    /// direction).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let adj_bytes = self.fanin.memory_bytes() + self.fanout.memory_bytes();
        self.nodes.memory_bytes() + self.names.memory_bytes() + adj_bytes + size_of::<Self>()
    }

    /// `true` if `kind` of node i is a gate or a driver, i.e. the node starts
    /// a new RC stage at its output.
    pub fn is_stage_root(&self, id: NodeId) -> bool {
        matches!(
            self.nodes.kind[id.index()],
            NodeKind::Gate(_) | NodeKind::Driver
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GateKind;

    fn tiny() -> crate::CircuitGraph {
        // driver -> w1 -> g1 -> w2 -> output
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("in", 100.0).unwrap();
        let w1 = b.add_wire("w1", 40.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 60.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn indexing_convention() {
        let c = tiny();
        assert_eq!(c.num_drivers(), 1);
        assert_eq!(c.num_components(), 3);
        assert_eq!(c.num_nodes(), 6);
        assert_eq!(c.source().index(), 0);
        assert_eq!(c.sink().index(), 5);
        // Drivers come right after the source.
        assert!(c.node(crate::NodeId::new(1)).kind.is_driver());
    }

    #[test]
    fn component_index_roundtrip() {
        let c = tiny();
        for (dense, id) in c.component_ids().enumerate() {
            assert_eq!(c.component_index(id), Some(dense));
            assert_eq!(c.component_id(dense), id);
        }
        assert_eq!(c.component_index(c.source()), None);
        assert_eq!(c.component_index(c.sink()), None);
        assert_eq!(c.component_index(crate::NodeId::new(1)), None);
    }

    #[test]
    fn fanin_fanout_are_consistent() {
        let c = tiny();
        for id in c.node_ids() {
            for &succ in c.fanout(id) {
                assert!(c.fanin(succ).contains(&id));
            }
            for &pred in c.fanin(id) {
                assert!(c.fanout(pred).contains(&id));
            }
        }
    }

    #[test]
    fn topological_indexing_holds() {
        let c = tiny();
        for id in c.node_ids() {
            for &succ in c.fanout(id) {
                assert!(
                    id < succ,
                    "edge {id} -> {succ} violates topological indexing"
                );
            }
        }
    }

    #[test]
    fn gate_and_wire_counts() {
        let c = tiny();
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.num_wires(), 2);
        assert_eq!(c.num_gates() + c.num_wires(), c.num_components());
    }

    #[test]
    fn uniform_and_bound_sizes() {
        let c = tiny();
        let s = c.uniform_sizes(1.0);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let lo = c.minimum_sizes();
        assert!(lo.iter().all(|&x| (x - 0.1).abs() < 1e-12));
        let hi = c.maximum_sizes();
        assert!(hi.iter().all(|&x| (x - 10.0).abs() < 1e-12));
        assert!(c.check_sizes(&s).is_ok());
        assert!(c.check_sizes(&lo).is_ok());
        assert!(c.check_sizes(&hi).is_ok());
    }

    #[test]
    fn check_sizes_rejects_bad_vectors() {
        let c = tiny();
        let too_short = crate::SizeVector::new(vec![1.0]);
        assert!(c.check_sizes(&too_short).is_err());
        let out_of_bounds = crate::SizeVector::new(vec![1.0, 100.0, 1.0]);
        assert!(c.check_sizes(&out_of_bounds).is_err());
        let negative = crate::SizeVector::new(vec![1.0, -1.0, 1.0]);
        assert!(c.check_sizes(&negative).is_err());
    }

    #[test]
    fn name_lookup() {
        let c = tiny();
        let w1 = c.node_by_name("w1").unwrap();
        assert!(c.node(w1).kind.is_wire());
        assert!(c.node_by_name("does-not-exist").is_none());
    }

    type Parts<'a> = (Vec<Node>, Vec<&'a str>, Vec<Vec<NodeId>>, Vec<Vec<NodeId>>);

    fn parts(c: &CircuitGraph) -> Parts<'_> {
        let lists = |list: fn(&CircuitGraph, NodeId) -> &[NodeId]| {
            c.node_ids().map(|id| list(c, id).to_vec()).collect()
        };
        (
            c.node_ids().map(|id| c.node(id)).collect(),
            c.names.iter().collect(),
            lists(CircuitGraph::fanin),
            lists(CircuitGraph::fanout),
        )
    }

    fn reassemble(
        c: &CircuitGraph,
        (nodes, names, fanin, fanout): Parts<'_>,
    ) -> Result<(), CircuitError> {
        CircuitGraph::from_serialized_parts(
            nodes,
            &names,
            fanin,
            fanout,
            *c.technology(),
            c.num_drivers(),
            c.num_components(),
        )
        .map(|_| ())
    }

    #[test]
    fn serialized_parts_round_trip() {
        let c = tiny();
        reassemble(&c, parts(&c)).unwrap();
    }

    #[test]
    fn serialized_parts_reject_an_edge_missing_from_fanin() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        let (nodes, names, mut fanin, fanout) = parts(&c);
        fanin[2].clear();
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::InvalidConnection { from, to, .. })
                if from == NodeId::new(1) && to == NodeId::new(2)
        ));
    }

    #[test]
    fn serialized_parts_reject_an_edge_mirrored_twice() {
        let c = tiny();
        let (nodes, names, mut fanin, fanout) = parts(&c);
        fanin[2].push(NodeId::new(1));
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::InvalidConnection { from, to, .. })
                if from == NodeId::new(1) && to == NodeId::new(2)
        ));
    }

    #[test]
    fn serialized_parts_reject_an_edge_only_in_fanin() {
        let c = tiny();
        let (nodes, names, mut fanin, fanout) = parts(&c);
        fanin[4].push(NodeId::new(1));
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::SizeLengthMismatch {
                expected: 5,
                actual: 6
            })
        ));
    }

    #[test]
    fn serialized_parts_reject_duplicate_names() {
        let c = tiny();
        let (nodes, mut names, fanin, fanout) = parts(&c);
        names[3] = "in";
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::DuplicateName(name)) if name == "in"
        ));
        // Of two repeated names, the one repeated first is reported:
        // "w2" again at node 4 before "in" again at node 5.
        let (nodes, mut names, fanin, fanout) = parts(&c);
        names[2] = "w2";
        names[5] = "in";
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::DuplicateName(name)) if name == "w2"
        ));
    }

    #[test]
    fn serialized_parts_reject_a_missing_name() {
        let c = tiny();
        let (nodes, mut names, fanin, fanout) = parts(&c);
        names.pop();
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::SizeLengthMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn serialized_parts_reject_a_node_kind_outside_its_range() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        for (idx, kind) in [
            (0, NodeKind::Wire),
            (1, NodeKind::Gate(GateKind::Buf)),
            (2, NodeKind::Driver),
            (5, NodeKind::Wire),
        ] {
            let (mut nodes, names, fanin, fanout) = parts(&c);
            nodes[idx].kind = kind;
            assert!(
                matches!(
                    reassemble(&c, (nodes, names, fanin, fanout)),
                    Err(CircuitError::InvalidConnection { .. })
                ),
                "node {idx} as {kind:?}"
            );
        }
    }

    #[test]
    fn serialized_parts_reject_an_attribute_of_another_kind() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        type Carry = fn(&mut NodeAttrs);
        let cases: [(usize, &str, Carry); 10] = [
            (1, "unit_resistance", |a| a.unit_resistance = 1.0),
            (3, "driver_resistance", |a| a.driver_resistance = 1.0),
            (2, "driver_resistance", |a| a.driver_resistance = 1.0),
            (1, "unit_capacitance", |a| a.unit_capacitance = 0.5),
            (0, "unit_capacitance", |a| a.unit_capacitance = 0.5),
            (3, "fringing_capacitance", |a| a.fringing_capacitance = 0.25),
            (1, "fringing_capacitance", |a| a.fringing_capacitance = 0.25),
            (3, "fringing_capacitance", |a| a.fringing_capacitance = -0.0),
            (0, "unit_resistance", |a| a.unit_resistance = 1.0),
            (5, "driver_resistance", |a| a.driver_resistance = 1.0),
        ];
        for (idx, attribute, carry) in cases {
            let (mut nodes, names, fanin, fanout) = parts(&c);
            carry(&mut nodes[idx].attrs);
            assert_eq!(
                reassemble(&c, (nodes, names, fanin, fanout)),
                Err(CircuitError::AttributeOfAnotherKind {
                    node: NodeId::new(idx),
                    attribute
                }),
                "node {idx} with {attribute}"
            );
        }
        // The attribute check runs last: a structural error comes first.
        let (mut nodes, names, mut fanin, fanout) = parts(&c);
        nodes[1].attrs.unit_resistance = 1.0;
        fanin[2].clear();
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::InvalidConnection { .. })
        ));
    }

    #[test]
    fn adjacency_serializes_as_nested_lists() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let mut s = Serializer::new();
        tiny().serialize_json(&mut s);
        let json = s.into_string();
        assert!(
            json.contains(r#""fanin":[[],[0],[1],[2],[3],[4]],"fanout":[[1],[2],[3],[4],[5],[]],"#)
        );
    }

    /// A graph whose names need escaping (`a"`), sort differently raw and
    /// rendered (`a!` renders before `a`), are not ASCII (`Ä`), or sort
    /// lexically against their numbers (`g10` before `g9`).
    fn awkward_names() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("a\"", 100.0).unwrap();
        let w0 = b.add_wire("Ä", 40.0).unwrap();
        let g = b.add_gate("g9", GateKind::Inv).unwrap();
        let w1 = b.add_wire("g10", 60.0).unwrap();
        let w2 = b.add_wire("a!", 30.0).unwrap();
        let w3 = b.add_wire("a", 20.0).unwrap();
        b.connect(d, w0).unwrap();
        b.connect(w0, g).unwrap();
        for w in [w1, w2, w3] {
            b.connect(g, w).unwrap();
        }
        b.connect_output(w1, 5.0).unwrap();
        b.connect_output(w2, 0.0).unwrap();
        b.connect_output(w3, 2.5).unwrap();
        b.build().unwrap()
    }

    /// `awkward_names()` as encoded when the graph stored its name index
    /// as a `HashMap`.
    const AWKWARD_NAMES_JSON: &str = r#"{"nodes":[{"kind":"Source","name":"~source","attrs":{"unit_resistance":0.0,"unit_capacitance":0.0,"fringing_capacitance":0.0,"area_coefficient":0.0,"lower_bound":0.0,"upper_bound":0.0,"driver_resistance":0.0,"output_load":0.0}},{"kind":"Driver","name":"a\"","attrs":{"unit_resistance":0.0,"unit_capacitance":0.0,"fringing_capacitance":0.0,"area_coefficient":0.0,"lower_bound":0.0,"upper_bound":0.0,"driver_resistance":100.0,"output_load":0.0}},{"kind":"Wire","name":"Ä","attrs":{"unit_resistance":2.8000000000000003,"unit_capacitance":0.96,"fringing_capacitance":0.4,"area_coefficient":40.0,"lower_bound":0.1,"upper_bound":10.0,"driver_resistance":0.0,"output_load":0.0}},{"kind":{"Gate":"Inv"},"name":"g9","attrs":{"unit_resistance":10.0,"unit_capacitance":0.16,"fringing_capacitance":0.0,"area_coefficient":4.0,"lower_bound":0.1,"upper_bound":10.0,"driver_resistance":0.0,"output_load":0.0}},{"kind":"Wire","name":"g10","attrs":{"unit_resistance":4.2,"unit_capacitance":1.44,"fringing_capacitance":0.6,"area_coefficient":60.0,"lower_bound":0.1,"upper_bound":10.0,"driver_resistance":0.0,"output_load":5.0}},{"kind":"Wire","name":"a!","attrs":{"unit_resistance":2.1,"unit_capacitance":0.72,"fringing_capacitance":0.3,"area_coefficient":30.0,"lower_bound":0.1,"upper_bound":10.0,"driver_resistance":0.0,"output_load":10.0}},{"kind":"Wire","name":"a","attrs":{"unit_resistance":1.4000000000000001,"unit_capacitance":0.48,"fringing_capacitance":0.2,"area_coefficient":20.0,"lower_bound":0.1,"upper_bound":10.0,"driver_resistance":0.0,"output_load":2.5}},{"kind":"Sink","name":"~sink","attrs":{"unit_resistance":0.0,"unit_capacitance":0.0,"fringing_capacitance":0.0,"area_coefficient":0.0,"lower_bound":0.0,"upper_bound":0.0,"driver_resistance":0.0,"output_load":0.0}}],"fanin":[[],[0],[1],[2],[3],[3],[3],[4,5,6]],"fanout":[[1],[2],[3],[4,5,6],[7],[7],[7],[]],"tech":{"supply_voltage":3.3,"frequency":200000000.0,"gate_unit_resistance":10.0,"gate_unit_capacitance":0.16,"gate_area_coefficient":4.0,"wire_unit_resistance":0.07,"wire_unit_capacitance":0.024,"wire_fringing_per_um":0.01,"wire_area_coefficient":1.0,"coupling_fringing_per_um":0.03,"min_size":0.1,"max_size":10.0,"default_driver_resistance":100.0,"default_output_load":10.0},"num_drivers":1,"num_sizable":5,"name_index":{"a!":5,"a":6,"a\"":1,"g10":4,"g9":3,"~sink":7,"~source":0,"Ä":2}}"#;

    fn to_json(c: &CircuitGraph) -> String {
        let mut s = Serializer::new();
        c.serialize_json(&mut s);
        s.into_string()
    }

    #[test]
    fn json_is_byte_identical_to_the_name_index_encoding() {
        assert_eq!(to_json(&awkward_names()), AWKWARD_NAMES_JSON);
    }

    #[test]
    fn json_decode_then_encode_is_byte_identical() {
        let value = serde::de::parse(AWKWARD_NAMES_JSON).unwrap();
        let decoded = CircuitGraph::deserialize_json(&value).unwrap();
        assert_eq!(to_json(&decoded), AWKWARD_NAMES_JSON);
        for id in decoded.node_ids() {
            assert_eq!(decoded.node_by_name(decoded.name(id)), Some(id));
        }
    }

    /// A layered circuit added in reverse topological order, so `build`
    /// reorders every node, with the node each component should become:
    /// drivers of distinct resistances, gates of every logic kind, wires of
    /// distinct lengths, an accumulated and a defaulted output load, and
    /// size-bound overrides (one set twice).
    fn reversed_layers() -> (CircuitGraph, Vec<(NodeId, Node)>) {
        const WIDTH: usize = 5;
        const DEPTH: usize = 3;
        let tech = Technology::dac99();
        let mut b = CircuitBuilder::new(tech);
        let mut expected = Vec::new();
        let wire = |b: &mut CircuitBuilder, name: String, length: f64| {
            let w = b.add_wire(&name, length).unwrap();
            let attrs = NodeAttrs::wire(&tech, length);
            (w, attrs)
        };
        let mut layers = Vec::new();
        for level in (0..DEPTH).rev() {
            let mut row = Vec::new();
            for i in 0..WIDTH {
                let (w, w_attrs) = wire(
                    &mut b,
                    format!("w{level}_{i}"),
                    20.0 + (level * WIDTH + i) as f64,
                );
                let kind = GateKind::ALL[(level * WIDTH + i) % GateKind::ALL.len()];
                let g = b.add_gate(&format!("g{level}_{i}"), kind).unwrap();
                expected.push((
                    w,
                    Node {
                        kind: NodeKind::Wire,
                        attrs: w_attrs,
                    },
                ));
                expected.push((
                    g,
                    Node {
                        kind: NodeKind::Gate(kind),
                        attrs: NodeAttrs::gate(&tech),
                    },
                ));
                row.push((g, w));
            }
            layers.push(row);
        }
        layers.reverse();
        let mut frontier = Vec::new();
        for i in 0..WIDTH {
            let (w, w_attrs) = wire(&mut b, format!("in{i}"), 50.0 + i as f64);
            let rd = 80.0 + 5.0 * i as f64;
            let d = b.add_driver(&format!("d{i}"), rd).unwrap();
            expected.push((
                w,
                Node {
                    kind: NodeKind::Wire,
                    attrs: w_attrs,
                },
            ));
            expected.push((
                d,
                Node {
                    kind: NodeKind::Driver,
                    attrs: NodeAttrs::driver(rd),
                },
            ));
            b.connect(d, w).unwrap();
            frontier.push(w);
        }
        for row in &layers {
            for (i, &(g, w)) in row.iter().enumerate() {
                b.connect(frontier[i], g).unwrap();
                b.connect(frontier[(i + 1) % WIDTH], g).unwrap();
                b.connect(g, w).unwrap();
            }
            frontier = row.iter().map(|&(_, w)| w).collect();
        }
        let mut set = |handle, edit: &dyn Fn(&mut NodeAttrs)| {
            let (_, node) = expected.iter_mut().find(|(h, _)| *h == handle).unwrap();
            edit(&mut node.attrs);
        };
        for (i, &w) in frontier.iter().enumerate() {
            b.connect_output(w, 2.0 * i as f64).unwrap();
            let load = if i == 0 {
                tech.default_output_load
            } else {
                2.0 * i as f64
            };
            set(w, &|a| a.output_load = load);
        }
        b.connect_output(frontier[1], 3.0).unwrap();
        set(frontier[1], &|a| a.output_load = 2.0 + 3.0);
        let (g, w) = (layers[0][0].0, layers[1][1].1);
        b.set_size_bounds(g, 0.5, 2.0).unwrap();
        set(g, &|a| (a.lower_bound, a.upper_bound) = (0.5, 2.0));
        b.set_size_bounds(w, 0.2, 3.0).unwrap();
        b.set_size_bounds(w, 0.4, 4.0).unwrap();
        set(w, &|a| (a.lower_bound, a.upper_bound) = (0.4, 4.0));
        let (graph, ids) = b.build_mapped().unwrap();
        let expected = expected
            .into_iter()
            .map(|(handle, node)| (ids[handle.index()], node))
            .collect();
        (graph, expected)
    }

    #[test]
    fn nodes_reassemble_as_built_and_the_json_round_trips() {
        let (c, expected) = reversed_layers();
        assert_eq!(expected.len() + 2, c.num_nodes());
        for &(id, node) in &expected {
            assert_eq!(c.node(id), node, "{}", c.name(id));
        }
        for (id, kind) in [(c.source(), NodeKind::Source), (c.sink(), NodeKind::Sink)] {
            let attrs = NodeAttrs::artificial();
            assert_eq!(c.node(id), Node { kind, attrs });
        }
        // The load list holds the sink's drivers only, the accumulated
        // load of the driver given two `connect_output` calls included.
        let listed: Vec<NodeId> = c.nodes.output_loads.iter().map(|&(id, _)| id).collect();
        assert_eq!(listed, c.primary_output_drivers());
        let json = to_json(&c);
        let decoded = CircuitGraph::deserialize_json(&serde::de::parse(&json).unwrap()).unwrap();
        assert_eq!(to_json(&decoded), json);
        for id in c.node_ids() {
            assert_eq!(decoded.node(id), c.node(id));
        }

        // `awkward_names()` reassembles the nodes its pinned JSON holds.
        let c = awkward_names();
        let value = serde::de::parse(AWKWARD_NAMES_JSON).unwrap();
        let items = value.get("nodes").and_then(Value::as_array).unwrap();
        assert_eq!(items.len(), c.num_nodes());
        for (id, item) in c.node_ids().zip(items) {
            assert_eq!(c.node(id), Node::deserialize_json(item).unwrap());
        }
    }

    /// Loads the builder never writes still decode, reassemble and round
    /// trip byte-identically: one on a node that does not drive the sink,
    /// and a `-0.0`, which is not bit-zero and so is kept in the load list.
    #[test]
    fn loads_off_the_outputs_and_negative_zero_round_trip() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        let (mut nodes, names, fanin, fanout) = parts(&c);
        nodes[2].attrs.output_load = 7.5;
        nodes[3].attrs.output_load = -0.0;
        let graph = CircuitGraph::from_serialized_parts(
            nodes.clone(),
            &names,
            fanin,
            fanout,
            *c.technology(),
            c.num_drivers(),
            c.num_components(),
        )
        .unwrap();
        assert!(!graph.drives_primary_output(NodeId::new(2)));
        assert_eq!(graph.nodes.output_loads.len(), 3, "7.5, -0.0 and w2's 5.0");
        let json = to_json(&graph);
        assert!(json.contains(r#""output_load":7.5"#), "{json}");
        assert!(json.contains(r#""output_load":-0.0"#), "{json}");
        let decoded = CircuitGraph::deserialize_json(&serde::de::parse(&json).unwrap()).unwrap();
        assert_eq!(to_json(&decoded), json);
        for g in [&graph, &decoded] {
            for (id, node) in g.node_ids().zip(&nodes) {
                let load = node.attrs.output_load;
                assert_eq!(g.node(id), *node, "{}", g.name(id));
                assert_eq!(g.node(id).attrs.output_load.to_bits(), load.to_bits());
                assert_eq!(g.output_load(id).to_bits(), load.to_bits());
            }
        }
    }

    #[test]
    fn primary_outputs_and_memory() {
        let c = tiny();
        let pos = c.primary_output_drivers();
        assert_eq!(pos.len(), 1);
        assert!(c.drives_primary_output(pos[0]));
        assert!(c.memory_bytes() > 0);
        assert!(c.num_edges() >= 5);
    }
}
