//! The circuit graph `H = (V, E)`.

use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize, Serializer};

use crate::error::CircuitError;
use crate::id::NodeId;
use crate::names::{first_repeat, NameTable};
use crate::node::{KindRc, Node, NodeKind, NodeRc, GATE_PARAM};
use crate::sizing::SizeVector;
use crate::tech::Technology;
use std::ops::Range;

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

    /// The reverse direction: node `u` lists every `v` whose list holds
    /// `u`, in increasing `v`, so the lists come out sorted. The degrees are
    /// counted from these lists alone, straight into the offsets.
    pub(crate) fn transposed(&self) -> Adjacency {
        let nodes = self.offsets.len() - 1;
        // `offsets[u + 1]` counts `u`'s entries, and the running sum makes
        // `offsets[u]` the first slot of `u`'s list.
        let mut offsets = vec![0u32; nodes + 1];
        for &u in &self.targets {
            offsets[u.index() + 1] += 1;
        }
        for u in 1..=nodes {
            offsets[u] += offsets[u - 1];
        }
        let mut fill = AdjacencyFill {
            adjacency: Adjacency {
                offsets,
                targets: vec![NodeId::new(0); self.targets.len()],
            },
        };
        for v in 0..nodes {
            for &u in self.list(v) {
                fill.push(u.index(), NodeId::new(v));
            }
        }
        fill.finish()
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
///
/// While filling, `offsets[i]` is the next free slot of list `i` (it
/// starts at the list's first slot and ends at its last plus one, the
/// first slot of list `i + 1`); [`finish`](Self::finish) shifts the
/// offsets up by one place to make them the lists' starts again.
pub(crate) struct AdjacencyFill {
    adjacency: Adjacency,
}

impl AdjacencyFill {
    /// Reserves the lists of nodes `0..degrees.len()`. The offsets are
    /// sized from the iterator's lower size bound, so an iterator that
    /// knows its length gives them no spare capacity.
    ///
    /// # Errors
    ///
    /// [`CircuitError::TooLarge`] when the degrees sum past `u32::MAX`.
    pub(crate) fn new(degrees: impl IntoIterator<Item = usize>) -> Result<Self, CircuitError> {
        let degrees = degrees.into_iter();
        let mut offsets = Vec::with_capacity(degrees.size_hint().0 + 1);
        let mut end = 0;
        for degree in degrees {
            offsets.push(edge_offset(end)?);
            end += degree;
        }
        offsets.push(edge_offset(end)?);
        Ok(AdjacencyFill {
            adjacency: Adjacency {
                offsets,
                targets: vec![NodeId::new(0); end],
            },
        })
    }

    /// Appends `target` to the list of node `i`.
    pub(crate) fn push(&mut self, i: usize, target: NodeId) {
        let next = &mut self.adjacency.offsets[i];
        self.adjacency.targets[*next as usize] = target;
        *next += 1;
    }

    /// The lists, each holding exactly its reserved degree.
    pub(crate) fn finish(mut self) -> Adjacency {
        let offsets = &mut self.adjacency.offsets;
        let nodes = offsets.len() - 1;
        // Filled lists end in order, the last one at the total.
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1])
                && (nodes == 0 || offsets[nodes - 1] == offsets[nodes]),
            "the filled lists must tile the targets"
        );
        offsets.copy_within(..nodes, 1);
        offsets[0] = 0;
        self.adjacency
    }
}

/// The nodes of a graph as columns: entry `i` of every column belongs to
/// node `i`. A node is stored as its kind and one parameter, 9 bytes: the
/// parameter is a wire's length, a driver's `R_D`, one for a gate (the
/// multiplier of the technology's gate constants) and zero for the source
/// and sink. Its RC attributes `r̂` (or `R_D`), `ĉ`, `f` and `α` are not
/// stored: the parameter times the technology's coefficients for the
/// node's kind (`per_kind`) gives them, the expressions
/// `NodeAttrs::{gate, wire}` use, unless `rc_overrides` holds the node.
/// That sorted `(node, attributes)` list holds exactly the decoded nodes
/// whose attributes no parameter reproduces bit for bit; a builder-made
/// graph holds none.
///
/// The primary-output loads are sparse: only the few nodes that drive the
/// sink carry one, so `output_loads` holds `(node, load)` pairs, sorted by
/// node, for exactly the nodes whose load is not bit-zero (`-0.0` is
/// kept). A load on a node that does not drive the sink, which a decoded
/// graph may carry, is kept the same way.
///
/// The size bounds are sparse the same way. A node's bounds default to
/// its kind's: the technology's `[min_size, max_size]` for gates and wires
/// (`sizable_bounds`) and `[0, 0]` for every other kind. `bound_overrides`
/// holds `(node, lower, upper)`, sorted by node, for exactly the nodes
/// whose bounds differ bit for bit from that default.
#[derive(Debug, Clone)]
pub(crate) struct NodeColumns {
    pub(crate) kind: Vec<NodeKind>,
    param: Vec<f64>,
    /// The technology's coefficients every parameter multiplies.
    per_kind: KindRc,
    rc_overrides: Vec<(NodeId, NodeRc)>,
    output_loads: Vec<(NodeId, f64)>,
    sizable_bounds: (f64, f64),
    bound_overrides: Vec<(NodeId, f64, f64)>,
}

/// The default size bounds of a node of `kind`: `sizable`, the
/// technology's range, for gates and wires and `(0, 0)` for the others.
fn default_bounds(kind: NodeKind, sizable: (f64, f64)) -> (f64, f64) {
    if kind.is_sizable() {
        sizable
    } else {
        (0.0, 0.0)
    }
}

/// `true` when `bounds` of a node of `kind` differ bit for bit from the
/// kind's default, gates and wires defaulting to `sizable`: exactly the
/// bounds a graph keeps as an override.
pub(crate) fn overrides_default(kind: NodeKind, bounds: (f64, f64), sizable: (f64, f64)) -> bool {
    let default = default_bounds(kind, sizable);
    bounds.0.to_bits() != default.0.to_bits() || bounds.1.to_bits() != default.1.to_bits()
}

/// The entry of raw node `i` in a list sorted by node, `node` reading an
/// entry's node, or `None`: no search when the list is empty, one binary
/// search otherwise. The search is kept out of line, so a kernel that
/// derives attributes per node carries only the emptiness test.
#[inline(always)]
fn find_override<T>(overrides: &[T], i: usize, node: impl Fn(&T) -> NodeId) -> Option<&T> {
    if overrides.is_empty() {
        return None;
    }
    search_override(overrides, i, node)
}

/// The binary search of [`find_override`].
#[cold]
#[inline(never)]
fn search_override<T>(overrides: &[T], i: usize, node: impl Fn(&T) -> NodeId) -> Option<&T> {
    overrides
        .binary_search_by_key(&i, |entry| node(entry).index())
        .ok()
        .map(|at| &overrides[at])
}

/// The parameter a node of `kind` with the kept attributes `rc` is stored
/// under, and `rc` itself when that parameter does not reproduce it bit
/// for bit under `tech`.
///
/// A driver's parameter is its resistance, a gate's one, and the source's
/// and the sink's zero. A wire's is its length, which the builder multiplied
/// into every attribute: the quotient `α / wire_area_coefficient` or a
/// value within 2 ulps of it, the first whose four products are `rc`.
fn stored_as(kind: NodeKind, rc: NodeRc, tech: &Technology) -> (f64, Option<NodeRc>) {
    let param = match kind {
        NodeKind::Driver => rc.resistance,
        NodeKind::Wire => {
            let quotient = rc.area_coefficient / tech.wire_area_coefficient;
            let (up, down) = (quotient.next_up(), quotient.next_down());
            let lengths = [quotient, up, down, up.next_up(), down.next_down()];
            match lengths
                .into_iter()
                .find(|&length| NodeRc::of(kind, length, tech).same_bits(&rc))
            {
                Some(length) => return (length, None),
                None => quotient,
            }
        }
        NodeKind::Gate(_) => GATE_PARAM,
        NodeKind::Source | NodeKind::Sink => 0.0,
    };
    let derived = NodeRc::of(kind, param, tech);
    (param, (!derived.same_bits(&rc)).then_some(rc))
}

impl NodeColumns {
    /// Empty columns with room for `n` nodes, `loads` of them with an
    /// output load, `overrides` with bounds other than their kind's
    /// default, whose gates and wires default to `tech`'s size range, and
    /// `rc_overrides` with attributes no parameter reproduces.
    pub(crate) fn with_capacity(
        n: usize,
        loads: usize,
        overrides: usize,
        rc_overrides: usize,
        tech: &Technology,
    ) -> Self {
        NodeColumns {
            kind: Vec::with_capacity(n),
            param: Vec::with_capacity(n),
            per_kind: KindRc::new(tech),
            rc_overrides: Vec::with_capacity(rc_overrides),
            output_loads: Vec::with_capacity(loads),
            sizable_bounds: (tech.min_size, tech.max_size),
            bound_overrides: Vec::with_capacity(overrides),
        }
    }

    /// Appends a node of `kind` stored under `param`, with the attributes
    /// `rc` when its parameter does not reproduce them, the size bounds
    /// `bounds` (kept only when they are not its kind's default) and the
    /// output load `load` (kept unless bit-zero).
    pub(crate) fn push(
        &mut self,
        kind: NodeKind,
        param: f64,
        rc: Option<NodeRc>,
        bounds: (f64, f64),
        load: f64,
    ) {
        let id = NodeId::new(self.kind.len());
        if let Some(rc) = rc {
            self.rc_overrides.push((id, rc));
        }
        if load.to_bits() != 0 {
            self.output_loads.push((id, load));
        }
        if overrides_default(kind, bounds, self.sizable_bounds) {
            self.bound_overrides.push((id, bounds.0, bounds.1));
        }
        self.kind.push(kind);
        self.param.push(param);
    }

    /// The output load of node `i`: one binary search of the load list.
    fn output_load(&self, i: usize) -> f64 {
        self.output_loads
            .binary_search_by_key(&i, |&(id, _)| id.index())
            .map_or(0.0, |at| self.output_loads[at].1)
    }

    /// The size bounds `(L, U)` of node `i`: its override, or its kind's
    /// default.
    fn size_bounds(&self, i: usize) -> (f64, f64) {
        find_override(&self.bound_overrides, i, |&(id, _, _)| id)
            .map(|&(_, lower, upper)| (lower, upper))
            .unwrap_or_else(|| default_bounds(self.kind[i], self.sizable_bounds))
    }

    /// The attributes of the nodes.
    fn attributes(&self) -> Attributes<'_> {
        Attributes {
            kind: &self.kind,
            param: &self.param,
            overrides: &self.rc_overrides,
            per_kind: &self.per_kind,
        }
    }

    /// Node `i`, reassembled, with `output_load` as its load.
    fn get(&self, i: usize, output_load: f64) -> Node {
        let kind = self.kind[i];
        let rc = self.attributes().get(i);
        Node {
            kind,
            attrs: rc.into_attrs(kind, self.size_bounds(i), output_load),
        }
    }

    fn len(&self) -> usize {
        self.kind.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.kind.capacity() * size_of::<NodeKind>()
            + self.param.capacity() * size_of::<f64>()
            + self.rc_overrides.capacity() * size_of::<(NodeId, NodeRc)>()
            + self.output_loads.capacity() * size_of::<(NodeId, f64)>()
            + self.bound_overrides.capacity() * size_of::<(NodeId, f64, f64)>()
    }
}

/// The RC attributes of a graph's nodes, indexed by raw node index,
/// borrowed from the graph by [`CircuitGraph::attributes`].
///
/// The graph stores no attribute per node: a node's attributes are
/// derived from its kind, its parameter (a wire's length, a driver's
/// `R_D`) and the technology, unless the graph holds an override for it,
/// which only a decoded node whose attributes no parameter reproduces has.
/// So [`get`](Self::get) costs no search when the graph has no override
/// (every builder-made one), and one binary search of the overrides when it
/// does.
#[derive(Debug, Clone, Copy)]
pub struct Attributes<'a> {
    /// The graph's kind column.
    pub(crate) kind: &'a [NodeKind],
    /// The graph's parameter column.
    param: &'a [f64],
    /// The graph's attribute overrides, sorted by node.
    overrides: &'a [(NodeId, NodeRc)],
    /// The graph's coefficients every parameter multiplies.
    per_kind: &'a KindRc,
}

impl<'a> Attributes<'a> {
    /// Number of nodes whose attributes are kept as given rather than
    /// derived: zero for every builder-made graph.
    pub fn num_overrides(&self) -> usize {
        self.overrides.len()
    }

    /// The parameter of every node: a wire's length, a driver's `R_D`, one
    /// for a gate and zero for the source and sink. A loop that has read a
    /// wire's length derives its attributes with [`wire`](Self::wire).
    pub fn params(&self) -> &'a [f64] {
        self.param
    }

    /// The attributes of raw node `i` of `kind` with parameter `param`:
    /// its override, or the technology's coefficients for `kind` times
    /// `param`.
    #[inline(always)]
    pub(crate) fn derive(&self, kind: NodeKind, i: usize, param: f64) -> NodeRc {
        self.overridden(i)
            .unwrap_or_else(|| self.per_kind.of(kind, param))
    }

    /// The attributes of raw node `i`, a gate: its override, or the
    /// technology's gate constants, the same bits [`get`](Self::get) gives,
    /// without reading the gate's parameter.
    #[inline(always)]
    pub fn gate(&self, i: usize) -> NodeRc {
        self.overridden(i).unwrap_or(self.per_kind.gate())
    }

    /// The attributes of raw node `i`, a wire of length `length`: its
    /// override, or the technology's per-µm constants times `length`.
    #[inline(always)]
    pub fn wire(&self, i: usize, length: f64) -> NodeRc {
        self.overridden(i)
            .unwrap_or_else(|| self.per_kind.wire(length))
    }

    /// The technology's `r̂` of a gate and of a wire per µm, in that
    /// order, when no node of the graph has an override (every
    /// builder-made graph). A gate's `r̂` is then the first and a wire's
    /// the second times its length, the same bits [`get`](Self::get)
    /// gives, so a loop over many nodes derives them with no override
    /// test per node.
    pub(crate) fn uniform_resistances(&self) -> Option<[f64; 2]> {
        let (gate, wire) = (self.per_kind.gate(), self.per_kind.wire(1.0));
        self.overrides
            .is_empty()
            .then_some([gate.resistance, wire.resistance])
    }

    /// The override of raw node `i`, if the graph holds one.
    #[inline(always)]
    fn overridden(&self, i: usize) -> Option<NodeRc> {
        find_override(self.overrides, i, |&(id, _)| id).map(|&(_, rc)| rc)
    }

    /// The attributes of the raw nodes `nodes`, in order: one pass over
    /// the kind and parameter columns, merged with the overrides, and no
    /// search.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not within the graph's nodes.
    pub fn range(&self, nodes: Range<usize>) -> impl Iterator<Item = NodeRc> + 'a {
        let first = nodes.start;
        let skipped = self
            .overrides
            .partition_point(|&(id, _)| id.index() < first);
        let mut overrides = self.overrides[skipped..].iter().peekable();
        let per_kind = self.per_kind;
        let columns = self.kind[nodes.clone()].iter().zip(&self.param[nodes]);
        columns.enumerate().map(move |(k, (&kind, &param))| {
            match overrides.next_if(|&&(id, _)| id.index() == first + k) {
                Some(&(_, rc)) => rc,
                None => per_kind.of(kind, param),
            }
        })
    }

    /// The attributes of raw node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a node of the graph.
    #[inline(always)]
    pub fn get(&self, i: usize) -> NodeRc {
        self.derive(self.kind[i], i, self.param[i])
    }
}

/// The size bounds `[L_i, U_i]` of a graph's components, indexed by dense
/// component index (`0..n`), borrowed from the graph by
/// [`CircuitGraph::component_bounds`].
///
/// The graph stores no bound per component: every component's bounds are
/// the technology's `[min_size, max_size]` unless the graph holds an
/// override for it. So [`get`](Self::get) costs no search when the
/// circuit has no component override (every generated one), and one
/// binary search of the overrides when it does.
#[derive(Debug, Clone, Copy)]
pub struct SizeBounds<'a> {
    default: (f64, f64),
    /// The graph's overrides on components, sorted by raw node index.
    overrides: &'a [(NodeId, f64, f64)],
    /// The raw node index of component `0`.
    first: usize,
    len: usize,
}

impl SizeBounds<'_> {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a circuit without components.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of components whose bounds are not the technology's range.
    pub fn num_overrides(&self) -> usize {
        self.overrides.len()
    }

    /// The components' overrides `(node, lower, upper)`, sorted by node.
    pub(crate) fn overrides(&self) -> &[(NodeId, f64, f64)] {
        self.overrides
    }

    /// The bounds `(L_i, U_i)` of component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a node of the graph.
    #[inline(always)]
    pub fn get(&self, i: usize) -> (f64, f64) {
        assert!(i < self.len, "component {i} out of range");
        find_override(self.overrides, self.first + i, |&(id, _, _)| id)
            .map_or(self.default, |&(_, lower, upper)| (lower, upper))
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
/// row form and are sorted by node index. The nodes are stored as two
/// columns, 9 bytes a node: the [`kinds`](Self::kinds) and one 8-byte
/// parameter (a wire's length, a driver's `R_D`). The RC attributes `r̂`,
/// `ĉ`, `f` and `α` are derived from them and the technology on read, by
/// the expressions [`NodeAttrs::gate`](crate::NodeAttrs::gate) and
/// [`NodeAttrs::wire`](crate::NodeAttrs::wire) use, so each
/// is stored once, in the technology, and read through the
/// [`attributes`](Self::attributes) view, which the evaluation engine
/// borrows; only a decoded node whose attributes no parameter reproduces
/// bit for bit keeps its own, in a sparse override list.
/// [`node`](Self::node) reassembles one [`Node`] from them. The
/// primary-output loads are sparse: only the sink's drivers carry
/// one, so they are kept as `(node, load)` pairs sorted by node for
/// the nodes whose load is not bit-zero, and read with
/// [`output_load`](Self::output_load) by binary search. The size bounds are
/// sparse too: a node's bounds are its kind's default (the technology's
/// `[min_size, max_size]` for gates and wires, `[0, 0]` otherwise) unless
/// the graph holds a `(node, lower, upper)` override for it, which it does
/// only for bounds that differ from the default bit for bit; read them with
/// [`size_bounds`](Self::size_bounds) or, per component,
/// [`component_bounds`](Self::component_bounds). Every
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
    /// edge endpoints, mirrored fanin/fanout lists, unique node names, the
    /// structural invariants and attribute ranges of
    /// [`validate`](crate::validate::validate), and last that no node
    /// carries an attribute its kind does not have. Size bounds equal to
    /// their kind's default are not stored, and neither are RC attributes
    /// that a parameter reproduces bit for bit (a wire's are tried at
    /// lengths within 2 ulps of `α / wire_area_coefficient`); any others are
    /// kept as overrides, so the graph re-encodes byte for byte.
    /// `names[i]` is the name of node `i`; the names are copied into one
    /// table, and the nodes into the graph's columns.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CircuitError`]: a
    /// physical attribute out of its range (a negative unit resistance, say)
    /// is [`CircuitError::InvalidParameter`] naming it, and an attribute of
    /// another kind (a driver's `unit_resistance`, a gate's or
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
        let sizable = (tech.min_size, tech.max_size);
        let overrides = nodes
            .iter()
            .filter(|node| {
                let bounds = (node.attrs.lower_bound, node.attrs.upper_bound);
                overrides_default(node.kind, bounds, sizable)
            })
            .count();
        let stored: Vec<(f64, Option<NodeRc>)> = nodes
            .iter()
            .map(|node| stored_as(node.kind, NodeRc::kept(node.kind, &node.attrs), &tech))
            .collect();
        let rc_overrides = stored.iter().filter(|(_, rc)| rc.is_some()).count();
        let mut columns = NodeColumns::with_capacity(n, loads, overrides, rc_overrides, &tech);
        let mut foreign = None;
        for (i, (node, (param, rc))) in nodes.into_iter().zip(stored).enumerate() {
            if foreign.is_none() {
                foreign = node.attribute_of_another_kind().map(|attribute| {
                    CircuitError::AttributeOfAnotherKind {
                        node: NodeId::new(i),
                        attribute,
                    }
                });
            }
            let Node { kind, attrs } = node;
            let bounds = (attrs.lower_bound, attrs.upper_bound);
            columns.push(kind, param, rc, bounds, attrs.output_load);
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
    /// [`output_load`](Self::output_load)), and its size bounds one of the
    /// override list when the graph holds any; a loop over every node that
    /// needs neither reads the columns instead.
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

    /// The RC attributes of every node, by raw node index: `r̂` (or `R_D`),
    /// `ĉ`, `f` and `α`. The graph stores none of them per node, only each
    /// node's kind and parameter, so this view is a few words and derives
    /// a node's attributes on read, without a search when the graph holds
    /// no attribute override (no builder-made graph does).
    pub fn attributes(&self) -> Attributes<'_> {
        self.nodes.attributes()
    }

    /// The size bounds `(L, U)` of node `id`: the technology's
    /// `(min_size, max_size)` for a gate or wire and `(0, 0)` for any other
    /// node, unless the graph holds an override for it (see
    /// [`component_bounds`](Self::component_bounds)).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, as [`node`](Self::node) does.
    pub fn size_bounds(&self, id: NodeId) -> (f64, f64) {
        self.nodes.size_bounds(id.index())
    }

    /// The size bounds of the components, by dense component index. The
    /// graph keeps no bound per component, only the overrides that differ
    /// from the technology's `[min_size, max_size]`, so this view is a few
    /// words and reads a bound without a search when there are none.
    pub fn component_bounds(&self) -> SizeBounds<'_> {
        let components = self.component_range();
        let overrides = &self.nodes.bound_overrides;
        let start = overrides.partition_point(|&(id, _, _)| id.index() < components.start);
        let end = overrides.partition_point(|&(id, _, _)| id.index() < components.end);
        SizeBounds {
            default: self.nodes.sizable_bounds,
            overrides: &overrides[start..end],
            first: components.start,
            len: components.len(),
        }
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

    /// The graph's output loads `(node, load)`, sorted by node, for the
    /// nodes whose load is not bit-zero.
    pub(crate) fn output_load_list(&self) -> &[(NodeId, f64)] {
        &self.nodes.output_loads
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

    /// A [`SizeVector`] with every sizable component at the given size,
    /// clamped into its bounds.
    pub fn uniform_sizes(&self, size: f64) -> SizeVector {
        let bounds = self.component_bounds();
        (0..bounds.len())
            .map(|i| {
                let (lower, upper) = bounds.get(i);
                size.clamp(lower, upper)
            })
            .collect()
    }

    /// A [`SizeVector`] with every component at its lower bound (the LRS
    /// subroutine's starting point, step S1 of Figure 8).
    pub fn minimum_sizes(&self) -> SizeVector {
        let bounds = self.component_bounds();
        (0..bounds.len()).map(|i| bounds.get(i).0).collect()
    }

    /// A [`SizeVector`] with every component at its upper bound.
    pub fn maximum_sizes(&self) -> SizeVector {
        let bounds = self.component_bounds();
        (0..bounds.len()).map(|i| bounds.get(i).1).collect()
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
        let bounds = self.component_bounds();
        for (idx, &x) in sizes.iter().enumerate() {
            if !x.is_finite() || x <= 0.0 {
                return Err(CircuitError::InvalidParameter {
                    name: "size",
                    value: x,
                });
            }
            let (lower, upper) = bounds.get(idx);
            if x < lower - TOL || x > upper + TOL {
                return Err(CircuitError::InvalidBounds {
                    node: self.component_id(idx),
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
    /// structures, used by the Figure 10(a) reproduction: the kind and
    /// parameter columns with the attribute, load and size-bound override
    /// lists, the name string and
    /// its offsets, and the two compressed adjacency
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
    use crate::node::{GateKind, NodeAttrs};

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
    fn built_offsets_have_no_spare_capacity() {
        let c = tiny();
        for adjacency in [&c.fanin, &c.fanout] {
            assert_eq!(adjacency.offsets.len(), c.num_nodes() + 1);
            assert_eq!(adjacency.offsets.capacity(), adjacency.offsets.len());
        }
    }

    #[test]
    fn a_fill_keeps_each_lists_push_order() {
        let mut fill = AdjacencyFill::new([2, 0, 3, 1]).unwrap();
        for (i, target) in [(2, 5), (0, 1), (3, 0), (2, 4), (0, 7), (2, 6)] {
            fill.push(i, NodeId::new(target));
        }
        let lists = fill.finish();
        assert_eq!(lists.offsets(), [0, 2, 2, 5, 6]);
        assert_eq!(lists.offsets.capacity(), 5);
        let ids = |ids: &[usize]| ids.iter().map(|&i| NodeId::new(i)).collect::<Vec<_>>();
        for (i, expected) in [ids(&[1, 7]), ids(&[]), ids(&[5, 4, 6]), ids(&[0])]
            .iter()
            .enumerate()
        {
            assert_eq!(lists.list(i), expected);
        }
        let empty = AdjacencyFill::new([]).unwrap().finish();
        assert_eq!(empty.offsets(), [0]);
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
    fn serialized_parts_reject_physical_attributes_out_of_range() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        type Set = fn(&mut NodeAttrs, f64);
        let cases: [(usize, &str, Set, f64); 10] = [
            (3, "unit_resistance", |a, v| a.unit_resistance = v, -10.0),
            (2, "unit_resistance", |a, v| a.unit_resistance = v, 0.0),
            (3, "unit_capacitance", |a, v| a.unit_capacitance = v, -0.16),
            (
                4,
                "unit_capacitance",
                |a, v| a.unit_capacitance = v,
                f64::INFINITY,
            ),
            (3, "area_coefficient", |a, v| a.area_coefficient = v, -4.0),
            (2, "area_coefficient", |a, v| a.area_coefficient = v, 0.0),
            (
                2,
                "fringing_capacitance",
                |a, v| a.fringing_capacitance = v,
                -0.4,
            ),
            (
                1,
                "driver_resistance",
                |a, v| a.driver_resistance = v,
                -100.0,
            ),
            (4, "output_load", |a, v| a.output_load = v, -5.0),
            (3, "output_load", |a, v| a.output_load = v, f64::NAN),
        ];
        for (idx, name, set, value) in cases {
            let (mut nodes, names, fanin, fanout) = parts(&c);
            set(&mut nodes[idx].attrs, value);
            let err = reassemble(&c, (nodes, names, fanin, fanout)).unwrap_err();
            assert!(
                matches!(err, CircuitError::InvalidParameter { name: n, value: v }
                    if n == name && v.to_bits() == value.to_bits()),
                "node {idx} with {name} {value}: {err:?}"
            );
        }
        // Zero is in range where the attribute may be zero, `-0.0` too.
        for (idx, set) in [
            (2, (|a, v| a.fringing_capacitance = v) as Set),
            (3, |a, v| a.output_load = v),
        ] {
            for value in [0.0, -0.0] {
                let (mut nodes, names, fanin, fanout) = parts(&c);
                set(&mut nodes[idx].attrs, value);
                reassemble(&c, (nodes, names, fanin, fanout)).unwrap();
            }
        }
        // A component's override is checked like the builder's arguments.
        let (mut nodes, names, fanin, fanout) = parts(&c);
        (nodes[3].attrs.lower_bound, nodes[3].attrs.upper_bound) = (2.0, 1.0);
        assert_eq!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::InvalidBounds {
                node: NodeId::new(3),
                lower: 2.0,
                upper: 1.0
            })
        );
        let (mut nodes, names, fanin, fanout) = parts(&c);
        nodes[2].attrs.lower_bound = -1.0;
        assert!(matches!(
            reassemble(&c, (nodes, names, fanin, fanout)),
            Err(CircuitError::InvalidParameter {
                name: "lower_bound",
                ..
            })
        ));
    }

    #[test]
    fn bound_overrides_keep_the_last_call_and_drop_defaults() {
        // d -> w1 -> g1 -> w2 -> output and g1 -> w3 -> output.
        let tech = Technology::dac99();
        let mut b = CircuitBuilder::new(tech);
        let d = b.add_driver("in", 100.0).unwrap();
        let w1 = b.add_wire("w1", 40.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 60.0).unwrap();
        let w3 = b.add_wire("w3", 30.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        // g1: the second call wins. w1: equal to the default, not stored.
        // w2: overridden, then set back to the default. w3: once.
        b.set_size_bounds(g1, 0.2, 3.0).unwrap();
        b.set_size_bounds(w1, tech.min_size, tech.max_size).unwrap();
        b.set_size_bounds(w2, 0.3, 4.0).unwrap();
        b.set_size_bounds(g1, 0.5, 2.0).unwrap();
        b.set_size_bounds(w3, 0.25, 0.75).unwrap();
        b.set_size_bounds(w2, tech.min_size, tech.max_size).unwrap();
        let (c, ids) = b.build_mapped().unwrap();
        let (g1, w3) = (ids[g1.index()], ids[w3.index()]);
        let stored: Vec<_> = c.nodes.bound_overrides.clone();
        let mut expected = vec![(g1, 0.5, 2.0), (w3, 0.25, 0.75)];
        expected.sort_by_key(|&(id, _, _)| id);
        assert_eq!(stored, expected);
        assert_eq!(c.component_bounds().num_overrides(), 2);

        // Every reader agrees with a dense table built from `node(i)`.
        let dense: Vec<(f64, f64)> = c
            .component_ids()
            .map(|id| (c.node(id).attrs.lower_bound, c.node(id).attrs.upper_bound))
            .collect();
        let bounds = c.component_bounds();
        for (i, id) in c.component_ids().enumerate() {
            assert_eq!(bounds.get(i), dense[i]);
            assert_eq!(c.size_bounds(id), dense[i]);
        }
        for id in [c.source(), NodeId::new(1), c.sink()] {
            assert_eq!(c.size_bounds(id), (0.0, 0.0));
            let attrs = c.node(id).attrs;
            assert_eq!((attrs.lower_bound, attrs.upper_bound), (0.0, 0.0));
        }
        let lower: Vec<f64> = dense.iter().map(|b| b.0).collect();
        let upper: Vec<f64> = dense.iter().map(|b| b.1).collect();
        assert_eq!(c.minimum_sizes().as_slice(), lower);
        assert_eq!(c.maximum_sizes().as_slice(), upper);
        for size in [0.05_f64, 0.3, 1.0, 2.5, 50.0] {
            let clamped: Vec<f64> = dense.iter().map(|b| size.clamp(b.0, b.1)).collect();
            assert_eq!(c.uniform_sizes(size).as_slice(), clamped);
            assert!(c.check_sizes(&c.uniform_sizes(size)).is_ok());
        }
        let g1_dense = c.component_index(g1).unwrap();
        let mut sizes = c.uniform_sizes(1.0);
        sizes[g1_dense] = 2.5;
        assert_eq!(
            c.check_sizes(&sizes),
            Err(CircuitError::InvalidBounds {
                node: g1,
                lower: 0.5,
                upper: 2.0
            })
        );

        // The list is counted: 24 bytes an override, on top of the same
        // graph without them.
        let plain = tiny_pair();
        assert_eq!(c.memory_bytes() - plain.memory_bytes(), 2 * 24);
    }

    /// `bound_overrides_keep_the_last_call_and_drop_defaults`'s circuit
    /// without overrides.
    fn tiny_pair() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("in", 100.0).unwrap();
        let w1 = b.add_wire("w1", 40.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 60.0).unwrap();
        let w3 = b.add_wire("w3", 30.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        b.build().unwrap()
    }

    /// Bounds the builder never writes still decode, reassemble and round
    /// trip byte-identically: overrides on a gate and a wire, and a driver's
    /// `-0.0`, which is not bit-zero and so is kept as an override.
    #[test]
    fn bound_overrides_round_trip_byte_for_byte() {
        // tiny(): ~s(0) -> in(1) -> w1(2) -> g1(3) -> w2(4) -> ~t(5).
        let c = tiny();
        let (mut nodes, names, fanin, fanout) = parts(&c);
        (nodes[3].attrs.lower_bound, nodes[3].attrs.upper_bound) = (0.5, 2.0);
        nodes[2].attrs.upper_bound = 7.5;
        nodes[1].attrs.lower_bound = -0.0;
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
        assert_eq!(graph.nodes.bound_overrides.len(), 3);
        assert_eq!(graph.component_bounds().num_overrides(), 2);
        let json = to_json(&graph);
        assert!(json.contains(r#""lower_bound":-0.0"#), "{json}");
        assert!(json.contains(r#""upper_bound":7.5"#), "{json}");
        let decoded = CircuitGraph::deserialize_json(&serde::de::parse(&json).unwrap()).unwrap();
        assert_eq!(to_json(&decoded), json);
        for g in [&graph, &decoded] {
            for (id, node) in g.node_ids().zip(&nodes) {
                assert_eq!(g.node(id), *node, "{}", g.name(id));
                let (lower, upper) = g.size_bounds(id);
                assert_eq!(lower.to_bits(), node.attrs.lower_bound.to_bits());
                assert_eq!(upper.to_bits(), node.attrs.upper_bound.to_bits());
            }
        }
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
        assert!(!graph.fanout(NodeId::new(2)).contains(&graph.sink()));
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
        assert!(c.fanout(pos[0]).contains(&c.sink()));
        assert!(c.memory_bytes() > 0);
        assert!(c.num_edges() >= 5);
    }
}
