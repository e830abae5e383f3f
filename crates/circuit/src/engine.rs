//! The reusable evaluation engine: the Elmore delay model over dense
//! circuit state, plus a pre-sized scratch workspace.
//!
//! The sizing engine evaluates the same per-node quantities (downstream
//! capacitances, weighted upstream resistances, delays, arrival times)
//! thousands of times per optimization run. The original free-function
//! style ([`ElmoreAnalyzer`](crate::ElmoreAnalyzer)) walks the
//! [`CircuitGraph`] through its per-node accessors, gathering every
//! neighbour's kind and attributes by index, and allocates fresh result
//! vectors on every call, so the constant factor of the paper's
//! `O(V + E + P)` sweep is dominated by scattered loads and the allocator
//! rather than the arithmetic. This module is the replacement:
//!
//! * [`CircuitTopology`] — the paper's Elmore model (Section 2.1) over the
//!   graph's own CSR adjacency, kind and parameter columns (from which it
//!   derives each node's RC attributes as it visits the node) and sparse
//!   output loads, which it borrows, plus the one table it derives once per
//!   circuit: the cached topological **level partition** (see below). Its
//!   traversal kernels fill caller-provided slices with no allocation.
//! * [`EvalWorkspace`] — one bundle of dense scratch buffers, sized once per
//!   circuit and reused for every evaluation.
//!
//! All arithmetic is performed in exactly the same order as the
//! `ElmoreAnalyzer` reference path, so results are bitwise identical
//! between the two — pinned down by the unit tests below and the
//! `property_eval_engine` integration test at the workspace root.
//!
//! # The level partition invariant
//!
//! [`CircuitTopology`] cuts the raw node indices `0..n` into contiguous
//! *levels* with one forward scan at construction: a node that has a fanin
//! inside the current range starts the next range. The invariant every
//! kernel relies on:
//!
//! * the ranges cover `0..n` in order, and **no range contains an edge** —
//!   two nodes of one level share no fanin/fanout edge and never read or
//!   write each other's per-node state;
//! * every edge therefore points from a lower range to a higher one.
//!
//! This holds for every topological node order. For a level-sorted order —
//! which the builder's FIFO Kahn order is — the ranges are exactly the
//! longest-path levels (`level(i) = 1 + max level over fanin(i)`).
//!
//! Each pass has one kernel ([`CircuitTopology::downstream_caps_chunk`],
//! [`CircuitTopology::fused_upstream_chunk`], …) that processes one *block*
//! of nodes: a contiguous run of whole levels, or a sub-range of one level.
//! Forward kernels take the block's node range and visit it in ascending
//! index order, which settles every fanin first because the order is
//! topological. Backward kernels take the block's level boundaries and
//! visit the levels in reverse, nodes descending within a level, which
//! settles every fanout first: a backward block is one descending walk over
//! its nodes, so it reads the graph's sorted output loads with one cursor
//! that only moves down. Within a level the visit order changes nothing,
//! since two nodes of one level read none of each other's entries. Blocks
//! of one level may run in any order or concurrently. Every per-node
//! accumulation (fanout loads, fanin resistances, fanin arrival maxima)
//! runs over the node's own CSR list in list order, so the per-node results
//! are bitwise identical however the levels are cut into blocks.
//!
//! # The SoA layout invariant
//!
//! Every per-node electrical quantity lives in its own dense `f64` slab
//! indexed by raw node index — the parameter the RC attributes are derived
//! from in the graph's column; charged/presented capacitance, upstream
//! resistance, arrival and delays in [`EvalWorkspace`]. No per-node struct
//! interleaves two quantities, so a kernel that streams one quantity
//! touches contiguous memory.

use crate::graph::{Attributes, CircuitGraph};
use crate::id::NodeId;
use crate::node::{NodeKind, NodeRc};
use crate::sizing::SizeVector;
use std::ops::Range;

/// Resistance of a node of `kind` with attributes `rc` at size `x`,
/// exactly as `Node::resistance`.
#[inline(always)]
fn resistance_at(kind: NodeKind, rc: NodeRc, x: f64) -> f64 {
    match kind {
        NodeKind::Driver => rc.resistance,
        NodeKind::Gate(_) | NodeKind::Wire => {
            if x > 0.0 {
                rc.resistance / x
            } else {
                f64::INFINITY
            }
        }
        NodeKind::Source | NodeKind::Sink => 0.0,
    }
}

/// Capacitance of a node of `kind` with attributes `rc` at size `x`
/// (excluding coupling), exactly as `Node::capacitance`.
#[inline(always)]
fn capacitance_at(kind: NodeKind, rc: NodeRc, x: f64) -> f64 {
    match kind {
        NodeKind::Gate(_) => rc.unit_capacitance * x,
        NodeKind::Wire => rc.unit_capacitance * x + rc.fringing,
        _ => 0.0,
    }
}

/// Sentinel for "no predecessor" in dense predecessor arrays.
pub const NO_PRED: u32 = u32::MAX;

/// The nodes a backward kernel visits for the level bounds `bounds`:
/// those from the first bound to the last. The kernel visits the windows
/// `bounds[k]..bounds[k + 1]` in reverse and the nodes of each in
/// descending order, which for bounds that never decrease is one
/// descending walk over this range.
///
/// # Panics
///
/// Panics when the bounds decrease.
fn backward_span(bounds: &[u32]) -> Range<usize> {
    assert!(
        bounds.windows(2).all(|level| level[0] <= level[1]),
        "level bounds must not decrease"
    );
    match bounds {
        [first, .., last] => *first as usize..*last as usize,
        _ => 0..0,
    }
}

/// One block's view of a table that a level-ordered pass writes: the
/// entries the block owns, borrowed mutably, and the entries earlier steps
/// of the pass settled, borrowed shared.
///
/// A backward pass settles a table from its end and a forward pass from
/// its start, so a block's settled part is everything after (or before)
/// its step. The runner hands the blocks of one step disjoint
/// `split_at_mut` pieces of the table, so the borrow checker, not a
/// convention, keeps concurrent blocks from touching each other's
/// entries. A block that runs alone in its step may own the settled part
/// too, since nothing else touches the table meanwhile.
///
/// The traversal kernels check once per block that the view owns every
/// entry they write and holds every entry they read of other blocks, then
/// index it without further checks: the entries they write through the
/// owned side, those of other blocks through the side that holds them.
/// [`level`](Self::level) splits off one range's entries to write, with
/// the [`Settled`] entries on their far side to read.
#[derive(Debug)]
pub struct Tile<'a, T> {
    own: &'a mut [T],
    /// Table index of `own[0]`.
    own_start: usize,
    settled: &'a [T],
    /// Table index of `settled[0]`.
    settled_start: usize,
}

impl<'a, T> Tile<'a, T> {
    /// A view owning `own` (table entries from `own_start`) and reading
    /// `settled` (table entries from `settled_start`).
    pub fn new(own: &'a mut [T], own_start: usize, settled: &'a [T], settled_start: usize) -> Self {
        Tile {
            own,
            own_start,
            settled,
            settled_start,
        }
    }

    /// A view owning the whole table: one block covering the whole pass.
    pub fn whole(table: &'a mut [T]) -> Self {
        Tile::new(table, 0, &[], 0)
    }

    /// The unchecked access of a kernel that writes the table entries
    /// `writes` and reads the entries `reads`: from the owned side when it
    /// holds them (a block that owns the settled part), else from the
    /// settled side.
    ///
    /// # Panics
    ///
    /// Panics when the view does not own `writes` or hold `reads`.
    fn access(&mut self, writes: &Range<usize>, reads: &Range<usize>) -> Access<T> {
        let covers = |start: usize, len: usize, range: &Range<usize>| {
            range.is_empty() || (start <= range.start && range.end - start <= len)
        };
        assert!(
            covers(self.own_start, self.own.len(), writes),
            "the view must own every entry the block writes"
        );
        let write = self.own.as_mut_ptr().wrapping_sub(self.own_start);
        let read = if covers(self.own_start, self.own.len(), reads) {
            write.cast_const()
        } else {
            assert!(
                covers(self.settled_start, self.settled.len(), reads),
                "the view must hold every entry the block reads"
            );
            self.settled.as_ptr().wrapping_sub(self.settled_start)
        };
        Access { write, read }
    }

    /// Splits off the owned table entries `entries` for writing, with the
    /// entries on their settled side for reading: the owned entries after
    /// them, or the settled part when the view owns none there (everything
    /// after `entries` going `backward`, everything before going forward).
    ///
    /// # Panics
    ///
    /// Panics when the view does not own `entries`.
    #[inline]
    pub fn level(&mut self, entries: &Range<usize>, backward: bool) -> (&mut [T], Settled<'_, T>) {
        let lo = entries.start - self.own_start;
        let hi = entries.end - self.own_start;
        let settled = Settled {
            slice: self.settled,
            start: self.settled_start,
        };
        if backward {
            let (head, after) = self.own.split_at_mut(hi);
            let read = if after.is_empty() {
                settled
            } else {
                Settled {
                    slice: after,
                    start: entries.end,
                }
            };
            (&mut head[lo..], read)
        } else {
            let (before, rest) = self.own.split_at_mut(lo);
            let read = if before.is_empty() {
                settled
            } else {
                Settled {
                    slice: before,
                    start: self.own_start,
                }
            };
            (&mut rest[..hi - lo], read)
        }
    }
}

/// A kernel's unchecked access to one block's view: the table addresses of
/// the entries it writes and of the entries it reads, which
/// [`Tile::access`] has checked the view owns and holds.
#[derive(Clone, Copy)]
struct Access<T> {
    /// Address of table entry 0 on the owned side (possibly outside it).
    write: *mut T,
    /// Address of table entry 0 on the side holding the reads.
    read: *const T,
}

impl<T: Copy> Access<T> {
    /// Reads table entry `j`.
    ///
    /// # Safety
    ///
    /// `j` lies in the `reads` range the access was made for.
    #[inline(always)]
    unsafe fn get(self, j: usize) -> T {
        *self.read.wrapping_add(j)
    }

    /// Reads table entry `i` on the owned side: an entry the kernel
    /// writes, which may lie outside the `reads` range.
    ///
    /// # Safety
    ///
    /// `i` lies in the `writes` range the access was made for.
    #[inline(always)]
    unsafe fn own(self, i: usize) -> T {
        *self.write.wrapping_add(i)
    }

    /// Writes table entry `i`.
    ///
    /// # Safety
    ///
    /// `i` lies in the `writes` range the access was made for.
    #[inline(always)]
    unsafe fn set(self, i: usize, value: T) {
        *self.write.wrapping_add(i) = value;
    }
}

/// A backward walk's cursor into the graph's output loads, which are
/// sorted by node: the walk asks for the loads of nodes in descending
/// order, so the cursor only moves down and a whole block costs one binary
/// search plus one step per load it passes.
struct LoadCursor<'g> {
    /// The load list, cut after the last entry the walk can still ask for.
    loads: &'g [(NodeId, f64)],
}

impl<'g> LoadCursor<'g> {
    /// A cursor for a walk over nodes below `end`.
    fn new(loads: &'g [(NodeId, f64)], end: usize) -> Self {
        let cut = loads.partition_point(|&(id, _)| id.index() < end);
        LoadCursor {
            loads: &loads[..cut],
        }
    }

    /// The output load of node `idx` (zero when it has none). `idx` must
    /// not exceed any node asked for before.
    #[inline]
    fn load(&mut self, idx: usize) -> f64 {
        while let [rest @ .., (id, load)] = self.loads {
            if id.index() <= idx {
                return if id.index() == idx { *load } else { 0.0 };
            }
            self.loads = rest;
        }
        0.0
    }
}

/// The settled table entries a range reads (see [`Tile::level`]):
/// a shared slice and the table index of its first entry.
#[derive(Debug, Clone, Copy)]
pub struct Settled<'a, T> {
    slice: &'a [T],
    start: usize,
}

impl<'a, T: Copy> Settled<'a, T> {
    /// Reads table entry `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is not settled here.
    #[inline(always)]
    pub fn get(&self, j: usize) -> T {
        self.slice[j.wrapping_sub(self.start)]
    }
}

/// How a table a level-ordered pass writes is indexed: where a node
/// boundary falls in the table. The map is monotone, so consecutive node
/// ranges own consecutive table ranges.
#[derive(Debug, Clone, Copy)]
pub enum Space<'a> {
    /// One entry per node.
    Nodes,
    /// One entry per component, the `count` components being the nodes
    /// from `first` on. A node boundary outside them clamps to the nearer
    /// end, because a block may hold drivers, the source or the sink next
    /// to its components.
    Components {
        /// Node index of component 0.
        first: usize,
        /// Number of components.
        count: usize,
    },
    /// The fanin slots of a flat per-edge layout: node `i` owns
    /// `offsets[i]..offsets[i + 1]`.
    Slots(&'a [u32]),
}

impl Space<'_> {
    /// The table entries of the nodes `nodes`.
    #[inline]
    pub fn range(&self, nodes: &Range<usize>) -> Range<usize> {
        self.at(nodes.start)..self.at(nodes.end)
    }

    /// The table boundary of node boundary `node`.
    #[inline]
    pub fn at(&self, node: usize) -> usize {
        match *self {
            Space::Nodes => node,
            Space::Components { first, count } => node.clamp(first, first + count) - first,
            Space::Slots(offsets) => offsets[node] as usize,
        }
    }
}

/// One table split for one step of a level-ordered pass: the step's own
/// entries, handed out front to back as its blocks claim them, and the
/// entries earlier steps settled, which every block of the step may read.
#[derive(Debug)]
pub struct Tiles<'t, T> {
    /// The entries no block has claimed yet.
    rest: &'t mut [T],
    /// Table index of `rest[0]`.
    rest_start: usize,
    settled: &'t [T],
    settled_start: usize,
    space: Space<'t>,
    /// The step has one block, which is handed the settled entries along
    /// with its own.
    alone: bool,
}

impl<'t, T> Tiles<'t, T> {
    /// Splits `table` for a step over the nodes `nodes`, indexed as
    /// `space` says. Going `reverse` (a backward pass), the settled part
    /// is everything after the step; going forward it is everything
    /// before. A step whose block runs `alone` hands that block the settled
    /// part mutably too: nothing else touches the table during the step,
    /// and owning one contiguous piece lets the block read its own earlier
    /// levels and the settled part as one slice.
    ///
    /// # Panics
    ///
    /// Panics when the step's entries exceed `table`.
    pub fn new(
        table: &'t mut [T],
        space: Space<'t>,
        nodes: Range<usize>,
        reverse: bool,
        alone: bool,
    ) -> Self {
        let (lo, hi) = (space.at(nodes.start), space.at(nodes.end));
        let (rest, rest_start, settled, settled_start): (&mut [T], usize, &[T], usize) =
            match (alone, reverse) {
                (true, true) => (&mut table[lo..], lo, &[], 0),
                (true, false) => (&mut table[..hi], 0, &[], 0),
                (false, _) => {
                    let (before, rest) = table.split_at_mut(lo);
                    let (rest, after) = rest.split_at_mut(hi - lo);
                    if reverse {
                        (rest, lo, after, hi)
                    } else {
                        (rest, lo, before, 0)
                    }
                }
            };
        Tiles {
            rest,
            rest_start,
            settled,
            settled_start,
            space,
            alone,
        }
    }

    /// The view of the next block, which covers the nodes `nodes`.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` starts where the previous block ended, or
    /// where the step starts for its first block: the blocks must tile the
    /// step in order.
    pub fn next(&mut self, nodes: &Range<usize>) -> Tile<'t, T> {
        if self.alone {
            return Tile::new(std::mem::take(&mut self.rest), self.rest_start, &[], 0);
        }
        assert_eq!(
            self.space.at(nodes.start),
            self.rest_start,
            "blocks must tile the step in order"
        );
        let len = self.space.at(nodes.end) - self.rest_start;
        let (own, rest) = std::mem::take(&mut self.rest).split_at_mut(len);
        let tile = Tile::new(own, self.rest_start, self.settled, self.settled_start);
        self.rest = rest;
        self.rest_start += len;
        tile
    }
}

/// The Elmore view of a circuit the hot loops traverse: the graph's CSR
/// adjacency, kind and parameter columns and sparse output loads,
/// borrowed rather than copied, plus the one table derived from them
/// once: the level partition. Immutable once built. Component indices
/// are not stored anywhere: the dense component of node `idx` is
/// `idx - comp_base`.
///
/// A backward kernel reads one entry per fanout edge: the child's settled
/// `presented` load (a gate's `ĉ·x`, a wire's π-model load), or, for the
/// sink, the parent's output load, which a cursor over the sorted load
/// list yields in the kernel's descending visit order. Nothing per fanout
/// edge is stored. A forward kernel reads each fanin's kind and, for a
/// driver or wire, its parameter, and derives the fanin's `r̂` (or `R_D`)
/// from them beside its `weights`, `upstream` and size entries. Nothing
/// per fanin edge is stored either.
///
/// Its traversal kernels evaluate the Elmore delay model of the paper's
/// Section 2.1 (stage-bounded RC stages, wire π-model); see the crate-level
/// documentation for the modelling conventions.
///
/// # Examples
///
/// ```
/// use ncgws_circuit::{
///     CircuitBuilder, CircuitTopology, EvalWorkspace, Technology, Tile, TimingAnalysis,
/// };
///
/// let mut b = CircuitBuilder::new(Technology::dac99());
/// let d = b.add_driver("d", 100.0).unwrap();
/// let w = b.add_wire("w", 150.0).unwrap();
/// b.connect(d, w).unwrap();
/// b.connect_output(w, 5.0).unwrap();
/// let graph = b.build().unwrap();
///
/// let topo = CircuitTopology::new(&graph);
/// let mut ws = EvalWorkspace::new(&topo);
/// let sizes = graph.uniform_sizes(1.5);
/// let n = topo.num_nodes();
/// // Each kernel once over the whole level partition; no coupling load, so
/// // `ws.extra_cap` stays all-zero.
/// topo.downstream_caps_chunk(
///     topo.level_bounds(),
///     sizes.as_slice(),
///     &ws.extra_cap,
///     Tile::whole(&mut ws.charged),
///     Tile::whole(&mut ws.presented),
/// );
/// topo.delays_chunk(0..n, sizes.as_slice(), &ws.charged, Tile::whole(&mut ws.delays));
/// topo.arrivals_chunk(0..n, &ws.delays, Tile::whole(&mut ws.arrival));
/// let delay = topo.trace_critical_path(&ws.arrival, &mut ws.critical_path);
/// // Bitwise the allocate-per-call reference path.
/// let reference = TimingAnalysis::run(&graph, &sizes, None);
/// assert_eq!(delay, reference.critical_path_delay);
/// assert_eq!(ws.critical_path, reference.critical_path);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitTopology<'g> {
    num_components: usize,
    /// Raw node index of the artificial sink, recorded at build time so the
    /// critical-path walk needs no graph.
    sink: usize,
    /// Raw node index of the first component. The components are the
    /// nodes `comp_base..comp_base + num_components`, so the dense
    /// component index of node `idx` is `idx - comp_base`: a subtraction,
    /// not a table.
    comp_base: usize,
    /// The graph's [`attributes`](CircuitGraph::attributes) view: its kind
    /// and parameter columns, borrowed, from which a kernel derives a
    /// node's `r̂` (or `R_D`), `ĉ` and `f` as it visits the node.
    attrs: Attributes<'g>,
    /// The graph's `(node, load)` output loads, sorted by node (borrowed):
    /// the load a sink child puts on its parent.
    output_loads: &'g [(NodeId, f64)],
    /// The graph's fanout adjacency (borrowed): the fanout list of node
    /// `idx` is `fanout_list[fanout_start[idx]..fanout_start[idx + 1]]`.
    fanout_start: &'g [u32],
    fanout_list: &'g [NodeId],
    /// The graph's fanin adjacency (borrowed), in the same form.
    fanin_start: &'g [u32],
    fanin_list: &'g [NodeId],
    /// Cached level partition (see the module docs): the first raw node
    /// index of every level plus a trailing `n`, so level `l` is
    /// `level_start[l]..level_start[l + 1]`.
    level_start: Vec<u32>,
}

impl<'g> CircuitTopology<'g> {
    /// Builds the Elmore view of a circuit, borrowing its adjacency and RC
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` nodes (the level
    /// partition stores 32-bit node indices, the trailing node count
    /// included).
    pub fn new(graph: &'g CircuitGraph) -> Self {
        let n = graph.num_nodes();
        assert!(
            n <= u32::MAX as usize,
            "circuit too large for 32-bit level bounds"
        );
        let comp_base = graph.num_drivers() + 1;
        let attrs = graph.attributes();
        let (fanout, fanin) = (graph.fanout_csr(), graph.fanin_csr());

        // Level partition: one forward scan, a node with a fanin inside the
        // current range starts the next range (see the module docs).
        let mut level_start = vec![0u32];
        for idx in 0..n {
            let start = *level_start.last().expect("never empty") as usize;
            if fanin.list(idx).iter().any(|pred| pred.index() >= start) {
                level_start.push(idx as u32);
            }
        }
        level_start.push(n as u32);

        CircuitTopology {
            num_components: graph.num_components(),
            sink: graph.sink().index(),
            comp_base,
            attrs,
            output_loads: graph.output_load_list(),
            fanout_start: fanout.offsets(),
            fanout_list: fanout.targets(),
            fanin_start: fanin.offsets(),
            fanin_list: fanin.targets(),
            level_start,
        }
    }

    /// Number of nodes in the circuit.
    pub fn num_nodes(&self) -> usize {
        self.attrs.kind.len()
    }

    /// Number of levels in the cached partition.
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// The raw node indices of level `l`. Levels cover `0..n` in order and
    /// no level contains an edge (see the module docs).
    #[inline(always)]
    pub fn level(&self, l: usize) -> std::ops::Range<usize> {
        self.level_start[l] as usize..self.level_start[l + 1] as usize
    }

    /// The level boundaries: the first node of every level plus a trailing
    /// `n`. The whole slice is the block that covers the circuit in one
    /// backward kernel call.
    pub fn level_bounds(&self) -> &[u32] {
        &self.level_start
    }

    /// Dense component index of node `idx`, when the node is sizable.
    #[inline(always)]
    pub fn component_of(&self, idx: usize) -> Option<usize> {
        let comp = idx.wrapping_sub(self.comp_base);
        (comp < self.num_components).then_some(comp)
    }

    /// The raw node indices of the components, in dense component order:
    /// slicing a per-node array with this range gives its per-component
    /// view.
    pub fn component_nodes(&self) -> std::ops::Range<usize> {
        self.comp_base..self.comp_base + self.num_components
    }

    /// The index space of per-component tables (sizes and the freeze
    /// state): a node boundary maps to the component boundary it falls
    /// at, clamped to the component range.
    pub fn component_space(&self) -> Space<'static> {
        Space::Components {
            first: self.comp_base,
            count: self.num_components,
        }
    }

    /// The RC attributes of every node, by raw node index: the graph's
    /// [`attributes`](CircuitGraph::attributes) view, which derives them
    /// from the kind and parameter columns (no copy).
    pub fn attributes(&self) -> Attributes<'g> {
        self.attrs
    }

    /// The kind (a gate or a wire) of every component, in dense component
    /// order (a view of the graph's kind column).
    pub fn component_kinds(&self) -> &'g [NodeKind] {
        &self.attrs.kind[self.component_nodes()]
    }

    /// Fanout (successor) nodes of node `idx`: the graph's own list, not a
    /// copy.
    #[inline(always)]
    pub fn fanout(&self, idx: usize) -> &'g [NodeId] {
        &self.fanout_list[self.fanout_start[idx] as usize..self.fanout_start[idx + 1] as usize]
    }

    /// Fanin (predecessor) nodes of node `idx`: the graph's own list, not a
    /// copy.
    #[inline(always)]
    pub fn fanin(&self, idx: usize) -> &'g [NodeId] {
        &self.fanin_list[self.fanin_start[idx] as usize..self.fanin_start[idx + 1] as usize]
    }

    /// The kind of node `idx`.
    #[inline(always)]
    pub fn kind(&self, idx: usize) -> NodeKind {
        self.attrs.kind[idx]
    }

    /// Size of node `idx` under `sizes` (1.0 for non-sizable nodes), exactly
    /// as [`CircuitGraph::size_of`].
    #[inline(always)]
    pub fn size_of(&self, idx: usize, sizes: &SizeVector) -> f64 {
        match self.component_of(idx) {
            Some(comp) => sizes[comp],
            None => 1.0,
        }
    }

    /// Resistance of node `idx`, exactly as `Node::resistance`.
    #[inline(always)]
    pub fn resistance(&self, idx: usize, sizes: &SizeVector) -> f64 {
        let kind = self.attrs.kind[idx];
        resistance_at(kind, self.attrs.get(idx), self.size_of(idx, sizes))
    }

    /// Capacitance of node `idx` (excluding coupling), exactly as
    /// `Node::capacitance`.
    #[inline(always)]
    pub fn capacitance(&self, idx: usize, sizes: &SizeVector) -> f64 {
        let kind = self.attrs.kind[idx];
        capacitance_at(kind, self.attrs.get(idx), self.size_of(idx, sizes))
    }

    /// Asserts the slice-length invariants the unchecked hot loops rely on.
    /// Every node index in the borrowed CSR lists and every component index
    /// derived from a gate or wire node is in range by construction (the
    /// topology is built from a validated, immutable graph), so after these
    /// checks the per-element indexing below cannot go out of bounds.
    #[inline]
    fn assert_node_slices(&self, slices: &[(&str, usize)]) {
        let n = self.num_nodes();
        for (name, len) in slices {
            assert_eq!(*len, n, "{name} must have one entry per node");
        }
    }

    /// Asserts what a block kernel's unchecked reads of the circuit-wide
    /// slices rely on: `sizes` (when the kernel reads a size slice) has one
    /// entry per component, and each named slice one entry per node.
    #[inline]
    fn assert_block(&self, sizes: Option<&[f64]>, per_node: &[(&str, usize)]) {
        if let Some(sizes) = sizes {
            assert_eq!(
                sizes.len(),
                self.num_components,
                "sizes must match the circuit"
            );
        }
        self.assert_node_slices(per_node);
    }

    /// Size of node `idx` (1.0 for non-sizable nodes) over a raw size slice.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes` and `sizes.len() == num_components`.
    #[inline(always)]
    unsafe fn size_of_unchecked(&self, idx: usize, sizes: &[f64]) -> f64 {
        match self.component_of(idx) {
            Some(comp) => *sizes.get_unchecked(comp),
            None => 1.0,
        }
    }

    /// Fanin slice of node `idx` without bounds checks.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; the CSR offsets are valid by construction.
    #[inline(always)]
    unsafe fn fanin_unchecked(&self, idx: usize) -> &[NodeId] {
        let start = *self.fanin_start.get_unchecked(idx) as usize;
        let end = *self.fanin_start.get_unchecked(idx + 1) as usize;
        self.fanin_list.get_unchecked(start..end)
    }

    /// Fanout slice of node `idx` without bounds checks.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; the CSR offsets are valid by construction.
    #[inline(always)]
    unsafe fn fanout_unchecked(&self, idx: usize) -> &[NodeId] {
        let start = *self.fanout_start.get_unchecked(idx) as usize;
        let end = *self.fanout_start.get_unchecked(idx + 1) as usize;
        self.fanout_list.get_unchecked(start..end)
    }

    /// The downstream load of node `idx`, a driver, gate or wire: over its
    /// fanout list in list order, the parent's output load for the sink
    /// (from `loads`) and the settled `presented` entry of any other child,
    /// which is `Node::capacitance` for a gate child.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; `presented` reads every fanout child but the
    /// sink.
    #[inline(always)]
    unsafe fn fanout_load(
        &self,
        idx: usize,
        loads: &mut LoadCursor<'_>,
        presented: Access<f64>,
    ) -> f64 {
        let mut c = 0.0;
        for &child in self.fanout_unchecked(idx) {
            let child = child.index();
            c += if child == self.sink {
                loads.load(idx)
            } else {
                presented.get(child)
            };
        }
        c
    }

    /// One node's λ-weighted upstream accumulation: over the node's fanin
    /// list in list order, the weighted `Node::resistance` of every
    /// driver/gate predecessor plus, for a wire predecessor, its own
    /// upstream resistance.
    ///
    /// A predecessor's `r̂` (or `R_D`) is derived as the edge is visited,
    /// the same bits as `attrs.get(p).resistance`. When the graph has no
    /// override, a gate's is the technology's constant, a wire's the
    /// per-µm coefficient times its length and a driver's its parameter;
    /// otherwise it comes from [`resistance_of`](Self::resistance_of), out
    /// of the loop's way. A gate adds `0.0 + w·r`, which differs from
    /// `w·r` only when that is `-0.0`, and adding either zero leaves the
    /// sum as it is: the sum starts at `+0.0` and so is never `-0.0`.
    ///
    /// # Safety
    ///
    /// `idx < num_nodes`; `size` accepts the component index of every
    /// gate or wire fanin, `upstream` reads every fanin, and `weights` has
    /// one entry per node.
    #[inline(always)]
    unsafe fn upstream_acc_edges(
        &self,
        idx: usize,
        size: impl Fn(usize) -> f64,
        weights: &[f64],
        upstream: Access<f64>,
    ) -> f64 {
        let (kinds, params) = (self.attrs.kind, self.attrs.params());
        let uniform = self.attrs.uniform_resistances();
        let mut acc = 0.0;
        for &pred in self.fanin_unchecked(idx) {
            let p = pred.index();
            let w = *weights.get_unchecked(p);
            match self.component_of(p) {
                Some(comp) => {
                    let wire = kinds.get_unchecked(p).is_wire();
                    let ur = match uniform {
                        Some([_, per_um]) if wire => per_um * *params.get_unchecked(p),
                        Some([gate, _]) => gate,
                        None => self.resistance_of(p),
                    };
                    let x = size(comp);
                    let r = if x > 0.0 { ur / x } else { f64::INFINITY };
                    let up = if wire { upstream.get(p) } else { 0.0 };
                    acc += up + w * r;
                }
                // A driver adds its fixed `R_D`; the source adds nothing.
                None => {
                    if kinds.get_unchecked(p).is_driver() {
                        let rd = match uniform {
                            Some(_) => *params.get_unchecked(p),
                            None => self.resistance_of(p),
                        };
                        acc += w * rd;
                    }
                }
            }
        }
        acc
    }

    /// `r̂` (or `R_D`) of node `p` in a graph with overrides, kept out of
    /// the forward kernels' loops.
    #[cold]
    #[inline(never)]
    fn resistance_of(&self, p: usize) -> f64 {
        self.attrs.get(p).resistance
    }

    /// Bytes of the tables the topology owns (for memory accounting). The
    /// borrowed adjacency, kind, parameter and output-load columns are the graph's
    /// and count toward
    /// [`CircuitGraph::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.level_start.capacity() * size_of::<u32>() + size_of::<Self>()
    }

    // ------------------------------------------------------------------
    // Traversal kernels: one per pass, each over one block of nodes (a run
    // of whole levels, or a sub-range of one level; see the module docs).
    // A single call over the whole partition is the whole-circuit
    // traversal, and any cut of the levels into blocks gives bitwise
    // identical per-node results.
    // ------------------------------------------------------------------

    /// The nodes a block kernel's reads can reach when it visits the
    /// nodes `nodes`: every fanout child of a visited node lies after the
    /// level of the first one (`backward`), and every fanin before the
    /// level of the last one (forward), by the level partition invariant
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` exceeds the circuit.
    fn block_reach(&self, nodes: &Range<usize>, backward: bool) -> Range<usize> {
        let n = self.num_nodes();
        assert!(nodes.end <= n, "block must lie within the circuit");
        if nodes.is_empty() {
            return 0..0;
        }
        // The level holding `node`: `level_start[l] <= node < level_start[l + 1]`.
        let level_of = |node: usize| self.level_start.partition_point(|&b| b as usize <= node) - 1;
        if backward {
            self.level_start[level_of(nodes.start) + 1] as usize..n
        } else {
            0..self.level_start[level_of(nodes.end - 1)] as usize
        }
    }

    /// Backward (reverse-topological) downstream-capacitance rebuild of one
    /// block: computes `C_i` (`charged`) and the load each node presents to
    /// its stage parent (`presented`). `extra_cap` holds one value per node,
    /// added on the downstream side of that node (the coupling load).
    ///
    /// `bounds` lists the block's level windows; the windows
    /// `bounds[k]..bounds[k + 1]` are visited in reverse, nodes descending
    /// within a window. The views must own the block's nodes, and
    /// `presented` must hold every node after the block's first level,
    /// which is where the fanout children lie.
    ///
    /// # Panics
    ///
    /// Panics when the bounds decrease or exceed the node count, when
    /// `sizes` or `extra_cap` does not match the circuit, or when a view
    /// lacks an entry the block writes or reads.
    pub fn downstream_caps_chunk(
        &self,
        bounds: &[u32],
        sizes: &[f64],
        extra_cap: &[f64],
        mut charged: Tile<'_, f64>,
        mut presented: Tile<'_, f64>,
    ) {
        let nodes = backward_span(bounds);
        let children = self.block_reach(&nodes, true);
        self.assert_block(Some(sizes), &[("extra_cap", extra_cap.len())]);
        let charged = charged.access(&nodes, &(0..0));
        let presented = presented.access(&nodes, &children);
        let mut loads = LoadCursor::new(self.output_loads, nodes.end);
        // SAFETY: every visited node lies in `nodes`, which the views own,
        // and every fanout child in `children`, which `presented` holds;
        // `extra_cap`/`sizes` match the circuit (asserted above); the
        // topology's own tables are valid for every node and edge by
        // construction.
        unsafe {
            for idx in nodes.rev() {
                let extra = *extra_cap.get_unchecked(idx);
                let kind = *self.attrs.kind.get_unchecked(idx);
                match kind {
                    NodeKind::Source | NodeKind::Sink => {
                        charged.set(idx, 0.0);
                        presented.set(idx, 0.0);
                    }
                    NodeKind::Driver => {
                        let c = self.fanout_load(idx, &mut loads, presented) + extra;
                        charged.set(idx, c);
                        presented.set(idx, 0.0);
                    }
                    NodeKind::Gate(_) => {
                        // Coupling on a gate output (rare, but allowed)
                        // loads the stage.
                        let c = self.fanout_load(idx, &mut loads, presented) + extra;
                        charged.set(idx, c);
                        let x = self.size_of_unchecked(idx, sizes);
                        presented.set(idx, self.attrs.gate(idx).unit_capacitance * x);
                    }
                    NodeKind::Wire => {
                        let x = self.size_of_unchecked(idx, sizes);
                        let length = *self.attrs.params().get_unchecked(idx);
                        let own = capacitance_at(kind, self.attrs.wire(idx, length), x);
                        let downstream = self.fanout_load(idx, &mut loads, presented);
                        // π-model: the far half of the wire's own
                        // capacitance plus all coupling capacitance is
                        // charged through r_i; the full wire capacitance
                        // loads everything upstream.
                        charged.set(idx, own / 2.0 + extra + downstream);
                        presented.set(idx, own + extra + downstream);
                    }
                }
            }
        }
    }

    /// Forward λ-weighted upstream-resistance rebuild of the block `nodes`:
    /// the `R_i` of Theorem 5 per node, with `weights` holding `λ_k` per raw
    /// node index. `upstream` must own the block's nodes and hold every
    /// node before the level of its last one, which is where the fanins
    /// lie.
    ///
    /// # Panics
    ///
    /// As [`downstream_caps_chunk`](Self::downstream_caps_chunk).
    pub fn upstream_resistance_chunk(
        &self,
        nodes: Range<usize>,
        sizes: &[f64],
        weights: &[f64],
        mut upstream: Tile<'_, f64>,
    ) {
        let fanins = self.block_reach(&nodes, false);
        self.assert_block(Some(sizes), &[("weights", weights.len())]);
        let upstream = upstream.access(&nodes, &fanins);
        // SAFETY: every visited node lies in `nodes`, which `upstream`
        // owns, and every fanin in `fanins`, which it holds; `sizes` and
        // `weights` match the circuit (asserted above).
        unsafe {
            let size = |comp: usize| *sizes.get_unchecked(comp);
            for idx in nodes {
                upstream.set(idx, self.upstream_acc_edges(idx, size, weights, upstream));
            }
        }
    }

    /// Backward **fused Gauss–Seidel** pass over one block: re-accumulates
    /// each node's charged capacitance from the already updated downstream
    /// state and immediately calls `resize(comp, node, charged, x)` for
    /// every sizable component, so parents see their children's fresh sizes
    /// within the same pass. The coupling load (`extra_cap`) and whatever
    /// upstream table the closure reads stay fixed for the pass (Jacobi in
    /// those directions). Returning `x` unchanged leaves a component as is
    /// (how callers skip frozen components); `charged`/`presented` are left
    /// consistent with the post-pass sizes.
    ///
    /// The fixed points are exactly those of separate Jacobi-style passes,
    /// but the one-directional freshness roughly squares the contraction
    /// factor per pass, so solves converge in far fewer sweeps.
    ///
    /// `xs` is the block's view of the per-component sizes, which must own
    /// the block's components: a child's fresh size reaches its parent
    /// through the child's `presented` entry.
    ///
    /// # Panics
    ///
    /// As [`downstream_caps_chunk`](Self::downstream_caps_chunk).
    pub fn fused_downstream_chunk<F: FnMut(usize, usize, f64, f64) -> f64>(
        &self,
        bounds: &[u32],
        mut xs: Tile<'_, f64>,
        extra_cap: &[f64],
        mut charged: Tile<'_, f64>,
        mut presented: Tile<'_, f64>,
        resize: &mut F,
    ) {
        let nodes = backward_span(bounds);
        let children = self.block_reach(&nodes, true);
        self.assert_block(None, &[("extra_cap", extra_cap.len())]);
        let charged = charged.access(&nodes, &(0..0));
        let presented = presented.access(&nodes, &children);
        let xs = xs.access(&self.component_space().range(&nodes), &(0..0));
        let mut loads = LoadCursor::new(self.output_loads, nodes.end);
        // SAFETY: visited nodes and their components lie in what the views
        // own, which is where they are written and their sizes read
        // (`own`), fanout children in what `presented` holds; `extra_cap`
        // matches the circuit; the topology's tables are valid for every
        // node and edge by construction.
        unsafe {
            for idx in nodes.rev() {
                let extra = *extra_cap.get_unchecked(idx);
                let kind = *self.attrs.kind.get_unchecked(idx);
                match kind {
                    NodeKind::Source | NodeKind::Sink => {
                        charged.set(idx, 0.0);
                        presented.set(idx, 0.0);
                    }
                    NodeKind::Driver => {
                        let c = self.fanout_load(idx, &mut loads, presented);
                        charged.set(idx, c + extra);
                        presented.set(idx, 0.0);
                    }
                    NodeKind::Gate(_) => {
                        let c = self.fanout_load(idx, &mut loads, presented) + extra;
                        charged.set(idx, c);
                        let comp = idx - self.comp_base;
                        let x = xs.own(comp);
                        let x_new = resize(comp, idx, c, x);
                        if x_new != x {
                            xs.set(comp, x_new);
                        }
                        let unit_cap = self.attrs.gate(idx).unit_capacitance;
                        presented.set(idx, unit_cap * x_new);
                    }
                    NodeKind::Wire => {
                        let downstream = self.fanout_load(idx, &mut loads, presented);
                        let comp = idx - self.comp_base;
                        let x = xs.own(comp);
                        let length = *self.attrs.params().get_unchecked(idx);
                        let rc = self.attrs.wire(idx, length);
                        let (unit_cap, fringing) = (rc.unit_capacitance, rc.fringing);
                        let own = unit_cap * x + fringing;
                        // π-model split, exactly as `downstream_caps_chunk`.
                        let c = own / 2.0 + extra + downstream;
                        let x_new = resize(comp, idx, c, x);
                        if x_new != x {
                            xs.set(comp, x_new);
                            let own_new = unit_cap * x_new + fringing;
                            charged.set(idx, own_new / 2.0 + extra + downstream);
                            presented.set(idx, own_new + extra + downstream);
                        } else {
                            charged.set(idx, c);
                            presented.set(idx, own + extra + downstream);
                        }
                    }
                }
            }
        }
    }

    /// Forward **fused Gauss–Seidel** pass over the block `nodes`: computes
    /// each node's λ-weighted upstream resistance from the already updated
    /// upstream state and immediately calls `resize(comp, node, upstream,
    /// x)` for every sizable component, so downstream nodes see their
    /// parents' fresh sizes within the same pass. Whatever charged table the
    /// closure reads stays fixed for the pass; alternating forward and
    /// backward fused passes refreshes both directions with one traversal
    /// each. `xs` and `upstream` must hold every fanin, as in
    /// [`upstream_resistance_chunk`](Self::upstream_resistance_chunk).
    ///
    /// # Panics
    ///
    /// As [`downstream_caps_chunk`](Self::downstream_caps_chunk).
    pub fn fused_upstream_chunk<F: FnMut(usize, usize, f64, f64) -> f64>(
        &self,
        nodes: Range<usize>,
        mut xs: Tile<'_, f64>,
        weights: &[f64],
        mut upstream: Tile<'_, f64>,
        resize: &mut F,
    ) {
        let fanins = self.block_reach(&nodes, false);
        self.assert_block(None, &[("weights", weights.len())]);
        let upstream = upstream.access(&nodes, &fanins);
        let xs = xs.access(
            &self.component_space().range(&nodes),
            &self.component_space().range(&fanins),
        );
        // SAFETY: every visited node lies in `nodes` (its component in the
        // components of `nodes`), which the views own, which is where they
        // are written and their sizes read (`own`), and every fanin in
        // `fanins` (its component in theirs), which they hold; `weights`
        // matches the circuit (asserted above).
        unsafe {
            let size = |comp: usize| xs.get(comp);
            for idx in nodes {
                let acc = self.upstream_acc_edges(idx, size, weights, upstream);
                upstream.set(idx, acc);
                if let Some(comp) = self.component_of(idx) {
                    let x = xs.own(comp);
                    let x_new = resize(comp, idx, acc, x);
                    if x_new != x {
                        xs.set(comp, x_new);
                    }
                }
            }
        }
    }

    /// The per-component delays `D_i` of a contiguous node range from
    /// precomputed charged capacitances (zero for source and sink). Delays
    /// are per-node independent, so any partition works.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the circuit, when `sizes` or `charged`
    /// does not match it, or when `delays` does not own the range.
    pub fn delays_chunk(
        &self,
        range: Range<usize>,
        sizes: &[f64],
        charged: &[f64],
        mut delays: Tile<'_, f64>,
    ) {
        assert!(
            range.end <= self.num_nodes(),
            "block must lie within the circuit"
        );
        self.assert_block(Some(sizes), &[("charged", charged.len())]);
        let (out, _) = delays.level(&range, false);
        for (idx, out) in range.zip(out) {
            // SAFETY: `idx < range.end <= num_nodes` and `sizes`/`charged`
            // match the circuit (asserted above).
            *out = unsafe {
                match *self.attrs.kind.get_unchecked(idx) {
                    NodeKind::Source | NodeKind::Sink => 0.0,
                    kind => {
                        let x = self.size_of_unchecked(idx, sizes);
                        let param = *self.attrs.params().get_unchecked(idx);
                        let rc = self.attrs.derive(kind, idx, param);
                        resistance_at(kind, rc, x) * *charged.get_unchecked(idx)
                    }
                }
            };
        }
    }

    /// Forward arrival-time propagation over the block `nodes`: the same
    /// per-kind recurrence (same fanin order, same `>=` tie-breaking) as
    /// [`propagate_arrivals_into`], with `arrival` holding every fanin as
    /// in [`upstream_resistance_chunk`](Self::upstream_resistance_chunk).
    /// Critical-path extraction is the caller's sequential epilogue over
    /// the settled arrivals
    /// ([`trace_critical_path`](Self::trace_critical_path)).
    ///
    /// # Panics
    ///
    /// As [`downstream_caps_chunk`](Self::downstream_caps_chunk).
    pub fn arrivals_chunk(&self, nodes: Range<usize>, delays: &[f64], mut arrival: Tile<'_, f64>) {
        let fanins = self.block_reach(&nodes, false);
        self.assert_block(None, &[("delays", delays.len())]);
        let arrival = arrival.access(&nodes, &fanins);
        // SAFETY: every visited node lies in `nodes`, which `arrival` owns,
        // and every fanin in `fanins`, which it holds; `delays` matches the
        // circuit (asserted above); fanin lists hold node indices by
        // construction.
        unsafe {
            let source = |j: usize| matches!(*self.attrs.kind.get_unchecked(j), NodeKind::Source);
            for idx in nodes {
                let fanin = self.fanin_unchecked(idx);
                let a = match *self.attrs.kind.get_unchecked(idx) {
                    NodeKind::Source => 0.0,
                    NodeKind::Sink => latest_fanin(fanin, |_| false, |j| arrival.get(j)).0,
                    NodeKind::Driver => *delays.get_unchecked(idx),
                    NodeKind::Gate(_) | NodeKind::Wire => {
                        latest_fanin(fanin, source, |j| arrival.get(j)).0
                            + *delays.get_unchecked(idx)
                    }
                };
                arrival.set(idx, a);
            }
        }
    }

    // ------------------------------------------------------------------
    // The critical-path epilogue. It does not allocate.
    // ------------------------------------------------------------------

    /// Extracts one critical path from a settled `arrival` table into
    /// `critical_path` (driver first); returns the sink's arrival time, the
    /// critical-path delay. The sequential epilogue of every arrival
    /// propagation ([`arrivals_chunk`](Self::arrivals_chunk)).
    ///
    /// From the sink back, each step takes the fanin that set the node's
    /// arrival: the same fanin order, source skip and `>=` tie-break as
    /// the kernel, so the path is the one [`propagate_arrivals_into`]
    /// records in its predecessor table. The walk stops at a driver, or at
    /// a node none of whose fanins arrives at or after time zero.
    ///
    /// # Panics
    ///
    /// Panics when `arrival` does not have one entry per node.
    pub fn trace_critical_path(&self, arrival: &[f64], critical_path: &mut Vec<NodeId>) -> f64 {
        self.assert_node_slices(&[("arrival", arrival.len())]);
        critical_path.clear();
        let source = |j: usize| matches!(self.attrs.kind[j], NodeKind::Source);
        let mut node = self.sink;
        loop {
            let fanin = self.fanin(node);
            let (_, pred) = match self.attrs.kind[node] {
                NodeKind::Source | NodeKind::Driver => break,
                NodeKind::Sink => latest_fanin(fanin, |_| false, |j| arrival[j]),
                NodeKind::Gate(_) | NodeKind::Wire => latest_fanin(fanin, source, |j| arrival[j]),
            };
            let Some(pred) = pred else { break };
            critical_path.push(NodeId::new(pred));
            node = pred;
        }
        critical_path.reverse();
        arrival[self.sink]
    }
}

/// The latest-arriving fanin in `fanin`, in list order, passing over those
/// `skip` names: the last whose `arrival` is `>=` the running maximum,
/// which starts at `0.0`. Returns the maximum and that fanin, `None` when
/// no arrival reaches `0.0`. The one tie-break of the arrival kernel and
/// the critical-path walk.
#[inline(always)]
fn latest_fanin(
    fanin: &[NodeId],
    skip: impl Fn(usize) -> bool,
    arrival: impl Fn(usize) -> f64,
) -> (f64, Option<usize>) {
    let mut best = 0.0;
    let mut best_pred = None;
    for &j in fanin {
        let j = j.index();
        if skip(j) {
            continue;
        }
        let a = arrival(j);
        if a >= best {
            best = a;
            best_pred = Some(j);
        }
    }
    (best, best_pred)
}

/// Pre-sized dense scratch buffers for one circuit, reused across every
/// evaluation so the hot loops never touch the allocator.
///
/// Every buffer is indexed by raw node index. The workspace is
/// deliberately dumb —
/// all semantics live in [`CircuitTopology`] and the solvers that
/// drive them. It keeps no predecessor table: the critical path is
/// rebuilt from `arrival` ([`CircuitTopology::trace_critical_path`]).
/// Nor does it keep a table of node weights: a sizing solve, which reads
/// the weights and never the delays, holds them in `delays`.
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    /// `C_i` per node: capacitance charged through the node's resistance.
    pub charged: Vec<f64>,
    /// Load each node presents to its stage parent, per node: what a
    /// backward kernel adds for every fanout child but the sink.
    pub presented: Vec<f64>,
    /// λ-weighted upstream resistance `R_i` per node.
    pub upstream: Vec<f64>,
    /// Extra (coupling) capacitance per node, filled by the coupling layer.
    pub extra_cap: Vec<f64>,
    /// Per-component Elmore delays `D_i`, per node. A sizing solve holds
    /// the node delay weights `λ_i` here instead, from its start to the
    /// next timing evaluation, which rewrites every entry before one is
    /// read.
    pub delays: Vec<f64>,
    /// Arrival times `a_i` per node.
    pub arrival: Vec<f64>,
    /// One critical path (driver → primary-output driver). Every edge
    /// climbs at least one level of the topology's partition, so a path
    /// visits each level at most once: capacity for one node per level
    /// means pushes never reallocate.
    pub critical_path: Vec<NodeId>,
}

impl EvalWorkspace {
    /// Creates a workspace sized for the circuit `topo` describes.
    pub fn new(topo: &CircuitTopology<'_>) -> Self {
        let n = topo.num_nodes();
        EvalWorkspace {
            charged: vec![0.0; n],
            presented: vec![0.0; n],
            upstream: vec![0.0; n],
            extra_cap: vec![0.0; n],
            delays: vec![0.0; n],
            arrival: vec![0.0; n],
            critical_path: Vec::with_capacity(topo.num_levels()),
        }
    }

    /// Total bytes held by the workspace buffers (for memory accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.charged.capacity()
            + self.presented.capacity()
            + self.upstream.capacity()
            + self.extra_cap.capacity()
            + self.delays.capacity()
            + self.arrival.capacity())
            * size_of::<f64>()
            + self.critical_path.capacity() * size_of::<NodeId>()
            + size_of::<Self>()
    }
}

/// Propagates arrival times from precomputed delays and extracts one
/// critical path, writing only into the provided buffers. Returns the
/// critical-path delay.
///
/// This is the allocation-free core of
/// [`TimingAnalysis::from_delays`](crate::TimingAnalysis::from_delays), and
/// the graph-walking oracle of the CSR
/// [`CircuitTopology::arrivals_chunk`].
///
/// # Panics
///
/// Panics in debug builds when a slice length does not match the circuit.
pub fn propagate_arrivals_into(
    graph: &CircuitGraph,
    delays: &[f64],
    arrival: &mut [f64],
    pred: &mut [u32],
    critical_path: &mut Vec<NodeId>,
) -> f64 {
    let n = graph.num_nodes();
    debug_assert_eq!(delays.len(), n);
    debug_assert_eq!(arrival.len(), n);
    debug_assert_eq!(pred.len(), n);

    let kinds = graph.kinds();
    for id in graph.node_ids() {
        let idx = id.index();
        pred[idx] = NO_PRED;
        match kinds[idx] {
            NodeKind::Source => arrival[idx] = 0.0,
            NodeKind::Sink => {
                let mut best = 0.0;
                let mut best_pred = NO_PRED;
                for &j in graph.fanin(id) {
                    if arrival[j.index()] >= best {
                        best = arrival[j.index()];
                        best_pred = j.index() as u32;
                    }
                }
                arrival[idx] = best;
                pred[idx] = best_pred;
            }
            NodeKind::Driver => {
                arrival[idx] = delays[idx];
            }
            NodeKind::Gate(_) | NodeKind::Wire => {
                let mut best = 0.0;
                let mut best_pred = NO_PRED;
                for &j in graph.fanin(id) {
                    if j == graph.source() {
                        continue;
                    }
                    if arrival[j.index()] >= best {
                        best = arrival[j.index()];
                        best_pred = j.index() as u32;
                    }
                }
                arrival[idx] = best + delays[idx];
                pred[idx] = best_pred;
            }
        }
    }

    let critical_path_delay = arrival[graph.sink().index()];
    critical_path.clear();
    let mut cursor = pred[graph.sink().index()];
    while cursor != NO_PRED {
        critical_path.push(NodeId::new(cursor as usize));
        cursor = pred[cursor as usize];
    }
    critical_path.reverse();
    critical_path_delay
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::elmore::ElmoreAnalyzer;
    use crate::node::GateKind;
    use crate::tech::Technology;
    use crate::timing::TimingAnalysis;

    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 80.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let w2 = b.add_wire("w2", 150.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(w2, g1).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        b.build().unwrap()
    }

    /// Every way the tests cut the level partition into blocks, each as a
    /// list of block boundaries in forward order: runs of `fold` whole
    /// levels for every `fold` (the last one is the whole circuit in one
    /// block), and every level split into sub-ranges of `width` nodes for
    /// every `width`.
    fn blockings(topo: &CircuitTopology<'_>) -> Vec<Vec<Vec<u32>>> {
        let bounds = topo.level_bounds();
        let levels = topo.num_levels();
        let mut out = Vec::new();
        for fold in 1..=levels {
            let blocks = (0..levels)
                .step_by(fold)
                .map(|l| bounds[l..=(l + fold).min(levels)].to_vec())
                .collect();
            out.push(blocks);
        }
        let widest = (0..levels).map(|l| topo.level(l).len()).max().unwrap();
        for width in 1..=widest {
            let mut blocks = Vec::new();
            for l in 0..levels {
                let range = topo.level(l);
                for lo in range.clone().step_by(width) {
                    blocks.push(vec![lo as u32, (lo + width).min(range.end) as u32]);
                }
            }
            out.push(blocks);
        }
        out
    }

    /// The forward node range of a block.
    fn nodes(block: &[u32]) -> std::ops::Range<usize> {
        block[0] as usize..block[block.len() - 1] as usize
    }

    /// The view of `table` (indexed as `space` says) that `block` gets
    /// once every block before it in the pass's direction has run. The
    /// block is a step of its own: a one-window block reads everything
    /// after it going `backward` (everything before going forward) as its
    /// settled part, as a chunk of a wide level does; a block of several
    /// levels runs alone and owns that part too, as the block of a folded
    /// step does.
    fn view<'t, T>(
        table: &'t mut [T],
        space: Space<'t>,
        block: &[u32],
        backward: bool,
    ) -> Tile<'t, T> {
        let nodes = nodes(block);
        Tiles::new(table, space, nodes.clone(), backward, block.len() > 2).next(&nodes)
    }

    /// `(charged, presented)` from the backward rebuild kernel, blocks in
    /// reverse order.
    fn caps(
        topo: &CircuitTopology<'_>,
        blocks: &[Vec<u32>],
        sizes: &SizeVector,
        extra: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let n = topo.num_nodes();
        let (mut charged, mut presented) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        for block in blocks.iter().rev() {
            topo.downstream_caps_chunk(
                block,
                sizes.as_slice(),
                extra,
                view(&mut charged, Space::Nodes, block, true),
                view(&mut presented, Space::Nodes, block, true),
            );
        }
        (charged, presented)
    }

    /// Upstream resistances from the forward rebuild kernel.
    fn upstream(
        topo: &CircuitTopology<'_>,
        blocks: &[Vec<u32>],
        sizes: &SizeVector,
        weights: &[f64],
    ) -> Vec<f64> {
        let mut upstream = vec![f64::NAN; topo.num_nodes()];
        for block in blocks {
            let upstream = view(&mut upstream, Space::Nodes, block, false);
            topo.upstream_resistance_chunk(nodes(block), sizes.as_slice(), weights, upstream);
        }
        upstream
    }

    /// Arrival times from the forward arrival kernel.
    fn arrivals(topo: &CircuitTopology<'_>, blocks: &[Vec<u32>], delays: &[f64]) -> Vec<f64> {
        let mut arrival = vec![f64::NAN; topo.num_nodes()];
        for block in blocks {
            let view = view(&mut arrival, Space::Nodes, block, false);
            topo.arrivals_chunk(nodes(block), delays, view);
        }
        arrival
    }

    /// Runs the backward fused kernel over `blocks` in reverse order.
    fn fused_backward(
        topo: &CircuitTopology<'_>,
        blocks: &[Vec<u32>],
        sizes: &mut SizeVector,
        extra: &[f64],
        (charged, presented): (&mut [f64], &mut [f64]),
        mut resize: fn(usize, usize, f64, f64) -> f64,
    ) {
        for block in blocks.iter().rev() {
            topo.fused_downstream_chunk(
                block,
                view(sizes.as_mut_slice(), topo.component_space(), block, true),
                extra,
                view(charged, Space::Nodes, block, true),
                view(presented, Space::Nodes, block, true),
                &mut resize,
            );
        }
    }

    /// Runs the forward fused kernel over `blocks` in order.
    fn fused_forward(
        topo: &CircuitTopology<'_>,
        blocks: &[Vec<u32>],
        sizes: &mut SizeVector,
        weights: &[f64],
        upstream: &mut [f64],
        mut resize: fn(usize, usize, f64, f64) -> f64,
    ) {
        for block in blocks {
            topo.fused_upstream_chunk(
                nodes(block),
                view(sizes.as_mut_slice(), topo.component_space(), block, false),
                weights,
                view(upstream, Space::Nodes, block, false),
                &mut resize,
            );
        }
    }

    /// `(sizes, charged, presented, upstream)` after one backward and one
    /// forward fused pass over `blocks`, from uniform sizes of 1.0.
    fn fused(
        c: &CircuitGraph,
        topo: &CircuitTopology<'_>,
        blocks: &[Vec<u32>],
        extra: &[f64],
        weights: &[f64],
        resize: fn(usize, usize, f64, f64) -> f64,
    ) -> (SizeVector, Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = topo.num_nodes();
        let mut sizes = c.uniform_sizes(1.0);
        let (mut charged, mut presented, mut upstream) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let tables = (charged.as_mut_slice(), presented.as_mut_slice());
        fused_backward(topo, blocks, &mut sizes, extra, tables, resize);
        fused_forward(topo, blocks, &mut sizes, weights, &mut upstream, resize);
        (sizes, charged, presented, upstream)
    }

    /// The whole circuit as one block.
    fn whole(topo: &CircuitTopology<'_>) -> Vec<Vec<u32>> {
        vec![topo.level_bounds().to_vec()]
    }

    /// The Elmore timing of the whole circuit at `sizes` into `ws`, with
    /// the coupling load read from `ws.extra_cap`: each kernel called once
    /// over the whole partition, then the critical-path epilogue. Returns
    /// the critical-path delay.
    fn timing(topo: &CircuitTopology<'_>, sizes: &SizeVector, ws: &mut EvalWorkspace) -> f64 {
        let (n, xs) = (topo.num_nodes(), sizes.as_slice());
        topo.downstream_caps_chunk(
            topo.level_bounds(),
            xs,
            &ws.extra_cap,
            Tile::whole(&mut ws.charged),
            Tile::whole(&mut ws.presented),
        );
        topo.delays_chunk(0..n, xs, &ws.charged, Tile::whole(&mut ws.delays));
        topo.arrivals_chunk(0..n, &ws.delays, Tile::whole(&mut ws.arrival));
        topo.trace_critical_path(&ws.arrival, &mut ws.critical_path)
    }

    #[test]
    fn model_matches_analyzer_bitwise() {
        let c = chain();
        let sizes = c.uniform_sizes(1.3);
        let analyzer = ElmoreAnalyzer::new(&c);
        let topo = CircuitTopology::new(&c);
        let mut ws = EvalWorkspace::new(&topo);
        ws.extra_cap[c.node_by_name("w1").unwrap().index()] = 3.5;

        let reference = analyzer.downstream_caps(&sizes, Some(&ws.extra_cap));
        let (charged, presented) = caps(&topo, &whole(&topo), &sizes, &ws.extra_cap);
        assert_eq!(reference.charged, charged);
        assert_eq!(reference.presented, presented);

        let weights = vec![0.7; c.num_nodes()];
        assert_eq!(
            analyzer.weighted_upstream_resistance(&sizes, &weights),
            upstream(&topo, &whole(&topo), &sizes, &weights)
        );

        timing(&topo, &sizes, &mut ws);
        assert_eq!(analyzer.delays(&sizes, Some(&ws.extra_cap)), ws.delays);
        assert_eq!(reference.charged, ws.charged);
    }

    #[test]
    fn arrival_propagation_matches_timing_analysis() {
        let c = chain();
        let sizes = c.uniform_sizes(2.0);
        let reference = TimingAnalysis::run(&c, &sizes, None);

        // The topology's CSR walk (which finds the sink recorded at build
        // time, not through a graph argument) and the graph walk agree with
        // the reference bitwise.
        let topo = CircuitTopology::new(&c);
        let mut ws = EvalWorkspace::new(&topo);
        let delay = timing(&topo, &sizes, &mut ws);
        assert_eq!(delay, reference.critical_path_delay);
        assert_eq!(ws.arrival, reference.arrival.values);
        assert_eq!(ws.critical_path, reference.critical_path);

        let mut graph_walk = EvalWorkspace::new(&topo);
        let delay = propagate_arrivals_into(
            &c,
            &ws.delays,
            &mut graph_walk.arrival,
            &mut vec![0; c.num_nodes()],
            &mut graph_walk.critical_path,
        );
        assert_eq!(delay, reference.critical_path_delay);
        assert_eq!(graph_walk.arrival, reference.arrival.values);
        assert_eq!(graph_walk.critical_path, reference.critical_path);
    }

    #[test]
    fn topology_mirrors_graph_adjacency() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        assert_eq!(topo.num_nodes(), c.num_nodes());
        for id in c.node_ids() {
            assert_eq!(topo.fanout(id.index()), c.fanout(id));
            assert_eq!(topo.fanin(id.index()), c.fanin(id));
        }
        let sizes = c.uniform_sizes(1.7);
        for id in c.node_ids() {
            assert_eq!(
                topo.resistance(id.index(), &sizes),
                c.resistance(id, &sizes)
            );
            assert_eq!(
                topo.capacitance(id.index(), &sizes),
                c.capacitance(id, &sizes)
            );
        }
        assert!(topo.memory_bytes() > 0);
    }

    /// A layered circuit of `width` driver → wire inputs and `depth` levels
    /// of gates, each gate reading one or two wires of the level below
    /// (picked by a fixed stride) and driving one wire; the last level's
    /// wires are the primary outputs. Fanin and fanout degrees vary per
    /// node.
    fn generated(width: usize, depth: usize) -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let mut frontier = Vec::with_capacity(width);
        for i in 0..width {
            let d = b.add_driver(&format!("d{i}"), 80.0 + i as f64).unwrap();
            let w = b
                .add_wire(&format!("i{i}"), 100.0 + (i % 5) as f64)
                .unwrap();
            b.connect(d, w).unwrap();
            frontier.push(w);
        }
        for level in 0..depth {
            let mut next = Vec::with_capacity(width);
            for i in 0..width {
                let other = (i * 7 + level * 3 + 1) % width;
                let kind = if other == i {
                    GateKind::Inv
                } else {
                    GateKind::Nand
                };
                let g = b.add_gate(&format!("g{level}_{i}"), kind).unwrap();
                b.connect(frontier[i], g).unwrap();
                if other != i {
                    b.connect(frontier[other], g).unwrap();
                }
                let w = b
                    .add_wire(&format!("w{level}_{i}"), 60.0 + (i % 3) as f64)
                    .unwrap();
                b.connect(g, w).unwrap();
                next.push(w);
            }
            frontier = next;
        }
        for w in frontier {
            b.connect_output(w, 4.0).unwrap();
        }
        b.build().unwrap()
    }

    /// The topology reads the graph's adjacency, kind and parameter columns
    /// instead of holding copies: every list and column it reads is the
    /// graph's own memory.
    #[test]
    fn topology_borrows_the_graph_adjacency() {
        let c = generated(12, 6);
        let topo = CircuitTopology::new(&c);
        for id in c.node_ids() {
            assert_eq!(topo.fanin(id.index()).as_ptr(), c.fanin(id).as_ptr());
            assert_eq!(topo.fanout(id.index()).as_ptr(), c.fanout(id).as_ptr());
        }
        let (mine, graph) = (topo.attributes(), c.attributes());
        assert_eq!(mine.kind.as_ptr(), c.kinds().as_ptr());
        assert_eq!(mine.params().as_ptr(), graph.params().as_ptr());
        assert_eq!(mine.params().len(), c.num_nodes());
    }

    #[test]
    fn level_partition_upholds_its_invariant() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        // The levels cover `0..n` in order, each non-empty...
        let mut next = 0;
        let mut level_of = vec![0usize; n];
        for l in 0..topo.num_levels() {
            let range = topo.level(l);
            assert_eq!(range.start, next, "levels are contiguous and in order");
            assert!(!range.is_empty(), "levels are non-empty by construction");
            next = range.end;
            for idx in range {
                level_of[idx] = l;
            }
        }
        assert_eq!(next, n, "every node has a level");
        assert_eq!(topo.level_bounds().len(), topo.num_levels() + 1);
        // ...and every edge crosses levels strictly upward, so nodes of one
        // level share no fanin/fanout edge. On this level-sorted order the
        // levels are the longest-path levels.
        let mut longest = vec![0usize; n];
        for idx in 0..n {
            for &child in topo.fanout(idx) {
                assert!(
                    level_of[child.index()] > level_of[idx],
                    "edge {idx} -> {child} must cross levels strictly upward"
                );
            }
            for &pred in topo.fanin(idx) {
                longest[idx] = longest[idx].max(longest[pred.index()] + 1);
            }
        }
        assert_eq!(level_of, longest);
    }

    /// Drives the rebuild, delay and arrival kernels over every cut of the
    /// level partition into blocks and checks each result is bitwise the
    /// allocate-per-call reference path.
    #[test]
    fn chunk_kernels_match_sequential_traversals_bitwise() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let sizes = c.uniform_sizes(1.7);
        let mut extra = vec![0.0; n];
        extra[c.node_by_name("w1").unwrap().index()] = 2.5;
        let weights = vec![0.6; n];

        let analyzer = ElmoreAnalyzer::new(&c);
        let reference_caps = analyzer.downstream_caps(&sizes, Some(&extra));
        let reference_upstream = analyzer.weighted_upstream_resistance(&sizes, &weights);
        let reference = TimingAnalysis::run(&c, &sizes, Some(&extra));

        for blocks in blockings(&topo) {
            let (charged, presented) = caps(&topo, &blocks, &sizes, &extra);
            assert_eq!(charged, reference_caps.charged, "{blocks:?}");
            assert_eq!(presented, reference_caps.presented, "{blocks:?}");
            assert_eq!(
                upstream(&topo, &blocks, &sizes, &weights),
                reference_upstream
            );
            let arrival = arrivals(&topo, &blocks, &reference.delays);
            assert_eq!(arrival, reference.arrival.values, "{blocks:?}");
            let mut path = Vec::new();
            let delay = topo.trace_critical_path(&arrival, &mut path);
            assert_eq!(delay, reference.critical_path_delay);
            assert_eq!(path, reference.critical_path);
        }
    }

    /// A deterministic, value-dependent resize exercising the in-pass
    /// freshness of the fused kernels.
    fn greedy(_comp: usize, _node: usize, value: f64, x: f64) -> f64 {
        (x * 0.5 + value.sqrt().min(4.0) * 0.5).clamp(0.2, 8.0)
    }

    /// The fused kernels, driven over every cut of the level partition into
    /// blocks, match one whole-circuit call bitwise.
    #[test]
    fn fused_chunk_kernels_match_sequential_fused_passes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let extra = vec![0.1; n];
        let weights = vec![0.4; n];
        let reference = fused(&c, &topo, &whole(&topo), &extra, &weights, greedy);
        assert_ne!(reference.0, c.uniform_sizes(1.0), "the resize must move");
        for blocks in blockings(&topo) {
            assert_eq!(
                fused(&c, &topo, &blocks, &extra, &weights, greedy),
                reference,
                "{blocks:?}"
            );
        }
    }

    /// A block reads its own sizes from the slice it owns, never through
    /// its settled part: here each one-node block's settled part is a
    /// detached copy of the sizes whose entries in the block's own range
    /// are NaN, so a size read from the wrong side would poison the
    /// result.
    #[test]
    fn fused_kernels_read_a_blocks_own_sizes_from_its_own_slice() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let (extra, weights) = (vec![0.1; n], vec![0.4; n]);
        let reference = fused(&c, &topo, &whole(&topo), &extra, &weights, greedy);
        let space = topo.component_space();
        let blocks: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i, i + 1]).collect();
        let detached = |sizes: &SizeVector, comps: &Range<usize>| {
            let mut copy = sizes.as_slice().to_vec();
            copy[comps.clone()].fill(f64::NAN);
            copy
        };
        let mut resize: fn(usize, usize, f64, f64) -> f64 = greedy;
        let mut sizes = c.uniform_sizes(1.0);
        let (mut charged, mut presented, mut upstream) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for block in blocks.iter().rev() {
            let comps = space.range(&nodes(block));
            let settled = detached(&sizes, &comps);
            topo.fused_downstream_chunk(
                block,
                Tile::new(
                    &mut sizes.as_mut_slice()[comps.clone()],
                    comps.start,
                    &settled,
                    0,
                ),
                &extra,
                view(&mut charged, Space::Nodes, block, true),
                view(&mut presented, Space::Nodes, block, true),
                &mut resize,
            );
        }
        for block in &blocks {
            let comps = space.range(&nodes(block));
            let settled = detached(&sizes, &comps);
            topo.fused_upstream_chunk(
                nodes(block),
                Tile::new(
                    &mut sizes.as_mut_slice()[comps.clone()],
                    comps.start,
                    &settled,
                    0,
                ),
                &weights,
                view(&mut upstream, Space::Nodes, block, false),
                &mut resize,
            );
        }
        assert_eq!((sizes, charged, presented, upstream), reference);
    }

    /// The fused passes leave every table they maintain exactly as a
    /// rebuild at the post-pass sizes would: `charged`/`presented` after the
    /// backward pass, `upstream` after the forward pass.
    #[test]
    fn fused_passes_leave_tables_equal_to_a_rebuild_at_the_new_sizes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let extra = vec![0.3; n];
        let weights = vec![0.5; n];
        let grow: fn(usize, usize, f64, f64) -> f64 =
            |_comp, _node, value, x| (x + value.sqrt()).clamp(0.5, 6.0);
        let analyzer = ElmoreAnalyzer::new(&c);
        for blocks in blockings(&topo) {
            // The backward pass alone: its tables describe its own output.
            let mut sizes = c.uniform_sizes(1.0);
            let (mut charged, mut presented) = (vec![0.0; n], vec![0.0; n]);
            let tables = (charged.as_mut_slice(), presented.as_mut_slice());
            fused_backward(&topo, &blocks, &mut sizes, &extra, tables, grow);
            let rebuilt = analyzer.downstream_caps(&sizes, Some(&extra));
            assert_eq!(charged, rebuilt.charged, "{blocks:?}");
            assert_eq!(presented, rebuilt.presented, "{blocks:?}");

            let mut upstream = vec![0.0; n];
            fused_forward(&topo, &blocks, &mut sizes, &weights, &mut upstream, grow);
            assert_eq!(
                upstream,
                analyzer.weighted_upstream_resistance(&sizes, &weights),
                "{blocks:?}"
            );
        }
    }

    /// `generated(width, depth)` decoded from parts in which the primary
    /// outputs' loads take every form a decoded graph may give them: a
    /// `-0.0`, a zero (no entry in the load list), a load on a wire that
    /// does not drive the sink, and a driver that drives the sink with a
    /// load of its own.
    fn decoded_loads(width: usize, depth: usize) -> CircuitGraph {
        let c = generated(width, depth);
        let ids: Vec<NodeId> = c.node_ids().collect();
        let mut nodes: Vec<crate::node::Node> = ids.iter().map(|&id| c.node(id)).collect();
        let names: Vec<&str> = ids.iter().map(|&id| c.name(id)).collect();
        let mut fanin: Vec<Vec<NodeId>> = ids.iter().map(|&id| c.fanin(id).to_vec()).collect();
        let mut fanout: Vec<Vec<NodeId>> = ids.iter().map(|&id| c.fanout(id).to_vec()).collect();
        let (sink, last) = (c.sink(), depth - 1);
        let at = |name: String| c.node_by_name(&name).unwrap().index();
        nodes[at(format!("w{last}_0"))].attrs.output_load = -0.0;
        nodes[at(format!("w{last}_1"))].attrs.output_load = 0.0;
        nodes[at("i2".to_string())].attrs.output_load = 3.25;
        let driver = at("d3".to_string());
        nodes[driver].attrs.output_load = 2.5;
        fanout[driver].push(sink);
        fanin[sink.index()].push(NodeId::new(driver));
        CircuitGraph::from_serialized_parts(
            nodes,
            &names,
            fanin,
            fanout,
            *c.technology(),
            c.num_drivers(),
            c.num_components(),
        )
        .unwrap()
    }

    /// The backward kernels read each sink edge's load through the load
    /// cursor: over every cut of the level partition into blocks, the
    /// rebuild and the fused pass leave `charged`/`presented` bitwise equal
    /// to the analyzer's, on a graph with every form of load.
    #[test]
    fn sink_loads_match_the_analyzer_across_blockings() {
        let c = decoded_loads(8, 4);
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let extra: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.25).collect();
        let sizes: SizeVector = (0..c.num_components())
            .map(|i| 0.5 + (i % 5) as f64)
            .collect();
        let analyzer = ElmoreAnalyzer::new(&c);
        let reference = analyzer.downstream_caps(&sizes, Some(&extra));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let grow: fn(usize, usize, f64, f64) -> f64 =
            |_comp, _node, value, x| (x + value.sqrt()).clamp(0.5, 6.0);
        for blocks in blockings(&topo) {
            let (charged, presented) = caps(&topo, &blocks, &sizes, &extra);
            assert_eq!(bits(&charged), bits(&reference.charged), "{blocks:?}");
            assert_eq!(bits(&presented), bits(&reference.presented), "{blocks:?}");

            let mut resized = sizes.clone();
            let (mut charged, mut presented) = (vec![0.0; n], vec![0.0; n]);
            let tables = (charged.as_mut_slice(), presented.as_mut_slice());
            fused_backward(&topo, &blocks, &mut resized, &extra, tables, grow);
            let rebuilt = analyzer.downstream_caps(&resized, Some(&extra));
            assert_eq!(bits(&charged), bits(&rebuilt.charged), "{blocks:?}");
            assert_eq!(bits(&presented), bits(&rebuilt.presented), "{blocks:?}");
        }
        let mut ws = EvalWorkspace::new(&topo);
        ws.extra_cap.copy_from_slice(&extra);
        timing(&topo, &sizes, &mut ws);
        assert_eq!(
            bits(&ws.delays),
            bits(&analyzer.delays(&sizes, Some(&extra)))
        );
    }

    /// The delay kernel is per-node independent: any split of the node
    /// range reproduces the analyzer's delays bitwise.
    #[test]
    fn delays_chunk_matches_delays_into_for_every_range_split() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = c.num_nodes();
        let sizes = c.uniform_sizes(1.7);
        let analyzer = ElmoreAnalyzer::new(&c);
        let charged = analyzer.downstream_caps(&sizes, None).charged;
        let reference = analyzer.delays(&sizes, None);
        for split in 0..=n {
            let mut delays = vec![f64::NAN; n];
            let (low, high) = delays.split_at_mut(split);
            let xs = sizes.as_slice();
            topo.delays_chunk(0..split, xs, &charged, Tile::new(low, 0, &[], 0));
            topo.delays_chunk(split..n, xs, &charged, Tile::new(high, split, &[], 0));
            assert_eq!(delays, reference, "split at {split}");
        }
    }

    /// A backward kernel visits only the nodes between its first and last
    /// bound, which the views were checked against: bounds that decrease
    /// are refused before any node outside is visited.
    #[test]
    #[should_panic(expected = "level bounds must not decrease")]
    fn backward_kernels_refuse_decreasing_bounds() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let n = topo.num_nodes();
        let (mut charged, mut presented) = (vec![0.0; n], vec![0.0; n]);
        topo.downstream_caps_chunk(
            &[3, 1, n as u32],
            c.uniform_sizes(1.0).as_slice(),
            &vec![0.0; n],
            Tile::new(&mut charged[3..], 3, &[], 0),
            Tile::new(&mut presented[3..], 3, &[], 0),
        );
    }

    #[test]
    fn topology_maps_components_to_nodes() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        for id in c.node_ids() {
            assert_eq!(topo.component_of(id.index()), c.component_index(id));
        }
        assert_eq!(
            topo.component_nodes(),
            c.component_id(0).index()..c.sink().index()
        );
        // The attribute view gives the node attributes; fringing is zero
        // off the wires.
        for id in c.component_ids() {
            let attrs = &c.node(id).attrs;
            let rc = topo.attributes().get(id.index());
            assert_eq!(rc.resistance, attrs.unit_resistance);
            assert_eq!(rc.unit_capacitance, attrs.unit_capacitance);
            let fringing = if c.node(id).kind.is_wire() {
                attrs.fringing_capacitance
            } else {
                0.0
            };
            assert_eq!(rc.fringing, fringing);
        }
    }

    #[test]
    fn workspace_buffers_are_sized_for_the_circuit() {
        let c = chain();
        let topo = CircuitTopology::new(&c);
        let mut ws = EvalWorkspace::new(&topo);
        assert_eq!(ws.charged.len(), c.num_nodes());
        assert_eq!(ws.upstream.len(), c.num_nodes());
        assert_eq!(ws.arrival.len(), c.num_nodes());
        assert!(ws.memory_bytes() > 0);
        // The chain is one node per level, so its critical path fills the
        // reserved capacity without outgrowing it.
        let capacity = ws.critical_path.capacity();
        assert_eq!(capacity, topo.num_levels());
        timing(&topo, &c.uniform_sizes(1.0), &mut ws);
        assert_eq!(ws.critical_path.len(), topo.num_levels() - 2);
        assert_eq!(ws.critical_path.capacity(), capacity);
    }
}
