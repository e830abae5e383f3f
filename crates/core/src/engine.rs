//! The cross-layer sizing engine: circuit + coupling + delay model + scratch.
//!
//! [`SizingEngine`] binds a circuit graph, its coupling set, the
//! [`CircuitTopology`] the Elmore traversals run over and an
//! [`EvalWorkspace`] together, and reads the per-component attributes the
//! LRS closed-form resize needs in its innermost loop. Tables the graph or
//! the coupling set already hold — the adjacency, the kind and parameter
//! columns the attributes are derived from, the per-wire coupling
//! coefficient sums — are borrowed, not copied, and component indices are
//! computed rather than stored.
//! Built once per [`SizingProblem`] (or circuit), it makes every evaluation the optimizer performs — coupling loads,
//! downstream capacitances, weighted upstream resistances, timing, metrics,
//! LRS sweeps — allocation-free after setup.
//!
//! The arithmetic is performed in exactly the same order as the
//! allocate-per-call reference path ([`crate::reference`],
//! [`CircuitMetrics::evaluate`]), so the two produce bitwise identical
//! results; the `property_eval_engine` integration test enforces this.

use ncgws_circuit::{
    Attributes, CircuitGraph, CircuitTopology, EvalWorkspace, NodeId, NodeKind, SizeBounds,
    SizeVector, Space, Tile, Tiles,
};
use ncgws_coupling::CouplingSet;

use crate::constraints::ConstraintSet;
use crate::lagrangian::Multipliers;
use crate::metrics::CircuitMetrics;
use crate::par::{self, LevelGrid, ParRuntime, ParallelPolicy};
use crate::problem::SizingProblem;
use crate::schedule::{AdaptiveSchedule, ScheduleWorkspace};
use crate::units;
use std::ops::Range;

/// A borrowed, allocation-free view of one timing evaluation. All slices are
/// indexed by raw node index and stay valid until the engine's next
/// `&mut self` call.
#[derive(Debug)]
pub struct TimingView<'a> {
    /// Per-component Elmore delays `D_i`.
    pub delays: &'a [f64],
    /// Tightest arrival times `a_i`.
    pub arrival: &'a [f64],
    /// Delay of the critical path (the circuit delay `D`).
    pub critical_path_delay: f64,
    /// The nodes of one critical path, from a driver to a primary output.
    pub critical_path: &'a [NodeId],
}

/// The reusable evaluation engine threaded through the whole two-stage flow.
#[derive(Debug, Clone)]
pub struct SizingEngine<'a> {
    graph: &'a CircuitGraph,
    coupling: &'a CouplingSet,
    /// The Elmore view of `graph` every traversal runs over; it borrows the
    /// graph's adjacency.
    topo: CircuitTopology<'a>,
    pub(crate) ws: EvalWorkspace,
    // No per-component attribute table: a component's kind, `r̂`, `ĉ`, `f`
    // and `α` are read through the topology's view of the graph, which
    // derives them from the kind and parameter columns, and the raw node
    // of component `i` is `topo.component_nodes().start + i`.
    /// The components' size bounds: the graph's view of the technology's
    /// range and its sparse overrides, no table per component.
    pub(crate) bounds: SizeBounds<'a>,
    /// `Σ_j sf_ij · ĉ_ij` per component: the component range of the
    /// coupling set's own per-node sums, borrowed.
    pub(crate) coupling_sum: &'a [f64],
    /// Per-component denominator contribution `Σ_f Σ_k μ_{f,k} · a_{f,k,i}`
    /// of the extra constraint families, aggregated once per LRS solve by
    /// [`load_extra_denominator`](Self::load_extra_denominator). Empty
    /// while the solve has no extra constraints, and the closed-form resize
    /// adds the term only when it is not, so the legacy formulation pays
    /// for no table of zeros.
    extra_denom: Vec<f64>,
    /// Mutable state of the adaptive solve schedule (active/frozen
    /// partition, calm streaks, cache-sync snapshot).
    pub(crate) sched: ScheduleWorkspace,
    /// The parallel runtime ([`crate::par`]): policy, worker pool and
    /// work-queue heads. One worker until [`set_parallel`](Self::set_parallel)
    /// selects more.
    pub(crate) par: ParRuntime,
    /// The deterministic block grid over the topology's level partition:
    /// every traversal pass runs over it.
    grid: LevelGrid,
    /// Per-block reduction slots of the sweeps (sized once per engine):
    /// one per block of the grid, or per chunk of a flat pass. Each block
    /// is handed its own slot during a pass, and the caller merges them in
    /// fixed block order afterwards, which is what makes the reductions
    /// independent of the thread count.
    block_stats: Vec<ChunkStats>,
}

/// Per-sweep immutable view of the Theorem-5 closed-form resize inputs,
/// shared by the fused-pass closures (indexed by dense component).
struct ResizeTables<'a> {
    kind: &'a [NodeKind],
    /// The components' parameters: a wire's length, from which `attributes`
    /// derives its `r̂`, `ĉ` and `α` (a gate's are the technology's).
    param: &'a [f64],
    /// The graph's attributes, by raw node index: component `i` is node
    /// `first + i`.
    attributes: Attributes<'a>,
    first: usize,
    bounds: SizeBounds<'a>,
    coupling_sum: &'a [f64],
    extra_denom: &'a [f64],
    beta: f64,
    gamma: f64,
}

impl ResizeTables<'_> {
    /// The Theorem-5 closed-form resize of one component — the per-component
    /// arithmetic of the reference LRS sweep, expression for expression.
    /// Returns `(x_new, relative_change)`. An empty `extra_denom` stands for
    /// a table of zeros: the term is added only when the table is filled.
    #[inline(always)]
    fn closed_form(
        &self,
        comp: usize,
        x_i: f64,
        charged_i: f64,
        upstream_i: f64,
        lambda_i: f64,
    ) -> (f64, f64) {
        let coupling_sum = self.coupling_sum[comp];
        let kind = self.kind[comp];
        let node = self.first + comp;
        let rc = if kind.is_wire() {
            self.attributes.wire(node, self.param[comp])
        } else {
            self.attributes.gate(node)
        };
        let mut cap_num = charged_i;
        if kind.is_wire() {
            cap_num -= rc.unit_capacitance * x_i / 2.0;
            cap_num -= coupling_sum * x_i;
        }
        if cap_num < 0.0 {
            cap_num = 0.0;
        }
        let mut denominator = rc.area_coefficient
            + (self.beta + upstream_i) * rc.unit_capacitance
            + self.gamma * coupling_sum;
        if !self.extra_denom.is_empty() {
            denominator += self.extra_denom[comp];
        }
        let numerator = lambda_i * rc.resistance * cap_num;
        let opt = if denominator > 0.0 && numerator > 0.0 {
            (numerator / denominator).sqrt()
        } else {
            0.0
        };
        let (lower, upper) = self.bounds.get(comp);
        let x_new = opt.clamp(lower, upper);
        let rel = (x_new - x_i).abs() / x_i.abs().max(1e-12);
        (x_new, rel)
    }
}

/// Block-shared context of one fused resize pass: the Theorem-5 tables
/// and the freeze schedule. [`resize`](Self::resize) is the single place
/// the fused passes' per-component semantics live — both traversal
/// directions feed it their fresh quantity and the pass-fixed complement,
/// and the calm/freeze rule delegates to
/// [`ScheduleWorkspace::note_resize`].
struct FusedChunkCtx<'a> {
    tables: ResizeTables<'a>,
    schedule: &'a AdaptiveSchedule,
    resize_all: bool,
}

/// Per-block running reductions of a pass, merged in fixed block order by
/// the caller.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkStats {
    worst: f64,
    touched: u32,
}

/// One block's share of a fused pass's freeze state: the calm streaks
/// and frozen flags of its components, the first being component `first`,
/// and its running reductions.
struct BlockSchedule<'t> {
    calm: &'t mut [u32],
    frozen: &'t mut [bool],
    first: usize,
    stats: ChunkStats,
}

impl<'t> BlockSchedule<'t> {
    /// The freeze state of the components `comps`, split off the block's
    /// views.
    fn new(
        calm: &'t mut Tile<'_, u32>,
        frozen: &'t mut Tile<'_, bool>,
        comps: Range<usize>,
    ) -> Self {
        BlockSchedule {
            calm: calm.level(&comps, false).0,
            frozen: frozen.level(&comps, false).0,
            first: comps.start,
            stats: ChunkStats::default(),
        }
    }
}

impl FusedChunkCtx<'_> {
    /// The block-side resize of one node's component, called by the fused
    /// kernels the moment the node's fresh quantity is known: frozen-skip,
    /// the Theorem-5 closed form and calm/freeze bookkeeping. Returns the
    /// new size (the old one when skipped), which the kernel writes back.
    #[inline(always)]
    fn resize(
        &self,
        block: &mut BlockSchedule<'_>,
        comp: usize,
        x: f64,
        charged: f64,
        upstream: f64,
        lambda: f64,
    ) -> f64 {
        let k = comp - block.first;
        if !self.resize_all && block.frozen[k] {
            return x;
        }
        block.stats.touched += 1;
        let (x_new, rel) = self.tables.closed_form(comp, x, charged, upstream, lambda);
        block.stats.worst = block.stats.worst.max(rel);
        ScheduleWorkspace::note_resize(
            &mut block.calm[k],
            &mut block.frozen[k],
            rel,
            self.schedule,
        );
        x_new
    }
}

impl<'a> SizingEngine<'a> {
    /// Creates an engine for a circuit and its coupling set.
    pub fn new(graph: &'a CircuitGraph, coupling: &'a CouplingSet) -> Self {
        let n = graph.num_components();
        let topo = CircuitTopology::new(graph);
        let components = topo.component_nodes();
        let coupling_sum = &coupling.linear_coefficient_sums()[components.clone()];
        for pair in coupling.pairs() {
            // The pair loops read a pair endpoint's size at its raw index
            // minus the first component's, which is in range only for a
            // component.
            for end in [pair.a, pair.b] {
                assert!(
                    components.contains(&end.index()),
                    "coupled wires are sizable"
                );
            }
        }
        let grid = LevelGrid::new(topo.level_bounds());
        let total_slots = grid
            .total_slots()
            .max(par::flat_blocks(graph.num_nodes()).len());
        SizingEngine {
            graph,
            coupling,
            ws: EvalWorkspace::new(&topo),
            bounds: graph.component_bounds(),
            topo,
            coupling_sum,
            extra_denom: Vec::new(),
            sched: ScheduleWorkspace::new(n),
            par: ParRuntime::new(),
            grid,
            block_stats: vec![ChunkStats::default(); total_slots],
        }
    }

    /// Creates an engine for an assembled sizing problem.
    pub fn for_problem(problem: &SizingProblem<'a>) -> Self {
        SizingEngine::new(problem.graph, problem.coupling)
    }

    /// Selects how this engine's traversals are distributed across threads
    /// (see [`ParallelPolicy`]); [`OgwsSolver`](crate::OgwsSolver) applies
    /// the configuration's policy at the start of every run. The policy
    /// only changes *who computes what*: outcomes are bitwise identical for
    /// every thread count, and the exact solve strategy stays
    /// bitwise-pinned to [`crate::reference`].
    pub fn set_parallel(&mut self, policy: ParallelPolicy) {
        self.par.configure(policy);
    }

    /// The parallel runtime, for sibling subsystems (subgradient update,
    /// flow projection) that run their own deterministic passes.
    pub(crate) fn par_runtime(&self) -> &ParRuntime {
        &self.par
    }

    /// The block grid every leveled pass runs over, for sibling subsystems
    /// (flow projection).
    pub(crate) fn level_grid(&self) -> &LevelGrid {
        &self.grid
    }

    /// The circuit this engine evaluates.
    pub fn graph(&self) -> &'a CircuitGraph {
        self.graph
    }

    /// The coupling set this engine evaluates.
    pub fn coupling(&self) -> &'a CouplingSet {
        self.coupling
    }

    /// The scratch workspace (read access; the engine owns the mutation).
    pub fn workspace(&self) -> &EvalWorkspace {
        &self.ws
    }

    /// Bytes held by the engine's scratch and dense tables, for the
    /// Figure 10(a) memory accounting. Covers every engine-owned
    /// allocation: the evaluation workspace, the extra-family denominator,
    /// the adaptive-schedule buffers (freeze state, sync snapshot), the
    /// block grid and its reduction slots, and the topology's derived
    /// columns. Borrowed tables — the graph's adjacency and node attribute
    /// columns, the coupling set's pairs and coefficient sums — are counted
    /// once, by their owners
    /// ([`CircuitGraph::memory_bytes`], [`CouplingSet::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ws.memory_bytes()
            + self.extra_denom.capacity() * size_of::<f64>()
            + self.sched.memory_bytes()
            + self.grid.memory_bytes()
            + self.block_stats.capacity() * size_of::<ChunkStats>()
            + self.topo.memory_bytes()
    }

    /// Total component capacitance `Σ c_i` (fF, excluding coupling) over
    /// the components' derived attributes — bitwise identical to
    /// [`ncgws_circuit::total_capacitance`] (same per-component arithmetic,
    /// same accumulation order), at a fraction of the pointer-chasing cost.
    pub fn total_capacitance(&self, sizes: &SizeVector) -> f64 {
        let xs = sizes.as_slice();
        assert_eq!(
            xs.len(),
            self.graph.num_components(),
            "sizes must match the circuit"
        );
        let attributes = self.topo.attributes().range(self.topo.component_nodes());
        let mut acc = 0.0;
        for (rc, &x) in attributes.zip(xs) {
            acc += rc.unit_capacitance * x + rc.fringing;
        }
        acc
    }

    /// Total area `Σ α_i x_i` (µm²) over the components' derived
    /// attributes — bitwise identical to [`ncgws_circuit::total_area`].
    pub fn total_area(&self, sizes: &SizeVector) -> f64 {
        let xs = sizes.as_slice();
        assert_eq!(
            xs.len(),
            self.graph.num_components(),
            "sizes must match the circuit"
        );
        let attributes = self.topo.attributes().range(self.topo.component_nodes());
        let mut acc = 0.0;
        for (rc, &x) in attributes.zip(xs) {
            acc += rc.area_coefficient * x;
        }
        acc
    }

    /// Crosstalk left-hand side `Σ sf_ij · ĉ_ij · (x_i + x_j)` over the
    /// coupling set's pairs — bitwise identical to
    /// [`CouplingSet::crosstalk_lhs`] (same pair order).
    pub fn crosstalk_lhs(&self, sizes: &SizeVector) -> f64 {
        let xs = sizes.as_slice();
        assert_eq!(
            xs.len(),
            self.graph.num_components(),
            "sizes must match the circuit"
        );
        let base = self.topo.component_nodes().start;
        let mut acc = 0.0;
        for p in self.coupling.pairs() {
            acc += p.switching_factor
                * p.linear_coefficient()
                * (xs[p.a.index() - base] + xs[p.b.index() - base]);
        }
        acc
    }

    /// Fills `ws.extra_cap` with the per-node coupling load for `sizes`,
    /// reading the coupling set's pairs in place. Performs exactly the
    /// arithmetic of `CouplingSet::delay_load_into`
    /// (`sf · (~c + ĉ·(x_i + x_j))` per pair, in pair order), so the result
    /// is bitwise identical.
    pub(crate) fn refresh_coupling_load(&mut self, sizes: &SizeVector) {
        let load = &mut self.ws.extra_cap;
        load.fill(0.0);
        let sizes = sizes.as_slice();
        assert_eq!(
            sizes.len(),
            self.graph.num_components(),
            "sizes must match the circuit"
        );
        let base = self.topo.component_nodes().start;
        for p in self.coupling.pairs() {
            let (a, b) = (p.a.index(), p.b.index());
            let c = p.effective_crosstalk(sizes[a - base], sizes[b - base]);
            load[a] += c;
            load[b] += c;
        }
    }

    /// Fills `ws.node_weights` with the aggregated edge multipliers.
    pub(crate) fn load_node_weights(&mut self, multipliers: &Multipliers<'_>) {
        multipliers.node_weights_into(self.graph, &mut self.ws.node_weights);
    }

    /// A2 aggregation for the extra constraint families: fills the dense
    /// `extra_denom` table with `Σ_f Σ_k μ_{f,k} · a_{f,k,i}` per component.
    /// Runs once per LRS solve (the multipliers are fixed within a solve)
    /// and costs `O(components + total terms)`. Without extra constraints
    /// the table is left empty, which the closed-form resize reads as all
    /// zeros: the legacy formulation never allocates it, and a legacy solve
    /// on an engine reused after a constrained one never sees stale
    /// contributions. The first constrained solve allocates it once; later
    /// ones reuse the capacity.
    pub(crate) fn load_extra_denominator(
        &mut self,
        extras: &ConstraintSet,
        multipliers: &Multipliers<'_>,
    ) {
        self.extra_denom.clear();
        if extras.is_empty() {
            return;
        }
        self.extra_denom.resize(self.graph.num_components(), 0.0);
        extras.accumulate_denominator(multipliers.extra_blocks(), &mut self.extra_denom);
    }

    /// Resets `sizes` to the per-component lower bounds (step S1 of
    /// Figure 8) without allocating.
    pub(crate) fn reset_to_lower_bounds(&self, sizes: &mut SizeVector) {
        debug_assert_eq!(sizes.len(), self.bounds.len());
        for (i, x) in sizes.iter_mut().enumerate() {
            *x = self.bounds.get(i).0;
        }
    }

    /// Full downstream-capacitance rebuild at `sizes` (the coupling load
    /// must already be in `ws.extra_cap`) over the block grid, blocks in
    /// reverse dependency order. Each node's accumulation runs over its own
    /// CSR fanout list in list order, reading only settled later levels.
    fn rebuild_downstream_caps(&mut self, sizes: &SizeVector) {
        let (topo, ws) = (&self.topo, &mut self.ws);
        let (xs, extra) = (sizes.as_slice(), &ws.extra_cap[..]);
        for step in self.grid.steps(true) {
            let mut charged = step.tiles(&mut ws.charged, Space::Nodes);
            let mut presented = step.tiles(&mut ws.presented, Space::Nodes);
            let blocks = step.blocks().map(|block| {
                let nodes = block.nodes();
                (block, charged.next(&nodes), presented.next(&nodes))
            });
            self.par.run(blocks, |(block, charged, presented)| {
                topo.downstream_caps_chunk(block.bounds, xs, extra, charged, presented);
            });
        }
    }

    /// Full λ-weighted upstream-resistance rebuild at `sizes` (weights from
    /// `ws.node_weights`): the forward counterpart of
    /// [`rebuild_downstream_caps`](Self::rebuild_downstream_caps).
    fn rebuild_upstream(&mut self, sizes: &SizeVector) {
        let (topo, ws) = (&self.topo, &mut self.ws);
        let (xs, weights) = (sizes.as_slice(), &ws.node_weights[..]);
        for step in self.grid.steps(false) {
            let mut upstream = step.tiles(&mut ws.upstream, Space::Nodes);
            let blocks = step.blocks().map(|block| {
                let nodes = block.nodes();
                (upstream.next(&nodes), nodes)
            });
            self.par.run(blocks, |(upstream, nodes)| {
                topo.upstream_resistance_chunk(nodes, xs, weights, upstream);
            });
        }
    }

    /// One greedy LRS coordinate sweep (steps S2–S4 of Figure 8): recompute
    /// the capacitances, coupling loads and weighted upstream resistances at
    /// the current `sizes`, then apply the Theorem 5 closed-form resize to
    /// every component in topological order, updating in place.
    ///
    /// `ws.node_weights` must have been filled by
    /// [`load_node_weights`](Self::load_node_weights). Returns the largest
    /// relative size change of the sweep (the S5 convergence measure).
    pub(crate) fn lrs_sweep(&mut self, sizes: &mut SizeVector, beta: f64, gamma: f64) -> f64 {
        // The exact sweep rebuilds the cached tables at its own sizes and
        // then resizes in place, so the adaptive schedule's sync snapshot no
        // longer describes them.
        self.sched.caps_synced = false;
        self.sched.charged_fresh = false;

        // S2: downstream capacitances C_i with the coupling load included.
        self.refresh_coupling_load(sizes);
        self.rebuild_downstream_caps(sizes);
        // S3: λ-weighted upstream resistances R_i.
        self.rebuild_upstream(sizes);

        // S4 + S5: the closed-form resize is component-separable (each
        // component reads only the fixed charged/upstream/λ tables and its
        // own size), so flat chunks distribute it freely; the per-chunk
        // maxima of the relative change (S5's convergence measure) merge in
        // fixed chunk order. The per-component arithmetic is the reference
        // sweep's, expression for expression, so the exact path stays
        // bitwise-pinned to `crate::reference` at any thread count.
        let tables = ResizeTables {
            kind: self.topo.component_kinds(),
            param: &self.topo.attributes().params()[self.topo.component_nodes()],
            attributes: self.topo.attributes(),
            first: self.topo.component_nodes().start,
            bounds: self.bounds,
            coupling_sum: self.coupling_sum,
            extra_denom: &self.extra_denom,
            beta,
            gamma,
        };
        // The tables from the first component on: the zips below stop at
        // the chunk's own sizes.
        let first = self.topo.component_nodes().start;
        let charged = &self.ws.charged[first..];
        let upstream = &self.ws.upstream[first..];
        let lambda = &self.ws.node_weights[first..];
        let xs = sizes.as_mut_slice();
        assert_eq!(
            xs.len(),
            self.graph.num_components(),
            "sizes must match the circuit"
        );
        let chunks = par::flat_blocks(xs.len()).zip(xs.chunks_mut(par::CHUNK_NODES));
        let blocks = chunks.zip(self.block_stats.iter_mut());
        self.par.run(blocks, |((dense, xs), slot)| {
            let inputs = charged[dense.start..]
                .iter()
                .zip(&upstream[dense.start..])
                .zip(&lambda[dense.start..]);
            let mut worst = 0.0f64;
            for ((comp, x), ((&charged, &upstream), &lambda)) in dense.zip(xs).zip(inputs) {
                let (x_new, rel) = tables.closed_form(comp, *x, charged, upstream, lambda);
                *x = x_new;
                worst = worst.max(rel);
            }
            slot.worst = worst;
        });
        let chunks = sizes.len().div_ceil(par::CHUNK_NODES);
        let mut worst = 0.0f64;
        for stats in &self.block_stats[..chunks] {
            worst = worst.max(stats.worst);
        }
        worst
    }

    // ------------------------------------------------------------------
    // Adaptive solve schedule (`crate::schedule`): cache-sync bookkeeping
    // and active-set sweeps. The cached tables are only ever brought up to
    // date by the full rebuilds above, skipped when they already reflect
    // the current sizes. The exact path above stays bitwise-pinned to
    // `crate::reference`; everything below is validated by invariants
    // (`schedule_strategies` integration tests).
    // ------------------------------------------------------------------

    /// Records that `ws.extra_cap`/`ws.charged`/`ws.presented` reflect
    /// `sizes` exactly.
    fn note_caps_synced(&mut self, sizes: &SizeVector) {
        self.sched.eval_sizes.copy_from_slice(sizes.as_slice());
        self.sched.caps_synced = true;
        self.sched.charged_fresh = false;
    }

    /// Resets the adaptive-schedule state (everything active, caches
    /// untrusted). [`OgwsSolver`](crate::OgwsSolver) calls this once per
    /// adaptive run so freeze state never leaks between runs sharing one
    /// engine; call it yourself before driving
    /// [`LrsSolver::solve_scheduled`](crate::LrsSolver::solve_scheduled)
    /// standalone.
    pub fn reset_schedule(&mut self) {
        self.sched.reset();
    }

    /// Captures the adaptive schedule's serializable cross-solve state for
    /// a [`Snapshot`](crate::Snapshot).
    pub(crate) fn schedule_state(&self) -> crate::schedule::ScheduleState {
        self.sched.capture()
    }

    /// Restores a captured schedule state (freeze sets + sweep counter);
    /// the cached tables stay unsynced so the next solve rebuilds them from
    /// the restored sizes.
    pub(crate) fn restore_schedule_state(&mut self, state: &crate::schedule::ScheduleState) {
        self.sched.restore(state);
    }

    /// Number of currently frozen components.
    pub(crate) fn frozen_components(&self) -> usize {
        self.sched.num_frozen
    }

    /// Whether the active set is empty (every component frozen).
    pub(crate) fn active_set_is_empty(&self) -> bool {
        self.sched.num_frozen == self.sched.frozen.len()
    }

    /// Counter of sweeps performed across the run (drives the verification
    /// cadence).
    pub(crate) fn bump_global_sweep(&mut self) -> usize {
        self.sched.global_sweep += 1;
        self.sched.global_sweep
    }

    /// Ensures `ws.charged`/`ws.presented` reflect `sizes` exactly — the
    /// precondition of a forward fused pass, whose resizes read the charged
    /// table. No-op when they are already current: right after a backward
    /// fused pass (which maintains them through every resize), or after a
    /// [`timing`](Self::timing) evaluation at the same sizes (the OGWS
    /// steady state).
    fn ensure_charged_fresh(&mut self, sizes: &SizeVector) {
        if self.sched.charged_fresh || self.sched.tables_current(sizes.as_slice()) {
            return;
        }
        self.refresh_coupling_load(sizes);
        self.rebuild_downstream_caps(sizes);
        self.note_caps_synced(sizes);
    }

    /// One forward fused Gauss–Seidel pass
    /// ([`CircuitTopology::fused_upstream_chunk`] over the block grid): one
    /// forward-topological traversal recomputes the λ-weighted upstream
    /// resistances over the freshly resized upstream state and resizes each
    /// component the moment its upstream resistance is known, reading the
    /// charged table of the previous backward pass. With `resize_all` every
    /// component is re-checked (verification semantics); otherwise frozen
    /// components are skipped. Returns `(worst relative change, components
    /// touched)`.
    pub(crate) fn fused_forward_sweep(
        &mut self,
        sizes: &mut SizeVector,
        beta: f64,
        gamma: f64,
        schedule: &AdaptiveSchedule,
        resize_all: bool,
    ) -> (f64, usize) {
        self.ensure_charged_fresh(sizes);
        self.fused_sweep(sizes, beta, gamma, schedule, resize_all, false)
    }

    /// One backward fused Gauss–Seidel pass
    /// ([`CircuitTopology::fused_downstream_chunk`] over the block grid):
    /// the coupling loads are rebuilt at the current sizes, then one
    /// reverse-topological traversal re-accumulates the downstream
    /// capacitances and resizes each component the moment its charged
    /// capacitance is known, reading the upstream table of the previous
    /// forward pass. Alternating the two directions refreshes both sides of
    /// the Theorem-5 formula with one traversal each and roughly squares the
    /// per-pass contraction, so solves converge in far fewer sweeps.
    pub(crate) fn fused_backward_sweep(
        &mut self,
        sizes: &mut SizeVector,
        beta: f64,
        gamma: f64,
        schedule: &AdaptiveSchedule,
        resize_all: bool,
    ) -> (f64, usize) {
        // The pass rebuilds charged/presented around these loads, so the
        // tables reflect `sizes` until the pass resizes something.
        self.refresh_coupling_load(sizes);
        self.note_caps_synced(sizes);
        self.fused_sweep(sizes, beta, gamma, schedule, resize_all, true)
    }

    /// One fused Gauss–Seidel pass over the block grid, `backward` or
    /// forward. The caller has already prepared the pass's fixed-side
    /// caches.
    ///
    /// Determinism: block boundaries come from the fixed grid; per-node
    /// arithmetic reads only settled neighbor levels; the calm/frozen
    /// bookkeeping touches each block's own components; and the worst /
    /// touched reductions are written to per-block slots and merged below
    /// in fixed block order — so the outcome is bitwise identical for every
    /// thread count.
    fn fused_sweep(
        &mut self,
        sizes: &mut SizeVector,
        beta: f64,
        gamma: f64,
        schedule: &AdaptiveSchedule,
        resize_all: bool,
        backward: bool,
    ) -> (f64, usize) {
        let topo = &self.topo;
        let ctx = FusedChunkCtx {
            tables: ResizeTables {
                kind: topo.component_kinds(),
                param: &topo.attributes().params()[topo.component_nodes()],
                attributes: topo.attributes(),
                first: topo.component_nodes().start,
                bounds: self.bounds,
                coupling_sum: self.coupling_sum,
                extra_denom: &self.extra_denom,
                beta,
                gamma,
            },
            schedule,
            resize_all,
        };
        let comps = topo.component_space();
        let EvalWorkspace {
            charged,
            presented,
            upstream,
            extra_cap,
            node_weights,
            ..
        } = &mut self.ws;
        let (sched, par, grid) = (&mut self.sched, &self.par, &self.grid);
        let block_stats = &mut self.block_stats;
        let weights: &[f64] = node_weights;
        for step in grid.steps(backward) {
            let mut xs = step.tiles(sizes.as_mut_slice(), comps);
            let mut calm = step.tiles(&mut sched.calm, comps);
            let mut frozen = step.tiles(&mut sched.frozen, comps);
            let schedule_tiles =
                step.blocks()
                    .zip(&mut block_stats[step.slots()])
                    .map(|(block, slot)| {
                        let nodes = block.nodes();
                        (
                            block,
                            slot,
                            xs.next(&nodes),
                            calm.next(&nodes),
                            frozen.next(&nodes),
                        )
                    });
            if backward {
                let (upstream, extra): (&[f64], &[f64]) = (upstream, extra_cap);
                let mut charged = step.tiles(charged, Space::Nodes);
                let mut presented = step.tiles(presented, Space::Nodes);
                let blocks = schedule_tiles.map(|(block, slot, xs, calm, frozen)| {
                    let nodes = block.nodes();
                    let tables = (charged.next(&nodes), presented.next(&nodes));
                    (block, slot, xs, (calm, frozen), tables)
                });
                par.run(
                    blocks,
                    |(block, slot, xs, (mut calm, mut frozen), (charged, presented))| {
                        let comps = comps.range(&block.nodes());
                        let mut state = BlockSchedule::new(&mut calm, &mut frozen, comps);
                        let mut resize = |comp: usize, node: usize, charged_i: f64, x_i: f64| {
                            ctx.resize(
                                &mut state,
                                comp,
                                x_i,
                                charged_i,
                                upstream[node],
                                weights[node],
                            )
                        };
                        topo.fused_downstream_chunk(
                            block.bounds,
                            xs,
                            extra,
                            charged,
                            presented,
                            &mut resize,
                        );
                        *slot = state.stats;
                    },
                );
            } else {
                let charged: &[f64] = charged;
                let mut upstream = step.tiles(upstream, Space::Nodes);
                let blocks = schedule_tiles.map(|(block, slot, xs, calm, frozen)| {
                    let upstream = upstream.next(&block.nodes());
                    (block, slot, xs, (calm, frozen), upstream)
                });
                par.run(
                    blocks,
                    |(block, slot, xs, (mut calm, mut frozen), upstream)| {
                        let comps = comps.range(&block.nodes());
                        let mut state = BlockSchedule::new(&mut calm, &mut frozen, comps);
                        let mut resize = |comp: usize, node: usize, upstream_i: f64, x_i: f64| {
                            ctx.resize(
                                &mut state,
                                comp,
                                x_i,
                                charged[node],
                                upstream_i,
                                weights[node],
                            )
                        };
                        topo.fused_upstream_chunk(
                            block.nodes(),
                            xs,
                            weights,
                            upstream,
                            &mut resize,
                        );
                        *slot = state.stats;
                    },
                );
            }
        }

        // Merge the per-block reductions in fixed block order (the pass's
        // traversal order), independent of which worker ran what.
        let mut worst = 0.0f64;
        let mut touched_total = 0usize;
        for block in grid.blocks(backward) {
            worst = worst.max(block_stats[block.slot].worst);
            touched_total += block_stats[block.slot].touched as usize;
        }
        // A resize moves a component by a positive relative change, so a
        // pass whose worst change is zero resized nothing. One that resized
        // anything leaves the tables behind the sizes: a backward pass
        // maintains charged/presented through every resize but not the
        // coupling loads, and a forward pass leaves both describing the
        // pre-pass sizes.
        if worst > 0.0 {
            sched.caps_synced = false;
        }
        sched.charged_fresh = backward;
        sched.count_frozen();
        (worst, touched_total)
    }

    /// Full timing picture at `sizes` (coupling load included), evaluated
    /// into the workspace. The returned view borrows the engine.
    pub fn timing(&mut self, sizes: &SizeVector) -> TimingView<'_> {
        // Skip the coupling + downstream rebuild when the cached tables
        // already reflect exactly these size values (after a previous
        // evaluation at the same sizes, or after an adaptive solve whose
        // last pass resized nothing): recomputing them is idempotent, so
        // the skip never changes a result.
        if !self.sched.tables_current(sizes.as_slice()) {
            self.refresh_coupling_load(sizes);
            self.rebuild_downstream_caps(sizes);
            // The coupling loads and downstream capacitances now reflect
            // `sizes` exactly; record that so a warm adaptive solve right
            // after this evaluation (the OGWS steady state) can reuse them
            // instead of rebuilding.
            self.note_caps_synced(sizes);
        }
        // Delays are per-node independent (flat chunks); arrival
        // propagation settles the block grid forward; the critical-path walk
        // back from the sink over the settled arrivals is a sequential
        // epilogue. Per node the arithmetic (and the `>=` tie-breaking) is
        // exactly the reference recurrence.
        let (topo, ws) = (&self.topo, &mut self.ws);
        let n = topo.num_nodes();
        let (xs, charged) = (sizes.as_slice(), &ws.charged[..]);
        let mut delays = Tiles::new(&mut ws.delays, Space::Nodes, 0..n, false, false);
        let blocks = par::flat_blocks(n).map(|nodes| (delays.next(&nodes), nodes));
        self.par.run(blocks, |(delays, nodes)| {
            topo.delays_chunk(nodes, xs, charged, delays);
        });
        let delays = &ws.delays[..];
        for step in self.grid.steps(false) {
            let mut arrival = step.tiles(&mut ws.arrival, Space::Nodes);
            let blocks = step.blocks().map(|block| {
                let nodes = block.nodes();
                (arrival.next(&nodes), nodes)
            });
            self.par.run(blocks, |(arrival, nodes)| {
                topo.arrivals_chunk(nodes, delays, arrival);
            });
        }
        let critical_path_delay = topo.trace_critical_path(&ws.arrival, &mut ws.critical_path);
        TimingView {
            delays: &ws.delays,
            arrival: &ws.arrival,
            critical_path_delay,
            critical_path: &ws.critical_path,
        }
    }

    /// Evaluates the full circuit metrics at `sizes` without allocating.
    /// Bitwise identical to [`CircuitMetrics::evaluate`].
    pub fn metrics(&mut self, sizes: &SizeVector) -> CircuitMetrics {
        let critical = self.timing(sizes).critical_path_delay;
        let graph = self.graph;
        let total_cap = ncgws_circuit::total_capacitance(graph, sizes);
        let area = ncgws_circuit::total_area(graph, sizes);
        let noise_exact = self.coupling.total_physical_coupling(graph, sizes);
        let crosstalk_lin = self.coupling.total_crosstalk(graph, sizes);
        CircuitMetrics {
            noise_pf: units::pf_from_ff(noise_exact),
            delay_ps: units::ps_from_internal(critical),
            power_mw: units::mw_from_ff(total_cap, graph.technology().power_scale_mw_per_ff()),
            area_um2: area,
            crosstalk_ff: crosstalk_lin,
            delay_internal: critical,
            total_capacitance_ff: total_cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::RunControl;
    use crate::lrs::LrsSolver;
    use crate::problem::ConstraintBounds;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology, TimingAnalysis};
    use ncgws_coupling::{CouplingPair, WirePairGeometry};

    fn setup() -> (CircuitGraph, CouplingSet) {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 120.0).unwrap();
        let d2 = b.add_driver("d2", 150.0).unwrap();
        let w1 = b.add_wire("w1", 180.0).unwrap();
        let w2 = b.add_wire("w2", 220.0).unwrap();
        let g = b.add_gate("g", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 140.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(w2, g).unwrap();
        b.connect(g, w3).unwrap();
        b.connect_output(w3, 6.0).unwrap();
        let graph = b.build().unwrap();
        let w1 = graph.node_by_name("w1").unwrap();
        let w2 = graph.node_by_name("w2").unwrap();
        let geom = WirePairGeometry::new(150.0, 12.0, 0.03).unwrap();
        let coupling =
            CouplingSet::new(&graph, vec![CouplingPair::new(w1, w2, geom).unwrap()]).unwrap();
        (graph, coupling)
    }

    #[test]
    fn timing_matches_reference_bitwise() {
        let (graph, coupling) = setup();
        let sizes = graph.uniform_sizes(1.7);
        let extra = coupling.delay_load_per_node(&graph, &sizes);
        let reference = TimingAnalysis::run(&graph, &sizes, Some(&extra));

        let mut engine = SizingEngine::new(&graph, &coupling);
        let view = engine.timing(&sizes);
        assert_eq!(view.delays, reference.delays.as_slice());
        assert_eq!(view.arrival, reference.arrival.values.as_slice());
        assert_eq!(view.critical_path_delay, reference.critical_path_delay);
        assert_eq!(view.critical_path, reference.critical_path.as_slice());
    }

    #[test]
    fn metrics_match_reference_bitwise() {
        let (graph, coupling) = setup();
        let mut engine = SizingEngine::new(&graph, &coupling);
        for size in [0.4, 1.0, 3.2] {
            let sizes = graph.uniform_sizes(size);
            let reference = CircuitMetrics::evaluate(&graph, &coupling, &sizes);
            assert_eq!(engine.metrics(&sizes), reference);
        }
    }

    #[test]
    fn engine_is_reusable_across_evaluations() {
        let (graph, coupling) = setup();
        let mut engine = SizingEngine::new(&graph, &coupling);
        let a = engine.metrics(&graph.uniform_sizes(1.0));
        let _ = engine.metrics(&graph.uniform_sizes(5.0));
        let again = engine.metrics(&graph.uniform_sizes(1.0));
        assert_eq!(a, again, "workspace reuse must not leak state");
        assert!(engine.memory_bytes() > 0);
    }

    #[test]
    fn memory_accounting_covers_all_engine_buffers() {
        use std::mem::size_of;
        let (graph, coupling) = setup();
        let engine = SizingEngine::new(&graph, &coupling);
        let n = graph.num_components();

        // Lower bound assembled field by field: the evaluation workspace,
        // the adaptive-schedule buffers (freeze state, sync snapshot) and
        // the topology's own columns. `memory_bytes` must cover all of them
        // (capacities can only exceed the lengths used here).
        let floor =
            engine.ws.memory_bytes() + engine.sched.memory_bytes() + engine.topo.memory_bytes();
        assert!(
            engine.memory_bytes() >= floor,
            "memory accounting {} must cover the per-field floor {}",
            engine.memory_bytes(),
            floor
        );
        // The engine borrows the coupling pairs, which
        // `CouplingSet::memory_bytes` counts: with or without pairs, the
        // engine's own bytes are the same.
        assert!(!coupling.is_empty());
        let uncoupled = CouplingSet::empty(&graph);
        assert_eq!(
            SizingEngine::new(&graph, &uncoupled).memory_bytes(),
            engine.memory_bytes()
        );

        // The schedule workspace itself accounts for every buffer it owns.
        let sched_floor = n * size_of::<f64>()      // eval_sizes
            + n * size_of::<u32>()                   // calm
            + n * size_of::<bool>(); // frozen
        assert!(
            engine.sched.memory_bytes() >= sched_floor,
            "schedule accounting {} must cover its buffers {}",
            engine.sched.memory_bytes(),
            sched_floor
        );
    }

    /// The per-component coupling sums are the component range of the
    /// coupling set's own table, the attributes and size bounds are the
    /// graph's views (with no override on a generated graph), and the flow
    /// index's kinds and out offsets are the graph's columns: none is a
    /// copy.
    #[test]
    fn engine_borrows_the_coupling_sums() {
        let (graph, coupling) = setup();
        let engine = SizingEngine::new(&graph, &coupling);
        let components = engine.topo.component_nodes();
        let owner = coupling.linear_coefficient_sums();
        assert_eq!(engine.coupling_sum.len(), graph.num_components());
        assert_eq!(
            engine.coupling_sum.as_ptr(),
            owner[components.clone()].as_ptr()
        );
        let attributes = engine.topo.attributes();
        assert_eq!(attributes.num_overrides(), 0);
        for id in graph.component_ids() {
            let rc = attributes.get(id.index());
            assert_eq!(rc.area_coefficient, graph.node(id).attrs.area_coefficient);
        }
        assert_eq!(engine.bounds.len(), graph.num_components());
        assert_eq!(engine.bounds.num_overrides(), 0);
        for (i, id) in graph.component_ids().enumerate() {
            assert_eq!(engine.bounds.get(i), graph.size_bounds(id));
        }
        let index = crate::projection::FlowIndex::new(&graph);
        assert_eq!(index.kinds().as_ptr(), graph.kinds().as_ptr());
        assert_eq!(index.kinds().len(), graph.num_nodes());
        assert_eq!(index.out_start.as_ptr(), graph.fanout_offsets().as_ptr());
        assert_eq!(index.out_start.len(), graph.num_nodes() + 1);
    }

    /// The extra-family denominator exists only while a solve has extra
    /// constraints: empty for the legacy formulation, one entry per
    /// component after a constrained solve, and empty again after a legacy
    /// solve on the same engine.
    #[test]
    fn extra_denominator_is_filled_only_for_extra_families() {
        use crate::constraints::{FamilyKind, ScalarConstraint, ScalarFamily};
        let (graph, coupling) = setup();
        let n = graph.num_components();
        let lrs = LrsSolver::new(50, 1e-9);
        let mut engine = SizingEngine::new(&graph, &coupling);
        let legacy = ConstraintSet::new();
        let legacy_multipliers = Multipliers::uniform(&graph, 0.05, 0.1);
        let mut sizes = graph.uniform_sizes(1.0);
        let control = RunControl::new();
        lrs.solve_constrained(
            &mut engine,
            &legacy,
            &legacy_multipliers,
            &mut sizes,
            &control,
        );
        assert!(engine.extra_denom.is_empty());

        let mut extras = ConstraintSet::new();
        extras.push(ScalarFamily::new(
            "cap",
            FamilyKind::Custom,
            vec![ScalarConstraint::new("c0", [(0, 2.0), (2, 0.5)], 0.0, 1.0)],
        ));
        let mut multipliers = legacy_multipliers.clone();
        multipliers.attach_extras(&extras, 0.25);
        lrs.solve_constrained(&mut engine, &extras, &multipliers, &mut sizes, &control);
        let mut expected = vec![0.0; n];
        expected[0] = 0.25 * 2.0;
        expected[2] = 0.25 * 0.5;
        assert_eq!(engine.extra_denom, expected);

        lrs.solve_constrained(
            &mut engine,
            &legacy,
            &legacy_multipliers,
            &mut sizes,
            &control,
        );
        assert!(engine.extra_denom.is_empty());
    }

    #[test]
    fn dense_aggregates_match_the_reference_functions_bitwise() {
        let (graph, coupling) = setup();
        let mut engine = SizingEngine::new(&graph, &coupling);
        for (size, policy) in [
            (0.4, ParallelPolicy::Sequential),
            (1.0, ParallelPolicy::Sequential),
            (2.7, ParallelPolicy::Sequential),
            (1.0, ParallelPolicy::threads(1)),
        ] {
            engine.set_parallel(policy);
            let sizes = graph.uniform_sizes(size);
            assert_eq!(
                engine.total_capacitance(&sizes),
                ncgws_circuit::total_capacitance(&graph, &sizes)
            );
            assert_eq!(
                engine.total_area(&sizes),
                ncgws_circuit::total_area(&graph, &sizes)
            );
            assert_eq!(
                engine.crosstalk_lhs(&sizes),
                coupling.crosstalk_lhs(&graph, &sizes)
            );
        }
    }

    /// `WIDE` parallel driver → wire → gate → wire paths, the input wires
    /// coupled pairwise: every level but the source's and the sink's is
    /// wider than one chunk, so the grid splits them across workers.
    fn wide() -> (CircuitGraph, CouplingSet) {
        const WIDE: usize = 600;
        let mut b = CircuitBuilder::new(Technology::dac99());
        let mut inputs = Vec::new();
        for i in 0..WIDE {
            let d = b.add_driver(&format!("d{i}"), 100.0 + i as f64).unwrap();
            let w = b
                .add_wire(&format!("w{i}"), 120.0 + (i % 7) as f64)
                .unwrap();
            let g = b.add_gate(&format!("g{i}"), GateKind::Inv).unwrap();
            let o = b.add_wire(&format!("o{i}"), 90.0).unwrap();
            b.connect(d, w).unwrap();
            b.connect(w, g).unwrap();
            b.connect(g, o).unwrap();
            b.connect_output(o, 4.0).unwrap();
            inputs.push(w);
        }
        let graph = b.build().unwrap();
        let geom = WirePairGeometry::new(150.0, 12.0, 0.03).unwrap();
        let pairs = (0..WIDE / 2)
            .map(|i| {
                let a = graph.node_by_name(&format!("w{}", 2 * i)).unwrap();
                let b = graph.node_by_name(&format!("w{}", 2 * i + 1)).unwrap();
                CouplingPair::new(a, b, geom).unwrap()
            })
            .collect();
        let coupling = CouplingSet::new(&graph, pairs).unwrap();
        (graph, coupling)
    }

    /// A three-worker engine and a sequential engine fed the same state.
    fn engine_pair<'a>(
        graph: &'a CircuitGraph,
        coupling: &'a CouplingSet,
    ) -> (SizingEngine<'a>, SizingEngine<'a>) {
        let multipliers = Multipliers::uniform(graph, 0.05, 0.0);
        let mut sequential = SizingEngine::new(graph, coupling);
        let mut level = SizingEngine::new(graph, coupling);
        level.set_parallel(ParallelPolicy::threads(3));
        sequential.load_node_weights(&multipliers);
        level.load_node_weights(&multipliers);
        (sequential, level)
    }

    /// Three workers split the wide levels of the grid the sequential
    /// policy walks on one: an exact LRS sweep and the timing evaluation
    /// after it agree bitwise.
    #[test]
    fn level_policy_sweep_and_timing_match_the_sequential_path_bitwise() {
        let (graph, coupling) = wide();
        let (mut sequential, mut level) = engine_pair(&graph, &coupling);
        let mut seq_sizes = graph.uniform_sizes(1.3);
        let mut level_sizes = seq_sizes.clone();
        let seq_worst = sequential.lrs_sweep(&mut seq_sizes, 0.2, 0.1);
        let level_worst = level.lrs_sweep(&mut level_sizes, 0.2, 0.1);
        assert_eq!(seq_worst, level_worst);
        assert_eq!(seq_sizes, level_sizes);

        let a = sequential.timing(&seq_sizes);
        let b = level.timing(&level_sizes);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.critical_path_delay, b.critical_path_delay);
        assert_eq!(a.critical_path, b.critical_path);
    }

    /// The fused passes on three workers match the sequential policy's:
    /// sizes, the charged/presented/upstream tables, freeze state, the
    /// worst change, the touched count and the cache-sync flags agree, with
    /// a frozen component skipped by both.
    #[test]
    fn level_policy_fused_sweeps_match_the_sequential_passes_bitwise() {
        let (graph, coupling) = wide();
        let (mut sequential, mut level) = engine_pair(&graph, &coupling);
        let schedule = AdaptiveSchedule::default();
        let mut seq_sizes = graph.uniform_sizes(1.0);
        let mut level_sizes = seq_sizes.clone();
        for engine in [&mut sequential, &mut level] {
            engine.sched.frozen[0] = true;
            engine.sched.count_frozen();
        }
        for backward in [false, true, false] {
            let sweep = |engine: &mut SizingEngine<'_>, sizes: &mut SizeVector| {
                if backward {
                    engine.fused_backward_sweep(sizes, 0.2, 0.1, &schedule, false)
                } else {
                    engine.fused_forward_sweep(sizes, 0.2, 0.1, &schedule, false)
                }
            };
            let seq_stats = sweep(&mut sequential, &mut seq_sizes);
            let level_stats = sweep(&mut level, &mut level_sizes);
            assert_eq!(seq_stats, level_stats, "backward={backward}");
            assert_eq!(seq_sizes, level_sizes, "backward={backward}");
            assert_eq!(sequential.ws.charged, level.ws.charged);
            assert_eq!(sequential.ws.presented, level.ws.presented);
            assert_eq!(sequential.ws.upstream, level.ws.upstream);
            assert_eq!(sequential.sched.frozen, level.sched.frozen);
            assert_eq!(sequential.sched.calm, level.sched.calm);
            assert_eq!(sequential.sched.caps_synced, level.sched.caps_synced);
            assert_eq!(sequential.sched.charged_fresh, level.sched.charged_fresh);
        }
        assert_eq!(seq_sizes[0], 1.0, "the frozen component is never resized");
    }

    /// The timing evaluation right after a scheduled solve — which skips
    /// its rebuild when the solve's last pass resized nothing — equals a
    /// fresh engine's timing at the same sizes, bitwise.
    #[test]
    fn timing_after_a_scheduled_solve_matches_a_fresh_engine_bitwise() {
        let (graph, coupling) = setup();
        let extras = ConstraintSet::new();
        // A zero freeze tolerance freezes only components a pass left
        // unmoved, so a solve that empties the active set ends on a pass
        // that resized nothing, which can leave the tables current.
        let schedule = AdaptiveSchedule {
            freeze_tolerance: 0.0,
            ..AdaptiveSchedule::default()
        };
        let mut fast_paths = 0;
        for (edge, beta, start) in [(0.05, 0.0, 1.2), (0.2, 0.3, 0.6), (1e-3, 1.0, 2.5)] {
            let mut multipliers = Multipliers::uniform(&graph, edge, 0.0);
            multipliers.beta = beta;
            let mut engine = SizingEngine::new(&graph, &coupling);
            engine.reset_schedule();
            let mut sizes = graph.uniform_sizes(start);
            LrsSolver::new(500, 0.0).solve_scheduled(
                &mut engine,
                &extras,
                &multipliers,
                &mut sizes,
                &RunControl::new(),
                &schedule,
            );
            if engine.sched.tables_current(sizes.as_slice()) {
                fast_paths += 1;
            }
            let mut fresh = SizingEngine::new(&graph, &coupling);
            let a = engine.timing(&sizes);
            let b = fresh.timing(&sizes);
            assert_eq!(a.delays, b.delays);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.critical_path_delay, b.critical_path_delay);
            assert_eq!(a.critical_path, b.critical_path);
        }
        assert!(fast_paths > 0, "no solve left its tables current");
    }

    /// A backward pass that resizes something leaves the tables behind the
    /// sizes even when the sizes later return to the ones the tables were
    /// synced at: the pass rebuilt the charged/presented tables around its
    /// new sizes, so the next timing evaluation must rebuild, not skip.
    #[test]
    fn timing_rebuilds_after_a_pass_that_moved_even_when_the_sizes_return() {
        let (graph, coupling) = setup();
        let mut engine = SizingEngine::new(&graph, &coupling);
        engine.load_node_weights(&Multipliers::uniform(&graph, 0.05, 0.0));
        let start = graph.uniform_sizes(1.2);
        let mut sizes = start.clone();
        let schedule = AdaptiveSchedule::default();
        engine.fused_backward_sweep(&mut sizes, 0.2, 0.1, &schedule, true);
        assert_ne!(sizes, start, "the pass must resize something");
        let mut fresh = SizingEngine::new(&graph, &coupling);
        let a = engine.timing(&start);
        let b = fresh.timing(&start);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.critical_path_delay, b.critical_path_delay);
    }

    #[test]
    fn for_problem_binds_the_problem_inputs() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let engine = SizingEngine::for_problem(&problem);
        assert!(std::ptr::eq(engine.graph(), problem.graph));
        assert!(std::ptr::eq(engine.coupling(), problem.coupling));
    }
}
