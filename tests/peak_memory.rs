//! Peak heap use of each phase of one xlw10k solve, measured with a counting
//! global allocator: generate → order → engine → size, adaptive schedule,
//! `ParallelPolicy::Sequential`.
//!
//! Each phase's peak is the largest number of live heap bytes (everything
//! still held from earlier phases included) between its start and end. The
//! budgets were recorded on this workload and allow 10% on top; a change
//! that stores a table twice again shows up here. The generate and order
//! phases also have budgets of allocation calls, with the same 10% on top,
//! counted on the test's own thread: generation holds the netlist in
//! per-table buffers, the channels in one CSR and the patterns in one
//! packed buffer, and stage 1 holds its orderings in one channel CSR and
//! its scratch in one buffer per block, so a per-node heap string or list,
//! a per-vector pattern buffer or a per-channel list, matrix or ordering
//! coming back multiplies the count. The generate phase's peak, counted
//! from the live bytes before it, must also stay within 1.35× the live
//! bytes it returns: generation frees its scaffolding before the graph is
//! built, and a table kept alive across the build shows up as that ratio
//! whatever the budgets allow. The graph's and the engine's own bytes per
//! node are bounded too, so a dense attribute column coming back to the
//! graph, or a per-node or per-edge copy of a graph table in the engine,
//! fails a named check, and encoding a snapshot of the solve may make
//! only the allocation calls of its JSON buffer's growth, not one per
//! number.
//!
//! The same solve then runs at `threads(1)` and `threads(2)`, and no thread
//! but the test's own may allocate during `order()` or `size()`: heap a
//! worker takes lands in that thread's own allocator arena, whose pages
//! stay resident and grow from solve to solve. The stage-1 workers start
//! and stop inside `order()`, so their start-up counts too: a pool's
//! threads are unnamed, since std copies a named thread's name on the new
//! thread. The sizing workers start in `SizingEngine::set_parallel`, before
//! the `size()` count.
//!
//! Last, the OGWS loop itself: an [`Observer`] reads the allocation calls
//! of every thread at the end of each iteration, and iterations 2..N must
//! make none. Iteration 1 sets up; after it every buffer an iteration
//! touches is in place. The gate runs c432, c7552 and xlw10k under the
//! exact and the adaptive strategy (only the exact one calls `lrs_sweep`,
//! only the adaptive one the fused sweeps), at `Sequential` and, with the
//! `parallel` feature, `threads(2)`; then c432 with per-net crosstalk and
//! driven-load caps, cold and resumed from a snapshot. Each solve stops
//! after at most 10 iterations. It checks the code that runs, so a new
//! allocation anywhere in an iteration fails it, whatever function it is
//! in. Run it with the numbers printed:
//!
//! ```text
//! cargo test --release --features parallel --test peak_memory -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ncgws::core::flow::Ordered;
use ncgws::core::{
    CheckpointPolicy, Flow, IterationEvent, Observer, OptimizerConfig, ParallelPolicy, RunControl,
    Snapshot, SnapshotStore, SolveStrategy, Start,
};
use ncgws::netlist::{iscas85_spec, xl_wide_spec, SyntheticGenerator};

/// Live and peak heap bytes of the whole process, counted by the global
/// allocator below.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls made by every thread but the test's own.
static OTHER_ALLOCS: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Allocation calls made by the current thread. Only the test's own
    /// thread is counted: the harness's main thread makes a few calls of
    /// its own while the test thread starts, and whether they land inside
    /// the first phase depends on scheduling.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Whether the current thread is the test's own; set by the test.
    static IS_TEST: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting the bytes it hands out. `realloc` and
/// `alloc_zeroed` keep their default bodies, which go through `alloc` and
/// `dealloc`: a growing buffer counts its old and new block at once, as
/// the copy holds both.
struct Counting;

// SAFETY: both calls forward to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are only
// bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let ptr = unsafe { System.alloc(layout) };
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        if !IS_TEST.try_with(Cell::get).unwrap_or(false) {
            OTHER_ALLOCS.fetch_add(1, Relaxed);
        }
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the peak live bytes seen meanwhile
/// and the number of allocation calls it made on the calling thread.
fn phase<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let allocs = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (
        out,
        PEAK.load(Relaxed),
        THREAD_ALLOCS.with(Cell::get) - allocs,
    )
}

const MIB: f64 = 1024.0 * 1024.0;

/// Peak live bytes per phase, recorded on this workload.
const BUDGETS: [(&str, usize); 4] = [
    ("generate", 552_161),
    ("order", 1_164_096),
    ("engine", 1_462_792),
    ("size", 1_795_724),
];

/// Allocation calls of the generate phase, recorded on this workload. None
/// of them is made per component, edge or channel: the builder probes no
/// hash table, and the workload's 667 channels are one CSR. The builder's
/// name text, the generator's list of gates without fanout and every
/// adjacency offset list are reserved at their final size, not grown.
const GENERATE_ALLOCS: usize = 44;

/// The most the generate phase's peak may exceed the live bytes it
/// returns, in percent of them: generation frees its scaffolding (the
/// generator's source table, the builder's tables) as it goes, so its peak
/// stays near the instance it hands back. The workload's ratio is about
/// 1.25: the builder keeps its output loads sparse, derives the new fanout
/// lists from the new fanin lists alone, and writes each graph table once
/// the builder tables it reads are complete, freeing them as they are
/// spent. A table kept alive across the graph build shows up here however
/// large the budgets are.
const GENERATE_PEAK_OVER_LIVE_PCT: usize = 135;

/// Bytes the generated graph holds per node (`CircuitGraph::memory_bytes`
/// over the node count), recorded on this workload (38.4) with 10% on top.
/// A node is its kind and one parameter, 9 bytes, its RC attributes derived
/// from them and the technology; the rest is its name and the two adjacency
/// directions. A dense per-node attribute column, 8 bytes a node, breaks
/// it.
const GRAPH_BYTES_PER_NODE: usize = 42;

/// Bytes the sizing engine owns per node of the workload
/// (`SizingEngine::memory_bytes` over the node count), recorded on this
/// workload (68) with 10% on top. The engine keeps the evaluation
/// workspace's per-node tables and the schedule's per-component state,
/// and nothing per fanin edge: a per-node or per-edge copy of a table the
/// graph or the coupling set already holds breaks it.
const ENGINE_BYTES_PER_NODE: usize = 75;

/// Allocation calls of encoding a snapshot of the workload
/// (`Snapshot::to_json`): the JSON writer formats every number straight
/// into its buffer, so the calls are the buffer's doublings and the
/// writer's container stack, a few dozen whatever the snapshot holds. A
/// string per number would make tens of thousands.
const ENCODE_ALLOCS: usize = 40;

/// Allocation calls of the order phase (`prepare` + `order`), recorded on
/// this workload. None of them is made per channel: the workload has 667
/// channels, so one per channel would break the budget. The phase builds
/// no sizing engine; one would add about 20 calls.
const ORDER_ALLOCS: usize = 23;

/// Runs `f` and returns its result with the number of allocation calls
/// every thread but the test's made meanwhile.
fn off_test_thread<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = OTHER_ALLOCS.load(Relaxed);
    let out = f();
    (out, OTHER_ALLOCS.load(Relaxed) - before)
}

/// Allocation calls made on every thread, read at the end of each OGWS
/// iteration: the count at the first event and at the latest.
#[derive(Default)]
struct IterationAllocs {
    events: AtomicUsize,
    first: AtomicUsize,
    last: AtomicUsize,
}

impl Observer for IterationAllocs {
    fn on_iteration(&self, _: &IterationEvent<'_>) {
        // The solver notifies on the thread that called it, the test's own,
        // so its count plus every other thread's is every call made.
        let now = THREAD_ALLOCS.with(Cell::get) + OTHER_ALLOCS.load(Relaxed);
        if self.events.fetch_add(1, Relaxed) == 0 {
            self.first.store(now, Relaxed);
        }
        self.last.store(now, Relaxed);
    }
}

/// OGWS iterations each gated solve may run: several past the first, few
/// enough to keep the whole gate within a few seconds in a debug build.
const GATE_ITERATIONS: usize = 10;

/// Sizes `ordered` for at most [`GATE_ITERATIONS`] iterations, resuming
/// from `snapshot` when one is given, and asserts that no thread makes an
/// allocation call from the end of the first iteration to the end of the
/// last: everything an iteration needs is in place after the first.
fn assert_iterations_allocate_nothing(label: &str, ordered: &Ordered, snapshot: Option<&Snapshot>) {
    let probe = IterationAllocs::default();
    let control = RunControl::new()
        .with_observer(&probe)
        .with_iteration_budget(GATE_ITERATIONS);
    let start = snapshot.map(Start::Resume);
    ordered
        .size_with_engine(&mut ordered.engine(), start, &control)
        .unwrap();
    let events = probe.events.load(Relaxed);
    let allocs = probe.last.load(Relaxed) - probe.first.load(Relaxed);
    println!("peak_memory {label}: {allocs} allocation calls in iterations 2..={events}");
    assert!(
        events >= 2,
        "{label}: {events} iterations leave nothing to gate"
    );
    assert_eq!(allocs, 0, "{label}: iterations 2..={events} allocated");
}

#[test]
fn xlw10k_phase_peaks_stay_within_budget() {
    IS_TEST.with(|t| t.set(true));
    let config = OptimizerConfig {
        solve_strategy: SolveStrategy::adaptive(),
        parallel: ParallelPolicy::Sequential,
        ..OptimizerConfig::default()
    };
    let before = LIVE.load(Relaxed);
    let (instance, generate, generate_allocs) = phase(|| {
        SyntheticGenerator::new(xl_wide_spec(10_000))
            .generate()
            .unwrap()
    });
    let (generate_rise, generate_live) = (generate - before, LIVE.load(Relaxed) - before);
    let (ordered, order, order_allocs) = phase(|| {
        Flow::prepare(&instance, config.clone())
            .unwrap()
            .order()
            .unwrap()
    });
    let (mut engine, engine_peak, _) = phase(|| ordered.engine());
    let engine_per_node = engine.memory_bytes() / instance.circuit.num_nodes();
    let graph_per_node = instance.circuit.memory_bytes() / instance.circuit.num_nodes();
    let (sized, size, _) = phase(|| {
        ordered
            .size_with_engine(&mut engine, None, &RunControl::new())
            .unwrap()
    });
    assert!(sized.report.feasible);

    let peaks = [generate, order, engine_peak, size];
    for ((name, budget), peak) in BUDGETS.iter().zip(peaks) {
        println!(
            "peak_memory xlw10k {name}: {peak} B = {:.2} MiB (budget {:.2} MiB + 10%)",
            peak as f64 / MIB,
            *budget as f64 / MIB
        );
    }
    println!(
        "peak_memory xlw10k generate: {generate_allocs} allocation calls (budget \
         {GENERATE_ALLOCS} + 10%)"
    );
    println!(
        "peak_memory xlw10k order: {order_allocs} allocation calls (budget {ORDER_ALLOCS} + 10%)"
    );
    println!(
        "peak_memory xlw10k engine: {} B = {engine_per_node} B per node (at most \
         {ENGINE_BYTES_PER_NODE})",
        engine.memory_bytes()
    );
    println!(
        "peak_memory xlw10k graph: {} B = {graph_per_node} B per node (at most \
         {GRAPH_BYTES_PER_NODE})",
        instance.circuit.memory_bytes()
    );
    println!(
        "peak_memory xlw10k generate: peak {generate_rise} B over {generate_live} B returned = \
         {:.3} (at most {:.2})",
        generate_rise as f64 / generate_live as f64,
        GENERATE_PEAK_OVER_LIVE_PCT as f64 / 100.0
    );
    for ((name, budget), peak) in BUDGETS.iter().zip(peaks) {
        assert!(
            peak <= budget + budget / 10,
            "{name}: peak {peak} B exceeds the budget {budget} B + 10%"
        );
    }
    assert!(
        generate_allocs <= GENERATE_ALLOCS + GENERATE_ALLOCS / 10,
        "generate: {generate_allocs} allocation calls exceed the budget {GENERATE_ALLOCS} + 10%"
    );
    assert!(
        order_allocs <= ORDER_ALLOCS + ORDER_ALLOCS / 10,
        "order: {order_allocs} allocation calls exceed the budget {ORDER_ALLOCS} + 10%"
    );
    assert!(
        engine_per_node <= ENGINE_BYTES_PER_NODE,
        "engine: {engine_per_node} B per node exceeds {ENGINE_BYTES_PER_NODE}"
    );
    assert!(
        graph_per_node <= GRAPH_BYTES_PER_NODE,
        "graph: {graph_per_node} B per node exceeds {GRAPH_BYTES_PER_NODE}"
    );
    assert!(
        generate_rise * 100 <= generate_live * GENERATE_PEAK_OVER_LIVE_PCT,
        "generate: peak {generate_rise} B exceeds {GENERATE_PEAK_OVER_LIVE_PCT}% of the \
         {generate_live} B it returns"
    );

    // Encoding a snapshot allocates only to grow its buffer.
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(2)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    ordered
        .size_with_engine(&mut engine, None, &control)
        .unwrap();
    let snapshot = store.take().unwrap();
    let (json, _, encode_allocs) = phase(|| snapshot.to_json());
    println!(
        "peak_memory xlw10k snapshot: {} B of JSON in {encode_allocs} allocation calls (at most \
         {ENCODE_ALLOCS})",
        json.len()
    );
    assert!(
        encode_allocs <= ENCODE_ALLOCS,
        "snapshot encode: {encode_allocs} allocation calls exceed {ENCODE_ALLOCS}"
    );
    assert_eq!(Snapshot::from_json(&json).unwrap(), snapshot);

    // Workers allocate nothing. Each pool is up before its count starts.
    for parallel in [
        ParallelPolicy::Sequential,
        ParallelPolicy::threads(1),
        ParallelPolicy::threads(2),
    ] {
        let config = OptimizerConfig {
            parallel,
            ..config.clone()
        };
        let prepared = Flow::prepare(&instance, config).unwrap();
        let (ordered, order_others) = off_test_thread(|| prepared.order().unwrap());
        let mut engine = ordered.engine();
        engine.set_parallel(parallel);
        let (again, size_others) = off_test_thread(|| {
            ordered
                .size_with_engine(&mut engine, None, &RunControl::new())
                .unwrap()
        });
        assert_eq!(again.sizes(), sized.sizes(), "{parallel:?}: the same solve");
        println!(
            "peak_memory xlw10k {parallel:?}: {order_others} allocation calls off the test \
             thread in order(), {size_others} in size()"
        );
        assert_eq!(
            order_others, 0,
            "{parallel:?}: a worker allocated in order()"
        );
        assert_eq!(size_others, 0, "{parallel:?}: a worker allocated in size()");
    }

    // Every OGWS iteration after the first allocates nothing, on any
    // thread. Both strategies run: only the exact one calls `lrs_sweep`,
    // only the adaptive one freezes components. Without the `parallel`
    // feature `threads(2)` runs the same grid on the calling thread as
    // `Sequential`, so it runs only where it brings up workers.
    let strategies = [
        ("exact", SolveStrategy::Exact),
        ("adaptive", SolveStrategy::adaptive()),
    ];
    let policies: &[ParallelPolicy] = if cfg!(feature = "parallel") {
        &[ParallelPolicy::Sequential, ParallelPolicy::threads(2)]
    } else {
        &[ParallelPolicy::Sequential]
    };
    let table1 = |name| {
        SyntheticGenerator::new(iscas85_spec(name).unwrap())
            .generate()
            .unwrap()
    };
    let (c432, c7552) = (table1("c432"), table1("c7552"));
    let circuits = [("c432", &c432), ("c7552", &c7552), ("xlw10k", &instance)];
    for (name, instance) in circuits {
        for (strategy, solve_strategy) in &strategies {
            for &parallel in policies {
                let config = OptimizerConfig {
                    solve_strategy: solve_strategy.clone(),
                    parallel,
                    ..OptimizerConfig::default()
                };
                let ordered = Flow::prepare(instance, config).unwrap().order().unwrap();
                let label = format!("{name} {strategy} {parallel:?}");
                assert_iterations_allocate_nothing(&label, &ordered, None);
            }
        }
    }

    // The same with the per-net crosstalk and driven-load caps, whose
    // violations and multipliers are updated each iteration, and for a
    // capped solve resumed from a snapshot taken at its third iteration.
    for (strategy, solve_strategy) in strategies {
        let config = OptimizerConfig::builder()
            .solve_strategy(solve_strategy)
            .threads(2)
            .per_net_crosstalk_cap(1.0)
            .driven_load_cap(1.2)
            .build()
            .unwrap();
        let ordered = Flow::prepare(&c432, config).unwrap().order().unwrap();
        assert_eq!(ordered.extra_constraints().num_families(), 2);
        let label = format!("c432 {strategy} capped");
        assert_iterations_allocate_nothing(&label, &ordered, None);

        let store = SnapshotStore::new();
        ordered
            .size_with_engine(
                &mut ordered.engine(),
                None,
                &RunControl::new()
                    .with_iteration_budget(3)
                    .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true)),
            )
            .unwrap();
        let snapshot = store.take().unwrap();
        assert_eq!(snapshot.iterations_done, 3);
        let label = format!("c432 {strategy} capped, resumed");
        assert_iterations_allocate_nothing(&label, &ordered, Some(&snapshot));
    }
}
