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
//! whatever the budgets allow.
//!
//! The same solve then runs at `threads(1)` and `threads(2)`, and no thread
//! but the test's own may allocate during `order()` or `size()`: heap a
//! worker takes lands in that thread's own allocator arena, whose pages
//! stay resident and grow from solve to solve. A worker thread makes one
//! allocation of its own when it starts (std copies the thread's name on
//! the new thread), so each check counts from after its pool is up: the
//! stage-1 workers start in `Flow::prepare` and the sizing workers in
//! `SizingEngine::set_parallel`, and a pool is up when its constructor
//! returns. Run it with the numbers printed:
//!
//! ```text
//! cargo test --release --features parallel --test peak_memory -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ncgws::core::{Flow, OptimizerConfig, ParallelPolicy, RunControl, SolveStrategy};
use ncgws::netlist::{xl_wide_spec, SyntheticGenerator};

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
    ("generate", 1_131_630),
    ("order", 2_379_177),
    ("engine", 2_219_177),
    ("size", 2_593_229),
];

/// Allocation calls of the generate phase, recorded on this workload. None
/// of them is made per component, edge or channel: the builder probes no
/// hash table, and the workload's 667 channels are one CSR.
const GENERATE_ALLOCS: usize = 125;

/// The most the generate phase's peak may exceed the live bytes it
/// returns, in percent of them: generation frees its scaffolding (the
/// generator's source table, the builder's tables) as it goes, so its peak
/// stays near the instance it hands back. The workload's ratio is about
/// 1.25; a table kept alive across the graph build shows up here however
/// large the budgets are.
const GENERATE_PEAK_OVER_LIVE_PCT: usize = 135;

/// Allocation calls of the order phase (`prepare` + `order`), recorded on
/// this workload. None of them is made per channel: the workload has 667
/// channels, so one per channel would break the budget.
const ORDER_ALLOCS: usize = 47;

/// Runs `f` and returns its result with the number of allocation calls
/// every thread but the test's made meanwhile.
fn off_test_thread<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = OTHER_ALLOCS.load(Relaxed);
    let out = f();
    (out, OTHER_ALLOCS.load(Relaxed) - before)
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
        generate_rise * 100 <= generate_live * GENERATE_PEAK_OVER_LIVE_PCT,
        "generate: peak {generate_rise} B exceeds {GENERATE_PEAK_OVER_LIVE_PCT}% of the \
         {generate_live} B it returns"
    );

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
}
