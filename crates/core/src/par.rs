//! Deterministic level-parallel execution for the stage-2 inner loop.
//!
//! The paper's per-sweep work is `O(V + E + P)` with *component-separable*
//! closed-form resizes (Theorem 5), and the cached level partition of
//! [`CircuitTopology`](ncgws_circuit::CircuitTopology) proves that nodes of
//! one level share no fanin/fanout edge. This module turns that structure
//! into traversals whose results are **bitwise identical across every
//! thread count** (1, 2, 8, …):
//!
//! * the work grid is *fixed by the data*, never by the thread count: every
//!   level wider than `CHUNK_NODES` (256 nodes) is split into fixed-width
//!   chunks, and each run of consecutive narrower levels is folded into one
//!   block, so block boundaries — and therefore every per-block
//!   accumulation — are the same no matter how many workers exist;
//! * the runners call each pass's kernel once per block, at every worker
//!   count, one thread included — so the level grid is the only traversal
//!   of every pass;
//! * threads only change *which worker* executes a chunk (an atomic
//!   work-queue hands chunks out), never the arithmetic: per-node values
//!   depend only on settled earlier levels plus the node's own CSR lists,
//!   and all cross-block reductions (worst relative change, touched counts)
//!   are combined by the caller **in fixed block order** after the pass;
//! * with the `parallel` feature disabled — or one worker — the runners walk
//!   the identical grid on the calling thread.
//!
//! [`ParallelPolicy`] sets the worker count; the policy is threaded from
//! [`OptimizerConfig`](crate::OptimizerConfig) through
//! [`SizingEngine`](crate::SizingEngine) into every sweep. The worker pool
//! is a tiny condvar-based fan-out over `std::thread` (no new
//! dependencies); a barrier separates dependent steps, and since a folded
//! run of narrow levels is one step, deep, narrow circuit regions pay one
//! synchronization per run rather than per level.

use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicU32;
#[cfg(feature = "parallel")]
use std::sync::atomic::Ordering;

use crate::error::CoreError;

/// Fixed chunk width (in nodes / components) of the deterministic work
/// grid. Chosen so a chunk amortizes the work-queue pop while leaving
/// enough chunks per wide level to balance across workers; results never
/// depend on this value's relation to the thread count, only perf does.
pub(crate) const CHUNK_NODES: usize = 256;

/// How the stage-2 inner loop distributes its traversals across threads.
///
/// Selected via [`OptimizerConfig::parallel`](crate::OptimizerConfig) (or
/// [`OptimizerConfigBuilder::threads`](crate::OptimizerConfigBuilder::threads)).
/// Both variants run the same deterministic level grid; they differ only in
/// the worker count. Outcomes are bitwise identical for every worker count,
/// and with [`SolveStrategy::Exact`](crate::SolveStrategy) they remain
/// bitwise pinned to [`crate::reference`] — the per-node arithmetic is
/// unchanged, only its distribution across workers varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelPolicy {
    /// The level grid on the calling thread (the default); the same
    /// computation as `Level { threads: 1 }`.
    Sequential,
    /// The level grid over a worker pool.
    Level {
        /// Worker count; `0` resolves to the machine's available
        /// parallelism. `1` runs the grid on the calling thread.
        /// Without the `parallel` feature every value runs on the calling
        /// thread — same grid, same results.
        threads: usize,
    },
}

// Not derived: `#[derive(Default)]` on an enum needs a `#[default]` variant
// attribute, which the vendored serde derive cannot parse past.
#[allow(clippy::derivable_impls)]
impl Default for ParallelPolicy {
    fn default() -> Self {
        ParallelPolicy::Sequential
    }
}

impl ParallelPolicy {
    /// The level-parallel policy with `threads` workers (`0` = auto).
    pub fn threads(threads: usize) -> Self {
        ParallelPolicy::Level { threads }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an absurd worker count.
    pub fn validate(&self) -> Result<(), CoreError> {
        if let ParallelPolicy::Level { threads } = self {
            if *threads > 4096 {
                return Err(CoreError::InvalidConfig {
                    name: "parallel.threads",
                    reason: format!("{threads} workers is beyond any machine this targets"),
                });
            }
        }
        Ok(())
    }

    /// The resolved worker count (participants including the caller).
    pub(crate) fn worker_count(&self) -> usize {
        match self {
            ParallelPolicy::Sequential => 1,
            ParallelPolicy::Level { threads: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ParallelPolicy::Level { threads } => *threads,
        }
    }
}

/// One barrier step of a leveled pass: the boundary window
/// `bounds[lo..=hi]` of the grid. A *wide* step is one level split into
/// `hi - lo` chunks, `bounds[lo + c]..bounds[lo + c + 1]` for chunk `c`,
/// distributed through the work queue. A folded step is a run of
/// consecutive narrow levels, `bounds[lo..=hi]` their level boundaries,
/// executed as one block by one worker.
#[derive(Debug, Clone, Copy)]
struct Step {
    lo: u32,
    hi: u32,
    wide: bool,
    /// Index of the step's first per-block reduction slot.
    slot: u32,
}

/// One unit of work of a leveled pass, handed to the pass body: the
/// block's level boundaries (a single window for a chunk of a wide level)
/// and its reduction slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'g> {
    /// The block's level boundaries, as a backward kernel takes them.
    pub(crate) bounds: &'g [u32],
    /// The block's per-(step, chunk) reduction slot.
    pub(crate) slot: usize,
}

impl Block<'_> {
    /// The block's node range, as a forward kernel takes it.
    pub(crate) fn nodes(&self) -> std::ops::Range<usize> {
        self.bounds[0] as usize..self.bounds[self.bounds.len() - 1] as usize
    }
}

/// The deterministic grid over a topology's level partition: the block
/// boundaries and the barrier steps over them. Built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct LevelGrid {
    /// Every level boundary, plus the chunk boundaries inside wide levels.
    bounds: Vec<u32>,
    /// Barrier steps, in forward level order.
    steps: Vec<Step>,
    /// Total reduction slots: one per chunk of a wide step, one per folded
    /// step.
    total_slots: usize,
}

impl LevelGrid {
    /// Builds the grid over the level boundaries of a topology (the first
    /// node of every level plus a trailing node count).
    pub(crate) fn new(level_bounds: &[u32]) -> Self {
        let mut bounds = vec![level_bounds[0]];
        let mut steps: Vec<Step> = Vec::new();
        let mut slot = 0u32;
        for level in level_bounds.windows(2) {
            let (start, end) = (level[0] as usize, level[1] as usize);
            if end - start > CHUNK_NODES {
                let lo = bounds.len() as u32 - 1;
                bounds.extend(
                    (start + CHUNK_NODES..end)
                        .step_by(CHUNK_NODES)
                        .map(|b| b as u32),
                );
                bounds.push(end as u32);
                let hi = bounds.len() as u32 - 1;
                steps.push(Step {
                    lo,
                    hi,
                    wide: true,
                    slot,
                });
                slot += hi - lo;
            } else {
                bounds.push(end as u32);
                let hi = bounds.len() as u32 - 1;
                match steps.last_mut() {
                    Some(step) if !step.wide => step.hi = hi,
                    _ => {
                        steps.push(Step {
                            lo: hi - 1,
                            hi,
                            wide: false,
                            slot,
                        });
                        slot += 1;
                    }
                }
            }
        }
        LevelGrid {
            bounds,
            steps,
            total_slots: slot as usize,
        }
    }

    /// Number of nodes the grid covers.
    pub(crate) fn num_nodes(&self) -> usize {
        self.bounds[self.bounds.len() - 1] as usize
    }

    /// Number of barrier steps.
    pub(crate) fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total number of per-block reduction slots.
    pub(crate) fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Number of blocks of step `s`: its chunks when wide, one when folded.
    fn blocks_in(&self, s: usize) -> usize {
        let step = self.steps[s];
        if step.wide {
            (step.hi - step.lo) as usize
        } else {
            1
        }
    }

    /// Block `c` of step `s`.
    fn block(&self, s: usize, c: usize) -> Block<'_> {
        let step = self.steps[s];
        let (lo, hi) = if step.wide {
            (step.lo as usize + c, step.lo as usize + c + 1)
        } else {
            (step.lo as usize, step.hi as usize)
        };
        Block {
            bounds: &self.bounds[lo..=hi],
            slot: step.slot as usize + c,
        }
    }

    /// Every block in traversal order: steps forward (or, with `reverse`,
    /// backward), chunks ascending within a step — the order a pass merges
    /// its per-block reductions in.
    pub(crate) fn blocks(&self, reverse: bool) -> impl Iterator<Item = Block<'_>> + '_ {
        let n = self.steps.len();
        (0..n)
            .map(move |s| if reverse { n - 1 - s } else { s })
            .flat_map(move |s| (0..self.blocks_in(s)).map(move |c| self.block(s, c)))
    }

    /// Bytes held by the grid (for memory accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bounds.capacity() * size_of::<u32>() + self.steps.capacity() * size_of::<Step>()
    }
}

/// Number of fixed-width chunks of a flat (level-free) pass over `n` items.
pub(crate) fn flat_chunks(n: usize) -> usize {
    n.div_ceil(CHUNK_NODES).max(1)
}

/// The flat-chunk sub-range of `0..n` covered by chunk `c`.
pub(crate) fn flat_range(n: usize, c: usize) -> std::ops::Range<usize> {
    (c * CHUNK_NODES)..((c + 1) * CHUNK_NODES).min(n)
}

/// The per-engine parallel runtime: the resolved policy, the reusable
/// per-step work-queue counters, and (with the `parallel` feature) the
/// persistent worker pool. `run_flat`/`run_leveled` take `&self` so passes
/// can run while other engine fields are mutably split-borrowed; all
/// mutation goes through atomics or the pool's own synchronization.
pub(crate) struct ParRuntime {
    policy: ParallelPolicy,
    workers: usize,
    /// One work-queue head per step, reset by the runner before each pass.
    counters: Vec<AtomicU32>,
    /// Work-queue head of flat passes.
    flat_counter: AtomicU32,
    #[cfg(feature = "parallel")]
    pool: Option<pool::WorkerPool>,
}

impl std::fmt::Debug for ParRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParRuntime")
            .field("policy", &self.policy)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Clone for ParRuntime {
    /// Clones the configuration, not the OS threads: the clone starts
    /// pool-less and is re-armed by the next
    /// [`configure`](Self::configure) call. Results are unaffected either
    /// way — a pool-less runtime walks the identical grid on the calling
    /// thread.
    fn clone(&self) -> Self {
        ParRuntime {
            policy: self.policy,
            workers: self.workers,
            counters: (0..self.counters.len())
                .map(|_| AtomicU32::new(0))
                .collect(),
            flat_counter: AtomicU32::new(0),
            #[cfg(feature = "parallel")]
            pool: None,
        }
    }
}

impl Default for ParRuntime {
    fn default() -> Self {
        ParRuntime::new()
    }
}

impl ParRuntime {
    /// A one-worker runtime (the engine's initial state).
    pub(crate) fn new() -> Self {
        ParRuntime {
            policy: ParallelPolicy::Sequential,
            workers: 1,
            counters: Vec::new(),
            flat_counter: AtomicU32::new(0),
            #[cfg(feature = "parallel")]
            pool: None,
        }
    }

    /// The active policy.
    pub(crate) fn policy(&self) -> ParallelPolicy {
        self.policy
    }

    /// The resolved worker count (participants including the caller).
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Bytes held by the runtime's work-queue counters (for the engine's
    /// Figure-10(a) memory accounting; the pool's thread stacks are OS
    /// resources, not engine-owned heap).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<AtomicU32>() + std::mem::size_of::<Self>()
    }

    /// Applies a policy and sizes the per-step counters for `num_steps`.
    /// Spawns (or drops) the worker pool to match; idempotent and cheap
    /// when nothing changed, so callers apply it once per solve.
    pub(crate) fn configure(&mut self, policy: ParallelPolicy, num_steps: usize) {
        self.policy = policy;
        self.workers = policy.worker_count();
        if self.counters.len() < num_steps {
            self.counters = (0..num_steps).map(|_| AtomicU32::new(0)).collect();
        }
        #[cfg(feature = "parallel")]
        {
            let want = (self.workers > 1).then_some(self.workers);
            let have = self.pool.as_ref().map(pool::WorkerPool::participants);
            if want != have {
                self.pool = want.map(pool::WorkerPool::new);
            }
        }
    }

    /// Runs `body(chunk)` for every chunk of a flat pass over `chunks`
    /// chunks. Chunks are independent; the caller merges any per-chunk
    /// reductions in chunk order afterwards.
    pub(crate) fn run_flat<F: Fn(usize) + Sync>(&self, chunks: usize, body: F) {
        // Under race-check every chunk body runs inside a claim context, so
        // SharedMut writes are attributed to their owning chunk and an
        // overlap within this pass panics (one worker included — the grid,
        // not the thread count, defines ownership).
        #[cfg(feature = "race-check")]
        let pass = ncgws_circuit::race::begin_pass();
        #[cfg(feature = "race-check")]
        let body = move |c: usize| {
            let owner = ncgws_circuit::race::owner_id(u32::MAX, c as u32);
            let _ctx = ncgws_circuit::race::enter(pass, owner);
            body(c);
        };
        #[cfg(feature = "parallel")]
        if let Some(pool) = self.pool.as_ref().filter(|_| chunks > 1) {
            self.flat_counter.store(0, Ordering::Relaxed);
            let counter = &self.flat_counter;
            pool.run(&|_worker| loop {
                let c = counter.fetch_add(1, Ordering::Relaxed) as usize;
                if c >= chunks {
                    break;
                }
                body(c);
            });
            return;
        }
        let _ = &self.flat_counter;
        for c in 0..chunks {
            body(c);
        }
    }

    /// Runs `body(block)` for every block of `grid`, steps settled in
    /// forward (or, with `reverse`, backward) dependency order. The chunks
    /// of a wide step may run concurrently — no level contains an edge, so
    /// their node sets are independent — and a barrier separates dependent
    /// steps.
    pub(crate) fn run_leveled<F: Fn(Block<'_>) + Sync>(
        &self,
        grid: &LevelGrid,
        reverse: bool,
        body: F,
    ) {
        // One claim pass per step, owners `(step, chunk)`: chunks of a step
        // race each other (the level partition must keep their writes
        // disjoint), while writes from different steps are barrier-ordered
        // and thus never races.
        #[cfg(feature = "race-check")]
        let pass_base = ncgws_circuit::race::begin_passes(grid.num_steps() as u64);
        #[cfg(feature = "race-check")]
        let body = move |s: usize, c: usize| {
            let owner = ncgws_circuit::race::owner_id(s as u32, c as u32);
            let _ctx = ncgws_circuit::race::enter(pass_base + s as u64, owner);
            body(grid.block(s, c));
        };
        #[cfg(not(feature = "race-check"))]
        let body = |s: usize, c: usize| body(grid.block(s, c));
        let num_steps = grid.num_steps();
        let step_at = |pos: usize| if reverse { num_steps - 1 - pos } else { pos };
        #[cfg(feature = "parallel")]
        if let Some(pool) = self
            .pool
            .as_ref()
            .filter(|_| grid.total_slots() > num_steps)
        {
            debug_assert!(self.counters.len() >= num_steps);
            for counter in &self.counters[..num_steps] {
                counter.store(0, Ordering::Relaxed);
            }
            let counters = &self.counters;
            let barrier = pool.barrier();
            pool.run(&|worker| {
                for pos in 0..num_steps {
                    let s = step_at(pos);
                    let blocks = grid.blocks_in(s);
                    if blocks > 1 {
                        let counter = &counters[s];
                        loop {
                            let c = counter.fetch_add(1, Ordering::Relaxed) as usize;
                            if c >= blocks {
                                break;
                            }
                            body(s, c);
                        }
                    } else if worker == 0 {
                        body(s, 0);
                    }
                    barrier.wait();
                }
            });
            return;
        }
        // The identical grid on the calling thread (one worker, or the
        // feature disabled): same blocks, same per-block arithmetic, hence
        // bitwise-identical results.
        let _ = &self.counters;
        for pos in 0..num_steps {
            let s = step_at(pos);
            for c in 0..grid.blocks_in(s) {
                body(s, c);
            }
        }
    }
}

/// The persistent worker pool: `participants - 1` parked OS threads plus
/// the calling thread. Jobs are published as type-erased `Fn(worker)`
/// borrows; [`WorkerPool::run`] does not return until every worker finished
/// the job, which is what makes handing out a stack borrow sound.
#[cfg(feature = "parallel")]
mod pool {
    use std::sync::{Arc, Barrier, Condvar, Mutex};

    /// Type-erased pointer to the caller's job closure. Only ever
    /// dereferenced between `run`'s publish and its completion wait, while
    /// the underlying closure is alive on the caller's stack.
    #[derive(Copy, Clone)]
    struct Job(*const (dyn Fn(usize) + Sync + 'static));
    // SAFETY: the pointee is `Sync` and `run` keeps it alive for the whole
    // execution; sending the pointer to workers is then sound.
    unsafe impl Send for Job {}

    struct State {
        seq: u64,
        job: Option<Job>,
        remaining: usize,
        shutdown: bool,
    }

    struct Shared {
        state: Mutex<State>,
        start: Condvar,
        done: Condvar,
    }

    pub(crate) struct WorkerPool {
        shared: Arc<Shared>,
        handles: Vec<std::thread::JoinHandle<()>>,
        barrier: Arc<Barrier>,
        participants: usize,
    }

    impl std::fmt::Debug for WorkerPool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("WorkerPool")
                .field("participants", &self.participants)
                .finish()
        }
    }

    impl WorkerPool {
        /// Spawns a pool with `participants` total workers (the calling
        /// thread is worker 0; `participants - 1` threads are spawned).
        pub(crate) fn new(participants: usize) -> Self {
            let participants = participants.max(2);
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    seq: 0,
                    job: None,
                    remaining: 0,
                    shutdown: false,
                }),
                start: Condvar::new(),
                done: Condvar::new(),
            });
            let handles = (1..participants)
                .map(|worker| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("ncgws-par-{worker}"))
                        .spawn(move || worker_loop(&shared, worker))
                        .expect("spawning a pool worker succeeds")
                })
                .collect();
            WorkerPool {
                shared,
                handles,
                barrier: Arc::new(Barrier::new(participants)),
                participants,
            }
        }

        /// Total participants (including the calling thread).
        pub(crate) fn participants(&self) -> usize {
            self.participants
        }

        /// The barrier shared by all participants of a job (sized to
        /// [`participants`](Self::participants); every participant runs
        /// every job exactly once, so per-step waits line up).
        pub(crate) fn barrier(&self) -> &Barrier {
            &self.barrier
        }

        /// Executes `job` on every participant and returns once all are
        /// done. The calling thread is participant 0.
        pub(crate) fn run(&self, job: &(dyn Fn(usize) + Sync)) {
            // SAFETY: `run` blocks until `remaining == 0`, so the borrow
            // outlives every dereference (a panic inside the job aborts the
            // process — see `run_job` — so no unwind path can return from
            // `run` while a worker still holds the pointer); the transmute
            // only erases the lifetime.
            let erased = Job(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(job as *const _)
            });
            {
                let mut state = self.shared.state.lock().expect("pool lock");
                state.job = Some(erased);
                state.remaining = self.participants - 1;
                state.seq += 1;
                self.shared.start.notify_all();
            }
            run_job(&|| job(0));
            let mut state = self.shared.state.lock().expect("pool lock");
            while state.remaining > 0 {
                state = self.shared.done.wait(state).expect("pool lock");
            }
            state.job = None;
        }
    }

    /// Executes one participant's share of a job, aborting the process if it
    /// panics. An unwinding participant cannot be tolerated here: the other
    /// participants are blocked on the step [`Barrier`] it will never reach
    /// (deadlock), and on the calling thread the unwind would drop the
    /// engine state the lifetime-erased [`Job`] pointer still borrows
    /// (use-after-free on the workers). Pass bodies are pure arithmetic over
    /// pre-validated tables — a panic there is a bug, and a loud abort beats
    /// either failure mode.
    fn run_job(body: &dyn Fn()) {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
            eprintln!("ncgws-core: panic inside a level-parallel pass; aborting");
            std::process::abort();
        }
    }

    impl Drop for WorkerPool {
        fn drop(&mut self) {
            {
                let mut state = self.shared.state.lock().expect("pool lock");
                state.shutdown = true;
                self.shared.start.notify_all();
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }

    fn worker_loop(shared: &Shared, worker: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut state = shared.state.lock().expect("pool lock");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.seq != seen {
                        break;
                    }
                    state = shared.start.wait(state).expect("pool lock");
                }
                seen = state.seq;
                state.job.expect("published job")
            };
            // SAFETY: `WorkerPool::run` keeps the closure alive until every
            // worker reports completion below (panics abort, so completion
            // is the only way out of `run_job`).
            run_job(&|| (unsafe { &*job.0 })(worker));
            let mut state = shared.state.lock().expect("pool lock");
            state.remaining -= 1;
            if state.remaining == 0 {
                shared.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Level boundaries for the given level sizes.
    fn bounds_of(sizes: &[usize]) -> Vec<u32> {
        let mut bounds = vec![0u32];
        for &len in sizes {
            bounds.push(bounds[bounds.len() - 1] + len as u32);
        }
        bounds
    }

    #[test]
    fn policy_resolution_and_validation() {
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Sequential);
        assert_eq!(ParallelPolicy::Sequential.worker_count(), 1);
        assert_eq!(ParallelPolicy::threads(1).worker_count(), 1);
        assert_eq!(ParallelPolicy::threads(3).worker_count(), 3);
        assert!(ParallelPolicy::threads(0).worker_count() >= 1);
        assert!(ParallelPolicy::threads(8).validate().is_ok());
        assert!(ParallelPolicy::Sequential.validate().is_ok());
        assert!(ParallelPolicy::threads(100_000).validate().is_err());
    }

    #[test]
    fn grid_chunks_cover_every_level_exactly() {
        let sizes = [1usize, CHUNK_NODES, CHUNK_NODES + 1, 3, 2 * CHUNK_NODES];
        let level_bounds = bounds_of(&sizes);
        let grid = LevelGrid::new(&level_bounds);
        // Levels 0–1 fold into one block, level 2 splits into two chunks,
        // level 3 is a block of its own, level 4 splits into two chunks.
        assert_eq!(grid.num_steps(), 4);
        let blocks: Vec<Block<'_>> = grid.blocks(false).collect();
        let expected: [&[u32]; 6] = [
            &level_bounds[0..=2],
            &[level_bounds[2], level_bounds[2] + CHUNK_NODES as u32],
            &[level_bounds[2] + CHUNK_NODES as u32, level_bounds[3]],
            &level_bounds[3..=4],
            &[level_bounds[4], level_bounds[4] + CHUNK_NODES as u32],
            &[level_bounds[4] + CHUNK_NODES as u32, level_bounds[5]],
        ];
        assert_eq!(blocks.len(), expected.len());
        let mut covered = 0;
        for (slot, (block, want)) in blocks.iter().zip(expected).enumerate() {
            assert_eq!(block.bounds, want);
            assert_eq!(block.slot, slot);
            assert_eq!(block.nodes().start, covered);
            covered = block.nodes().end;
        }
        assert_eq!(covered, level_bounds[sizes.len()] as usize);
        assert_eq!(grid.num_nodes(), covered);
        assert_eq!(grid.total_slots(), blocks.len());
        let reversed: Vec<usize> = grid.blocks(true).map(|b| b.slot).collect();
        assert_eq!(reversed, [4, 5, 3, 1, 2, 0], "steps reverse, chunks ascend");
        assert!(grid.memory_bytes() > 0);
    }

    #[test]
    fn leveled_runner_visits_every_chunk_in_dependency_order() {
        let sizes = [2usize, CHUNK_NODES * 2, 1, 1, CHUNK_NODES + 1];
        let grid = LevelGrid::new(&bounds_of(&sizes));
        for threads in [1usize, 3] {
            for reverse in [false, true] {
                let mut runtime = ParRuntime::new();
                runtime.configure(ParallelPolicy::threads(threads), grid.num_steps());
                let visited: Vec<AtomicUsize> = (0..grid.total_slots())
                    .map(|_| AtomicUsize::new(0))
                    .collect();
                let stamp = AtomicUsize::new(1);
                runtime.run_leveled(&grid, reverse, |block| {
                    let previous = visited[block.slot]
                        .swap(stamp.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                    assert_eq!(previous, 0, "every block runs once");
                });
                // Every block ran, and steps settled in dependency order:
                // every block of a step ran before any block of the next
                // step in the traversal direction.
                let stamps = |s: usize| {
                    (0..grid.blocks_in(s))
                        .map(|c| visited[grid.block(s, c).slot].load(Ordering::Relaxed))
                        .collect::<Vec<_>>()
                };
                assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) > 0));
                for s in 1..grid.num_steps() {
                    let (earlier, later) = if reverse { (s, s - 1) } else { (s - 1, s) };
                    assert!(
                        stamps(earlier).iter().max() < stamps(later).iter().min(),
                        "step {earlier} must settle before step {later} (reverse={reverse})"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_runner_visits_every_chunk_once() {
        for threads in [1usize, 4] {
            let mut runtime = ParRuntime::new();
            runtime.configure(ParallelPolicy::threads(threads), 0);
            let chunks = 37;
            let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
            runtime.run_flat(chunks, |c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn runtime_clone_drops_the_pool_but_keeps_the_policy() {
        let mut runtime = ParRuntime::new();
        runtime.configure(ParallelPolicy::threads(2), 4);
        let clone = runtime.clone();
        assert_eq!(clone.policy(), ParallelPolicy::threads(2));
        assert_eq!(clone.workers(), 2);
        // A cloned (pool-less) runtime still runs the full grid.
        let grid = LevelGrid::new(&bounds_of(&[3, CHUNK_NODES + 1]));
        let count = AtomicUsize::new(0);
        clone.run_leveled(&grid, false, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), grid.total_slots());
    }
}
