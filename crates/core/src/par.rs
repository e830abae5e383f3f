//! Deterministic level-parallel execution for the stage-2 inner loop.
//!
//! The paper's per-sweep work is `O(V + E + P)` with *component-separable*
//! closed-form resizes (Theorem 5), and the cached level partition of
//! [`CircuitTopology`](ncgws_circuit::CircuitTopology) proves that nodes of
//! one topological level share no fanin/fanout edge. This module turns that
//! structure into multi-threaded traversals whose results are **bitwise
//! identical across every thread count** (1, 2, 8, …):
//!
//! * the work grid is *fixed by the data*, never by the thread count: every
//!   level is split into fixed-width chunks (`CHUNK_NODES`, 256 nodes), so
//!   chunk boundaries — and therefore every per-chunk accumulation — are
//!   the same no matter how many workers exist;
//! * threads only change *which worker* executes a chunk (an atomic
//!   work-queue hands chunks out), never the arithmetic: per-node values
//!   depend only on settled earlier levels plus the node's own CSR lists,
//!   and all cross-chunk reductions (worst relative change, touched counts,
//!   dirty-frontier merges) are combined by the caller **in fixed chunk
//!   order** after the pass;
//! * with the `parallel` feature disabled — or `threads = 1` — the runners
//!   walk the identical chunk grid sequentially, so a serial build is a
//!   bit-for-bit oracle for the threaded one.
//!
//! [`ParallelPolicy`] selects between the PR-4 sequential traversals
//! (`Sequential`, the default) and the level-parallel grid (`Level`); the
//! policy is threaded from [`OptimizerConfig`](crate::OptimizerConfig)
//! through [`SizingEngine`](crate::SizingEngine) into every sweep. The
//! worker pool is a tiny condvar-based fan-out over `std::thread` (no new
//! dependencies); barriers separate dependent levels, and runs of
//! single-chunk levels are folded into one barrier step so deep, narrow
//! circuit regions do not pay one synchronization per level.

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
/// The `Level` policy is deterministic by construction: outcomes are
/// bitwise identical for every `threads` value, and with
/// [`SolveStrategy::Exact`](crate::SolveStrategy) they remain bitwise
/// pinned to [`crate::reference`] — the per-node arithmetic is unchanged,
/// only its distribution across workers varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelPolicy {
    /// The sequential whole-circuit traversals (the default).
    Sequential,
    /// Level-parallel traversals over the fixed chunk grid.
    Level {
        /// Worker count; `0` resolves to the machine's available
        /// parallelism. `1` runs the identical grid on the calling thread.
        /// Without the `parallel` feature every value runs sequentially —
        /// same grid, same results.
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

    /// Whether this is the level-parallel policy.
    pub fn is_level(&self) -> bool {
        matches!(self, ParallelPolicy::Level { .. })
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

/// One barrier step of a leveled pass: the levels `lo..hi`. A step is
/// either one *wide* level (more than one chunk, distributed through the
/// work queue) or a run of consecutive single-chunk levels executed by one
/// worker between two barriers.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(feature = "parallel"), allow(dead_code))]
struct Step {
    lo: u32,
    hi: u32,
}

/// The deterministic chunk grid over a topology's level partition: per
/// level a chunk count and a global chunk-id base (for indexing per-chunk
/// reduction slots), plus the barrier steps. Built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct LevelGrid {
    /// Per level: global chunk-id base (prefix sum of `chunks`).
    chunk_base: Vec<u32>,
    /// Per level: number of chunks.
    chunks: Vec<u32>,
    /// Per level: global *node-position* base (prefix sum of level sizes) —
    /// the offset of the level's first node in a level-ordered scratch
    /// array, used to give each chunk a disjoint scratch segment.
    node_base: Vec<u32>,
    /// Barrier steps, in forward level order.
    steps: Vec<Step>,
    total_chunks: usize,
}

impl LevelGrid {
    /// Builds the grid for the given per-level node counts.
    pub(crate) fn new(level_sizes: impl Iterator<Item = usize>) -> Self {
        let mut chunk_base = Vec::new();
        let mut chunks = Vec::new();
        let mut node_base = Vec::new();
        let mut total = 0u32;
        let mut nodes = 0u32;
        for len in level_sizes {
            chunk_base.push(total);
            node_base.push(nodes);
            let c = len.div_ceil(CHUNK_NODES).max(1) as u32;
            chunks.push(c);
            total += c;
            nodes += len as u32;
        }
        // Fold runs of single-chunk levels into one barrier step.
        let mut steps = Vec::new();
        let mut l = 0usize;
        while l < chunks.len() {
            if chunks[l] > 1 {
                steps.push(Step {
                    lo: l as u32,
                    hi: l as u32 + 1,
                });
                l += 1;
            } else {
                let lo = l;
                while l < chunks.len() && chunks[l] == 1 {
                    l += 1;
                }
                steps.push(Step {
                    lo: lo as u32,
                    hi: l as u32,
                });
            }
        }
        LevelGrid {
            chunk_base,
            chunks,
            node_base,
            steps,
            total_chunks: total as usize,
        }
    }

    /// Number of levels in the grid.
    pub(crate) fn num_levels(&self) -> usize {
        self.chunks.len()
    }

    /// Total number of chunks across all levels.
    pub(crate) fn total_chunks(&self) -> usize {
        self.total_chunks
    }

    /// Number of chunks of level `l`.
    pub(crate) fn chunks_in(&self, l: usize) -> usize {
        self.chunks[l] as usize
    }

    /// Global chunk id of chunk `c` of level `l` (indexes per-chunk
    /// reduction slots).
    pub(crate) fn chunk_id(&self, l: usize, c: usize) -> usize {
        self.chunk_base[l] as usize + c
    }

    /// The sub-range of a level's node list covered by chunk `c`.
    pub(crate) fn chunk_range(&self, level_len: usize, c: usize) -> std::ops::Range<usize> {
        let lo = c * CHUNK_NODES;
        lo..((c + 1) * CHUNK_NODES).min(level_len)
    }

    /// Global node-position base of level `l` (see the field docs).
    pub(crate) fn node_base(&self, l: usize) -> usize {
        self.node_base[l] as usize
    }

    /// Bytes held by the grid (for memory accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.chunk_base.capacity() + self.chunks.capacity() + self.node_base.capacity())
            * size_of::<u32>()
            + self.steps.capacity() * size_of::<Step>()
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
/// per-level work-queue counters, and (with the `parallel` feature) the
/// persistent worker pool. `run_flat`/`run_leveled` take `&self` so passes
/// can run while other engine fields are mutably split-borrowed; all
/// mutation goes through atomics or the pool's own synchronization.
pub(crate) struct ParRuntime {
    policy: ParallelPolicy,
    workers: usize,
    /// One work-queue head per level, reset by the caller before each pass.
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
    /// way — a pool-less runtime walks the identical chunk grid serially.
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
    /// A sequential runtime (the engine's initial state).
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

    /// Bytes held by the runtime's work-queue counters (for the engine's
    /// Figure-10(a) memory accounting; the pool's thread stacks are OS
    /// resources, not engine-owned heap).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<AtomicU32>() + std::mem::size_of::<Self>()
    }

    /// Whether the level-parallel grid is selected (regardless of worker
    /// count or feature — the grid itself is what fixes the arithmetic).
    pub(crate) fn active(&self) -> bool {
        self.policy.is_level()
    }

    /// Applies a policy and sizes the per-level counters for `num_levels`.
    /// Spawns (or drops) the worker pool to match; idempotent and cheap
    /// when nothing changed, so callers apply it once per solve.
    pub(crate) fn configure(&mut self, policy: ParallelPolicy, num_levels: usize) {
        self.policy = policy;
        self.workers = policy.worker_count();
        if self.counters.len() < num_levels {
            self.counters = (0..num_levels).map(|_| AtomicU32::new(0)).collect();
        }
        #[cfg(feature = "parallel")]
        {
            let want = if self.policy.is_level() && self.workers > 1 {
                Some(self.workers)
            } else {
                None
            };
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
        // overlap within this pass panics (sequential path included — the
        // grid, not the thread count, defines ownership).
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

    /// Runs `body(level, chunk)` for every chunk of every level of `grid`,
    /// levels settled in forward (or, with `reverse`, backward) dependency
    /// order. Chunks of one level may run concurrently — the level
    /// partition guarantees their node sets are independent — and a barrier
    /// separates dependent steps.
    pub(crate) fn run_leveled<F: Fn(usize, usize) + Sync>(
        &self,
        grid: &LevelGrid,
        reverse: bool,
        body: F,
    ) {
        let num_levels = grid.num_levels();
        // One claim pass per level: chunks of a level race each other (the
        // level partition must keep their writes disjoint), while writes
        // from different levels are barrier-ordered and thus never races.
        #[cfg(feature = "race-check")]
        let pass_base = ncgws_circuit::race::begin_passes(num_levels as u64);
        #[cfg(feature = "race-check")]
        let body = move |l: usize, c: usize| {
            let owner = ncgws_circuit::race::owner_id(l as u32, c as u32);
            let _ctx = ncgws_circuit::race::enter(pass_base + l as u64, owner);
            body(l, c);
        };
        #[cfg(feature = "parallel")]
        if let Some(pool) = self
            .pool
            .as_ref()
            .filter(|_| num_levels > 0 && grid.total_chunks() > num_levels)
        {
            debug_assert!(self.counters.len() >= num_levels);
            for counter in &self.counters[..num_levels] {
                counter.store(0, Ordering::Relaxed);
            }
            let counters = &self.counters;
            let barrier = pool.barrier();
            let steps = &grid.steps;
            pool.run(&|worker| {
                let mut pos = 0usize;
                while pos < steps.len() {
                    let step = if reverse {
                        steps[steps.len() - 1 - pos]
                    } else {
                        steps[pos]
                    };
                    let wide = step.hi == step.lo + 1 && grid.chunks_in(step.lo as usize) > 1;
                    if wide {
                        let l = step.lo as usize;
                        let chunks = grid.chunks_in(l);
                        let counter = &counters[l];
                        loop {
                            let c = counter.fetch_add(1, Ordering::Relaxed) as usize;
                            if c >= chunks {
                                break;
                            }
                            body(l, c);
                        }
                    } else if worker == 0 {
                        // A run of single-chunk levels: one worker settles
                        // them in dependency order under a single barrier.
                        let levels = step.lo as usize..step.hi as usize;
                        if reverse {
                            for l in levels.rev() {
                                body(l, 0);
                            }
                        } else {
                            for l in levels {
                                body(l, 0);
                            }
                        }
                    }
                    barrier.wait();
                    pos += 1;
                }
            });
            return;
        }
        // Sequential walk of the identical grid (also the `threads = 1`
        // and feature-disabled path): same chunks, same per-chunk
        // arithmetic, hence bitwise-identical results.
        let _ = &self.counters;
        if reverse {
            for l in (0..num_levels).rev() {
                for c in 0..grid.chunks_in(l) {
                    body(l, c);
                }
            }
        } else {
            for l in 0..num_levels {
                for c in 0..grid.chunks_in(l) {
                    body(l, c);
                }
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

    #[test]
    fn policy_resolution_and_validation() {
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Sequential);
        assert_eq!(ParallelPolicy::Sequential.worker_count(), 1);
        assert_eq!(ParallelPolicy::threads(3).worker_count(), 3);
        assert!(ParallelPolicy::threads(0).worker_count() >= 1);
        assert!(ParallelPolicy::threads(8).validate().is_ok());
        assert!(ParallelPolicy::Sequential.validate().is_ok());
        assert!(ParallelPolicy::threads(100_000).validate().is_err());
        assert!(ParallelPolicy::threads(2).is_level());
        assert!(!ParallelPolicy::Sequential.is_level());
    }

    #[test]
    fn grid_chunks_cover_every_level_exactly() {
        let sizes = [1usize, CHUNK_NODES, CHUNK_NODES + 1, 3, 2 * CHUNK_NODES];
        let grid = LevelGrid::new(sizes.iter().copied());
        assert_eq!(grid.num_levels(), sizes.len());
        let mut total = 0;
        for (l, &len) in sizes.iter().enumerate() {
            let chunks = grid.chunks_in(l);
            assert_eq!(chunks, len.div_ceil(CHUNK_NODES).max(1));
            let mut covered = 0;
            for c in 0..chunks {
                let range = grid.chunk_range(len, c);
                assert_eq!(range.start, covered);
                covered = range.end;
                assert_eq!(grid.chunk_id(l, c), total + c);
            }
            assert_eq!(covered, len);
            total += chunks;
        }
        assert_eq!(grid.total_chunks(), total);
        assert!(grid.memory_bytes() > 0);
    }

    #[test]
    fn leveled_runner_visits_every_chunk_in_dependency_order() {
        let sizes = [2usize, CHUNK_NODES * 2, 1, 1, CHUNK_NODES + 1];
        let grid = LevelGrid::new(sizes.iter().copied());
        for threads in [1usize, 3] {
            for reverse in [false, true] {
                let mut runtime = ParRuntime::new();
                runtime.configure(ParallelPolicy::threads(threads), grid.num_levels());
                let visited: Vec<AtomicUsize> = (0..grid.total_chunks())
                    .map(|_| AtomicUsize::new(0))
                    .collect();
                let stamp = AtomicUsize::new(1);
                runtime.run_leveled(&grid, reverse, |l, c| {
                    visited[grid.chunk_id(l, c)]
                        .store(stamp.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                });
                // Every chunk ran exactly once...
                assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) > 0));
                // ...and levels settled in dependency order: every chunk of
                // a level ran before any chunk of the next level in the
                // traversal direction.
                let level_max = |l: usize| {
                    (0..grid.chunks_in(l))
                        .map(|c| visited[grid.chunk_id(l, c)].load(Ordering::Relaxed))
                        .max()
                        .unwrap()
                };
                let level_min = |l: usize| {
                    (0..grid.chunks_in(l))
                        .map(|c| visited[grid.chunk_id(l, c)].load(Ordering::Relaxed))
                        .min()
                        .unwrap()
                };
                for l in 1..grid.num_levels() {
                    let (earlier, later) = if reverse { (l, l - 1) } else { (l - 1, l) };
                    assert!(
                        level_max(earlier) < level_min(later),
                        "level {earlier} must settle before level {later} (reverse={reverse})"
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
        assert!(clone.active());
        // A cloned (pool-less) runtime still runs the full grid.
        let grid = LevelGrid::new([3usize, CHUNK_NODES + 1].into_iter());
        let count = AtomicUsize::new(0);
        clone.run_leveled(&grid, false, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), grid.total_chunks());
    }
}
