//! Deterministic level-parallel execution for the stage-2 inner loop, and
//! the worker pool stage 1 orders its channel blocks on.
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
//! * a pass walks the grid's steps in dependency order and hands every
//!   block of a step its own slices of the tables it writes
//!   ([`Tiles`] → [`Tile`](ncgws_circuit::Tile)): a `&mut` piece for the
//!   block's own range and a shared borrow of what earlier steps settled
//!   (the one block of a folded step owns the settled part too). Blocks of
//!   one step therefore cannot touch each other's entries, and the borrow
//!   checker proves it;
//! * threads only change *which worker* executes a block (workers pull the
//!   step's blocks from one queue), never the arithmetic: per-node values
//!   depend only on settled earlier steps plus the node's own CSR lists,
//!   and all cross-block reductions (worst relative change, touched counts)
//!   are combined by the caller **in fixed block order** after the pass;
//! * a step of one block — a folded run of narrow levels — runs on the
//!   calling thread, as does every step with the `parallel` feature
//!   disabled or one worker: the identical grid, the identical results.
//!
//! [`ParallelPolicy`] sets the worker count; the policy is threaded from
//! [`OptimizerConfig`](crate::OptimizerConfig) through
//! [`SizingEngine`](crate::SizingEngine) into every sweep. The worker pool
//! is a tiny condvar-based fan-out over `std::thread` (no new
//! dependencies), handed one job per step that has more than one block;
//! between jobs its participants poll briefly before they park.

use ncgws_circuit::{Space, Tiles};
use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::error::CoreError;

/// Fixed chunk width (in nodes / components) of the deterministic work
/// grid. Chosen so a chunk amortizes the work-queue pop while leaving
/// enough chunks per wide level to balance across workers; results never
/// depend on this value's relation to the thread count, only perf does.
pub(crate) const CHUNK_NODES: usize = 256;

/// How a solve distributes its work across threads: stage 1's blocks of
/// routing channels and the stage-2 inner loop's traversals.
///
/// Selected via [`OptimizerConfig::parallel`](crate::OptimizerConfig) (or
/// [`OptimizerConfigBuilder::threads`](crate::OptimizerConfigBuilder::threads)).
/// Both variants run the same deterministic grids; they differ only in
/// the worker count. `Sequential` and one thread spawn no thread at all.
/// Outcomes are bitwise identical for every worker count,
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
            ParallelPolicy::Level { threads: 0 } => hardware_threads(),
            ParallelPolicy::Level { threads } => *threads,
        }
    }

    /// The policy with no more workers than the machine has hardware
    /// threads. Stage 1 runs under it: its blocks are one short burst of
    /// independent CPU work, which workers beyond the hardware only slow
    /// by their start and join.
    pub(crate) fn at_most_hardware(self) -> Self {
        match self {
            ParallelPolicy::Level { threads } if threads > 0 => ParallelPolicy::Level {
                threads: threads.min(hardware_threads()),
            },
            other => other,
        }
    }
}

/// The machine's available parallelism (1 when unknown).
fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One step of a leveled pass: the boundary window `bounds[lo..=hi]` of
/// the grid. A *wide* step is one level split into `hi - lo` chunks,
/// `bounds[lo + c]..bounds[lo + c + 1]` for chunk `c`, distributed across
/// the workers. A folded step is a run of consecutive narrow levels,
/// `bounds[lo..=hi]` their level boundaries, executed as one block on the
/// calling thread.
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
    pub(crate) fn nodes(&self) -> Range<usize> {
        self.bounds[0] as usize..self.bounds[self.bounds.len() - 1] as usize
    }
}

/// The deterministic grid over a topology's level partition: the block
/// boundaries and the steps over them. Built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct LevelGrid {
    /// Every level boundary, plus the chunk boundaries inside wide levels.
    bounds: Vec<u32>,
    /// Steps, in forward level order.
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

    /// The steps in forward (or, with `reverse`, backward) dependency
    /// order: each step's blocks read only what the steps before it
    /// settled.
    pub(crate) fn steps(&self, reverse: bool) -> impl Iterator<Item = GridStep<'_>> + '_ {
        let n = self.steps.len();
        (0..n).map(move |s| GridStep {
            grid: self,
            s: if reverse { n - 1 - s } else { s },
            reverse,
        })
    }

    /// Every block in traversal order: steps forward (or, with `reverse`,
    /// backward), chunks ascending within a step — the order a pass merges
    /// its per-block reductions in.
    pub(crate) fn blocks(&self, reverse: bool) -> impl Iterator<Item = Block<'_>> + '_ {
        self.steps(reverse).flat_map(|step| step.blocks())
    }

    /// Bytes held by the grid (for memory accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bounds.capacity() * size_of::<u32>() + self.steps.capacity() * size_of::<Step>()
    }
}

/// One step of a pass over the grid, walked in the pass's direction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridStep<'g> {
    grid: &'g LevelGrid,
    s: usize,
    reverse: bool,
}

impl<'g> GridStep<'g> {
    /// The step's blocks, chunks ascending.
    pub(crate) fn blocks(self) -> impl ExactSizeIterator<Item = Block<'g>> + Send {
        let (grid, s) = (self.grid, self.s);
        (0..grid.blocks_in(s)).map(move |c| grid.block(s, c))
    }

    /// The reduction slots of the step's blocks, in block order.
    pub(crate) fn slots(self) -> Range<usize> {
        let slot = self.grid.steps[self.s].slot as usize;
        slot..slot + self.grid.blocks_in(self.s)
    }

    /// The nodes the step covers.
    pub(crate) fn nodes(self) -> Range<usize> {
        let step = self.grid.steps[self.s];
        let bounds = &self.grid.bounds;
        bounds[step.lo as usize] as usize..bounds[step.hi as usize] as usize
    }

    /// Splits `table` for this step (see [`Tiles::new`]). The block of a
    /// folded step runs alone.
    pub(crate) fn tiles<'t, T>(self, table: &'t mut [T], space: Space<'t>) -> Tiles<'t, T> {
        let alone = !self.grid.steps[self.s].wide;
        Tiles::new(table, space, self.nodes(), self.reverse, alone)
    }
}

/// The fixed-width chunks of a flat (level-free) pass over `n` items: the
/// blocks of a pass whose items are independent.
pub(crate) fn flat_blocks(n: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
    (0..n.div_ceil(CHUNK_NODES).max(1))
        .map(move |c| c * CHUNK_NODES..((c + 1) * CHUNK_NODES).min(n))
}

/// A solve's parallel runtime — one per engine, and one for stage 1: the
/// resolved policy and (with the `parallel` feature) the persistent worker
/// pool. [`run`](Self::run)
/// takes `&self` so passes can run while other engine fields are mutably
/// split-borrowed.
pub(crate) struct ParRuntime {
    policy: ParallelPolicy,
    workers: usize,
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
            #[cfg(feature = "parallel")]
            pool: None,
        }
    }

    /// Applies a policy, spawning (or dropping) the worker pool to match;
    /// idempotent and cheap when nothing changed, so callers apply it once
    /// per solve.
    pub(crate) fn configure(&mut self, policy: ParallelPolicy) {
        self.policy = policy;
        self.workers = policy.worker_count();
        #[cfg(feature = "parallel")]
        {
            let want = (self.workers > 1).then_some(self.workers);
            let have = self.pool.as_ref().map(pool::WorkerPool::participants);
            if want != have {
                self.pool = want.map(pool::WorkerPool::new);
            }
        }
    }

    /// Runs `body` on every block of one step: `blocks` yields each
    /// block's work item (its range and its views of the tables it
    /// writes). With a pool and more than one block, the workers pull the
    /// items from one queue; otherwise the calling thread runs them in
    /// order. Items are created in order either way, and the caller merges
    /// per-block reductions in block order afterwards.
    pub(crate) fn run<I, F>(&self, blocks: I, body: F)
    where
        I: ExactSizeIterator + Send,
        F: Fn(I::Item) + Sync,
    {
        #[cfg(feature = "parallel")]
        if let Some(pool) = self.pool.as_ref().filter(|_| blocks.len() > 1) {
            let queue = std::sync::Mutex::new(blocks);
            pool.run(&|| loop {
                // A panicking pass aborts the process (see `pool::run_job`),
                // so the lock is never poisoned.
                let next = queue.lock().expect("work queue lock").next();
                match next {
                    Some(item) => body(item),
                    None => break,
                }
            });
            return;
        }
        blocks.for_each(body);
    }
}

/// The persistent worker pool: `participants - 1` parked OS threads plus
/// the calling thread. Jobs are published as type-erased `Fn()` borrows; [`WorkerPool::run`] does not return until every worker finished
/// the job, which is what makes handing out a stack borrow sound.
#[cfg(feature = "parallel")]
mod pool {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    /// Type-erased pointer to the caller's job closure. Only ever
    /// dereferenced between `run`'s publish and its completion wait, while
    /// the underlying closure is alive on the caller's stack.
    #[derive(Copy, Clone)]
    struct Job(*const (dyn Fn() + Sync + 'static));
    // SAFETY: the pointee is `Sync` and `run` keeps it alive for the whole
    // execution; sending the pointer to workers is then sound.
    unsafe impl Send for Job {}

    struct State {
        job: Option<Job>,
        shutdown: bool,
    }

    struct Shared {
        state: Mutex<State>,
        /// Sequence number of the latest published job. It changes only
        /// under the state lock, together with `job`, but idle workers
        /// poll it without the lock before they park.
        seq: AtomicU64,
        /// Participants other than the caller still running the current
        /// job; the caller polls it before it parks.
        remaining: AtomicUsize,
        start: Condvar,
        done: Condvar,
    }

    /// How often a participant polls for its wake-up condition, yielding
    /// between polls, before it parks. A pass hands the workers one job
    /// per step, back to back, so a short poll catches the next job (and
    /// the caller the end of the current one) without a futex round trip.
    ///
    /// Measured on a 2-core host: on xlw100k at `threads(2)` (one pool)
    /// 64, 256 and 1024 polls solve equally fast and faster than parking
    /// at once; with four xlw instances solved on two threads at a time,
    /// each with a 2- or 4-thread pool (several pools sharing the cores),
    /// polling is no slower than parking at once, since a yielding poller
    /// gives its core to whichever thread has work.
    const POLLS: usize = 256;

    /// Polls `ready` up to [`POLLS`] times; whether it became true.
    fn poll(ready: impl Fn() -> bool) -> bool {
        for _ in 0..POLLS {
            if ready() {
                return true;
            }
            std::thread::yield_now();
        }
        ready()
    }

    pub(crate) struct WorkerPool {
        shared: Arc<Shared>,
        handles: Vec<std::thread::JoinHandle<()>>,
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
        /// thread is worker 0; `participants - 1` threads are spawned), and
        /// returns once every worker is up, so a thread's start-up is over
        /// before the first real job. The threads are unnamed: std copies a
        /// thread's name on the new thread, one heap allocation in that
        /// thread's own arena.
        pub(crate) fn new(participants: usize) -> Self {
            let participants = participants.max(2);
            let shared = Arc::new(Shared {
                state: Mutex::new(State {
                    job: None,
                    shutdown: false,
                }),
                seq: AtomicU64::new(0),
                remaining: AtomicUsize::new(0),
                start: Condvar::new(),
                done: Condvar::new(),
            });
            let handles = (1..participants)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect();
            let pool = WorkerPool {
                shared,
                handles,
                participants,
            };
            pool.run(&|| {});
            pool
        }

        /// Total participants (including the calling thread).
        pub(crate) fn participants(&self) -> usize {
            self.participants
        }

        /// Executes `job` on every participant and returns once all are
        /// done. The calling thread is one of them.
        pub(crate) fn run(&self, job: &(dyn Fn() + Sync)) {
            // SAFETY: `run` blocks until `remaining == 0`, so the borrow
            // outlives every dereference (a panic inside the job aborts the
            // process — see `run_job` — so no unwind path can return from
            // `run` while a worker still holds the pointer); the transmute
            // only erases the lifetime.
            let erased = Job(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
                    job as *const _,
                )
            });
            let shared = &*self.shared;
            {
                let mut state = shared.state.lock().expect("pool lock");
                state.job = Some(erased);
                shared
                    .remaining
                    .store(self.participants - 1, Ordering::Relaxed);
                shared.seq.fetch_add(1, Ordering::Release);
                shared.start.notify_all();
            }
            run_job(job);
            // Acquire pairs with the workers' release of `remaining`, so
            // their writes are visible once it reads zero.
            let finished = || shared.remaining.load(Ordering::Acquire) == 0;
            if !poll(finished) {
                let mut state = shared.state.lock().expect("pool lock");
                while !finished() {
                    state = shared.done.wait(state).expect("pool lock");
                }
            }
        }
    }

    /// Executes one participant's share of a job, aborting the process if it
    /// panics. An unwinding participant cannot be tolerated here: on the
    /// calling thread the unwind would drop the engine state the
    /// lifetime-erased [`Job`] pointer still borrows (use-after-free on the
    /// workers), and a worker's unwind would leave the caller waiting for a
    /// completion that never comes. Pass bodies are pure arithmetic over
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

    fn worker_loop(shared: &Shared) {
        let mut seen = 0u64;
        loop {
            poll(|| shared.seq.load(Ordering::Relaxed) != seen);
            let job = {
                let mut state = shared.state.lock().expect("pool lock");
                loop {
                    if state.shutdown {
                        return;
                    }
                    // The lock orders this read after the job's publication.
                    let seq = shared.seq.load(Ordering::Relaxed);
                    if seq != seen {
                        seen = seq;
                        break state.job.expect("published job");
                    }
                    state = shared.start.wait(state).expect("pool lock");
                }
            };
            // SAFETY: `WorkerPool::run` keeps the closure alive until every
            // worker reports completion below (panics abort, so completion
            // is the only way out of `run_job`).
            run_job(unsafe { &*job.0 });
            // Release publishes this worker's writes to the caller. The
            // last one notifies under the lock, which the caller holds from
            // its check of `remaining` to its wait, so the wake-up is never
            // lost.
            if shared.remaining.fetch_sub(1, Ordering::Release) == 1 {
                let _state = shared.state.lock().expect("pool lock");
                shared.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Level boundaries for the given level sizes.
    fn bounds_of(sizes: &[usize]) -> Vec<u32> {
        let mut bounds = vec![0u32];
        for &len in sizes {
            bounds.push(bounds[bounds.len() - 1] + len as u32);
        }
        bounds
    }

    /// Levels 0–1 fold into one block, level 2 splits into two chunks,
    /// level 3 is a block of its own, level 4 splits into two chunks.
    const LEVELS: [usize; 5] = [1, CHUNK_NODES, CHUNK_NODES + 1, 3, 2 * CHUNK_NODES];

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
    fn stage_one_policy_stays_within_the_hardware() {
        let hw = hardware_threads();
        for policy in [
            ParallelPolicy::Sequential,
            ParallelPolicy::threads(0),
            ParallelPolicy::threads(1),
            ParallelPolicy::threads(hw),
        ] {
            assert_eq!(policy.at_most_hardware(), policy);
        }
        assert_eq!(
            ParallelPolicy::threads(hw + 7).at_most_hardware(),
            ParallelPolicy::threads(hw)
        );
    }

    /// `Sequential` and one thread run on the caller: no pool, no thread.
    #[cfg(feature = "parallel")]
    #[test]
    fn one_worker_spawns_no_pool() {
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::threads(1)] {
            let mut runtime = ParRuntime::new();
            runtime.configure(policy);
            assert!(runtime.pool.is_none(), "{policy:?}");
        }
        let mut runtime = ParRuntime::new();
        runtime.configure(ParallelPolicy::threads(2));
        assert!(runtime.pool.is_some());
    }

    #[test]
    fn grid_chunks_cover_every_level_exactly() {
        let level_bounds = bounds_of(&LEVELS);
        let grid = LevelGrid::new(&level_bounds);
        assert_eq!(grid.steps(false).count(), 4);
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
        assert_eq!(covered, level_bounds[LEVELS.len()] as usize);
        assert_eq!(grid.num_nodes(), covered);
        assert_eq!(grid.total_slots(), blocks.len());
        let reversed: Vec<usize> = grid.blocks(true).map(|b| b.slot).collect();
        assert_eq!(reversed, [4, 5, 3, 1, 2, 0], "steps reverse, chunks ascend");
        for step in grid.steps(true) {
            let slots: Vec<usize> = step.blocks().map(|b| b.slot).collect();
            assert_eq!(slots, step.slots().collect::<Vec<_>>());
        }
        assert!(grid.memory_bytes() > 0);
    }

    /// The views a pass hands out let every level window write exactly its
    /// own entries, once, and read exactly what the pass settled before
    /// it: in node space and in component space (whose range starts inside
    /// the first folded block and ends inside the last chunk, so both ends
    /// clamp), going forward and backward.
    #[test]
    fn tiles_hand_every_window_its_own_entries_and_the_settled_rest() {
        let level_bounds = bounds_of(&LEVELS);
        let grid = LevelGrid::new(&level_bounds);
        let n = grid.num_nodes();
        let (first, count) = (100, n - 100 - 10);
        const UNSET: usize = usize::MAX;
        for space in [Space::Nodes, Space::Components { first, count }] {
            let len = space.at(n);
            for reverse in [false, true] {
                let mut table = vec![UNSET; len];
                let mut windows = Vec::new();
                for step in grid.steps(reverse) {
                    let mut tiles = step.tiles(&mut table, space);
                    for block in step.blocks() {
                        let mut tile = tiles.next(&block.nodes());
                        let mut bounds = block.bounds.windows(2).collect::<Vec<_>>();
                        if reverse {
                            bounds.reverse();
                        }
                        for window in bounds {
                            let nodes = window[0] as usize..window[1] as usize;
                            // The level holding the window: what it reads
                            // lies after it going backward, before it going
                            // forward.
                            let l = level_bounds.partition_point(|&b| b as usize <= nodes.start);
                            let reads = if reverse {
                                space.at(level_bounds[l] as usize)..len
                            } else {
                                0..space.at(level_bounds[l - 1] as usize)
                            };
                            let stamp = windows.len();
                            let (own, settled) = tile.level(&space.range(&nodes), reverse);
                            assert!(own.iter().all(|&v| v == UNSET), "written twice");
                            own.fill(stamp);
                            for j in reads {
                                assert!(settled.get(j) < stamp, "entry {j} is settled");
                            }
                            windows.push(space.range(&nodes));
                        }
                    }
                }
                for (stamp, own) in windows.into_iter().enumerate() {
                    assert!(table[own].iter().all(|&v| v == stamp), "window {stamp}");
                }
                assert!(table.iter().all(|&v| v != UNSET), "every entry written");
            }
        }
    }

    /// At one and three workers every block of every step runs once, and a
    /// step reads the values the step before it settled: each node ends up
    /// holding its step's position in the pass.
    #[test]
    fn leveled_runner_visits_every_chunk_in_dependency_order() {
        let grid = LevelGrid::new(&bounds_of(&[2, CHUNK_NODES * 2, 1, 1, CHUNK_NODES + 1]));
        let n = grid.num_nodes();
        for threads in [1usize, 3] {
            let mut runtime = ParRuntime::new();
            runtime.configure(ParallelPolicy::threads(threads));
            for reverse in [false, true] {
                let mut table = vec![0usize; n];
                for step in grid.steps(reverse) {
                    let step_nodes = step.nodes();
                    let neighbour = if reverse {
                        Some(step_nodes.end).filter(|&j| j < n)
                    } else {
                        step_nodes.start.checked_sub(1)
                    };
                    let mut tiles = step.tiles(&mut table, Space::Nodes);
                    let blocks = step.blocks().map(|b| (tiles.next(&b.nodes()), b.nodes()));
                    runtime.run(blocks, |(mut tile, nodes)| {
                        let (own, settled) = tile.level(&nodes, reverse);
                        assert!(own.iter().all(|&v| v == 0), "every block runs once");
                        own.fill(neighbour.map_or(0, |j| settled.get(j)) + 1);
                    });
                }
                let mut expected = vec![0usize; n];
                for (position, step) in grid.steps(reverse).enumerate() {
                    expected[step.nodes()].fill(position + 1);
                }
                assert_eq!(table, expected, "threads={threads} reverse={reverse}");
            }
        }
    }

    #[test]
    fn flat_runner_visits_every_chunk_once() {
        for threads in [1usize, 4] {
            let mut runtime = ParRuntime::new();
            runtime.configure(ParallelPolicy::threads(threads));
            let n = 36 * CHUNK_NODES + 5;
            assert_eq!(flat_blocks(n).len(), 37);
            let mut hits = vec![0u32; n];
            let mut tiles = Tiles::new(&mut hits, Space::Nodes, 0..n, false, false);
            let blocks = flat_blocks(n).map(|nodes| (tiles.next(&nodes), nodes));
            runtime.run(blocks, |(mut tile, nodes)| {
                for hit in tile.level(&nodes, false).0 {
                    *hit += 1;
                }
            });
            assert!(hits.iter().all(|&h| h == 1));
        }
        assert!(flat_blocks(0).eq(std::iter::once(0..0)));
    }

    #[test]
    fn runtime_clone_drops_the_pool_but_keeps_the_policy() {
        let mut runtime = ParRuntime::new();
        runtime.configure(ParallelPolicy::threads(2));
        let clone = runtime.clone();
        assert_eq!(clone.policy, ParallelPolicy::threads(2));
        // A cloned (pool-less) runtime still runs every block.
        let count = std::sync::atomic::AtomicUsize::new(0);
        clone.run(flat_blocks(5 * CHUNK_NODES), |_| {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 5);
    }
}
