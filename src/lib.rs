//! # ncgws — Noise-Constrained Gate and Wire Sizing
//!
//! A from-scratch Rust reproduction of *"Noise-Constrained Performance
//! Optimization by Simultaneous Gate and Wire Sizing Based on Lagrangian
//! Relaxation"* (Jiang, Jou, Chang — DAC 1999).
//!
//! The crate is a facade over the workspace members:
//!
//! * [`circuit`] — circuit graph, RC models, Elmore delay, timing analysis.
//! * [`coupling`] — physical coupling capacitance and its posynomial model.
//! * [`waveform`] — logic simulation, waveforms, switching similarity.
//! * [`ordering`] — the Switching-Similarity problem and the WOSS heuristic.
//! * [`netlist`] — synthetic ISCAS85-scale benchmark generation and netlist I/O.
//! * [`core`] — the Lagrangian-relaxation sizing engine (LRS + OGWS), the
//!   staged [`flow`] pipeline and run control.
//! * [`serve`] — the persistent optimization server, the way to run many
//!   instances: a priority job queue with per-tenant admission control,
//!   worker threads, checkpoint/resume and a JSON-lines event stream.
//!
//! # Quickstart: the staged `Flow` pipeline
//!
//! The paper's two stages — WOSS wire ordering, then OGWS Lagrangian
//! sizing — are explicit pipeline states: `prepare` validates the
//! configuration, `order` runs stage 1 and exposes its outcome, `size` runs
//! stage 2. Each intermediate is a first-class value, so the stage-1
//! ordering can be inspected and reused across several sizing runs.
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::OptimizerConfig;
//! use ncgws::{Flow, RunControl, Start};
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! // Build a small synthetic benchmark (32 gates, 70 wires).
//! let spec = CircuitSpec::new("tiny", 32, 70).with_seed(7).with_num_patterns(16);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//!
//! // Validate-at-build configuration.
//! let config = OptimizerConfig::builder().max_iterations(40).build()?;
//!
//! // Stage 1: switching-similarity wire ordering + coupling model.
//! let ordered = Flow::prepare(&instance, config)?.order()?;
//! assert!(ordered.ordering().total_effective_loading >= 0.0);
//!
//! // Stage 2: Lagrangian sizing. The ordering stays reusable.
//! let sized = ordered.size()?;
//! assert!(sized.report.final_metrics.noise_pf <= ordered.initial_metrics().noise_pf);
//!
//! // Warm-start a second sizing run from the first solution: it converges
//! // in at most as many iterations. Every run other than the cold `size()`
//! // is one `size_with_engine` call: an engine, a start, a run control.
//! let warm = Some(Start::Warm(sized.sizes()));
//! let warm = ordered.size_with_engine(&mut ordered.engine(), warm, &RunControl::new())?;
//! assert!(warm.report.iterations <= sized.report.iterations);
//! println!("widest component: {:.3} um", warm.sizes().max_size());
//! # Ok(())
//! # }
//! ```
//!
//! # Observing, bounding and cancelling a run
//!
//! A [`RunControl`] threads through the OGWS outer loop (and its inner LRS
//! sweeps): an [`Observer`] receives one event per iteration, a
//! [`CancelFlag`] stops the run cooperatively, and an iteration budget or
//! wall-clock deadline bounds its cost. The reason a run stopped is recorded
//! as a [`StopReason`] in the outcome and report.
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::{CollectObserver, OptimizerConfig, RunControl, StopReason};
//! use ncgws::Flow;
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! let spec = CircuitSpec::new("ctl", 24, 55).with_seed(3).with_num_patterns(8);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//! let ordered = Flow::prepare(&instance, OptimizerConfig::default())?.order()?;
//!
//! let observer = CollectObserver::new();
//! let control = RunControl::new()
//!     .with_observer(&observer)
//!     .with_iteration_budget(5);
//! let sized = ordered.size_with_engine(&mut ordered.engine(), None, &control)?;
//!
//! assert_eq!(sized.report.iterations, 5);
//! assert_eq!(sized.stop_reason(), StopReason::BudgetExhausted);
//! assert_eq!(observer.count(), 5); // one event per iteration
//! # Ok(())
//! # }
//! ```
//!
//! # Constraint system
//!
//! The paper fixes three global bounds (delay, power, crosstalk); the
//! composable constraint system ([`ncgws_core::constraints`]) lets extra
//! posynomial families ride alongside them without touching the solver:
//! per-net (channel-local) crosstalk caps, per-node driven-load caps, or
//! caller-assembled linear families. The three global bounds are the
//! default (empty) instance and keep their exact legacy arithmetic — the
//! property suite pins that path bitwise to `ncgws_core::reference`.
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::OptimizerConfig;
//! use ncgws::Flow;
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! let spec = CircuitSpec::new("caps", 24, 55).with_seed(5).with_num_patterns(8);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//!
//! // Cap every routing channel at 90% of its initial crosstalk and every
//! // driver/gate's directly driven load at 150% of its initial value.
//! let config = OptimizerConfig::builder()
//!     .per_net_crosstalk_cap(0.9)
//!     .driven_load_cap(1.5)
//!     .max_iterations(40)
//!     .build()?;
//!
//! let ordered = Flow::prepare(&instance, config)?.order()?;
//! // The lowered families are inspectable before sizing...
//! assert_eq!(ordered.extra_constraints().num_families(), 2);
//! let sized = ordered.size()?;
//! // ...and the report carries one slack summary per family.
//! assert_eq!(sized.report.constraint_slacks.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! # Solve strategies
//!
//! The OGWS inner loop can run under two solve schedules
//! ([`ncgws_core::schedule`]), selected per run through
//! [`OptimizerConfig::solve_strategy`](core::OptimizerConfig):
//!
//! * [`SolveStrategy::Exact`](core::SolveStrategy) (the default) — the
//!   paper's Figure-8 schedule: every LRS solve restarts from the component
//!   lower bounds and every coordinate sweep re-evaluates and resizes every
//!   component. This path is **bitwise-pinned** to the allocate-per-call
//!   reference (`ncgws_core::reference`) by the property suite; choose it
//!   when reproducing the paper's numbers exactly.
//! * [`SolveStrategy::Adaptive`](core::SolveStrategy) — warm-starts each
//!   solve from the previous OGWS iterate, freezes components whose
//!   per-sweep change stays below
//!   [`freeze_tolerance`](core::AdaptiveSchedule::freeze_tolerance) (every
//!   solve's first sweep and a periodic verification sweep re-check the
//!   whole circuit and unfreeze anything that moved), and fuses the
//!   per-sweep table rebuild with the resize into alternating
//!   forward/backward Gauss–Seidel passes. It reaches the *same* unique
//!   subproblem fixed points, validated by invariants instead of bitwise
//!   equality (final metrics within tolerance of the exact path, duality
//!   gap no worse — see `tests/schedule_strategies.rs`), at a 2–4×
//!   end-to-end speedup on 1k–100k-component circuits. Choose it for
//!   throughput: serving, batch sweeps, large circuits.
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::{AdaptiveSchedule, OptimizerConfig, SolveStrategy};
//! use ncgws::Flow;
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! let spec = CircuitSpec::new("sched", 30, 65).with_seed(11).with_num_patterns(8);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//!
//! // Opt into the adaptive schedule through the builder; tighten the
//! // freeze tolerance to track the exact path more closely.
//! let config = OptimizerConfig::builder()
//!     .max_iterations(40)
//!     .solve_strategy(SolveStrategy::Adaptive(AdaptiveSchedule {
//!         freeze_tolerance: 1e-4,
//!         ..AdaptiveSchedule::default()
//!     }))
//!     .build()?;
//! let adaptive = Flow::prepare(&instance, config)?.order()?.size()?;
//!
//! let exact_config = OptimizerConfig::builder().max_iterations(40).build()?;
//! let exact = Flow::prepare(&instance, exact_config)?.order()?.size()?;
//!
//! // Same feasibility verdict, fewer inner sweeps per solve...
//! assert_eq!(adaptive.report.feasible, exact.report.feasible);
//! assert!(adaptive.report.mean_sweeps_per_solve <= exact.report.mean_sweeps_per_solve);
//! // ...and final metrics within tolerance of the exact schedule.
//! let rel = (adaptive.report.final_metrics.area_um2 - exact.report.final_metrics.area_um2).abs()
//!     / exact.report.final_metrics.area_um2;
//! assert!(rel < 1e-3);
//! # Ok(())
//! # }
//! ```
//!
//! # Parallelism
//!
//! The stage-2 inner loop can run **level-parallel**
//! ([`ncgws_core::par`]): the engine caches the circuit's topological
//! level partition (nodes of one level share no fanin/fanout edge), chops
//! every level into fixed-width chunks, and distributes the chunks — of
//! the fused Gauss–Seidel sweeps, the exact sweeps, the timing evaluation,
//! the subgradient update and the flow projection — across a persistent
//! `std::thread` pool, each chunk holding its own `&mut` slices of the
//! tables it writes ([`Tile`](circuit::Tile)). The work
//! grid is fixed by the data, never by the thread count, and every
//! cross-chunk reduction merges in fixed chunk order, so outcomes are
//! **bitwise identical for `threads` ∈ {1, 2, 8, …}** and the exact solve
//! strategy stays bitwise-pinned to `ncgws_core::reference`
//! (`tests/thread_determinism.rs` proptests both claims).
//!
//! Select it with [`OptimizerConfigBuilder::threads`](core::OptimizerConfigBuilder::threads)
//! (or [`OptimizerConfig::parallel`](core::OptimizerConfig) /
//! [`ParallelPolicy`]); `0` means "use the machine's available
//! parallelism". OS threads only spawn with the `parallel` cargo feature —
//! without it the identical chunk grid runs on the calling thread, so a
//! serial build is a bit-for-bit oracle for a threaded one. Level
//! parallelism pays off on *wide* circuits (many components per level);
//! on chain-like circuits the critical path is the whole circuit, and the
//! default [`ParallelPolicy::Sequential`] — the same grid on one worker —
//! is the better choice.
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::{OptimizerConfig, ParallelPolicy};
//! use ncgws::Flow;
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! let spec = CircuitSpec::new("par", 30, 65).with_seed(9).with_num_patterns(8);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//!
//! let sized_at = |threads: usize| -> Result<_, ncgws::Error> {
//!     let config = OptimizerConfig::builder()
//!         .max_iterations(30)
//!         .threads(threads) // ParallelPolicy::Level { threads }
//!         .build()?;
//!     Ok(Flow::prepare(&instance, config)?.order()?.size()?)
//! };
//!
//! // The determinism guarantee: 1, 2 and 8 workers produce the exact
//! // same sizes, metrics and duality gap, bit for bit.
//! let one = sized_at(1)?;
//! let two = sized_at(2)?;
//! let eight = sized_at(8)?;
//! assert_eq!(one.sizes(), two.sizes());
//! assert_eq!(one.sizes(), eight.sizes());
//! assert_eq!(one.report.final_metrics, eight.report.final_metrics);
//! assert_eq!(ParallelPolicy::threads(2), ParallelPolicy::Level { threads: 2 });
//!
//! // The sequential policy is the same grid on one worker, bitwise.
//! let config = OptimizerConfig::builder()
//!     .max_iterations(30)
//!     .parallel(ParallelPolicy::Sequential)
//!     .build()?;
//! let sequential = Flow::prepare(&instance, config)?.order()?.size()?;
//! assert_eq!(sequential.sizes(), one.sizes());
//! assert_eq!(sequential.report.final_metrics, one.report.final_metrics);
//! # Ok(())
//! # }
//! ```
//!
//! # Static analysis
//!
//! The borrow checker proves that concurrent blocks write disjoint
//! entries; the kernels rest on further conventions, each held by a check
//! the build or the test suite runs. `tests/peak_memory.rs` counts
//! allocation calls per OGWS iteration and requires 0 after the first, on
//! any thread, under both solve strategies. Clippy denies an `unsafe`
//! block without a `// SAFETY:` comment and an `unsafe fn` without a
//! `# Safety` section in every member (the workspace lints in the root
//! `Cargo.toml`), and any panicking call or unchecked index without a
//! reasoned `#[expect]` in the serving layer's library. Parallel-gated
//! code lives only in `ncgws_core`'s `par` module, and CI builds and tests
//! with and without the `parallel` feature.
//!
//! # Serving & checkpointing
//!
//! Mid-run OGWS state — sizes, the CSR multiplier blocks, the best primal
//! bound, the iteration count and the adaptive-schedule freeze state — can
//! be captured as a serializable [`Snapshot`] through a [`CheckpointSink`]
//! attached to the [`RunControl`] (periodic via
//! [`CheckpointPolicy::every`](core::CheckpointPolicy::every), and on any
//! interrupt). A killed run resumes from its last completed-iteration
//! boundary by passing it as [`Start::Resume`] to
//! [`Ordered::size_with_engine`](flow::Ordered::size_with_engine):
//! under the exact solve strategy the resumed trajectory is **bitwise** the
//! uninterrupted one, under the adaptive schedule it matches to 1e-6
//! (`tests/serve_checkpoint.rs` proptests both).
//!
//! ```rust
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::core::{CheckpointPolicy, OptimizerConfig, RunControl, SnapshotStore, StopReason};
//! use ncgws::{Flow, Start};
//!
//! # fn main() -> Result<(), ncgws::Error> {
//! let spec = CircuitSpec::new("resume", 24, 55).with_seed(9).with_num_patterns(8);
//! let instance = SyntheticGenerator::new(spec).generate()?;
//! let ordered = Flow::prepare(&instance, OptimizerConfig::default())?.order()?;
//!
//! // The uninterrupted run is the oracle.
//! let cold = ordered.size()?;
//!
//! // Kill the same run after 4 iterations; the store keeps the snapshot
//! // taken at the interrupt (checkpoints also fire every 2 iterations).
//! let store = SnapshotStore::new();
//! let control = RunControl::new()
//!     .with_iteration_budget(4)
//!     .with_checkpoints(&store, CheckpointPolicy::new().every(2));
//! let killed = ordered.size_with_engine(&mut ordered.engine(), None, &control)?;
//! assert_eq!(killed.stop_reason(), StopReason::BudgetExhausted);
//!
//! // The snapshot round-trips through JSON bit for bit...
//! let snapshot = store.latest().expect("interrupt checkpoint");
//! assert_eq!(snapshot.iterations_done, 4);
//! let snapshot = ncgws::Snapshot::from_json(&snapshot.to_json()).unwrap();
//!
//! // ...and the resumed run finishes exactly like the uninterrupted one
//! // (bitwise under the default exact strategy).
//! let resume = Some(Start::Resume(&snapshot));
//! let resumed = ordered.size_with_engine(&mut ordered.engine(), resume, &RunControl::new())?;
//! assert_eq!(resumed.sizes(), cold.sizes());
//! assert_eq!(resumed.report.final_metrics, cold.report.final_metrics);
//! assert_eq!(snapshot.iterations_done + resumed.report.iterations, cold.report.iterations);
//! # Ok(())
//! # }
//! ```
//!
//! The [`serve`] crate builds the job-queue service on this substrate:
//! [`Server`] runs worker threads over a strict-priority queue with
//! per-tenant admission control, requeues interrupted attempts to resume
//! from their latest checkpoint, and reports live [`ServerStats`] plus an
//! optional JSON-lines event stream (see `examples/server.rs` for a
//! churn/fault-injection drive of thousands of jobs).
//!
//! # Durability & fault injection
//!
//! [`Server::start_durable`] makes the queue crash-safe: every checkpoint
//! is persisted through a [`DiskSnapshotStore`] as it is taken (atomic
//! temp-file-plus-rename writes, a versioned header and CRC-32 checksum
//! per file, and a memory-budget spill policy that evicts cold snapshots
//! to disk), and every job lifecycle transition is appended to a
//! [`Journal`]. After a crash — modeled below by dropping the server
//! without draining — [`Server::recover`] replays the journal, restores
//! finished outcomes, and re-queues unfinished jobs to resume from their
//! latest durable snapshot: bitwise under the default exact strategy, to
//! 1e-6 under the adaptive schedule. A corrupted snapshot file is detected
//! by its checksum and falls back to the previous good generation (or a
//! cold start) instead of losing the job.
//!
//! Worker panics are isolated per attempt and retried under the job's
//! [`RetryPolicy`] (deterministic exponential backoff), and a seeded
//! [`FaultPlan`] injects panics, I/O errors and torn writes reproducibly —
//! see `tests/serve_durability.rs` for the crash-recovery property tests.
//!
//! ```rust
//! use ncgws::core::OptimizerConfig;
//! use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
//! use ncgws::{Flow, JobInput, JobSpec, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("ncgws-docs-durable-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let config = OptimizerConfig::builder().max_iterations(20).build()?;
//! let circuit = CircuitSpec::new("durable", 20, 45).with_seed(7);
//! let job = JobSpec::new(JobInput::Synthetic(circuit.clone()), config.clone())
//!     .with_iteration_budget(3); // each attempt is killed after 3 iterations
//!
//! // A durable server: checkpoints go to disk, transitions to a journal.
//! let server = Server::start_durable(
//!     &dir,
//!     ServerConfig { workers: 1, ..ServerConfig::default() },
//! )?;
//! let id = server.submit(job)?;
//! while server.stats().checkpoints == 0 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! drop(server); // crash mid-job: no drain — queue and checkpoints survive on disk
//!
//! // Recover and finish: the job resumes from its durable checkpoint.
//! let (server, report) = Server::recover(&dir)?;
//! assert_eq!(report.jobs_seen, 1);
//! let outcome = server.wait(id).expect("job resolves");
//! assert!(!outcome.stop_reason.is_interrupted());
//! server.drain();
//!
//! // The recovered result is bitwise identical to an uninterrupted run.
//! let instance = SyntheticGenerator::new(circuit).generate()?;
//! let cold = Flow::prepare(&instance, config)?.order()?.size()?;
//! assert_eq!(outcome.final_metrics.unwrap(), cold.report.final_metrics);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

pub use ncgws_circuit as circuit;
pub use ncgws_core as core;
pub use ncgws_coupling as coupling;
pub use ncgws_netlist as netlist;
pub use ncgws_ordering as ordering;
pub use ncgws_serve as serve;
pub use ncgws_waveform as waveform;

mod error;

pub use error::Error;

// The staged pipeline and its run control are the primary public surface;
// re-export them at the facade root alongside the module path
// (`ncgws::flow`).
pub use ncgws_core::flow;
pub use ncgws_core::{
    CancelFlag, CollectObserver, Flow, IterationEvent, Observer, Ordered, Prepared, RunControl,
    SizedOutcome, Start, StopReason,
};

// Checkpoint/resume: the serializable mid-run state and the sink/policy
// that capture it, plus the job-queue server built on top.
pub use ncgws_core::{CheckpointPolicy, CheckpointSink, Snapshot, SnapshotStore};
pub use ncgws_serve::{
    JobId, JobInput, JobOutcome, JobSpec, JobState, Server, ServerConfig, ServerStats, SubmitError,
};

// Durability and fault injection: the disk-backed snapshot store, the
// lifecycle journal behind `Server::recover`, per-job retry policies, and
// the deterministic fault plan that exercises all of it.
pub use ncgws_serve::{
    DiskSnapshotStore, DurableOptions, FaultPlan, Journal, RecoveryReport, RetryPolicy,
    StoreConfig, StoreError, StoreStats, WriteFault,
};

// The composable constraint system: specs travel in the configuration, the
// lowered families and per-family slacks surface in `Ordered` and the
// report.
pub use ncgws_core::{
    ConstraintSet, ConstraintSpec, FamilyKind, FamilySlack, ScalarConstraint, ScalarFamily,
};

// The solve schedule: the exact Figure-8 path (bitwise-pinned) vs the
// adaptive warm-start/active-set schedule.
pub use ncgws_core::{AdaptiveSchedule, SolveStrategy};

// The level-parallel runtime policy: deterministic multi-threaded inner
// loop (bitwise identical across thread counts).
pub use ncgws_core::ParallelPolicy;

/// Version of the ncgws workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
