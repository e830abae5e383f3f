//! The noise-constrained gate and wire sizing engine — the paper's primary
//! contribution (Sections 4 and 5).
//!
//! The optimization problem `PP` minimizes total area subject to
//!
//! * per-edge arrival-time (delay) constraints with circuit delay bound `A₀`,
//! * a total-power constraint `Σ c_i ≤ P'`,
//! * a total-crosstalk constraint `Σ_{i∈W} Σ_{j∈I(i)} ĉ_ij (x_i + x_j) ≤ X'`,
//! * per-component size bounds `L_i ≤ x_i ≤ U_i`,
//! * any number of extra posynomial constraint families
//!   ([`constraints`]) — per-net (channel-local) crosstalk caps,
//!   per-node driven-load caps, or caller-assembled linear families —
//!   beyond what the paper's fixed three-bound formulation can express.
//!
//! Everything is posynomial, so Lagrangian relaxation solves it to global
//! optimality. The crate implements:
//!
//! * the composable constraint system ([`constraints`]): the
//!   [`ScalarFamily`]/[`ConstraintSet`] types, configuration-level
//!   [`ConstraintSpec`]s and their lowering; the paper's three global
//!   bounds are the default (empty-set) instance and keep their exact
//!   legacy arithmetic;
//! * the internal-unit conventions in one place ([`units`]);
//! * [`Multipliers`] and the flow-conservation projection of Theorem 3
//!   ([`projection`]);
//! * the **LRS** subroutine (Figure 8): the greedy, provably optimal solver
//!   of the relaxed subproblem via the closed-form resizing of Theorem 5
//!   ([`lrs`]);
//! * the **OGWS** outer loop (Figure 9): subgradient multiplier updates,
//!   projection, and the duality-gap stopping rule ([`ogws`]);
//! * the **solve schedules** ([`schedule`]): the exact Figure-8 inner loop
//!   (bitwise-pinned to [`mod@reference`]) and the adaptive schedule —
//!   warm-started LRS and active-set sweeps with periodic verification —
//!   selected per run via
//!   [`OptimizerConfig::solve_strategy`];
//! * the **level-parallel runtime** ([`par`]): a deterministic block grid
//!   over the circuit's level partition, the only traversal of every
//!   inner-loop pass (LRS sweeps, timing, subgradient update, flow
//!   projection), run on one or more threads with outcomes **bitwise
//!   identical for every thread count**, selected per run via
//!   [`OptimizerConfig::parallel`] / [`ParallelPolicy`];
//! * the staged [`flow`] pipeline — `prepare → order → size` as typestates
//!   with inspectable intermediates, the one way to run a solve; every
//!   sizing run is one call
//!   ([`Ordered::size_with_engine`](flow::Ordered::size_with_engine), with
//!   [`Ordered::size`](flow::Ordered::size) as the cold shorthand) whose
//!   [`Start`] picks cold, warm or resumed;
//! * run control for the outer loop ([`control`]): progress [`Observer`]s,
//!   cooperative cancellation, iteration budgets and wall-clock deadlines,
//!   with the [`StopReason`] recorded in every outcome;
//! * checkpoint/resume ([`snapshot`], [`control`]): a [`Snapshot`] of
//!   mid-run OGWS state captured through a [`CheckpointSink`] under a
//!   [`CheckpointPolicy`], re-entered with [`Start::Resume`] — the
//!   substrate of the `ncgws-serve` job queue;
//! * baselines for ablations: delay/area-only Lagrangian sizing and a greedy
//!   sensitivity-based sizer ([`baseline`]);
//! * metrics, reporting and memory accounting for the Table 1 / Figure 10
//!   reproductions ([`metrics`], [`report`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod constraints;
pub mod control;
pub mod coupling_build;
pub mod engine;
pub mod error;
pub mod flow;
pub mod kkt;
pub mod lagrangian;
pub mod lrs;
pub mod metrics;
pub mod ogws;
pub mod par;
pub mod problem;
pub mod projection;
pub mod reference;
pub mod report;
pub mod schedule;
pub mod snapshot;
pub mod step;
pub mod units;

pub use constraints::{
    lower_constraint_specs, ConstraintSet, ConstraintSpec, FamilyKind, FamilySlack,
    ScalarConstraint, ScalarFamily,
};
pub use control::{
    CancelFlag, CheckpointPolicy, CheckpointSink, CollectObserver, IterationEvent, Observer,
    RunControl, SnapshotStore, StopReason,
};
pub use coupling_build::{build_coupling, OrderingStrategy, WireOrderingOutcome};
pub use engine::{SizingEngine, TimingView};
pub use error::CoreError;
pub use flow::{Flow, Ordered, Prepared, SizedOutcome};
pub use lagrangian::Multipliers;
pub use lrs::{LrsOutcome, LrsSolver, LrsStats};
pub use metrics::{CircuitMetrics, IterationRecord, MemoryBreakdown};
pub use ogws::{OgwsOutcome, OgwsSolver, Start};
pub use par::ParallelPolicy;
pub use problem::{ConstraintBounds, OptimizerConfig, OptimizerConfigBuilder, SizingProblem};
pub use report::{Improvements, OptimizationReport};
pub use schedule::{AdaptiveSchedule, ScheduleState, ScheduledStats, SolveStrategy};
pub use snapshot::Snapshot;
pub use step::StepSchedule;
