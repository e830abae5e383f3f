//! The OGWS algorithm (Figure 9): optimal gate and wire sizing by solving
//! the Lagrangian dual with a projected subgradient method.
//!
//! Each outer iteration
//!
//! 1. aggregates the edge multipliers into node weights `λ_i` (A2),
//! 2. calls [`LrsSolver`] to minimize the Lagrangian for the current
//!    multipliers and computes arrival times (A3),
//! 3. moves every multiplier along its (normalized) constraint violation with
//!    step `ρ_k` (A4) — violated constraints push their multiplier up, slack
//!    constraints let it decay,
//! 4. projects the edge multipliers back onto the flow-conservation
//!    optimality condition (A5),
//! 5. stops when the relative duality gap falls below the configured bound
//!    (A7), which the paper sets to 1 %.
//!
//! Violations are normalized by their bounds so the step size is
//! dimensionless; this does not change the fixed points of the update.

use std::time::Instant;

use ncgws_circuit::{CircuitGraph, NodeId, NodeKind, SizeVector, Space, Tiles};
use serde::Serialize;

use crate::constraints::ConstraintSet;
use crate::control::{IterationEvent, RunControl, StopReason};
use crate::engine::SizingEngine;
use crate::error::CoreError;
use crate::lagrangian::{dual_value_from_parts, Multipliers};
use crate::lrs::LrsSolver;
use crate::metrics::IterationRecord;
use crate::par::{self, ParRuntime};
use crate::problem::{OptimizerConfig, SizingProblem};
use crate::projection::{
    project_flow_conservation_indexed, project_flow_conservation_leveled, FlowIndex,
};
use crate::schedule::{ScheduleState, SolveStrategy};
use crate::snapshot::{Snapshot, SNAPSHOT_FORMAT};

/// Relative tolerance used to declare an iterate primal-feasible.
///
/// The duality-gap stopping rule is what controls solution quality; this
/// tolerance only decides whether an iterate is eligible to be remembered as
/// the "best feasible so far" (one part in a thousand of each bound).
pub(crate) const FEASIBILITY_TOLERANCE: f64 = 1e-3;

/// Number of consecutive iterations without any improvement of the primal or
/// dual bound after which the outer loop stops early (secondary stopping
/// rule; the duality gap of the returned solution is still reported).
const STAGNATION_LIMIT: usize = 15;

/// Result of an OGWS run.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub struct OgwsOutcome {
    /// The final size vector: the best feasible solution found, or the last
    /// LRS solution when no iterate was feasible.
    pub sizes: SizeVector,
    /// Whether [`sizes`](Self::sizes) satisfies all constraints.
    pub feasible: bool,
    /// Whether the duality gap dropped below the configured tolerance.
    pub converged: bool,
    /// Why the outer loop stopped.
    pub stop_reason: StopReason,
    /// Per-iteration progress records.
    pub iterations: Vec<IterationRecord>,
    /// The best (smallest) relative duality gap observed.
    pub best_gap: f64,
    /// Final value of the power multiplier `β`.
    pub beta: f64,
    /// Final value of the crosstalk multiplier `γ`.
    pub gamma: f64,
    /// Final extra-family multiplier blocks, parallel to the problem's
    /// [`ConstraintSet::families`](crate::ConstraintSet::families) (empty
    /// for the paper's three-bound formulation).
    pub extra_multipliers: Vec<Vec<f64>>,
}

impl OgwsOutcome {
    /// Number of outer iterations performed.
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total wall-clock seconds spent in the outer loop.
    fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|r| r.seconds).sum()
    }

    /// Average seconds per outer iteration (the quantity of Figure 10(b)).
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.total_seconds() / self.iterations.len() as f64
        }
    }

    /// Total inner LRS sweeps across every outer iteration.
    pub fn sweeps_total(&self) -> usize {
        self.iterations.iter().map(|r| r.lrs_sweeps).sum()
    }

    /// Average inner sweeps per LRS solve — the quantity the adaptive
    /// schedule's warm starts cut from "restart the whole coordinate
    /// descent" to "one or two".
    pub fn mean_sweeps_per_solve(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.sweeps_total() as f64 / self.iterations.len() as f64
        }
    }

    /// Total component resize operations across the run.
    fn touched_components_total(&self) -> usize {
        self.iterations.iter().map(|r| r.touched_components).sum()
    }

    /// Average components touched per sweep — sublinear in the circuit size
    /// in the adaptive steady state, exactly the component count under the
    /// exact schedule.
    pub fn mean_touched_per_sweep(&self) -> f64 {
        let sweeps = self.sweeps_total();
        if sweeps == 0 {
            0.0
        } else {
            self.touched_components_total() as f64 / sweeps as f64
        }
    }
}

/// Where one OGWS run starts. No `Start` at all (`None`) is a cold start:
/// the uniform A1 multipliers, projected, and no incumbent.
#[derive(Debug, Clone, Copy)]
pub enum Start<'s> {
    /// A run from iteration 1 whose "best feasible so far" is seeded with
    /// this size vector (clamped into the component bounds) when it
    /// satisfies every constraint. The multiplier trajectory — and hence
    /// the dual bound — is the cold run's, so a run warm-started from a
    /// feasible solution converges in at most as many iterations as the
    /// cold run that produced it (its duality gap at every iteration is no
    /// larger).
    Warm(&'s SizeVector),
    /// A run re-entered from a checkpoint captured by an earlier run over
    /// the same problem (through the control's
    /// [`CheckpointSink`](crate::CheckpointSink)). The snapshot restores the
    /// multiplier state, the last completed iterate, the best-feasible
    /// bookkeeping and — under the adaptive strategy — the schedule's
    /// freeze/verification state; iteration `iterations_done + 1` then runs
    /// with the step schedule, feasibility rules and stopping rules of an
    /// uninterrupted run. Under [`SolveStrategy::Exact`] the continuation is
    /// bitwise identical to the run that produced the snapshot; under the
    /// adaptive strategy the final metrics land within `1e-6` relative (the
    /// cached electrical tables are re-derived from the snapshot sizes
    /// rather than carried over); a snapshot of iteration 0 resumes bitwise
    /// under both. A control's iteration budget counts only the resumed
    /// attempt's iterations, so a serving layer can give every attempt the
    /// same slice.
    Resume(&'s Snapshot),
}

impl Start<'_> {
    /// Checks that this start fits `graph` under the constraint families
    /// `extras`.
    pub(crate) fn check(
        self,
        graph: &CircuitGraph,
        extras: &ConstraintSet,
    ) -> Result<(), CoreError> {
        let n = graph.num_components();
        let (name, reason) = match self {
            Start::Warm(warm) if warm.len() != n => (
                "warm_start",
                format!("warm-start vector has {} entries, expected {n}", warm.len()),
            ),
            Start::Warm(_) => return Ok(()),
            Start::Resume(snapshot) => match snapshot.validate_for(graph) {
                Err(reason) => ("snapshot", reason),
                Ok(()) => {
                    let blocks = snapshot.multipliers.extra_blocks().iter().map(Vec::len);
                    if blocks.eq(extras.block_sizes()) {
                        return Ok(());
                    }
                    let reason = "snapshot multipliers do not match the run's constraint families";
                    ("snapshot", reason.to_string())
                }
            },
        };
        Err(CoreError::InvalidConfig { name, reason })
    }
}

/// The OGWS solver.
#[derive(Debug, Clone)]
pub struct OgwsSolver {
    config: OptimizerConfig,
}

impl OgwsSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        OgwsSolver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the outer loop from `start` (`None` is a cold start) on a
    /// caller-provided engine under a [`RunControl`].
    ///
    /// The engine must have been built for the same circuit and coupling
    /// set as `problem` ([`SizingEngine::for_problem`]); sharing one engine
    /// across solves reuses its workspace. After the one-time setup below,
    /// the per-iteration loop performs no heap allocation: the LRS sweeps,
    /// timing analysis and multiplier updates all run inside the engine's
    /// workspace, and the candidate/best/last size vectors are
    /// preallocated buffers.
    ///
    /// The control is consulted before every iteration (cancellation, then
    /// deadline, then iteration budget) and between LRS sweeps within an
    /// iteration (cancellation and deadline); the reason the loop stopped is
    /// recorded in [`OgwsOutcome::stop_reason`]. The observer, if any,
    /// receives one [`IterationEvent`] per completed iteration. With a
    /// default control the checks read two `Option`s per iteration and never
    /// touch the clock, so the iterate sequence is that of an uncontrolled
    /// run.
    ///
    /// # Panics
    ///
    /// Panics when the engine is bound to a different circuit or coupling
    /// set than `problem` (the check is two pointer comparisons, free
    /// relative to a solve, and a mismatch would silently produce garbage),
    /// or when `start` does not fit the problem. Fallible validation lives
    /// at the flow layer
    /// ([`Ordered::size_with_engine`](crate::flow::Ordered::size_with_engine)).
    pub fn solve(
        &self,
        problem: &SizingProblem<'_>,
        engine: &mut SizingEngine<'_>,
        start: Option<Start<'_>>,
        control: &RunControl<'_>,
    ) -> OgwsOutcome {
        assert!(
            std::ptr::eq(problem.graph, engine.graph()),
            "engine was built for a different circuit than the problem"
        );
        assert!(
            std::ptr::eq(problem.coupling, engine.coupling()),
            "engine was built for a different coupling set than the problem"
        );
        if let Some(Err(error)) = start.map(|start| start.check(problem.graph, &problem.extras)) {
            panic!("cannot start the OGWS loop: {error}");
        }
        let graph = problem.graph;
        let bounds = problem.bounds;
        let extras = &problem.extras;
        // Apply the configuration's parallel policy for the whole run. Every
        // traversal (LRS sweeps, timing, subgradient update, flow
        // projection) runs over the fixed block grid, bitwise identical for
        // every worker count; `Sequential` (the default) is one worker.
        engine.set_parallel(self.config.parallel);
        let lrs = LrsSolver::new(self.config.max_lrs_sweeps, self.config.lrs_tolerance);
        // The adaptive schedule keeps freeze/cache state on the engine
        // across the solves of one run; start every run clean so engines
        // shared across runs stay reproducible.
        let adaptive = match &self.config.solve_strategy {
            SolveStrategy::Exact => None,
            SolveStrategy::Adaptive(schedule) => {
                engine.reset_schedule();
                Some(*schedule)
            }
        };
        let num_components = graph.num_components();

        // A1: initial multipliers (projected so Theorem 3 holds from the
        // start); one extra block per constraint family. The fanout→slot
        // cross-reference is built once so every per-iteration projection is
        // a contiguous walk.
        let flow_index = FlowIndex::new(graph);
        let mut multipliers = match start {
            // A resume re-enters after the snapshot iteration's A4/A5 steps:
            // the stored multipliers are already projected, so re-running A1
            // (or re-projecting) would perturb the trajectory.
            Some(Start::Resume(snapshot)) => snapshot.multipliers.clone(),
            _ => {
                let mut multipliers = Multipliers::uniform(
                    graph,
                    self.config.initial_edge_multiplier,
                    self.config.initial_scalar_multiplier,
                );
                multipliers.attach_extras(extras, self.config.initial_scalar_multiplier);
                project_flow_conservation_indexed(graph, &flow_index, &mut multipliers);
                multipliers
            }
        };

        // One-time buffer setup; the loop below reuses all of these. The
        // record capacity is capped so an extravagant iteration limit does
        // not become an extravagant upfront allocation.
        let mut iterations = Vec::with_capacity(self.config.max_iterations.min(1024));
        let mut sizes = graph.minimum_sizes();
        let mut best_sizes = graph.minimum_sizes();
        let mut best_area = f64::INFINITY;
        let mut have_feasible = false;
        let mut best_gap = f64::INFINITY;
        let mut best_dual = f64::NEG_INFINITY;
        let mut converged = false;
        let mut stagnant = 0usize;
        let mut stop_reason = StopReason::IterationLimit;
        // Flattened per-constraint violations of the extra families, reused
        // across iterations (empty — and allocation-free — without extras).
        let mut extra_violations = vec![0.0; extras.total_constraints()];

        let start_k = match start {
            None => 0,
            // Warm start: a feasible seed becomes the initial primal upper
            // bound, so the gap stopping rule can fire from the first
            // iteration.
            Some(Start::Warm(warm)) => {
                sizes.copy_from(warm);
                sizes.clamp_into(engine.bounds);
                let total_cap = engine.total_capacitance(&sizes);
                let crosstalk_lhs = engine.crosstalk_lhs(&sizes);
                let warm_area = engine.total_area(&sizes);
                let timing = engine.timing(&sizes);
                let feasible = timing.critical_path_delay - bounds.delay
                    <= bounds.delay * FEASIBILITY_TOLERANCE
                    && total_cap - bounds.total_capacitance
                        <= bounds.total_capacitance * FEASIBILITY_TOLERANCE
                    && crosstalk_lhs - problem.reduced_crosstalk_bound()
                        <= bounds.crosstalk * FEASIBILITY_TOLERANCE
                    && extras.feasible_within(&sizes, FEASIBILITY_TOLERANCE);
                if feasible {
                    best_area = warm_area;
                    best_sizes.copy_from(&sizes);
                    have_feasible = true;
                }
                0
            }
            // Resume: restore the interrupted run's loop state. The
            // iteration counter continues globally (the step schedule `ρ_k`
            // and the periodic checkpoint cadence both key off it), while
            // the records — and any iteration budget — cover only this
            // attempt. An adaptive run also carries the interrupted run's
            // freeze sets and verification cadence forward (after the reset
            // above wiped any leaked state).
            Some(Start::Resume(snapshot)) => {
                if adaptive.is_some() {
                    if let Some(state) = &snapshot.schedule {
                        engine.restore_schedule_state(state);
                    }
                }
                sizes.copy_from(&snapshot.sizes);
                if let Some(best) = &snapshot.best_sizes {
                    best_sizes.copy_from(best);
                    best_area = snapshot.best_area.unwrap_or(f64::INFINITY);
                    have_feasible = true;
                }
                best_gap = snapshot.best_gap.unwrap_or(f64::INFINITY);
                best_dual = snapshot.best_dual.unwrap_or(f64::NEG_INFINITY);
                stagnant = snapshot.stagnant;
                snapshot.iterations_done
            }
        };

        // Checkpoint bookkeeping. The loop keeps the state of the last
        // *completed* iteration aside, because an interrupt that cuts an LRS
        // solve short leaves `sizes` (and the adaptive schedule) holding a
        // partial iterate that must never leak into a snapshot. Without a
        // sink none of this allocates or runs.
        let checkpointing = control.has_checkpoint_sink();
        let mut completed_sizes = checkpointing.then(|| sizes.clone());
        let mut completed_schedule = if checkpointing && adaptive.is_some() {
            Some(engine.schedule_state())
        } else {
            None
        };
        let mut last_completed = start_k;

        for k in (start_k + 1)..=self.config.max_iterations {
            // Cooperative limits, checked before any work so a cancelled or
            // expired run performs no further iterations.
            if let Some(reason) = control.stop_before_iteration(iterations.len()) {
                stop_reason = reason;
                break;
            }
            let started = Instant::now();

            // A2 + A3: solve the relaxation and analyze timing at its solution.
            let (lrs_sweeps, touched_components, frozen_components) = match &adaptive {
                None => {
                    let stats =
                        lrs.solve_constrained(engine, extras, &multipliers, &mut sizes, control);
                    // An exact sweep touches every component.
                    (stats.sweeps, stats.sweeps * num_components, 0)
                }
                Some(schedule) => {
                    let stats = lrs.solve_scheduled(
                        engine,
                        extras,
                        &multipliers,
                        &mut sizes,
                        control,
                        schedule,
                    );
                    (
                        stats.sweeps,
                        stats.touched_components,
                        stats.frozen_components,
                    )
                }
            };
            // With a checkpoint sink attached, an interrupt that fired
            // mid-solve invalidates this iteration (the coordinate descent
            // was cut short); discard the partial iterate so every snapshot
            // — and the resumed trajectory — sits on a completed-iteration
            // boundary. Without a sink the historical behavior is kept: the
            // truncated iterate still finishes its iteration.
            if checkpointing && control.interrupted() {
                stop_reason = if control.is_cancelled() {
                    StopReason::Cancelled
                } else {
                    StopReason::DeadlineExpired
                };
                break;
            }
            // Constraint values and the primal objective, through the
            // engine's dense tables (bitwise identical to the graph walks,
            // at a fraction of the pointer-chasing cost), then the timing
            // picture.
            let total_cap = engine.total_capacitance(&sizes);
            let crosstalk_lhs = engine.crosstalk_lhs(&sizes);
            let primal_area = engine.total_area(&sizes);
            // End the timing view's exclusive borrow right away: the delays
            // and arrivals stay in the engine workspace (stable until the
            // next `&mut` evaluation), which lets the A4/A5 steps below
            // share the engine's parallel runtime.
            let critical_path_delay = engine.timing(&sizes).critical_path_delay;
            let ws = engine.workspace();
            let delay_violation = critical_path_delay - bounds.delay;
            let power_violation = total_cap - bounds.total_capacitance;
            let crosstalk_violation = crosstalk_lhs - problem.reduced_crosstalk_bound();
            extras.violations_into(&sizes, &mut extra_violations);
            let worst_extra_rel = extras
                .worst_relative_from(&extra_violations)
                .map_or(0.0, |worst| worst.max(0.0));
            let feasible = delay_violation <= bounds.delay * FEASIBILITY_TOLERANCE
                && power_violation <= bounds.total_capacitance * FEASIBILITY_TOLERANCE
                && crosstalk_violation <= bounds.crosstalk * FEASIBILITY_TOLERANCE
                && worst_extra_rel <= FEASIBILITY_TOLERANCE;

            // Primal / dual book-keeping. Every dual value is a valid lower
            // bound on the optimal area, so the gap is measured between the
            // best feasible (upper bound) and the best dual (lower bound)
            // seen so far.
            let dual = dual_value_from_parts(
                problem,
                &multipliers,
                &sizes,
                &ws.delays,
                primal_area,
                total_cap,
                crosstalk_lhs,
            );
            let mut improved = false;
            if !best_dual.is_finite() || dual > best_dual + best_dual.abs() * 1e-4 {
                improved = true;
            }
            best_dual = best_dual.max(dual);
            if feasible {
                let better = !have_feasible || primal_area < best_area * (1.0 - 1e-4);
                if better {
                    best_area = primal_area;
                    best_sizes.copy_from(&sizes);
                    have_feasible = true;
                    improved = true;
                }
            }
            let reference = if have_feasible {
                best_area
            } else {
                primal_area
            };
            let gap = (reference - best_dual).max(0.0) / reference.abs().max(1e-12);
            best_gap = best_gap.min(gap);
            stagnant = if improved { 0 } else { stagnant + 1 };

            // A4: subgradient step on every multiplier, normalized
            // violations. Each node updates only its own fanin multipliers,
            // so the walk distributes over flat chunks with bitwise-
            // identical results (on the calling thread under the default
            // policy).
            let step = self.config.step_schedule.value(k);
            Self::update_multipliers(
                problem,
                &flow_index,
                &mut multipliers,
                &ws.arrival,
                &ws.delays,
                step,
                power_violation,
                crosstalk_violation,
                &extra_violations,
                engine.par_runtime(),
            );
            // A5: project back onto the optimality condition over the
            // engine's block grid (reverse dependency order).
            project_flow_conservation_leveled(
                graph,
                &flow_index,
                &mut multipliers,
                engine.level_grid(),
                engine.par_runtime(),
            );

            iterations.push(IterationRecord {
                iteration: k,
                primal_area,
                dual_value: dual,
                gap,
                delay_violation,
                power_violation,
                crosstalk_violation,
                extra_violation: worst_extra_rel,
                seconds: started.elapsed().as_secs_f64(),
                lrs_sweeps,
                touched_components,
                frozen_components,
            });
            control.notify(&IterationEvent {
                record: iterations.last().expect("record just pushed"),
                step,
                best_gap,
                feasible,
            });

            // Completed-iteration bookkeeping for checkpointing, plus the
            // periodic capture policy (keyed on the global iteration, so a
            // resumed run keeps the original cadence).
            if checkpointing {
                last_completed = k;
                completed_sizes
                    .as_mut()
                    .expect("allocated when checkpointing")
                    .copy_from(&sizes);
                if adaptive.is_some() {
                    completed_schedule = Some(engine.schedule_state());
                }
                if control.checkpoint_due(k) {
                    control.deliver_checkpoint(Self::make_snapshot(
                        k,
                        num_components,
                        &sizes,
                        &multipliers,
                        have_feasible,
                        &best_sizes,
                        best_area,
                        best_gap,
                        best_dual,
                        stagnant,
                        completed_schedule.clone(),
                    ));
                }
            }

            // A7: stop on a small duality gap once a feasible iterate exists.
            if gap <= self.config.gap_tolerance && have_feasible {
                converged = true;
                stop_reason = StopReason::Converged;
                break;
            }
            // Secondary stop: neither bound has moved for a long stretch —
            // the subgradient method has stalled within its step resolution,
            // so further iterations cannot tighten the certificate.
            if stagnant >= STAGNATION_LIMIT && have_feasible {
                stop_reason = StopReason::Stagnated;
                break;
            }
        }

        // A cancellation or deadline that fired during the *final* configured
        // iteration would otherwise masquerade as an ordinary
        // iteration-limit exit (the loop leaves through the range bound
        // before the next boundary check); report what actually cut the
        // iteration short. Uncontrolled runs read two `None`s here.
        if stop_reason == StopReason::IterationLimit {
            if control.is_cancelled() {
                stop_reason = StopReason::Cancelled;
            } else if control.deadline_expired() {
                stop_reason = StopReason::DeadlineExpired;
            }
        }

        // Final snapshot for interrupted runs, from the last completed
        // iteration's state (a discarded partial iterate never leaks: its
        // A4/A5 steps did not run, so `multipliers` still belong to the
        // last completed boundary).
        if stop_reason.is_interrupted() && control.checkpoint_on_interrupt() {
            let boundary_sizes = completed_sizes.as_ref().expect("sink implies buffers");
            control.deliver_checkpoint(Self::make_snapshot(
                last_completed,
                num_components,
                boundary_sizes,
                &multipliers,
                have_feasible,
                &best_sizes,
                best_area,
                best_gap,
                best_dual,
                stagnant,
                completed_schedule,
            ));
        }

        // On the infeasible exit `sizes` still holds the last LRS iterate.
        let (feasible, sizes) = if have_feasible {
            (true, best_sizes)
        } else {
            (false, sizes)
        };
        let extra_multipliers = multipliers.extra_blocks().to_vec();
        OgwsOutcome {
            sizes,
            feasible,
            converged,
            stop_reason,
            iterations,
            best_gap,
            beta: multipliers.beta,
            gamma: multipliers.gamma,
            extra_multipliers,
        }
    }

    /// Builds a [`Snapshot`] describing a completed-iteration boundary.
    /// Non-finite sentinel bounds map to `None` so the JSON form stays
    /// lossless (the serializer writes non-finite floats as `null`).
    #[allow(clippy::too_many_arguments)]
    fn make_snapshot(
        iterations_done: usize,
        num_components: usize,
        sizes: &SizeVector,
        multipliers: &Multipliers,
        have_feasible: bool,
        best_sizes: &SizeVector,
        best_area: f64,
        best_gap: f64,
        best_dual: f64,
        stagnant: usize,
        schedule: Option<ScheduleState>,
    ) -> Snapshot {
        Snapshot {
            format: SNAPSHOT_FORMAT,
            iterations_done,
            num_components,
            sizes: sizes.clone(),
            multipliers: multipliers.clone(),
            best_sizes: have_feasible.then(|| best_sizes.clone()),
            best_area: have_feasible.then_some(best_area),
            best_gap: best_gap.is_finite().then_some(best_gap),
            best_dual: best_dual.is_finite().then_some(best_dual),
            stagnant,
            schedule,
        }
    }

    /// A4 of Figure 9: move every multiplier along its constraint violation.
    /// `arrival` and `delays` are indexed by raw node index;
    /// `extra_violations` is flattened in family order (as produced by
    /// [`ConstraintSet::violations_into`](crate::ConstraintSet::violations_into)).
    /// The per-edge walk runs through `par` (flat chunks over the nodes):
    /// each node writes only its own fanin slots and reads only the fixed
    /// arrival/delay tables, so the walk is bitwise identical at every
    /// thread count.
    #[allow(clippy::too_many_arguments)]
    fn update_multipliers(
        problem: &SizingProblem<'_>,
        index: &FlowIndex<'_>,
        multipliers: &mut Multipliers,
        arrival: &[f64],
        delays: &[f64],
        step: f64,
        power_violation: f64,
        crosstalk_violation: f64,
        extra_violations: &[f64],
        par: &ParRuntime,
    ) {
        let graph = problem.graph;
        let bounds = problem.bounds;
        let a0 = bounds.delay.max(1e-12);

        // Multiplicative form of the subgradient step: each multiplier moves
        // by a factor `1 + ρ_k · (normalized violation)`. The fixed points are
        // identical to the additive rule (a multiplier stops moving exactly
        // when its constraint is tight or it has decayed to zero), but the
        // relative step keeps multipliers of very different magnitudes stable
        // and avoids the zig-zag an absolute step produces on the piecewise
        // linear dual.
        let bumped = move |value: f64, relative_violation: f64| -> f64 {
            let factor = (1.0 + step * relative_violation).clamp(0.2, 5.0);
            (value * factor).max(1e-12)
        };

        // Walk the flat kinds, the graph's CSR fanin lists and the flat
        // multiplier values; same traversal order and arithmetic as the
        // per-node graph walk.
        let kinds = index.kinds();
        let n = graph.num_nodes();
        let source = graph.source().index();
        assert_eq!(arrival.len(), n, "arrival must match the circuit");
        assert_eq!(delays.len(), n, "delays must match the circuit");
        {
            let (offsets, values) = multipliers.flat_mut();
            // Ties node `i`'s fanin list to its slots `offsets[i]..`, all
            // within `values`.
            index.assert_matches(graph, offsets);
            let mut slots = Tiles::new(values, Space::Slots(offsets), 0..n, false, false);
            let blocks = par::flat_blocks(n).map(|nodes| (slots.next(&nodes), nodes));
            par.run(blocks, |(mut values, nodes)| {
                let first = offsets[nodes.start] as usize;
                let (values, _) = values.level(&(first..offsets[nodes.end] as usize), false);
                for i in nodes {
                    if i == source {
                        continue;
                    }
                    let kind = kinds[i];
                    let fanin = graph.fanin(NodeId::new(i));
                    let own =
                        &mut values[offsets[i] as usize - first..offsets[i + 1] as usize - first];
                    for (value, &j) in own.iter_mut().zip(fanin) {
                        let j = j.index();
                        let violation = match kind {
                            NodeKind::Sink => arrival[j] - a0,
                            NodeKind::Gate(_) | NodeKind::Wire => {
                                if j == source {
                                    continue;
                                }
                                arrival[j] + delays[i] - arrival[i]
                            }
                            NodeKind::Driver => delays[i] - arrival[i],
                            NodeKind::Source => continue,
                        };
                        *value = bumped(*value, violation / a0);
                    }
                }
            });
        }
        let bump = |value: &mut f64, relative_violation: f64| {
            *value = bumped(*value, relative_violation);
        };
        bump(
            &mut multipliers.beta,
            power_violation / bounds.total_capacitance.max(1e-12),
        );
        let x_ref = bounds.crosstalk.max(1e-12);
        bump(&mut multipliers.gamma, crosstalk_violation / x_ref);
        // The extra-family multipliers follow the same multiplicative rule,
        // each normalized by its own bound.
        let mut offset = 0;
        for (family, block) in problem
            .extras
            .families()
            .iter()
            .zip(multipliers.extra_blocks_mut())
        {
            for (k, mu) in block.iter_mut().enumerate() {
                bump(
                    mu,
                    family.relative_violation(k, extra_violations[offset + k]),
                );
            }
            offset += family.len();
        }
        multipliers.clamp_non_negative();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintBounds;
    use ncgws_circuit::{CircuitBuilder, CircuitGraph, GateKind, Technology, TimingAnalysis};
    use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};

    /// A two-stage chain with a pair of coupled wires.
    fn setup() -> (CircuitGraph, CouplingSet) {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 150.0).unwrap();
        let d2 = b.add_driver("d2", 150.0).unwrap();
        let w1 = b.add_wire("w1", 250.0).unwrap();
        let w2 = b.add_wire("w2", 250.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 300.0).unwrap();
        let g2 = b.add_gate("g2", GateKind::Inv).unwrap();
        let w4 = b.add_wire("w4", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(w2, g1).unwrap();
        b.connect(g1, w3).unwrap();
        b.connect(w3, g2).unwrap();
        b.connect(g2, w4).unwrap();
        b.connect_output(w4, 10.0).unwrap();
        let graph = b.build().unwrap();
        let w1 = graph.node_by_name("w1").unwrap();
        let w2 = graph.node_by_name("w2").unwrap();
        let geom = WirePairGeometry::new(200.0, 11.0, 0.03).unwrap();
        let coupling =
            CouplingSet::new(&graph, vec![CouplingPair::new(w1, w2, geom).unwrap()]).unwrap();
        (graph, coupling)
    }

    /// A cold, uncontrolled solve on a fresh engine.
    fn solve_cold(max_iterations: usize, problem: &SizingProblem<'_>) -> OgwsOutcome {
        let config = OptimizerConfig {
            max_iterations,
            ..OptimizerConfig::default()
        };
        let mut engine = SizingEngine::for_problem(problem);
        OgwsSolver::new(config).solve(problem, &mut engine, None, &RunControl::new())
    }

    #[test]
    fn loose_bounds_drive_sizes_to_the_minimum() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let outcome = solve_cold(60, &problem);
        assert!(outcome.feasible);
        // With no binding constraint the optimal area is the minimum area.
        let min_area = problem.area(&graph.minimum_sizes());
        let area = problem.area(&outcome.sizes);
        assert!(
            area <= min_area * 1.05,
            "area {area} should approach the unconstrained minimum {min_area}"
        );
    }

    /// Critical-path delay under a uniform sizing (with coupling load).
    fn uniform_delay(graph: &CircuitGraph, coupling: &CouplingSet, size: f64) -> f64 {
        let sizes = graph.uniform_sizes(size);
        let extra = coupling.delay_load_per_node(graph, &sizes);
        TimingAnalysis::run(graph, &sizes, Some(&extra)).critical_path_delay
    }

    /// The fastest delay achievable by any uniform sizing — an achievable
    /// (hence feasible) delay target for the tests below.
    fn best_uniform_delay(graph: &CircuitGraph, coupling: &CouplingSet) -> f64 {
        [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
            .into_iter()
            .map(|s| uniform_delay(graph, coupling, s))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn delay_bound_is_met_when_achievable() {
        let (graph, coupling) = setup();
        // A delay 5% above the best uniform sizing is certainly achievable.
        let target = best_uniform_delay(&graph, &coupling) * 1.05;

        let bounds = ConstraintBounds {
            delay: target,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let outcome = solve_cold(150, &problem);
        assert!(
            outcome.feasible,
            "a feasible sizing exists and must be found"
        );
        let extra = coupling.delay_load_per_node(&graph, &outcome.sizes);
        let achieved =
            TimingAnalysis::run(&graph, &outcome.sizes, Some(&extra)).critical_path_delay;
        // The solver declares feasibility up to FEASIBILITY_TOLERANCE, so the
        // achieved delay may exceed the bound by at most that fraction.
        assert!(
            achieved <= target * (1.0 + 2.0 * FEASIBILITY_TOLERANCE),
            "achieved {achieved} vs target {target}"
        );
        // And the solution should not be everything-at-maximum.
        assert!(problem.area(&outcome.sizes) < problem.area(&graph.maximum_sizes()) * 0.9);
    }

    #[test]
    fn iteration_records_are_populated() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let outcome = solve_cold(5, &problem);
        assert!(!outcome.iterations.is_empty());
        assert!(outcome.num_iterations() <= 5);
        for (i, record) in outcome.iterations.iter().enumerate() {
            assert_eq!(record.iteration, i + 1);
            assert!(record.primal_area > 0.0);
            assert!(record.lrs_sweeps >= 1);
            assert!(record.seconds >= 0.0);
        }
        assert!(outcome.seconds_per_iteration() >= 0.0);
        assert!(outcome.total_seconds() >= 0.0);
    }

    #[test]
    fn crosstalk_bound_reduces_noise_against_unconstrained_run() {
        let (graph, coupling) = setup();
        // A tight-but-achievable delay bound so the unconstrained solution
        // needs sizable wires (and therefore has crosstalk headroom to cut).
        let delay_bound = best_uniform_delay(&graph, &coupling) * 1.05;

        let loose = ConstraintBounds {
            delay: delay_bound,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, loose).unwrap();
        let reference = solve_cold(150, &problem);
        assert!(reference.feasible);
        let reference_noise = coupling.total_crosstalk(&graph, &reference.sizes);

        // Ask for a crosstalk bound between the minimum achievable and the
        // unconstrained solution's value, so it is feasible but binding.
        let min_noise = coupling.total_crosstalk(&graph, &graph.minimum_sizes());
        let bound = min_noise + 0.3 * (reference_noise - min_noise).max(0.0);
        if bound >= reference_noise {
            // The delay constraint already forces near-minimum coupling;
            // nothing further to verify on this instance.
            return;
        }
        let tight = ConstraintBounds {
            delay: delay_bound,
            total_capacitance: 1e12,
            crosstalk: bound,
        };
        let problem = SizingProblem::new(&graph, &coupling, tight).unwrap();
        let constrained = solve_cold(200, &problem);
        assert!(constrained.feasible);
        let constrained_noise = coupling.total_crosstalk(&graph, &constrained.sizes);
        assert!(
            constrained_noise <= bound * (1.0 + 1e-6),
            "constrained {constrained_noise} vs bound {bound}"
        );
    }
}
