//! The staged `Flow` pipeline: the two-stage optimizer as a typestate API.
//!
//! The paper's algorithm has two clearly separated stages — WOSS wire
//! ordering (stage 1) and OGWS Lagrangian sizing (stage 2). This module
//! exposes each stage as a state of a typestate pipeline, with the
//! intermediates as first-class, inspectable values; it is the one way to
//! run a solve (the `ncgws-serve` job queue and the experiment binaries
//! drive it too):
//!
//! ```text
//! Flow::prepare(&instance, config)?   validated configuration
//!     .order()?                       stage 1: ordering + coupling + bounds
//!     .size()?                        stage 2: sizing + report
//! ```
//!
//! * [`Prepared`] proves the configuration validated against nothing but
//!   itself;
//! * [`Ordered`] holds the stage-1 [`WireOrderingOutcome`], the initial
//!   metrics and the derived constraint bounds. It is the reuse point: one
//!   ordering can feed any number of sizing runs (cold, warm-started,
//!   cancelled, budgeted) without re-simulating or re-ordering;
//! * [`SizedOutcome`] carries the [`OptimizationReport`] and the raw
//!   [`OgwsOutcome`] of one sizing run.
//!
//! Two fresh cold flows over one instance are bit-identical (the `flow_api`
//! integration tests enforce it property-wise). The third state is named
//! `SizedOutcome` rather than `Sized` to avoid shadowing the marker trait of
//! the prelude.

use std::time::Instant;

use ncgws_circuit::SizeVector;
use ncgws_netlist::ProblemInstance;

use crate::constraints::{lower_constraint_specs, ConstraintSet};
use crate::control::{RunControl, StopReason};
use crate::coupling_build::{build_coupling_on, WireOrderingOutcome};
use crate::engine::SizingEngine;
use crate::error::CoreError;
use crate::lagrangian::Multipliers;
use crate::metrics::{CircuitMetrics, MemoryBreakdown};
use crate::ogws::{OgwsOutcome, OgwsSolver, Start, FEASIBILITY_TOLERANCE};
use crate::par::ParRuntime;
use crate::problem::{ConstraintBounds, OptimizerConfig, SizingProblem};
use crate::report::{Improvements, OptimizationReport};

/// Entry point of the staged pipeline.
///
/// `Flow` itself is uninhabited state: all data lives in the stage values it
/// produces, starting with [`Flow::prepare`].
#[derive(Debug, Clone, Copy)]
pub struct Flow;

impl Flow {
    /// Validates the configuration and the problem instance and starts the
    /// pipeline's wall clock.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration is
    /// invalid, and [`CoreError::Instance`] when the instance is
    /// inconsistent (see
    /// [`ProblemInstance::validate`](ncgws_netlist::ProblemInstance::validate)).
    pub fn prepare(
        instance: &ProblemInstance,
        config: OptimizerConfig,
    ) -> Result<Prepared<'_>, CoreError> {
        config.validate()?;
        instance.validate()?;
        Ok(Prepared {
            instance,
            config,
            started: Instant::now(),
        })
    }
}

/// A validated configuration bound to a problem instance — the state before
/// stage 1.
#[derive(Debug, Clone)]
pub struct Prepared<'a> {
    instance: &'a ProblemInstance,
    config: OptimizerConfig,
    started: Instant,
}

impl<'a> Prepared<'a> {
    /// The problem instance the pipeline operates on.
    pub fn instance(&self) -> &'a ProblemInstance {
        self.instance
    }

    /// The validated configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs stage 1: logic simulation, switching-similarity wire ordering and
    /// coupling-model construction, then derives the constraint bounds from
    /// the initial (unsized) metrics. The channels are ordered on the
    /// configuration's thread policy, whose workers (none under
    /// `Sequential` or one thread, and no more than the machine's hardware
    /// threads otherwise) live for the ordering alone; the outcome is
    /// bitwise the same under every policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Coupling`] when the induced coupling pairs are
    /// geometrically invalid for the instance's layout.
    pub fn order(self) -> Result<Ordered<'a>, CoreError> {
        let ordering = {
            // The workers are joined at the end of the block.
            let mut runtime = ParRuntime::new();
            runtime.configure(self.config.parallel.at_most_hardware());
            build_coupling_on(
                &runtime,
                self.instance,
                self.config.ordering,
                self.config.effective_coupling,
            )?
        };
        let graph = &self.instance.circuit;
        let initial_sizes = self.config.initial_sizes(graph);
        let initial_metrics = CircuitMetrics::evaluate(graph, &ordering.coupling, &initial_sizes);
        let bounds = self
            .config
            .absolute_bounds
            .unwrap_or_else(|| ConstraintBounds::from_initial(&initial_metrics, &self.config))
            .clamped_to_feasible(graph, &ordering.coupling);
        // Lower the configuration-level constraint specs into absolute
        // families now that the coupling model exists; like the global
        // bounds, the caps are derived from the initial sizing.
        let extras = lower_constraint_specs(
            &self.config.extra_constraints,
            self.instance,
            &ordering,
            &initial_sizes,
        )?;
        Ok(Ordered {
            instance: self.instance,
            config: self.config,
            stage1_seconds: self.started.elapsed().as_secs_f64(),
            ordering,
            initial_metrics,
            bounds,
            extras,
        })
    }
}

/// The stage-1 outcome — the state between ordering and sizing, and the
/// reuse point for repeated sizing runs over one ordering.
#[derive(Debug, Clone)]
pub struct Ordered<'a> {
    instance: &'a ProblemInstance,
    config: OptimizerConfig,
    // Wall-clock cost of prepare+order, folded into every sizing run's
    // reported runtime (each run re-measures only its own stage 2, so
    // repeated runs over one ordering do not accumulate each other's time).
    stage1_seconds: f64,
    ordering: WireOrderingOutcome,
    initial_metrics: CircuitMetrics,
    bounds: ConstraintBounds,
    extras: ConstraintSet,
}

impl<'a> Ordered<'a> {
    /// The problem instance the pipeline operates on.
    pub fn instance(&self) -> &'a ProblemInstance {
        self.instance
    }

    /// The validated configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The stage-1 wire-ordering outcome: per-channel orderings, their total
    /// effective loading and the coupling set, whose on-demand neighbor
    /// lists are the induced adjacency `N(i)` / `I(i)`.
    pub fn ordering(&self) -> &WireOrderingOutcome {
        &self.ordering
    }

    /// Metrics of the initial (unsized) circuit, coupling included.
    pub fn initial_metrics(&self) -> &CircuitMetrics {
        &self.initial_metrics
    }

    /// The absolute constraint bounds stage 2 will enforce (derived from the
    /// initial metrics unless the configuration carries absolute bounds,
    /// then clamped to what the layout can achieve at all).
    pub fn bounds(&self) -> ConstraintBounds {
        self.bounds
    }

    /// The extra constraint families stage 2 will enforce, lowered from the
    /// configuration's [`ConstraintSpec`](crate::ConstraintSpec)s against
    /// this ordering's coupling model (empty for the paper's formulation).
    pub fn extra_constraints(&self) -> &ConstraintSet {
        &self.extras
    }

    /// Runs stage 2 cold: OGWS Lagrangian sizing from scratch, on a fresh
    /// engine and without run control. Every other run (warm, resumed,
    /// controlled, on a shared engine) is a
    /// [`size_with_engine`](Self::size_with_engine) call.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBounds`] when no sizing can satisfy
    /// the derived bounds.
    pub fn size(&self) -> Result<SizedOutcome, CoreError> {
        self.size_with_engine(&mut self.engine(), None, &RunControl::new())
    }

    /// Builds a sizing engine bound to this ordering, for reuse across
    /// repeated [`size_with_engine`](Self::size_with_engine) calls.
    ///
    /// The engine starts with the sequential parallel policy; every sizing
    /// run applies the configuration's
    /// [`parallel`](crate::OptimizerConfig::parallel) policy (e.g.
    /// [`OptimizerConfigBuilder::threads`](crate::OptimizerConfigBuilder::threads))
    /// at solve start, so one engine can serve runs under different thread
    /// counts — with bitwise-identical outcomes across all of them.
    pub fn engine(&self) -> SizingEngine<'_> {
        SizingEngine::new(&self.instance.circuit, &self.ordering.coupling)
    }

    /// Runs stage 2 from `start` — `None` is cold; [`Start`] covers warm
    /// starts and resumes from a [`Snapshot`](crate::Snapshot) — under a
    /// [`RunControl`] (observer, cancellation, iteration budget, deadline,
    /// checkpoints), on a caller-provided engine whose workspace is reused
    /// across runs.
    ///
    /// Callers sizing the same ordering many times (warm-start loops,
    /// serving) build the engine once with [`engine`](Self::engine), so the
    /// workspace allocation is paid once, not per run.
    ///
    /// # Errors
    ///
    /// As [`size`](Self::size), plus [`CoreError::InvalidConfig`] named
    /// `"warm_start"` when a warm vector has the wrong length for the
    /// circuit, and named `"snapshot"` when a snapshot belongs to another
    /// circuit or was taken under other constraint families.
    ///
    /// # Panics
    ///
    /// Panics when `engine` was built for a different circuit or coupling
    /// set than this ordering (build it with [`engine`](Self::engine)).
    pub fn size_with_engine(
        &self,
        engine: &mut SizingEngine<'_>,
        start: Option<Start<'_>>,
        control: &RunControl<'_>,
    ) -> Result<SizedOutcome, CoreError> {
        let graph = &self.instance.circuit;
        let coupling = &self.ordering.coupling;
        if let Some(start) = start {
            start.check(graph, &self.extras)?;
        }
        assert!(
            std::ptr::eq(graph, engine.graph()),
            "engine was built for a different circuit than this ordering"
        );
        assert!(
            std::ptr::eq(coupling, engine.coupling()),
            "engine was built for a different coupling set than this ordering"
        );
        let sizing_started = Instant::now();

        let problem =
            SizingProblem::with_constraints(graph, coupling, self.bounds, self.extras.clone())?;
        let ogws = OgwsSolver::new(self.config.clone()).solve(&problem, engine, start, control);
        let final_metrics = engine.metrics(&ogws.sizes);
        let constraint_slacks = problem.extras.slacks(&ogws.sizes, FEASIBILITY_TOLERANCE);

        // Stage 1 is paid once per ordering, stage 2 per run: report this
        // run's cost, not the sum over every sibling run or the idle time
        // between them.
        let runtime_seconds = self.stage1_seconds + sizing_started.elapsed().as_secs_f64();
        let memory = MemoryBreakdown {
            circuit_bytes: graph.memory_bytes(),
            coupling_bytes: coupling.memory_bytes(),
            multiplier_bytes: Multipliers::memory_bytes_for(graph, &problem.extras),
            working_bytes: engine.memory_bytes(),
        };

        let report = OptimizationReport {
            name: self.instance.name.clone(),
            num_gates: graph.num_gates(),
            num_wires: graph.num_wires(),
            initial_metrics: self.initial_metrics,
            final_metrics,
            improvements: Improvements::between(&self.initial_metrics, &final_metrics),
            iterations: ogws.num_iterations(),
            runtime_seconds,
            seconds_per_iteration: ogws.seconds_per_iteration(),
            sweeps_total: ogws.sweeps_total(),
            mean_sweeps_per_solve: ogws.mean_sweeps_per_solve(),
            mean_touched_per_sweep: ogws.mean_touched_per_sweep(),
            memory,
            feasible: ogws.feasible,
            constraint_slacks,
            converged: ogws.converged,
            stop_reason: ogws.stop_reason,
            duality_gap: ogws.best_gap,
            iteration_records: ogws.iterations.clone(),
            ordering_effective_loading: self.ordering.total_effective_loading,
        };

        Ok(SizedOutcome { report, ogws })
    }
}

/// The stage-2 outcome of one sizing run: the report plus the raw OGWS data.
///
/// The pipeline's terminal state. Produced by [`Ordered::size`] and
/// [`Ordered::size_with_engine`]; several outcomes can be produced from one
/// ordering.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SizedOutcome {
    /// The report (Table 1 row, iteration history, memory, improvements,
    /// stop reason).
    pub report: OptimizationReport,
    /// The raw OGWS outcome (sizes, multiplier values, convergence data).
    pub ogws: OgwsOutcome,
}

impl SizedOutcome {
    /// The final size vector (borrowed from the OGWS outcome, which owns it).
    pub fn sizes(&self) -> &SizeVector {
        &self.ogws.sizes
    }

    /// Why the sizing run stopped.
    pub fn stop_reason(&self) -> StopReason {
        self.report.stop_reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{CancelFlag, CollectObserver};
    use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

    fn instance(gates: usize, wires: usize, seed: u64) -> ProblemInstance {
        SyntheticGenerator::new(
            CircuitSpec::new("flow-test", gates, wires)
                .with_seed(seed)
                .with_num_patterns(32),
        )
        .generate()
        .unwrap()
    }

    fn size_on_fresh_engine(
        ordered: &Ordered<'_>,
        start: Option<Start<'_>>,
        control: &RunControl<'_>,
    ) -> Result<SizedOutcome, CoreError> {
        ordered.size_with_engine(&mut ordered.engine(), start, control)
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_iterations: 40,
            max_lrs_sweeps: 20,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_prepare() {
        let inst = instance(20, 45, 1);
        let config = OptimizerConfig {
            gap_tolerance: -1.0,
            ..OptimizerConfig::default()
        };
        assert!(matches!(
            Flow::prepare(&inst, config),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let inst = instance(20, 45, 1);
        let config = OptimizerConfig {
            max_iterations: 0,
            ..OptimizerConfig::default()
        };
        assert!(matches!(
            Flow::prepare(&inst, config),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn full_flow_improves_noise_power_and_area() {
        let inst = instance(60, 130, 7);
        let sized = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap()
            .size()
            .unwrap();
        let r = &sized.report;
        assert!(r.feasible, "the flow must return a feasible sizing");
        assert!(r.final_metrics.noise_pf < r.initial_metrics.noise_pf);
        assert!(r.final_metrics.power_mw < r.initial_metrics.power_mw);
        assert!(r.final_metrics.area_um2 < r.initial_metrics.area_um2);
        assert!(
            r.improvements.noise_pct > 50.0,
            "noise improvement {}",
            r.improvements.noise_pct
        );
        assert!(
            r.improvements.area_pct > 50.0,
            "area improvement {}",
            r.improvements.area_pct
        );
        // Delay must respect the bound (factor 1.0 of the initial delay).
        assert!(
            r.final_metrics.delay_ps <= r.initial_metrics.delay_ps * (1.0 + 1e-6),
            "delay {} vs initial {}",
            r.final_metrics.delay_ps,
            r.initial_metrics.delay_ps
        );
        assert!(r.iterations >= 1);
        assert!(r.memory.total() > 0);
        assert_eq!(r.total_components(), 190);
    }

    #[test]
    fn absolute_bounds_override_factors() {
        let inst = instance(30, 70, 5);
        // Absurdly loose absolute bounds: the flow should shrink to the
        // minimum area regardless of the factor fields.
        let config = OptimizerConfig {
            absolute_bounds: Some(ConstraintBounds {
                delay: 1e15,
                total_capacitance: 1e15,
                crosstalk: 1e15,
            }),
            max_iterations: 30,
            ..OptimizerConfig::default()
        };
        let sized = Flow::prepare(&inst, config)
            .unwrap()
            .order()
            .unwrap()
            .size()
            .unwrap();
        let min_area = ncgws_circuit::total_area(&inst.circuit, &inst.circuit.minimum_sizes());
        assert!(sized.report.final_metrics.area_um2 <= min_area * 1.05);
    }

    #[test]
    fn resuming_from_a_snapshot_of_another_circuit_is_a_typed_error() {
        let small = instance(30, 70, 3);
        let store = crate::control::SnapshotStore::new();
        let control = RunControl::new()
            .with_iteration_budget(2)
            .with_checkpoints(&store, crate::control::CheckpointPolicy::new());
        size_on_fresh_engine(
            &Flow::prepare(&small, quick_config())
                .unwrap()
                .order()
                .unwrap(),
            None,
            &control,
        )
        .unwrap();
        let snapshot = store.take().expect("an interrupted run checkpoints");

        let other = instance(40, 90, 3);
        let ordered = Flow::prepare(&other, quick_config())
            .unwrap()
            .order()
            .unwrap();
        match size_on_fresh_engine(&ordered, Some(Start::Resume(&snapshot)), &RunControl::new()) {
            Err(CoreError::InvalidConfig { name, reason }) => {
                assert_eq!(name, "snapshot");
                assert!(reason.contains("components"), "{reason}");
            }
            result => panic!("expected a snapshot error, got {result:?}"),
        }
    }

    #[test]
    fn stage_one_is_inspectable_before_sizing() {
        let inst = instance(40, 90, 3);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        assert!(ordered.ordering().num_channels() > 0);
        assert!(ordered.ordering().total_effective_loading >= 0.0);
        assert!(ordered.initial_metrics().area_um2 > 0.0);
        assert!(ordered.bounds().delay > 0.0);
        assert_eq!(
            ordered.instance().circuit.num_components(),
            inst.circuit.num_components()
        );
    }

    #[test]
    fn one_ordering_feeds_many_sizing_runs() {
        let inst = instance(40, 90, 5);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        let a = ordered.size().unwrap();
        let b = ordered.size().unwrap();
        assert_eq!(a.sizes(), b.sizes(), "cold runs are deterministic");
        assert_eq!(a.report.final_metrics, b.report.final_metrics);
        // A warm run from a's solution is at least as good, in fewer or
        // equally many iterations.
        let warm = size_on_fresh_engine(&ordered, Some(Start::Warm(a.sizes())), &RunControl::new())
            .unwrap();
        assert!(warm.report.iterations <= a.report.iterations);
        assert!(warm.report.feasible);
    }

    #[test]
    fn one_engine_serves_repeated_sizing_runs() {
        let inst = instance(40, 90, 5);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        let fresh = ordered.size().unwrap();
        let mut engine = ordered.engine();
        let control = RunControl::new();
        let a = ordered
            .size_with_engine(&mut engine, None, &control)
            .unwrap();
        let warm = ordered
            .size_with_engine(&mut engine, Some(Start::Warm(a.sizes())), &control)
            .unwrap();
        assert_eq!(a.sizes(), fresh.sizes(), "engine reuse must not leak state");
        assert_eq!(a.report.final_metrics, fresh.report.final_metrics);
        assert!(warm.report.iterations <= a.report.iterations);
    }

    #[test]
    fn warm_start_of_wrong_length_is_rejected() {
        let inst = instance(30, 70, 7);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        let warm = SizeVector::uniform(3, 1.0);
        assert!(matches!(
            size_on_fresh_engine(&ordered, Some(Start::Warm(&warm)), &RunControl::new()),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn budget_and_observer_are_honored() {
        let inst = instance(40, 90, 9);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        let collector = CollectObserver::new();
        let control = RunControl::new()
            .with_observer(&collector)
            .with_iteration_budget(4);
        let sized = size_on_fresh_engine(&ordered, None, &control).unwrap();
        assert_eq!(sized.report.iterations, 4);
        assert_eq!(sized.stop_reason(), StopReason::BudgetExhausted);
        assert_eq!(collector.count(), 4);
    }

    #[test]
    fn pre_cancelled_run_performs_no_iterations() {
        let inst = instance(30, 70, 11);
        let ordered = Flow::prepare(&inst, quick_config())
            .unwrap()
            .order()
            .unwrap();
        let flag = CancelFlag::new();
        flag.cancel();
        let control = RunControl::new().with_cancel_flag(flag);
        let sized = size_on_fresh_engine(&ordered, None, &control).unwrap();
        assert_eq!(sized.report.iterations, 0);
        assert_eq!(sized.stop_reason(), StopReason::Cancelled);
        assert!(!sized.report.feasible);
    }

    /// The reported multiplier bytes cover the multipliers a solve holds:
    /// the edge values, their CSR offsets and the extra-family blocks.
    #[test]
    fn multiplier_bytes_cover_values_offsets_and_blocks() {
        let spec = ncgws_netlist::table1_specs().remove(0);
        let inst = SyntheticGenerator::new(spec).generate().unwrap();
        let graph = &inst.circuit;
        let uniform = Multipliers::uniform(graph, 0.0, 0.0);
        let (offsets, values) = uniform.flat();
        let flat_bytes = std::mem::size_of_val(values) + std::mem::size_of_val(offsets);
        let cancelled = || {
            let flag = CancelFlag::new();
            flag.cancel();
            RunControl::new().with_cancel_flag(flag)
        };

        let plain = size_on_fresh_engine(
            &Flow::prepare(&inst, quick_config())
                .unwrap()
                .order()
                .unwrap(),
            None,
            &cancelled(),
        )
        .unwrap();
        let reported = plain.report.memory.multiplier_bytes;
        assert!(reported >= flat_bytes, "{reported} < {flat_bytes}");
        assert_eq!(reported, uniform.memory_bytes());

        let mut config = quick_config();
        config
            .extra_constraints
            .push(crate::ConstraintSpec::PerNetCrosstalk { factor: 0.9 });
        let ordered = Flow::prepare(&inst, config).unwrap().order().unwrap();
        let mut with_blocks = uniform.clone();
        with_blocks.attach_extras(ordered.extra_constraints(), 0.0);
        assert!(!with_blocks.extra_blocks().is_empty());
        let sized = size_on_fresh_engine(&ordered, None, &cancelled()).unwrap();
        assert_eq!(
            sized.report.memory.multiplier_bytes,
            with_blocks.memory_bytes()
        );
    }
}
