//! Delay/area-only Lagrangian sizing (noise- and power-oblivious baseline).

use ncgws_circuit::SizeVector;
use ncgws_coupling::CouplingSet;
use ncgws_netlist::ProblemInstance;
use serde::Serialize;

use crate::control::RunControl;
use crate::coupling_build::build_coupling;
use crate::engine::SizingEngine;
use crate::error::CoreError;
use crate::metrics::CircuitMetrics;
use crate::ogws::OgwsSolver;
use crate::problem::{ConstraintBounds, OptimizerConfig, SizingProblem};

/// Result of a baseline run, with metrics evaluated against the *real*
/// coupling model so it is directly comparable to the full optimizer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BaselineOutcome {
    /// The sizing the baseline chose.
    pub sizes: SizeVector,
    /// Metrics of that sizing under the real coupling model.
    pub metrics: CircuitMetrics,
    /// Metrics before sizing (same initial point as the full optimizer).
    pub initial_metrics: CircuitMetrics,
    /// Whether the baseline met its own delay bound.
    pub feasible: bool,
    /// Number of outer iterations used.
    pub iterations: usize,
}

/// Runs area-minimization subject to **only** the delay bound, ignoring
/// coupling both as a constraint and as a load — the formulation of the
/// prior work the paper extends. The returned metrics are evaluated with the
/// instance's real coupling so the baseline's (typically worse) noise is
/// visible.
///
/// # Errors
///
/// Propagates configuration and coupling-model errors.
pub fn lr_delay_area(
    instance: &ProblemInstance,
    config: &OptimizerConfig,
) -> Result<BaselineOutcome, CoreError> {
    config.validate()?;
    let graph = &instance.circuit;

    // The real coupling model, used only for reporting and for deriving the
    // same delay bound the full optimizer would use.
    let ordering = build_coupling(instance, config.ordering, config.effective_coupling)?;
    let real_coupling = &ordering.coupling;
    let mut real_engine = SizingEngine::new(graph, real_coupling);
    let initial_sizes = config.initial_sizes(graph);
    let initial_metrics = real_engine.metrics(&initial_sizes);

    // The baseline's own view of the world: no coupling, no power/noise bounds.
    let empty = CouplingSet::empty(graph);
    let bounds = ConstraintBounds {
        delay: initial_metrics.delay_internal * config.delay_bound_factor,
        total_capacitance: f64::MAX / 4.0,
        crosstalk: f64::MAX / 4.0,
    };
    let problem = SizingProblem::new(graph, &empty, bounds)?;
    let ogws = OgwsSolver::new(config.clone()).solve(
        &problem,
        &mut SizingEngine::for_problem(&problem),
        None,
        &RunControl::new(),
    );

    let metrics = real_engine.metrics(&ogws.sizes);
    let iterations = ogws.num_iterations();
    Ok(BaselineOutcome {
        sizes: ogws.sizes,
        metrics,
        initial_metrics,
        feasible: ogws.feasible,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

    fn instance() -> ProblemInstance {
        SyntheticGenerator::new(
            CircuitSpec::new("baseline", 50, 110)
                .with_seed(23)
                .with_num_patterns(32),
        )
        .generate()
        .unwrap()
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_iterations: 40,
            max_lrs_sweeps: 20,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn baseline_meets_its_delay_bound_and_improves_area() {
        let inst = instance();
        let outcome = lr_delay_area(&inst, &quick_config()).unwrap();
        assert!(outcome.feasible);
        assert!(outcome.metrics.area_um2 < outcome.initial_metrics.area_um2);
        assert!(outcome.iterations >= 1);
    }

    #[test]
    fn noise_constrained_optimizer_never_has_more_noise_than_the_baseline() {
        let inst = instance();
        let config = quick_config();
        let baseline = lr_delay_area(&inst, &config).unwrap();
        let full = Flow::prepare(&inst, config)
            .unwrap()
            .order()
            .unwrap()
            .size()
            .unwrap();
        assert!(full.report.feasible);
        // The full optimizer enforces a crosstalk bound at ~11% of the initial
        // noise; the baseline has no such bound, so it can only do worse or equal.
        assert!(
            full.report.final_metrics.noise_pf <= baseline.metrics.noise_pf + 1e-9,
            "full {} vs baseline {}",
            full.report.final_metrics.noise_pf,
            baseline.metrics.noise_pf
        );
    }
}
