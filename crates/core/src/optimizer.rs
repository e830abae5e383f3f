//! The end-to-end two-stage optimizer (legacy one-shot surface).
//!
//! [`Optimizer::run`] is a thin wrapper over the staged [`Flow`] pipeline:
//! it prepares, orders and sizes in
//! one call and returns the combined [`OptimizationOutcome`]. The staged API
//! in [`flow`](crate::flow) exposes the same computation with inspectable
//! intermediates, warm starts, run control and batch execution; a cold flow
//! run is bit-identical to this wrapper (the `flow_api` integration tests
//! enforce it). Extra constraint families configured through
//! [`OptimizerConfig::extra_constraints`] are honored here exactly as in
//! the staged pipeline — the wrapper delegates to it.

use ncgws_circuit::SizeVector;
use ncgws_netlist::ProblemInstance;

use crate::coupling_build::WireOrderingOutcome;
use crate::error::CoreError;
use crate::flow::Flow;
use crate::ogws::OgwsOutcome;
use crate::problem::OptimizerConfig;
use crate::report::OptimizationReport;

/// The result of a full optimization run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OptimizationOutcome {
    /// The report (Table 1 row, iteration history, memory, improvements).
    pub report: OptimizationReport,
    /// The stage-1 wire ordering outcome (orderings, their effective loading
    /// and the coupling set, whose on-demand neighbor lists answer
    /// `N(i)` / `I(i)`).
    pub ordering: WireOrderingOutcome,
    /// The raw OGWS outcome (multiplier values, convergence data).
    pub ogws: OgwsOutcome,
}

impl OptimizationOutcome {
    /// The final size vector. Borrowed from the OGWS outcome, which owns it
    /// — the outcome used to carry a redundant clone alongside `ogws.sizes`.
    pub fn sizes(&self) -> &SizeVector {
        &self.ogws.sizes
    }

    /// Why the sizing run stopped — the field batch callers branch on to
    /// separate converged instances from deadline-killed or cancelled ones
    /// (see [`batch::stop_reason_of`](crate::batch::stop_reason_of)).
    pub fn stop_reason(&self) -> crate::StopReason {
        self.ogws.stop_reason
    }
}

/// The two-stage noise-constrained gate and wire sizing optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer { config }
    }

    /// Creates an optimizer with the default configuration.
    pub fn with_defaults() -> Self {
        Optimizer::new(OptimizerConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the full two-stage flow on a problem instance.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid, the coupling model
    /// cannot be built for the instance's geometry, or the derived constraint
    /// bounds are unsatisfiable.
    pub fn run(&self, instance: &ProblemInstance) -> Result<OptimizationOutcome, CoreError> {
        let ordered = Flow::prepare(instance, self.config.clone())?.order()?;
        let sized = ordered.size()?;
        Ok(OptimizationOutcome {
            report: sized.report,
            ordering: ordered.into_ordering(),
            ogws: sized.ogws,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintBounds;
    use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

    fn instance(gates: usize, wires: usize, seed: u64) -> ProblemInstance {
        SyntheticGenerator::new(
            CircuitSpec::new("opt-test", gates, wires)
                .with_seed(seed)
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
    fn full_flow_improves_noise_power_and_area() {
        let inst = instance(60, 130, 7);
        let outcome = Optimizer::new(quick_config()).run(&inst).unwrap();
        let r = &outcome.report;
        assert!(r.feasible, "the optimizer must return a feasible sizing");
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
    fn final_sizes_respect_bounds_and_length() {
        let inst = instance(40, 90, 3);
        let outcome = Optimizer::new(quick_config()).run(&inst).unwrap();
        assert_eq!(outcome.sizes().len(), inst.circuit.num_components());
        assert!(inst.circuit.check_sizes(outcome.sizes()).is_ok());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let inst = instance(20, 45, 1);
        let config = OptimizerConfig {
            max_iterations: 0,
            ..OptimizerConfig::default()
        };
        assert!(matches!(
            Optimizer::new(config).run(&inst),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn absolute_bounds_override_factors() {
        let inst = instance(30, 70, 5);
        // Absurdly loose absolute bounds: the optimizer should shrink to the
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
        let outcome = Optimizer::new(config).run(&inst).unwrap();
        let min_area = ncgws_circuit::total_area(&inst.circuit, &inst.circuit.minimum_sizes());
        assert!(outcome.report.final_metrics.area_um2 <= min_area * 1.05);
    }

    #[test]
    fn extra_constraints_thread_through_the_legacy_wrapper() {
        let inst = instance(30, 70, 5);
        let config = OptimizerConfig::builder()
            .per_net_crosstalk_cap(0.9)
            .driven_load_cap(1.5)
            .max_iterations(30)
            .build()
            .unwrap();
        let outcome = Optimizer::new(config).run(&inst).unwrap();
        assert_eq!(outcome.report.constraint_slacks.len(), 2);
        assert_eq!(outcome.ogws.extra_multipliers.len(), 2);
        if outcome.report.feasible {
            assert!(outcome
                .report
                .constraint_slacks
                .iter()
                .all(|slack| slack.satisfied));
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let inst = instance(30, 70, 9);
        let a = Optimizer::new(quick_config()).run(&inst).unwrap();
        let b = Optimizer::new(quick_config()).run(&inst).unwrap();
        assert_eq!(a.sizes(), b.sizes());
        assert_eq!(a.report.final_metrics, b.report.final_metrics);
    }
}
