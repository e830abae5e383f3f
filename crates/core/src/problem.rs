//! Problem formulation: constraint bounds and optimizer configuration.

use ncgws_circuit::{CircuitGraph, SizeVector};
use ncgws_coupling::CouplingSet;
use serde::{Deserialize, Serialize};

use crate::constraints::{ConstraintSet, ConstraintSpec};
use crate::coupling_build::OrderingStrategy;
use crate::error::CoreError;
use crate::metrics::CircuitMetrics;
use crate::par::ParallelPolicy;
use crate::schedule::{AdaptiveSchedule, SolveStrategy};
use crate::step::StepSchedule;
use crate::units;

/// Absolute constraint bounds of problem `PP`.
///
/// All three are in the *internal* units of the engine: delay in Ω·fF,
/// power as total switched capacitance in fF (the constraint
/// `Σ c_i ≤ P' = P_B / (V²·f)`), crosstalk as total coupling capacitance in
/// fF. The reporting layer converts to ps / mW / pF.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstraintBounds {
    /// Circuit delay bound `A₀` (Ω·fF).
    pub delay: f64,
    /// Total-capacitance (power) bound `P'` (fF).
    pub total_capacitance: f64,
    /// Total-crosstalk bound `X_B` (fF), including the size-independent part.
    pub crosstalk: f64,
}

impl ConstraintBounds {
    /// Derives absolute bounds from the metrics of the initial sizing and the
    /// relative factors of an [`OptimizerConfig`].
    ///
    /// The crosstalk bound is derived from the **exact** initial coupling
    /// (the quantity the paper's noise column reports); the sizing engine
    /// then enforces it on the linearized posynomial form.
    pub fn from_initial(initial: &CircuitMetrics, config: &OptimizerConfig) -> Self {
        ConstraintBounds {
            delay: initial.delay_internal * config.delay_bound_factor,
            total_capacitance: initial.total_capacitance_ff * config.power_bound_factor,
            crosstalk: units::ff_from_pf(initial.noise_pf) * config.crosstalk_bound_factor,
        }
    }

    /// Raises any bound that is unachievable even at the minimum sizes up to
    /// the achievable minimum (plus a small margin). This keeps relative
    /// bound factors usable across instances whose irreducible coupling or
    /// fringing capacitance would otherwise make them infeasible.
    pub fn clamped_to_feasible(mut self, graph: &CircuitGraph, coupling: &CouplingSet) -> Self {
        const MARGIN: f64 = 1.0 + 1e-6;
        let min_sizes = graph.minimum_sizes();
        let min_cap = ncgws_circuit::total_capacitance(graph, &min_sizes);
        if self.total_capacitance < min_cap * MARGIN {
            self.total_capacitance = min_cap * MARGIN;
        }
        let min_crosstalk = coupling.total_crosstalk(graph, &min_sizes);
        if self.crosstalk < min_crosstalk * MARGIN {
            self.crosstalk = min_crosstalk * MARGIN;
        }
        self
    }

    /// Checks the bounds are achievable at all: the crosstalk bound must
    /// exceed the size-independent coupling plus the minimum-size coupling,
    /// and the power bound must exceed the capacitance at minimum sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBounds`] naming the violated bound.
    pub fn check_feasible(
        &self,
        graph: &CircuitGraph,
        coupling: &CouplingSet,
    ) -> Result<(), CoreError> {
        let min_sizes = graph.minimum_sizes();
        let min_cap = ncgws_circuit::total_capacitance(graph, &min_sizes);
        if min_cap > self.total_capacitance {
            return Err(CoreError::InfeasibleBounds {
                reason: format!(
                    "power bound {:.3} fF is below the minimum-size capacitance {:.3} fF",
                    self.total_capacitance, min_cap
                ),
            });
        }
        let min_crosstalk = coupling.total_crosstalk(graph, &min_sizes);
        if min_crosstalk > self.crosstalk {
            return Err(CoreError::InfeasibleBounds {
                reason: format!(
                    "crosstalk bound {:.3} fF is below the minimum-size crosstalk {:.3} fF",
                    self.crosstalk, min_crosstalk
                ),
            });
        }
        if self.delay <= 0.0 {
            return Err(CoreError::InfeasibleBounds {
                reason: "delay bound must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// Configuration of the two-stage optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Initial component size; `None` starts every component at its upper
    /// bound (the paper's "Init" column corresponds to the unsized circuit,
    /// which we model as maximum sizes — see EXPERIMENTS.md).
    pub initial_size: Option<f64>,
    /// Delay bound as a multiple of the initial circuit delay.
    pub delay_bound_factor: f64,
    /// Power bound as a multiple of the initial total capacitance.
    pub power_bound_factor: f64,
    /// Crosstalk bound as a multiple of the initial total crosstalk.
    pub crosstalk_bound_factor: f64,
    /// Explicit absolute bounds; when set they override the factors above.
    pub absolute_bounds: Option<ConstraintBounds>,
    /// Maximum number of OGWS (outer, subgradient) iterations.
    pub max_iterations: usize,
    /// Relative duality-gap stopping threshold (the paper uses 1 %).
    pub gap_tolerance: f64,
    /// Step-size schedule `ρ_k` for the subgradient updates.
    pub step_schedule: StepSchedule,
    /// Maximum number of inner LRS sweeps per outer iteration.
    pub max_lrs_sweeps: usize,
    /// Convergence threshold for an LRS sweep (max relative size change).
    pub lrs_tolerance: f64,
    /// Which wire-ordering strategy stage 1 uses.
    pub ordering: OrderingStrategy,
    /// Weight coupling by switching similarity (effective crosstalk) instead
    /// of pure physical coupling in the constraint and delay model.
    pub effective_coupling: bool,
    /// Initial value of every edge multiplier `λ_ji`.
    pub initial_edge_multiplier: f64,
    /// Initial value of the power multiplier `β`, crosstalk multiplier `γ`
    /// and every extra-family multiplier `μ`.
    pub initial_scalar_multiplier: f64,
    /// Extra constraint families beyond the paper's three global bounds,
    /// lowered into absolute [`ConstraintSet`]s during
    /// [`Flow::order`](crate::Flow) (empty by default — the paper's
    /// formulation).
    pub extra_constraints: Vec<ConstraintSpec>,
    /// How the OGWS inner loop schedules its LRS solves:
    /// [`SolveStrategy::Exact`] (the default) is the paper's Figure-8
    /// schedule, bitwise-pinned to the reference;
    /// [`SolveStrategy::Adaptive`] enables warm-started solves and
    /// active-set sweeps (see [`crate::schedule`]).
    pub solve_strategy: SolveStrategy,
    /// How the stage-2 inner loop distributes its traversals across threads
    /// (see [`crate::par`]). Every policy runs the same fixed block grid:
    /// [`ParallelPolicy::Sequential`] (the default) on the calling thread,
    /// [`ParallelPolicy::Level`] over a worker pool, with outcomes
    /// **bitwise identical for every thread count** and the exact solve
    /// strategy bitwise-pinned to [`crate::reference`]. Worker threads
    /// need the `parallel` feature; without it every policy runs on one
    /// thread.
    pub parallel: ParallelPolicy,
}

impl OptimizerConfig {
    /// Starts a validating builder seeded with the default configuration.
    ///
    /// [`OptimizerConfigBuilder::build`] validates the assembled
    /// configuration, so a configuration obtained through the builder never
    /// fails validation later in the pipeline.
    pub fn builder() -> OptimizerConfigBuilder {
        OptimizerConfigBuilder::new()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), CoreError> {
        let positive = [
            ("delay_bound_factor", self.delay_bound_factor),
            ("power_bound_factor", self.power_bound_factor),
            ("crosstalk_bound_factor", self.crosstalk_bound_factor),
            ("gap_tolerance", self.gap_tolerance),
            ("lrs_tolerance", self.lrs_tolerance),
        ];
        for (name, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(CoreError::InvalidConfig {
                    name,
                    reason: format!("must be positive and finite, got {value}"),
                });
            }
        }
        if self.max_iterations == 0 {
            return Err(CoreError::InvalidConfig {
                name: "max_iterations",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.max_lrs_sweeps == 0 {
            return Err(CoreError::InvalidConfig {
                name: "max_lrs_sweeps",
                reason: "must be at least 1".to_string(),
            });
        }
        if let Some(size) = self.initial_size {
            if !(size.is_finite() && size > 0.0) {
                return Err(CoreError::InvalidConfig {
                    name: "initial_size",
                    reason: format!("must be positive and finite, got {size}"),
                });
            }
        }
        if self.initial_edge_multiplier < 0.0 || self.initial_scalar_multiplier < 0.0 {
            return Err(CoreError::InvalidConfig {
                name: "initial multipliers",
                reason: "must be non-negative".to_string(),
            });
        }
        for spec in &self.extra_constraints {
            spec.validate()?;
        }
        self.solve_strategy.validate()?;
        self.parallel.validate()?;
        Ok(())
    }

    /// The initial size vector for a circuit under this configuration.
    pub fn initial_sizes(&self, graph: &CircuitGraph) -> SizeVector {
        match self.initial_size {
            Some(size) => graph.uniform_sizes(size),
            None => graph.maximum_sizes(),
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            initial_size: None,
            delay_bound_factor: 1.0,
            power_bound_factor: 0.13,
            crosstalk_bound_factor: 0.115,
            absolute_bounds: None,
            max_iterations: 100,
            gap_tolerance: 0.01,
            step_schedule: StepSchedule::default(),
            max_lrs_sweeps: 50,
            lrs_tolerance: 1e-6,
            ordering: OrderingStrategy::Woss,
            effective_coupling: false,
            initial_edge_multiplier: 1.0,
            initial_scalar_multiplier: 1.0,
            extra_constraints: Vec::new(),
            solve_strategy: SolveStrategy::Exact,
            parallel: ParallelPolicy::Sequential,
        }
    }
}

/// Validating builder for [`OptimizerConfig`].
///
/// Starts from the default configuration; every setter overrides one field,
/// and [`build`](Self::build) validates the whole assembly so invalid
/// configurations are caught where they are written rather than deep inside
/// a run.
///
/// ```
/// use ncgws_core::{OptimizerConfig, OrderingStrategy};
///
/// let config = OptimizerConfig::builder()
///     .max_iterations(150)
///     .gap_tolerance(0.01)
///     .ordering(OrderingStrategy::Woss)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.max_iterations, 150);
///
/// assert!(OptimizerConfig::builder().max_iterations(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfigBuilder {
    config: OptimizerConfig,
}

impl OptimizerConfigBuilder {
    /// A builder seeded with [`OptimizerConfig::default`].
    pub fn new() -> Self {
        OptimizerConfigBuilder::default()
    }

    /// Uniform initial component size (`None`, the default, starts at the
    /// upper bounds).
    pub fn initial_size(mut self, size: f64) -> Self {
        self.config.initial_size = Some(size);
        self
    }

    /// Delay bound as a multiple of the initial circuit delay.
    pub fn delay_bound_factor(mut self, factor: f64) -> Self {
        self.config.delay_bound_factor = factor;
        self
    }

    /// Power bound as a multiple of the initial total capacitance.
    pub fn power_bound_factor(mut self, factor: f64) -> Self {
        self.config.power_bound_factor = factor;
        self
    }

    /// Crosstalk bound as a multiple of the initial total crosstalk.
    pub fn crosstalk_bound_factor(mut self, factor: f64) -> Self {
        self.config.crosstalk_bound_factor = factor;
        self
    }

    /// Explicit absolute bounds, overriding the relative factors.
    pub fn absolute_bounds(mut self, bounds: ConstraintBounds) -> Self {
        self.config.absolute_bounds = Some(bounds);
        self
    }

    /// Maximum number of OGWS (outer, subgradient) iterations.
    pub fn max_iterations(mut self, iterations: usize) -> Self {
        self.config.max_iterations = iterations;
        self
    }

    /// Relative duality-gap stopping threshold (the paper uses 1 %).
    pub fn gap_tolerance(mut self, tolerance: f64) -> Self {
        self.config.gap_tolerance = tolerance;
        self
    }

    /// Step-size schedule `ρ_k` for the subgradient updates.
    pub fn step_schedule(mut self, schedule: StepSchedule) -> Self {
        self.config.step_schedule = schedule;
        self
    }

    /// Maximum number of inner LRS sweeps per outer iteration.
    pub fn max_lrs_sweeps(mut self, sweeps: usize) -> Self {
        self.config.max_lrs_sweeps = sweeps;
        self
    }

    /// Convergence threshold for an LRS sweep (max relative size change).
    pub fn lrs_tolerance(mut self, tolerance: f64) -> Self {
        self.config.lrs_tolerance = tolerance;
        self
    }

    /// Which wire-ordering strategy stage 1 uses.
    pub fn ordering(mut self, strategy: OrderingStrategy) -> Self {
        self.config.ordering = strategy;
        self
    }

    /// Weight coupling by switching similarity (effective crosstalk).
    pub fn effective_coupling(mut self, enabled: bool) -> Self {
        self.config.effective_coupling = enabled;
        self
    }

    /// Initial value of every edge multiplier `λ_ji`.
    pub fn initial_edge_multiplier(mut self, value: f64) -> Self {
        self.config.initial_edge_multiplier = value;
        self
    }

    /// Initial value of the power, crosstalk and extra-family multipliers
    /// `β`, `γ`, `μ`.
    pub fn initial_scalar_multiplier(mut self, value: f64) -> Self {
        self.config.initial_scalar_multiplier = value;
        self
    }

    /// Adds an extra constraint family (see [`ConstraintSpec`]).
    pub fn extra_constraint(mut self, spec: ConstraintSpec) -> Self {
        self.config.extra_constraints.push(spec);
        self
    }

    /// How the OGWS inner loop schedules its LRS solves (see
    /// [`crate::schedule`]).
    pub fn solve_strategy(mut self, strategy: SolveStrategy) -> Self {
        self.config.solve_strategy = strategy;
        self
    }

    /// Selects the adaptive solve schedule with its default tuning
    /// (shorthand for
    /// `solve_strategy(SolveStrategy::Adaptive(AdaptiveSchedule::default()))`):
    /// warm-started LRS solves and active-set sweeps.
    pub fn adaptive_schedule(self) -> Self {
        self.solve_strategy(SolveStrategy::Adaptive(AdaptiveSchedule::default()))
    }

    /// How the stage-2 inner loop distributes its traversals across threads
    /// (see [`crate::par`] and [`ParallelPolicy`]).
    pub fn parallel(mut self, policy: ParallelPolicy) -> Self {
        self.config.parallel = policy;
        self
    }

    /// Runs the inner loop level-parallel on `threads` workers (`0` = the
    /// machine's available parallelism) — shorthand for
    /// `parallel(ParallelPolicy::threads(threads))`. Outcomes are bitwise
    /// identical for every thread count; see [`crate::par`].
    pub fn threads(self, threads: usize) -> Self {
        self.parallel(ParallelPolicy::threads(threads))
    }

    /// Caps each routing channel's crosstalk at `factor` × its initial value
    /// (shorthand for [`ConstraintSpec::PerNetCrosstalk`]) — a channel-local
    /// bound the paper's single global `X_B` cannot express.
    pub fn per_net_crosstalk_cap(self, factor: f64) -> Self {
        self.extra_constraint(ConstraintSpec::PerNetCrosstalk { factor })
    }

    /// Caps the component load each driver/gate directly drives at `factor`
    /// × its initial value (shorthand for [`ConstraintSpec::DrivenLoad`]).
    pub fn driven_load_cap(self, factor: f64) -> Self {
        self.extra_constraint(ConstraintSpec::DrivenLoad { factor })
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the first invalid field.
    pub fn build(self) -> Result<OptimizerConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A fully assembled sizing problem: the circuit, its coupling set, the
/// absolute constraint bounds of the paper's three global constraints, and
/// any extra constraint families. This is what the OGWS solver operates on
/// (the [`flow`](crate::flow) pipeline builds it from a
/// [`ProblemInstance`](ncgws_netlist::ProblemInstance)).
#[derive(Debug, Clone)]
pub struct SizingProblem<'a> {
    /// The circuit being sized.
    pub graph: &'a CircuitGraph,
    /// The coupling capacitors between adjacent wires.
    pub coupling: &'a CouplingSet,
    /// Absolute constraint bounds of the three global constraints.
    pub bounds: ConstraintBounds,
    /// Extra constraint families (empty for the paper's formulation).
    pub extras: ConstraintSet,
}

impl<'a> SizingProblem<'a> {
    /// Creates a problem with no extra constraint families (the paper's
    /// three-bound formulation), after checking the bounds are achievable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBounds`] when no sizing can satisfy the
    /// bounds.
    pub fn new(
        graph: &'a CircuitGraph,
        coupling: &'a CouplingSet,
        bounds: ConstraintBounds,
    ) -> Result<Self, CoreError> {
        SizingProblem::with_constraints(graph, coupling, bounds, ConstraintSet::new())
    }

    /// Creates a problem carrying extra constraint families, after checking
    /// every bound (global and extra) is achievable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBounds`] when no sizing can satisfy the
    /// bounds.
    pub fn with_constraints(
        graph: &'a CircuitGraph,
        coupling: &'a CouplingSet,
        bounds: ConstraintBounds,
        extras: ConstraintSet,
    ) -> Result<Self, CoreError> {
        bounds.check_feasible(graph, coupling)?;
        extras.check_feasible(graph)?;
        Ok(SizingProblem {
            graph,
            coupling,
            bounds,
            extras,
        })
    }

    /// The reduced crosstalk bound `X' = X_B − Σ ~c_ij` of the linearized
    /// constraint.
    pub fn reduced_crosstalk_bound(&self) -> f64 {
        self.bounds.crosstalk - self.coupling.total_base_capacitance()
    }

    /// The total area of the circuit under `sizes` — the primal objective.
    pub fn area(&self, sizes: &SizeVector) -> f64 {
        ncgws_circuit::total_area(self.graph, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(OptimizerConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = OptimizerConfig {
            max_iterations: 0,
            ..OptimizerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = OptimizerConfig {
            gap_tolerance: 0.0,
            ..OptimizerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = OptimizerConfig {
            initial_size: Some(-2.0),
            ..OptimizerConfig::default()
        };
        assert!(c.validate().is_err());

        let c = OptimizerConfig {
            initial_edge_multiplier: -1.0,
            ..OptimizerConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_validates_at_build() {
        let config = OptimizerConfig::builder()
            .max_iterations(25)
            .power_bound_factor(0.2)
            .effective_coupling(true)
            .initial_size(2.0)
            .build()
            .expect("valid configuration");
        assert_eq!(config.max_iterations, 25);
        assert_eq!(config.power_bound_factor, 0.2);
        assert!(config.effective_coupling);
        assert_eq!(config.initial_size, Some(2.0));

        assert!(matches!(
            OptimizerConfig::builder().gap_tolerance(0.0).build(),
            Err(CoreError::InvalidConfig {
                name: "gap_tolerance",
                ..
            })
        ));
        assert!(OptimizerConfig::builder()
            .initial_size(-1.0)
            .build()
            .is_err());
        assert!(OptimizerConfig::builder()
            .max_lrs_sweeps(0)
            .build()
            .is_err());
    }

    #[test]
    fn initial_sizes_default_to_upper_bounds() {
        use ncgws_circuit::{CircuitBuilder, GateKind, Technology};
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 10.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 2.0).unwrap();
        let graph = b.build().unwrap();

        let config = OptimizerConfig::default();
        let sizes = config.initial_sizes(&graph);
        assert!(sizes.iter().all(|&x| (x - 10.0).abs() < 1e-12));

        let config = OptimizerConfig {
            initial_size: Some(1.0),
            ..OptimizerConfig::default()
        };
        let sizes = config.initial_sizes(&graph);
        assert!(sizes.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }
}
