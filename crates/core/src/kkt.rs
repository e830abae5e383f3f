//! Verification of the optimality conditions of Theorem 6.
//!
//! These checks are not needed by the solver itself (it maintains the
//! conditions by construction), but they give tests, examples and the
//! ablation benches a direct way to certify a solution:
//!
//! 1. flow conservation of the edge multipliers (Theorem 3),
//! 2. complementary slackness of every relaxed constraint,
//! 3. primal feasibility,
//! 4. non-negativity of the multipliers,
//! 5. the closed-form sizing equation of Theorem 5 (checked inside
//!    [`LrsSolver`](crate::LrsSolver) tests, where the required intermediate
//!    quantities are available).

use ncgws_circuit::{SizeVector, TimingAnalysis};
use serde::Serialize;

use crate::lagrangian::Multipliers;
use crate::problem::SizingProblem;
use crate::projection::flow_conservation_residual;

/// The residuals of the Theorem 6 conditions at a candidate solution.
/// All residuals are non-negative; zero (up to numerical noise) certifies the
/// corresponding condition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KktResiduals {
    /// Largest flow-conservation violation over all nodes.
    pub flow_conservation: f64,
    /// Largest relative primal constraint violation (delay, power,
    /// crosstalk, and every extra constraint family).
    pub primal_feasibility: f64,
    /// Largest relative complementary-slackness product for the scalar
    /// multipliers `β`, `γ`, the extra-family multipliers `μ` and the sink
    /// (delay-bound) multipliers.
    pub complementary_slackness: f64,
    /// Most negative multiplier (0 when all are non-negative).
    pub negativity: f64,
}

impl KktResiduals {
    /// Returns `true` when every residual is below `tolerance`.
    pub fn is_satisfied(&self, tolerance: f64) -> bool {
        self.flow_conservation <= tolerance
            && self.primal_feasibility <= tolerance
            && self.complementary_slackness <= tolerance
            && self.negativity <= tolerance
    }
}

/// Evaluates the KKT residuals of a `(sizes, multipliers)` pair.
pub fn kkt_residuals(
    problem: &SizingProblem<'_>,
    sizes: &SizeVector,
    multipliers: &Multipliers,
) -> KktResiduals {
    let graph = problem.graph;
    let coupling = problem.coupling;
    let bounds = problem.bounds;

    let flow = flow_conservation_residual(graph, multipliers);

    let extra = coupling.delay_load_per_node(graph, sizes);
    let timing = TimingAnalysis::run(graph, sizes, Some(&extra));
    let total_cap = ncgws_circuit::total_capacitance(graph, sizes);
    let crosstalk_lhs = coupling.crosstalk_lhs(graph, sizes);

    let delay_violation = (timing.critical_path_delay - bounds.delay) / bounds.delay.max(1e-12);
    let power_violation =
        (total_cap - bounds.total_capacitance) / bounds.total_capacitance.max(1e-12);
    let reduced = problem.reduced_crosstalk_bound();
    let crosstalk_violation = (crosstalk_lhs - reduced) / reduced.abs().max(1e-12);
    let extra_violation = problem
        .extras
        .worst_relative_violation(sizes)
        .unwrap_or(f64::NEG_INFINITY);
    let primal = delay_violation
        .max(power_violation)
        .max(crosstalk_violation)
        .max(extra_violation)
        .max(0.0);

    // Complementary slackness: multiplier × slack must vanish. Normalize by
    // the multiplier scale so the residual is dimensionless.
    let power_cs = multipliers.beta * power_violation.abs();
    let crosstalk_cs = multipliers.gamma * crosstalk_violation.abs();
    // Extra families: μ_k × relative slack per constraint. Blocks may be
    // absent (legacy multipliers on a constrained problem count as zero).
    let mut extra_cs = 0.0_f64;
    let mut max_extra_mu = 0.0_f64;
    for (family, block) in problem
        .extras
        .families()
        .iter()
        .zip(multipliers.extra_blocks())
    {
        for (k, &mu) in block.iter().enumerate() {
            let rel = family.relative_violation(k, family.violation(k, sizes));
            extra_cs = extra_cs.max(mu * rel.abs());
            max_extra_mu = max_extra_mu.max(mu);
        }
    }
    let sink_cs = {
        let sink = graph.sink();
        graph
            .fanin(sink)
            .iter()
            .enumerate()
            .map(|(slot, &j)| {
                let slack = (bounds.delay - timing.arrival.of(j)).abs() / bounds.delay.max(1e-12);
                multipliers.edge(sink, slot) * slack
            })
            .fold(0.0_f64, f64::max)
    };
    let scale = multipliers
        .beta
        .max(multipliers.gamma)
        .max(max_extra_mu)
        .max(1.0);
    let complementary = power_cs.max(crosstalk_cs).max(sink_cs).max(extra_cs) / scale;

    let mut most_negative: f64 = 0.0;
    for id in graph.node_ids() {
        for &value in multipliers.edges_of(id) {
            most_negative = most_negative.min(value);
        }
    }
    most_negative = most_negative.min(multipliers.beta).min(multipliers.gamma);
    for block in multipliers.extra_blocks() {
        for &value in block {
            most_negative = most_negative.min(value);
        }
    }

    KktResiduals {
        flow_conservation: flow,
        primal_feasibility: primal,
        complementary_slackness: complementary,
        negativity: (-most_negative).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintBounds;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};
    use ncgws_coupling::CouplingSet;

    fn setup() -> (ncgws_circuit::CircuitGraph, CouplingSet) {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 100.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        let graph = b.build().unwrap();
        let coupling = CouplingSet::empty(&graph);
        (graph, coupling)
    }

    #[test]
    fn zero_multipliers_with_loose_bounds_satisfy_kkt() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1.0,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let sizes = graph.minimum_sizes();
        let multipliers = Multipliers::uniform(&graph, 0.0, 0.0);
        let residuals = kkt_residuals(&problem, &sizes, &multipliers);
        assert!(residuals.is_satisfied(1e-9), "{residuals:?}");
    }

    #[test]
    fn infeasible_sizing_is_flagged() {
        let (graph, coupling) = setup();
        // Delay bound far below what minimum sizes achieve.
        let bounds = ConstraintBounds {
            delay: 1e-3,
            total_capacitance: 1e12,
            crosstalk: 1.0,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let sizes = graph.minimum_sizes();
        let multipliers = Multipliers::uniform(&graph, 0.0, 0.0);
        let residuals = kkt_residuals(&problem, &sizes, &multipliers);
        assert!(residuals.primal_feasibility > 0.0);
        assert!(!residuals.is_satisfied(1e-9));
    }

    #[test]
    fn violated_slackness_is_flagged() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1.0,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let sizes = graph.minimum_sizes();
        // β large while the power constraint has huge slack.
        let mut multipliers = Multipliers::uniform(&graph, 0.0, 0.0);
        multipliers.beta = 10.0;
        let residuals = kkt_residuals(&problem, &sizes, &multipliers);
        assert!(residuals.complementary_slackness > 1e-3);
    }

    #[test]
    fn negative_multipliers_are_flagged() {
        let (graph, coupling) = setup();
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1.0,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let sizes = graph.minimum_sizes();
        let mut multipliers = Multipliers::uniform(&graph, 0.0, 0.0);
        let w1 = graph.node_by_name("w1").unwrap();
        *multipliers.edge_mut(w1, 0) = -0.5;
        let residuals = kkt_residuals(&problem, &sizes, &multipliers);
        assert!((residuals.negativity - 0.5).abs() < 1e-12);
    }
}
