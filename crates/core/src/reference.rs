//! Allocate-per-call reference implementations.
//!
//! This module preserves the original (pre-engine) evaluation style: every
//! sweep allocates fresh vectors for the coupling loads, downstream
//! capacitances and upstream resistances through the
//! [`ElmoreAnalyzer`] and [`CouplingSet`](ncgws_coupling::CouplingSet)
//! convenience APIs, and walks each wire's coupling neighbor list instead
//! of reading the set's cached sums. It exists for two
//! reasons:
//!
//! * **equivalence oracle** — the `property_eval_engine` integration test
//!   checks that the workspace-reuse engine produces bitwise identical
//!   results on random instances;
//! * **benchmark baseline** — `elmore_bench` measures the per-sweep cost of
//!   the allocator against the engine path.
//!
//! Production code should use [`LrsSolver`](crate::LrsSolver) and
//! [`SizingEngine`](crate::SizingEngine) instead.

use ncgws_circuit::{ElmoreAnalyzer, NodeAttrs};

use crate::lagrangian::Multipliers;
use crate::lrs::LrsOutcome;
use crate::problem::SizingProblem;

/// Solves `LRS₂` with the original allocate-per-call sweep loop.
///
/// Semantically (and bitwise) identical to
/// [`LrsSolver::solve_constrained`](crate::LrsSolver::solve_constrained)
/// with the same sweep limit and tolerance, an empty constraint set and a
/// default run control.
pub fn lrs_solve(
    problem: &SizingProblem<'_>,
    multipliers: &Multipliers<'_>,
    max_sweeps: usize,
    tolerance: f64,
) -> LrsOutcome {
    let graph = problem.graph;
    let coupling = problem.coupling;
    let neighborhoods = coupling.neighborhoods();
    let analyzer = ElmoreAnalyzer::new(graph);
    let lambda = multipliers.node_weights(graph);
    let max_sweeps = max_sweeps.max(1);
    let tolerance = tolerance.max(0.0);

    // S1: start at the lower bounds.
    let mut sizes = graph.minimum_sizes();
    let mut sweeps = 0;
    let mut converged = false;

    while sweeps < max_sweeps {
        sweeps += 1;
        let previous = sizes.clone();

        // S2: downstream capacitances C_i with the coupling load included.
        let extra = coupling.delay_load_per_node(graph, &sizes);
        let caps = analyzer.downstream_caps(&sizes, Some(&extra));
        // S3: λ-weighted upstream resistances R_i.
        let upstream = analyzer.weighted_upstream_resistance(&sizes, &lambda);

        // S4: greedy closed-form resize, updating in place so later
        // components see their neighbors' fresh widths.
        for id in graph.component_ids() {
            let dense = graph.component_index(id).expect("component id");
            // The component's attributes, reassembled by the graph: a path
            // independent of the engine's column and bound views.
            let node = graph.node(id);
            let NodeAttrs {
                unit_resistance,
                unit_capacitance,
                area_coefficient,
                lower_bound,
                upper_bound,
                ..
            } = node.attrs;
            let lambda_i = lambda[id.index()];
            let x_i = sizes[dense];

            // Numerator capacitance: C_i minus every term proportional to
            // x_i (own far-half capacitance and the x_i part of the
            // coupling), keeping the neighbor-width coupling term.
            let mut cap_num = caps.charged_of(id);
            if node.kind.is_wire() {
                cap_num -= unit_capacitance * x_i / 2.0;
                cap_num -= neighborhoods.linear_coefficient_sum_uncached(id) * x_i;
            }
            // Guard against tiny negative values from floating-point noise.
            if cap_num < 0.0 {
                cap_num = 0.0;
            }

            let coupling_sum = neighborhoods.linear_coefficient_sum_uncached(id);
            let denominator = area_coefficient
                + (multipliers.beta + upstream[id.index()]) * unit_capacitance
                + multipliers.gamma * coupling_sum;
            let numerator = lambda_i * unit_resistance * cap_num;

            let opt = if denominator > 0.0 && numerator > 0.0 {
                (numerator / denominator).sqrt()
            } else {
                0.0
            };
            sizes[dense] = opt.clamp(lower_bound, upper_bound);
        }

        // S5: repeat until no improvement.
        if sizes.max_rel_diff(&previous) <= tolerance {
            converged = true;
            break;
        }
    }

    LrsOutcome {
        sizes,
        sweeps,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ConstraintBounds;
    use ncgws_circuit::{CircuitBuilder, CircuitGraph, GateKind, Technology};
    use ncgws_coupling::CouplingSet;

    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 150.0).unwrap();
        let w1 = b.add_wire("w1", 200.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 300.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect_output(w2, 10.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reference_matches_engine_solver_bitwise() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let bounds = ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let multipliers = Multipliers::uniform(&graph, 0.02, 0.1);
        let reference = lrs_solve(&problem, &multipliers, 80, 1e-9);
        let engine =
            crate::lrs::tests::solve_cold(crate::LrsSolver::new(80, 1e-9), &problem, &multipliers);
        assert_eq!(reference.sizes, engine.sizes);
        assert_eq!(reference.sweeps, engine.sweeps);
        assert_eq!(reference.converged, engine.converged);
    }
}
