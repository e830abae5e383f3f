//! The LRS subroutine (Figure 8): optimal solution of the Lagrangian
//! relaxation subproblem `LRS₂` for fixed multipliers.
//!
//! For fixed `(λ, β, γ)` satisfying the flow-conservation condition, the
//! relaxed problem separates and Theorem 5 gives the optimal size of each
//! component in closed form:
//!
//! ```text
//! x_i* = min(U_i, max(L_i, opt_i)),
//! opt_i = sqrt( λ_i · r̂_i · (C'_i + Σ_{j∈N(i)} ĉ_ij x_j)
//!             / (α_i + (β + R_i) ĉ_i + γ Σ_{j∈N(i)} ĉ_ij) )
//! ```
//!
//! where `C'_i` is the downstream capacitance of `i` stripped of the terms
//! that depend on `x_i`, and `R_i` is the λ-weighted upstream resistance.
//! Because the subproblem is convex (posynomial) with a unique optimum, the
//! greedy coordinate sweep — recompute `C'`, `R`, update every `x_i`, repeat
//! until nothing changes — converges to that optimum.
//!
//! Extra constraint families ([`ConstraintSet`]) keep the closed form: each
//! linear family adds its μ-weighted coefficient `Σ μ_k a_{k,i}` to the
//! denominator, aggregated once per solve into the engine's dense
//! `extra_denom` table so the sweep stays allocation-free
//! ([`LrsSolver::solve_constrained`]).
//!
//! Each sweep is `O(V + E + P)` time (`P` = number of coupling pairs), which
//! is the per-iteration linearity the paper emphasizes.

use ncgws_circuit::SizeVector;
use serde::Serialize;

use crate::constraints::ConstraintSet;
use crate::control::RunControl;
use crate::engine::SizingEngine;
use crate::lagrangian::Multipliers;
use crate::schedule::{AdaptiveSchedule, ScheduledStats};

/// Result of one allocate-per-call LRS solve
/// ([`reference::lrs_solve`](crate::reference::lrs_solve)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LrsOutcome {
    /// The minimizing size vector.
    pub sizes: SizeVector,
    /// Number of coordinate sweeps performed.
    pub sweeps: usize,
    /// Whether the sweep converged below the tolerance (as opposed to hitting
    /// the sweep limit).
    pub converged: bool,
}

/// Convergence statistics of an in-place LRS solve
/// ([`LrsSolver::solve_constrained`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LrsStats {
    /// Number of coordinate sweeps performed.
    pub sweeps: usize,
    /// Whether the sweep converged below the tolerance.
    pub converged: bool,
}

/// Solver for the Lagrangian relaxation subproblem.
#[derive(Debug, Clone, Copy)]
pub struct LrsSolver {
    max_sweeps: usize,
    tolerance: f64,
}

impl LrsSolver {
    /// Creates a solver with the given sweep limit and convergence tolerance
    /// (maximum relative size change per sweep).
    pub fn new(max_sweeps: usize, tolerance: f64) -> Self {
        LrsSolver {
            max_sweeps: max_sweeps.max(1),
            tolerance: tolerance.max(0.0),
        }
    }

    /// Solves `LRS₂` in place, writing the minimizer into `sizes` and using
    /// only the engine's pre-sized buffers.
    ///
    /// Follows Figure 8: start at the lower bounds, then repeat
    /// (recompute `C'`, recompute `R`, greedy resize every component) until
    /// no component moves by more than the tolerance. Each sweep is
    /// `O(V + E + P)` with zero heap allocation.
    ///
    /// Relaxes the paper's three global bounds **and** the extra
    /// [`ConstraintSet`] families, whose μ-weighted coefficients are
    /// aggregated into the engine's dense denominator table once per solve.
    /// With an empty set (the paper's formulation) the aggregated table is
    /// all zeros and the sweep arithmetic is bitwise identical to
    /// [`reference::lrs_solve`](crate::reference::lrs_solve).
    ///
    /// Between sweeps the control's cancellation flag and deadline are
    /// checked, so a cancelled run stops within one sweep instead of
    /// finishing the solve. With a default control the checks read two
    /// `Option`s per sweep and never touch the clock, so the sweep sequence
    /// is bit-identical to an uncontrolled solve. An interrupted solve reports `converged: false`
    /// and leaves `sizes` at the last completed sweep's iterate (or the
    /// lower bounds when interrupted before the first sweep).
    ///
    /// # Panics
    ///
    /// Panics when `sizes` does not match the engine's circuit.
    pub fn solve_constrained(
        &self,
        engine: &mut SizingEngine<'_>,
        extras: &ConstraintSet,
        multipliers: &Multipliers<'_>,
        sizes: &mut SizeVector,
        control: &RunControl<'_>,
    ) -> LrsStats {
        // A2 aggregation: node weights λ_i and the extra-family denominator
        // contributions, once per solve.
        engine.load_node_weights(multipliers);
        engine.load_extra_denominator(extras, multipliers);
        // S1: start at the lower bounds.
        engine.reset_to_lower_bounds(sizes);

        let mut sweeps = 0;
        let mut converged = false;
        while sweeps < self.max_sweeps {
            if control.interrupted() {
                break;
            }
            sweeps += 1;
            // S2–S4 in the engine; S5: repeat until no improvement.
            let delta = engine.lrs_sweep(sizes, multipliers.beta, multipliers.gamma);
            if delta <= self.tolerance {
                converged = true;
                break;
            }
        }
        LrsStats { sweeps, converged }
    }

    /// Solves `LRS₂` under an [`AdaptiveSchedule`] (see
    /// [`crate::schedule`]): the solve is warm-started from the incoming
    /// `sizes` instead of the lower bounds, and sweeps between the periodic
    /// full verification sweeps resize only the active frontier. Every
    /// electrical table a sweep reads comes from a full rebuild over the
    /// block grid, as in the exact path.
    ///
    /// Each fused pass runs over the engine's fixed block grid, on the
    /// workers the [`ParallelPolicy`](crate::ParallelPolicy) selects (via
    /// [`SizingEngine::set_parallel`]) — same per-component arithmetic,
    /// per-block reductions merged in fixed block order, so the solve's
    /// outcome is bitwise identical for every thread count.
    ///
    /// The engine's schedule state (active/frozen partition, calm streaks,
    /// cache-sync stamp) persists across the solves of one OGWS run;
    /// reset it with [`SizingEngine::reset_schedule`] at run start. The
    /// convergence measure is the worst relative change over the touched
    /// components, so a solve may converge on a sparse sweep; the
    /// verification cadence bounds how long a frozen component can drift
    /// from its Theorem-5 fixed point before being re-checked.
    pub fn solve_scheduled(
        &self,
        engine: &mut SizingEngine<'_>,
        extras: &ConstraintSet,
        multipliers: &Multipliers<'_>,
        sizes: &mut SizeVector,
        control: &RunControl<'_>,
        schedule: &AdaptiveSchedule,
    ) -> ScheduledStats {
        // A2 aggregation, exactly as the exact path. S1 is the warm start:
        // the solve begins at the incoming `sizes`.
        engine.load_node_weights(multipliers);
        engine.load_extra_denominator(extras, multipliers);

        let beta = multipliers.beta;
        let gamma = multipliers.gamma;
        let mut sweeps = 0;
        let mut full_sweeps = 0;
        let mut touched_components = 0;
        let mut converged = false;
        while sweeps < self.max_sweeps {
            if control.interrupted() {
                break;
            }
            sweeps += 1;
            let global = engine.bump_global_sweep();
            // The first sweep of every solve is a verification sweep: the
            // multipliers changed, so every component — frozen or not — is
            // re-resized once under the new weights before the active-set
            // pruning applies (a component whose re-check stays calm keeps
            // its streak and refreezes immediately). Later sweeps verify on
            // the periodic cadence or when the frontier empties.
            let verify = sweeps == 1
                || global.is_multiple_of(schedule.verify_every)
                || engine.active_set_is_empty();
            if verify {
                full_sweeps += 1;
            }
            // Sweep mode: alternating fused Gauss–Seidel passes — odd
            // sweeps walk forward refreshing the upstream resistances over
            // the freshly resized upstream state, even sweeps walk backward
            // refreshing the downstream capacitances — so each sweep is one
            // traversal and both sides of the closed form stay at most one
            // half-sweep stale.
            let (worst, touched) = if !sweeps.is_multiple_of(2) {
                engine.fused_forward_sweep(sizes, beta, gamma, schedule, verify)
            } else {
                engine.fused_backward_sweep(sizes, beta, gamma, schedule, verify)
            };
            touched_components += touched;
            if worst <= self.tolerance {
                converged = true;
                break;
            }
            // An empty frontier certifies every component is within the
            // freeze tolerance of its per-pass fixed point (each was
            // re-checked under these multipliers — the solve's first pass
            // resizes everything); further sweeps cannot move anything.
            if engine.active_set_is_empty() {
                converged = true;
                break;
            }
        }
        ScheduledStats {
            sweeps,
            full_sweeps,
            touched_components,
            frozen_components: engine.frozen_components(),
            converged,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::{ConstraintBounds, SizingProblem};
    use ncgws_circuit::{CircuitBuilder, CircuitGraph, GateKind, Technology};
    use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};

    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 150.0).unwrap();
        let w1 = b.add_wire("w1", 200.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 300.0).unwrap();
        let g2 = b.add_gate("g2", GateKind::Buf).unwrap();
        let w3 = b.add_wire("w3", 150.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect(w2, g2).unwrap();
        b.connect(g2, w3).unwrap();
        b.connect_output(w3, 10.0).unwrap();
        b.build().unwrap()
    }

    /// One solve from the lower bounds on a fresh engine, under the
    /// problem's constraint families and no run control.
    pub(crate) fn solve_cold(
        solver: LrsSolver,
        problem: &SizingProblem<'_>,
        multipliers: &Multipliers<'_>,
    ) -> LrsOutcome {
        let mut engine = SizingEngine::for_problem(problem);
        let mut sizes = problem.graph.minimum_sizes();
        let stats = solver.solve_constrained(
            &mut engine,
            &problem.extras,
            multipliers,
            &mut sizes,
            &RunControl::new(),
        );
        LrsOutcome {
            sizes,
            sweeps: stats.sweeps,
            converged: stats.converged,
        }
    }

    fn loose_bounds() -> ConstraintBounds {
        ConstraintBounds {
            delay: 1e12,
            total_capacitance: 1e12,
            crosstalk: 1e12,
        }
    }

    #[test]
    fn zero_multipliers_give_minimum_sizes() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let multipliers = Multipliers::uniform(&graph, 0.0, 0.0);
        let outcome = solve_cold(LrsSolver::new(50, 1e-9), &problem, &multipliers);
        assert!(outcome.converged);
        for (&x, id) in outcome.sizes.iter().zip(graph.component_ids()) {
            assert!((x - graph.node(id).attrs.lower_bound).abs() < 1e-12);
        }
    }

    #[test]
    fn larger_delay_multipliers_give_larger_sizes() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let solver = LrsSolver::new(100, 1e-9);
        let small = solve_cold(solver, &problem, &Multipliers::uniform(&graph, 1e-4, 0.0));
        let large = solve_cold(solver, &problem, &Multipliers::uniform(&graph, 1e-1, 0.0));
        assert!(large.sizes.sum() > small.sizes.sum());
    }

    #[test]
    fn larger_power_multiplier_gives_smaller_sizes() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let solver = LrsSolver::new(100, 1e-9);
        let mut m = Multipliers::uniform(&graph, 0.05, 0.0);
        let relaxed = solve_cold(solver, &problem, &m);
        m.beta = 50.0;
        let constrained = solve_cold(solver, &problem, &m);
        assert!(constrained.sizes.sum() <= relaxed.sizes.sum() + 1e-12);
    }

    #[test]
    fn crosstalk_multiplier_shrinks_coupled_wires_only() {
        let graph = chain();
        let w1 = graph.node_by_name("w1").unwrap();
        let w2 = graph.node_by_name("w2").unwrap();
        let geom = WirePairGeometry::new(150.0, 12.0, 0.03).unwrap();
        let coupling =
            CouplingSet::new(&graph, vec![CouplingPair::new(w1, w2, geom).unwrap()]).unwrap();
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let solver = LrsSolver::new(200, 1e-9);
        let mut m = Multipliers::uniform(&graph, 0.05, 0.0);
        let before = solve_cold(solver, &problem, &m);
        m.gamma = 100.0;
        let after = solve_cold(solver, &problem, &m);
        let w1_dense = graph.component_index(w1).unwrap();
        let w2_dense = graph.component_index(w2).unwrap();
        assert!(after.sizes[w1_dense] <= before.sizes[w1_dense] + 1e-12);
        assert!(after.sizes[w2_dense] <= before.sizes[w2_dense] + 1e-12);
        // The uncoupled wire w3 should not shrink because of γ.
        let w3 = graph.node_by_name("w3").unwrap();
        let w3_dense = graph.component_index(w3).unwrap();
        assert!((after.sizes[w3_dense] - before.sizes[w3_dense]).abs() < 1e-6);
    }

    #[test]
    fn solution_satisfies_theorem5_fixed_point() {
        // At convergence every component either sits at a bound or satisfies
        // the closed-form optimality equation.
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let multipliers = Multipliers::uniform(&graph, 0.02, 0.0);
        let outcome = solve_cold(LrsSolver::new(500, 1e-12), &problem, &multipliers);
        assert!(outcome.converged);
        let sizes = &outcome.sizes;
        let analyzer = ncgws_circuit::ElmoreAnalyzer::new(&graph);
        let lambda = multipliers.node_weights(&graph);
        let caps = analyzer.downstream_caps(sizes, None);
        let upstream = analyzer.weighted_upstream_resistance(sizes, &lambda);
        for id in graph.component_ids() {
            let dense = graph.component_index(id).unwrap();
            let attrs = &graph.node(id).attrs;
            let mut cap_num = caps.charged_of(id);
            if graph.node(id).kind.is_wire() {
                cap_num -= attrs.unit_capacitance * sizes[dense] / 2.0;
            }
            let denom = attrs.area_coefficient + upstream[id.index()] * attrs.unit_capacitance;
            let opt = (lambda[id.index()] * attrs.unit_resistance * cap_num / denom).sqrt();
            let expected = opt.clamp(attrs.lower_bound, attrs.upper_bound);
            assert!(
                (sizes[dense] - expected).abs() / expected < 1e-5,
                "component {id}: {} vs {}",
                sizes[dense],
                expected
            );
        }
    }

    #[test]
    fn respects_size_bounds() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        // Heavy timing pressure on the last wire only (tiny weights upstream,
        // so its weighted upstream resistance stays small): its closed-form
        // optimum exceeds the upper bound and must be clamped there.
        let mut m = Multipliers::uniform(&graph, 1e-9, 0.0);
        let w3 = graph.node_by_name("w3").unwrap();
        *m.edge_mut(w3, 0) = 1e9;
        let outcome = solve_cold(LrsSolver::new(100, 1e-9), &problem, &m);
        assert!(graph.check_sizes(&outcome.sizes).is_ok());
        let w3_dense = graph.component_index(w3).unwrap();
        assert!(
            (outcome.sizes[w3_dense] - graph.node(w3).attrs.upper_bound).abs() < 1e-9,
            "w3 should saturate at its upper bound, got {}",
            outcome.sizes[w3_dense]
        );
        // Components with negligible weight sit at their lower bound.
        let w1 = graph.node_by_name("w1").unwrap();
        let w1_dense = graph.component_index(w1).unwrap();
        assert!((outcome.sizes[w1_dense] - graph.node(w1).attrs.lower_bound).abs() < 1e-6);
    }

    #[test]
    fn sweep_limit_is_respected() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let problem = SizingProblem::new(&graph, &coupling, loose_bounds()).unwrap();
        let outcome = solve_cold(
            LrsSolver::new(1, 0.0),
            &problem,
            &Multipliers::uniform(&graph, 0.01, 0.0),
        );
        assert_eq!(outcome.sweeps, 1);
    }
}
