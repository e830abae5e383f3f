//! Property-based tests of the Lagrangian sizing engine on randomly
//! generated circuits: bound respect, determinism, and monotone response to
//! the multipliers.

use ncgws::core::{
    build_coupling, ConstraintBounds, LrsOutcome, LrsSolver, Multipliers, OrderingStrategy,
    RunControl, SizingEngine, SizingProblem,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("sz-{seed}"), gates, gates * 2 + 5)
            .with_seed(seed)
            .with_num_patterns(8),
    )
    .generate()
    .expect("generation succeeds")
}

fn loose_bounds() -> ConstraintBounds {
    ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    }
}

/// One LRS solve from the lower bounds on a fresh engine, under the
/// problem's constraint families and no run control.
fn lrs_solve_cold(
    solver: LrsSolver,
    problem: &SizingProblem<'_>,
    multipliers: &Multipliers,
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn lrs_solutions_respect_bounds_for_any_multiplier_scale(
        seed in 0u64..500,
        gates in 12usize..40,
        edge_scale in 1e-6f64..1e3,
        beta in 0.0f64..10.0,
        gamma in 0.0f64..10.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let mut multipliers = Multipliers::uniform(&inst.circuit, edge_scale, 0.0);
        multipliers.beta = beta;
        multipliers.gamma = gamma;
        let outcome = lrs_solve_cold(LrsSolver::new(40, 1e-7), &problem, &multipliers);
        prop_assert!(inst.circuit.check_sizes(&outcome.sizes).is_ok());
        prop_assert!(outcome.sweeps >= 1);
    }

    #[test]
    fn lrs_is_deterministic(seed in 0u64..300, gates in 12usize..30) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let multipliers = Multipliers::uniform(&inst.circuit, 0.01, 0.5);
        let solver = LrsSolver::new(40, 1e-7);
        let a = lrs_solve_cold(solver, &problem, &multipliers);
        let b = lrs_solve_cold(solver, &problem, &multipliers);
        prop_assert_eq!(a.sizes, b.sizes);
    }

    #[test]
    fn uniformly_larger_delay_weights_never_shrink_total_size(
        seed in 0u64..300,
        gates in 12usize..30,
        low in 1e-5f64..1e-2,
        factor in 2.0f64..50.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let solver = LrsSolver::new(60, 1e-8);
        let low_weights = Multipliers::uniform(&inst.circuit, low, 0.0);
        let high_weights = Multipliers::uniform(&inst.circuit, low * factor, 0.0);
        let small = lrs_solve_cold(solver, &problem, &low_weights);
        let large = lrs_solve_cold(solver, &problem, &high_weights);
        prop_assert!(large.sizes.sum() >= small.sizes.sum() - 1e-9);
    }

    #[test]
    fn larger_power_multiplier_never_grows_total_size(
        seed in 0u64..300,
        gates in 12usize..30,
        beta in 1.0f64..100.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let solver = LrsSolver::new(60, 1e-8);
        let mut m = Multipliers::uniform(&inst.circuit, 0.05, 0.0);
        let relaxed = lrs_solve_cold(solver, &problem, &m);
        m.beta = beta;
        let constrained = lrs_solve_cold(solver, &problem, &m);
        prop_assert!(constrained.sizes.sum() <= relaxed.sizes.sum() + 1e-9);
    }
}
