//! Property tests pinning the allocation-free evaluation engine to the
//! allocate-per-call reference path: on random synthetic instances the two
//! must produce **bitwise identical** results, and a reused engine must be
//! perfectly reproducible across repeated solves.

use ncgws::core::CircuitMetrics;
use ncgws::core::{
    build_coupling, reference, ConstraintBounds, ConstraintSet, LrsSolver, Multipliers, OgwsSolver,
    OptimizerConfig, OrderingStrategy, RunControl, SizingEngine, SizingProblem,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("eval-{seed}"), gates, gates * 2 + 5)
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The workspace-reuse LRS solver and the seed's allocate-per-call loop
    /// agree bit for bit — sizes, sweep count and convergence flag.
    #[test]
    fn engine_lrs_is_bitwise_identical_to_reference(
        seed in 0u64..400,
        gates in 12usize..40,
        edge_scale in 1e-5f64..1e2,
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

        let naive = reference::lrs_solve(&problem, &multipliers, 40, 1e-7);

        let mut engine = SizingEngine::for_problem(&problem);
        let mut sizes = inst.circuit.minimum_sizes();
        let stats = LrsSolver::new(40, 1e-7).solve_constrained(
            &mut engine,
            &ConstraintSet::new(),
            &multipliers,
            &mut sizes,
            &RunControl::new(),
        );

        prop_assert_eq!(&naive.sizes, &sizes, "sizes must match bitwise");
        prop_assert_eq!(naive.sweeps, stats.sweeps);
        prop_assert_eq!(naive.converged, stats.converged);
    }

    /// Metrics through the engine equal the reference evaluation bitwise,
    /// even after the workspace has been dirtied by unrelated evaluations.
    #[test]
    fn engine_metrics_are_bitwise_identical_to_reference(
        seed in 0u64..400,
        gates in 12usize..35,
        size_a in 0.2f64..8.0,
        size_b in 0.2f64..8.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let graph = &inst.circuit;
        let mut engine = SizingEngine::new(graph, &ordering.coupling);

        // Dirty the workspace with an unrelated sizing first.
        let _ = engine.metrics(&graph.uniform_sizes(size_b));

        let sizes = graph.uniform_sizes(size_a);
        let naive = CircuitMetrics::evaluate(graph, &ordering.coupling, &sizes);
        let engine_metrics = engine.metrics(&sizes);
        prop_assert_eq!(naive, engine_metrics);
    }

    /// Repeated solves on one engine are exactly reproducible: no state
    /// leaks between runs through the reused buffers.
    #[test]
    fn repeated_runs_on_one_engine_are_reproducible(
        seed in 0u64..300,
        gates in 12usize..30,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem =
            SizingProblem::new(&inst.circuit, &ordering.coupling, loose_bounds()).expect("problem");
        let config = OptimizerConfig { max_iterations: 15, ..OptimizerConfig::default() };
        let solver = OgwsSolver::new(config);

        let mut engine = SizingEngine::for_problem(&problem);
        let first = solver.solve(&problem, &mut engine, None, &RunControl::new());
        let second = solver.solve(&problem, &mut engine, None, &RunControl::new());
        prop_assert_eq!(&first.sizes, &second.sizes);
        prop_assert_eq!(first.feasible, second.feasible);
        prop_assert_eq!(first.best_gap, second.best_gap);

        // And a fresh engine gives the same answer as the reused one.
        let fresh = solver.solve(
            &problem,
            &mut SizingEngine::for_problem(&problem),
            None,
            &RunControl::new(),
        );
        prop_assert_eq!(&fresh.sizes, &second.sizes);
    }
}
