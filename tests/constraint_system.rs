//! Property tests of the composable constraint system (the refactor seam):
//!
//! * the generalized constraint path configured with **only** the paper's
//!   three global bounds is bitwise identical to the legacy
//!   `ncgws_core::reference` solver on random instances;
//! * per-net (channel-local) crosstalk caps and per-node driven-load caps
//!   are actually met on random channels when the run reports feasible, and
//!   reported as per-family slack violations when it does not;
//! * engines reused across constrained and unconstrained solves never leak
//!   stale denominator contributions.

use ncgws::circuit::NodeKind;
use ncgws::core::{
    build_coupling, reference, ConstraintBounds, ConstraintSet, LrsOutcome, LrsSolver, Multipliers,
    OgwsSolver, OptimizerConfig, OrderingStrategy, RunControl, SizingEngine, SizingProblem,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws::Flow;
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("cs-{seed}"), gates, gates * 2 + 8)
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

/// The feasibility tolerance the solver declares feasibility with (see
/// `ogws::FEASIBILITY_TOLERANCE`), doubled for the recomputation margin.
const TOL: f64 = 2e-3;

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
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The generalized constraint path — `SizingProblem::with_constraints`
    /// carrying an **empty** set, multipliers with attached (empty) blocks,
    /// the LRS solve that aggregates the extra denominator — must be
    /// bitwise identical to the seed's allocate-per-call reference loop.
    #[test]
    fn empty_constraint_set_is_bitwise_identical_to_reference(
        seed in 0u64..400,
        gates in 12usize..36,
        edge_scale in 1e-5f64..1e2,
        beta in 0.0f64..10.0,
        gamma in 0.0f64..10.0,
    ) {
        let inst = instance(seed, gates);
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let problem = SizingProblem::with_constraints(
            &inst.circuit,
            &ordering.coupling,
            loose_bounds(),
            ConstraintSet::new(),
        )
        .expect("problem");
        let mut multipliers = Multipliers::uniform(&inst.circuit, edge_scale, 0.0);
        multipliers.beta = beta;
        multipliers.gamma = gamma;
        multipliers.attach_extras(&problem.extras, 1.0);

        let naive = reference::lrs_solve(&problem, &multipliers, 40, 1e-7);
        let engine_path = lrs_solve_cold(LrsSolver::new(40, 1e-7), &problem, &multipliers);

        prop_assert_eq!(&naive.sizes, &engine_path.sizes, "sizes must match bitwise");
        prop_assert_eq!(naive.sweeps, engine_path.sweeps);
        prop_assert_eq!(naive.converged, engine_path.converged);
    }

    /// Per-net crosstalk caps and driven-load caps are enforced: on a
    /// feasible run every lowered constraint holds at the final sizes (also
    /// recomputed independently of the constraint's own linear model), and
    /// on an infeasible run the per-family slack report names the
    /// violation.
    #[test]
    fn per_net_and_driven_load_caps_are_met_or_reported(
        seed in 0u64..300,
        gates in 15usize..40,
        net_factor in 0.45f64..0.95,
        load_factor in 0.5f64..0.95,
    ) {
        let inst = instance(seed, gates);
        let config = OptimizerConfig::builder()
            .max_iterations(60)
            .max_lrs_sweeps(20)
            .per_net_crosstalk_cap(net_factor)
            .driven_load_cap(load_factor)
            .build()
            .expect("valid configuration");
        let ordered = Flow::prepare(&inst, config).expect("prepare").order().expect("order");
        let extras = ordered.extra_constraints().clone();
        prop_assert_eq!(extras.num_families(), 2);
        let sized = ordered.size().expect("size");
        let sizes = sized.sizes();
        let graph = &inst.circuit;
        let coupling = &ordered.ordering().coupling;

        // The slack report always covers every family.
        prop_assert_eq!(sized.report.constraint_slacks.len(), 2);
        for slack in &sized.report.constraint_slacks {
            prop_assert!(slack.worst_relative_violation.is_finite());
        }

        if sized.report.feasible {
            // Per-net: each channel's linearized crosstalk, recomputed from
            // the coupling set, stays below its cap.
            let per_net = &extras.families()[0];
            for constraint in per_net.constraints() {
                let idx: usize = constraint
                    .label()
                    .strip_prefix("net-")
                    .expect("per-net labels")
                    .parse()
                    .expect("channel index");
                let recomputed =
                    coupling.group_crosstalk(graph, sizes, &inst.channels[idx]);
                prop_assert!(
                    recomputed <= constraint.bound() * (1.0 + TOL),
                    "channel {idx}: {recomputed} vs cap {}",
                    constraint.bound()
                );
            }
            // Driven load: each capped node's directly attached component
            // load, recomputed from the graph, stays below its cap.
            let driven = &extras.families()[1];
            for constraint in driven.constraints() {
                let id = graph.node_by_name(constraint.label()).expect("node label");
                let mut load = 0.0;
                for &child in graph.fanout(id) {
                    match graph.node(child).kind {
                        NodeKind::Gate(_) | NodeKind::Wire => {
                            load += graph.capacitance(child, sizes);
                        }
                        NodeKind::Sink => load += graph.node(id).attrs.output_load,
                        _ => {}
                    }
                }
                prop_assert!(
                    load <= constraint.bound() * (1.0 + TOL),
                    "node {}: {load} vs cap {}",
                    constraint.label(),
                    constraint.bound()
                );
            }
            // The slack report agrees.
            for slack in &sized.report.constraint_slacks {
                prop_assert!(slack.satisfied, "{slack:?}");
            }
        } else {
            // Infeasible-with-slack: the report must localize the failure —
            // either an extra family's violation or the global bounds'.
            let worst_extra = sized
                .report
                .constraint_slacks
                .iter()
                .map(|s| s.worst_relative_violation)
                .fold(f64::NEG_INFINITY, f64::max);
            let last = sized.report.iteration_records.last().expect("iterations ran");
            prop_assert!(
                worst_extra > TOL
                    || last.delay_violation > 0.0
                    || last.power_violation > 0.0
                    || last.crosstalk_violation > 0.0,
                "an infeasible run must report what failed"
            );
        }
    }

    /// One engine serving constrained and unconstrained solves never leaks
    /// the extra-family denominator between runs: a legacy solve after a
    /// constrained solve matches a fresh legacy solve bitwise.
    #[test]
    fn engine_reuse_across_constraint_sets_is_leak_free(
        seed in 0u64..200,
        gates in 12usize..30,
        factor in 0.5f64..0.9,
    ) {
        let inst = instance(seed, gates);
        let config = OptimizerConfig {
            max_iterations: 12,
            ..OptimizerConfig::default()
        };
        let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
        let graph = &inst.circuit;

        // A constrained problem sharing the legacy problem's coupling.
        let capped = {
            let mut set = ConstraintSet::new();
            let initial = graph.maximum_sizes();
            let sums: Vec<(usize, f64)> = graph
                .wire_ids()
                .filter_map(|id| {
                    let a = ordering.coupling.linear_coefficient_sum(id);
                    (a > 0.0).then(|| (graph.component_index(id).unwrap(), a))
                })
                .collect();
            let initial_value: f64 = sums
                .iter()
                .map(|&(dense, a)| a * initial[dense])
                .sum::<f64>();
            set.push(ncgws::ScalarFamily::new(
                "cap",
                ncgws::FamilyKind::Custom,
                vec![ncgws::ScalarConstraint::new(
                    "global-lin",
                    sums,
                    0.0,
                    initial_value * factor,
                )],
            ));
            SizingProblem::with_constraints(graph, &ordering.coupling, loose_bounds(), set)
                .expect("capped problem")
        };
        let legacy =
            SizingProblem::new(graph, &ordering.coupling, loose_bounds()).expect("legacy problem");

        let solver = OgwsSolver::new(config);
        let mut engine = SizingEngine::for_problem(&legacy);
        let fresh_legacy = solver.solve(&legacy, &mut engine, None, &RunControl::new());
        let constrained = solver.solve(&capped, &mut engine, None, &RunControl::new());
        let legacy_after = solver.solve(&legacy, &mut engine, None, &RunControl::new());

        prop_assert_eq!(&fresh_legacy.sizes, &legacy_after.sizes);
        prop_assert_eq!(fresh_legacy.best_gap, legacy_after.best_gap);
        prop_assert_eq!(constrained.extra_multipliers.len(), 1);
        prop_assert!(fresh_legacy.extra_multipliers.is_empty());
    }
}
