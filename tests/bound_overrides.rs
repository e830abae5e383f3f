//! Size bounds held as the technology's `[min_size, max_size]` plus sparse
//! per-node overrides.
//!
//! * Generated instances (c432, xlw10k, xlw100k) hold no override: every
//!   component sits at the technology's range.
//! * With overrides on about one component in ten, the exact LRS solve is
//!   bitwise equal to `ncgws_core::reference` at `threads(1)` and
//!   `threads(2)`, the exact OGWS run is bitwise equal across those thread
//!   counts, and the adaptive OGWS run stays within 1e-6 of the exact one.

use ncgws::circuit::{CircuitGraph, NodeId};
use ncgws::core::{
    build_coupling, reference, AdaptiveSchedule, ConstraintBounds, ConstraintSet, Flow, LrsSolver,
    Multipliers, OptimizerConfig, OrderingStrategy, ParallelPolicy, RunControl, SizingEngine,
    SizingProblem, SolveStrategy,
};
use ncgws::netlist::{
    iscas85_spec, xl_wide_spec, CircuitSpec, ProblemInstance, SyntheticGenerator,
};

fn generate(spec: CircuitSpec) -> ProblemInstance {
    SyntheticGenerator::new(spec)
        .generate()
        .expect("generation succeeds")
}

#[test]
fn generated_instances_hold_no_override() {
    for spec in [
        iscas85_spec("c432").unwrap(),
        xl_wide_spec(10_000),
        xl_wide_spec(100_000),
    ] {
        let c = generate(spec).circuit;
        assert_eq!(c.component_bounds().num_overrides(), 0, "{}", c.num_nodes());
        let tech = c.technology();
        for id in c.node_ids() {
            let default = if c.component_index(id).is_some() {
                (tech.min_size, tech.max_size)
            } else {
                (0.0, 0.0)
            };
            assert_eq!(c.size_bounds(id), default, "node {id}");
        }
    }
}

/// `inst` with the size bounds of every tenth component narrowed to a
/// range inside the technology's, reassembled through the decoder's path.
fn with_overrides(inst: &ProblemInstance) -> ProblemInstance {
    let c = &inst.circuit;
    let mut nodes: Vec<_> = c.node_ids().map(|id| c.node(id)).collect();
    for (k, id) in c.component_ids().enumerate().step_by(10) {
        let lower = 0.15 + 0.05 * (k % 4) as f64;
        let upper = lower + 0.4 + 0.3 * (k % 3) as f64;
        let attrs = &mut nodes[id.index()].attrs;
        (attrs.lower_bound, attrs.upper_bound) = (lower, upper);
    }
    let names: Vec<&str> = c.node_ids().map(|id| c.name(id)).collect();
    let lists = |list: fn(&CircuitGraph, NodeId) -> &[NodeId]| {
        c.node_ids().map(|id| list(c, id).to_vec()).collect()
    };
    let circuit = CircuitGraph::from_serialized_parts(
        nodes,
        &names,
        lists(CircuitGraph::fanin),
        lists(CircuitGraph::fanout),
        *c.technology(),
        c.num_drivers(),
        c.num_components(),
    )
    .expect("the overridden graph is valid");
    assert_eq!(
        circuit.component_bounds().num_overrides(),
        c.num_components().div_ceil(10)
    );
    ProblemInstance {
        circuit,
        ..inst.clone()
    }
}

fn overridden() -> ProblemInstance {
    with_overrides(&generate(iscas85_spec("c432").unwrap()))
}

/// How many components of `sizes` sit at an overridden bound, read node
/// by node (not through the engine's per-component view).
fn at_overridden_bounds(c: &CircuitGraph, sizes: &[f64]) -> usize {
    let tech = c.technology();
    (0..c.num_components())
        .filter(|&i| {
            let (lower, upper) = c.size_bounds(c.component_id(i));
            (lower, upper) != (tech.min_size, tech.max_size)
                && (sizes[i] == lower || sizes[i] == upper)
        })
        .count()
}

#[test]
fn exact_lrs_with_overrides_is_pinned_to_the_reference() {
    let inst = overridden();
    let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).expect("coupling");
    let loose = ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    };
    let problem = SizingProblem::new(&inst.circuit, &ordering.coupling, loose).expect("problem");
    let mut multipliers = Multipliers::uniform(&inst.circuit, 0.05, 0.0);
    multipliers.beta = 0.4;
    multipliers.gamma = 0.2;

    let naive = reference::lrs_solve(&problem, &multipliers, 40, 1e-7);
    let pinned = at_overridden_bounds(&inst.circuit, naive.sizes.as_slice());
    assert!(pinned > 0, "some overridden bound must bind");
    for policy in [ParallelPolicy::threads(1), ParallelPolicy::threads(2)] {
        let mut engine = SizingEngine::for_problem(&problem);
        engine.set_parallel(policy);
        let mut sizes = inst.circuit.minimum_sizes();
        let stats = LrsSolver::new(40, 1e-7).solve_constrained(
            &mut engine,
            &ConstraintSet::new(),
            &multipliers,
            &mut sizes,
            &RunControl::new(),
        );
        assert_eq!(sizes, naive.sizes, "{policy:?}: LRS sizes");
        assert_eq!(stats.sweeps, naive.sweeps, "{policy:?}: sweeps");
        assert_eq!(stats.converged, naive.converged, "{policy:?}: converged");
    }
}

#[test]
fn ogws_with_overrides_agrees_across_threads_and_strategies() {
    let inst = overridden();
    let run = |solve_strategy, parallel| {
        let config = OptimizerConfig {
            max_iterations: 40,
            solve_strategy,
            parallel,
            ..OptimizerConfig::default()
        };
        Flow::prepare(&inst, config)
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("sizing")
    };
    let exact = run(SolveStrategy::Exact, ParallelPolicy::threads(1));
    let exact2 = run(SolveStrategy::Exact, ParallelPolicy::threads(2));
    assert_eq!(exact.sizes(), exact2.sizes(), "exact: threads 1 vs 2");
    assert_eq!(exact.report.final_metrics, exact2.report.final_metrics);
    inst.circuit
        .check_sizes(exact.sizes())
        .expect("the sizes respect every override");
    assert!(at_overridden_bounds(&inst.circuit, exact.sizes().as_slice()) > 0);

    let schedule = AdaptiveSchedule {
        freeze_tolerance: 1e-7,
        freeze_after: 2,
        verify_every: 4,
    };
    let adaptive = run(
        SolveStrategy::Adaptive(schedule),
        ParallelPolicy::threads(2),
    );
    assert!(
        exact.report.feasible,
        "the comparison needs a feasible exact run"
    );
    assert_eq!(adaptive.report.feasible, exact.report.feasible);
    let (e, a) = (&exact.report.final_metrics, &adaptive.report.final_metrics);
    for (name, av, ev) in [
        ("area", a.area_um2, e.area_um2),
        ("noise", a.noise_pf, e.noise_pf),
        ("power", a.power_mw, e.power_mw),
        ("delay", a.delay_ps, e.delay_ps),
    ] {
        let rel = (av - ev).abs() / ev.abs().max(1e-12);
        assert!(rel <= 1e-6, "{name}: adaptive {av} vs exact {ev}");
    }
}
