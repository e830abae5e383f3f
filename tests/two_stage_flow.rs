//! End-to-end integration tests of the two-stage flow across all workspace
//! crates: netlist generation → logic simulation / similarity → WOSS wire
//! ordering → coupling model → Lagrangian-relaxation sizing → reporting.

use ncgws::circuit::{total_area, total_capacitance, TimingAnalysis};
use ncgws::core::baseline::lr_delay_area;
use ncgws::core::{
    build_coupling, kkt, Flow, Multipliers, OptimizerConfig, OrderingStrategy, SizedOutcome,
    SizingProblem,
};
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};

fn instance(gates: usize, wires: usize, seed: u64) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("it-{gates}-{seed}"), gates, wires)
            .with_seed(seed)
            .with_num_patterns(48),
    )
    .generate()
    .expect("generation succeeds")
}

fn quick_config() -> OptimizerConfig {
    OptimizerConfig {
        max_iterations: 60,
        ..OptimizerConfig::default()
    }
}

/// The full two-stage flow, cold.
fn run(inst: &ProblemInstance, config: OptimizerConfig) -> SizedOutcome {
    Flow::prepare(inst, config)
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("optimization succeeds")
}

#[test]
fn constraints_hold_on_the_returned_sizing() {
    let inst = instance(120, 260, 1);
    let ordered = Flow::prepare(&inst, quick_config())
        .expect("prepare")
        .order()
        .expect("order");
    let outcome = ordered.size().expect("optimization succeeds");
    assert!(outcome.report.feasible);

    // Re-derive every constraint independently from the returned sizes.
    let graph = &inst.circuit;
    let coupling = &ordered.ordering().coupling;
    let sizes = outcome.sizes();
    let initial = quick_config().initial_sizes(graph);

    let extra = coupling.delay_load_per_node(graph, sizes);
    let timing = TimingAnalysis::run(graph, sizes, Some(&extra));
    let extra0 = coupling.delay_load_per_node(graph, &initial);
    let initial_delay = TimingAnalysis::run(graph, &initial, Some(&extra0)).critical_path_delay;
    assert!(
        timing.critical_path_delay <= initial_delay * 1.002,
        "delay bound (1.0x initial) violated: {} vs {}",
        timing.critical_path_delay,
        initial_delay
    );

    let cap = total_capacitance(graph, sizes);
    let initial_cap = total_capacitance(graph, &initial);
    assert!(
        cap <= initial_cap * 0.13 * 1.002 + 1e-9,
        "power bound violated"
    );

    // Area must improve dramatically relative to the max-size start.
    assert!(total_area(graph, sizes) < total_area(graph, &initial) * 0.2);

    // Sizes stay inside their bounds.
    assert!(graph.check_sizes(sizes).is_ok());
}

#[test]
fn noise_constraint_is_enforced_relative_to_initial_coupling() {
    let inst = instance(100, 220, 2);
    let config = quick_config();
    let outcome = run(&inst, config);
    let r = &outcome.report;
    // The bound is 11.5% of the initial exact coupling, clamped to what the
    // layout's irreducible fringing allows; either way the final noise must be
    // well below the initial noise.
    assert!(r.final_metrics.noise_pf <= r.initial_metrics.noise_pf * 0.35);
    assert!(r.improvements.noise_pct >= 65.0);
}

#[test]
fn woss_ordering_is_used_and_beats_identity_loading() {
    let inst = instance(80, 180, 3);
    let woss = build_coupling(&inst, OrderingStrategy::Woss, false).expect("woss coupling");
    let identity =
        build_coupling(&inst, OrderingStrategy::Identity, false).expect("identity coupling");
    assert!(woss.total_effective_loading <= identity.total_effective_loading + 1e-9);
    // Both produce one coupling pair per adjacent track.
    assert_eq!(woss.coupling.len(), identity.coupling.len());
}

#[test]
fn optimizer_beats_noise_oblivious_baseline_on_noise() {
    let inst = instance(90, 200, 4);
    let config = quick_config();
    let full = run(&inst, config.clone());
    let baseline = lr_delay_area(&inst, &config).expect("baseline run");
    assert!(full.report.final_metrics.noise_pf <= baseline.metrics.noise_pf + 1e-9);
}

#[test]
fn kkt_residuals_are_reasonable_at_the_returned_solution() {
    let inst = instance(60, 130, 5);
    let ordered = Flow::prepare(&inst, quick_config())
        .expect("prepare")
        .order()
        .expect("order");
    let outcome = ordered.size().expect("run succeeds");
    let coupling = &ordered.ordering().coupling;

    // Rebuild the problem the optimizer solved and check primal feasibility
    // through the KKT helper (multipliers themselves are internal, so only
    // the primal-side residuals are asserted tightly here).
    let problem = SizingProblem::new(&inst.circuit, coupling, ordered.bounds()).expect("problem");
    let multipliers = Multipliers::uniform(&inst.circuit, 0.0, 0.0);
    let residuals = kkt::kkt_residuals(&problem, outcome.sizes(), &multipliers);
    assert!(residuals.primal_feasibility <= 2e-3, "{residuals:?}");
    assert_eq!(residuals.negativity, 0.0);
}

#[test]
fn reports_are_serializable_and_reproducible() {
    let inst = instance(50, 110, 6);
    let a = run(&inst, quick_config());
    let b = run(&inst, quick_config());
    assert_eq!(a.sizes(), b.sizes());
    assert_eq!(a.report.final_metrics, b.report.final_metrics);
    let json = serde_json::to_string(&a.report).expect("report serializes");
    assert!(json.contains("final_metrics"));
}

#[test]
fn effective_coupling_mode_runs_and_respects_bounds() {
    let inst = instance(70, 150, 7);
    let config = OptimizerConfig {
        effective_coupling: true,
        ..quick_config()
    };
    let outcome = run(&inst, config);
    assert!(outcome.report.feasible);
    assert!(outcome.report.final_metrics.noise_pf < outcome.report.initial_metrics.noise_pf);
}

#[test]
fn ordering_strategies_plug_into_the_full_flow() {
    let inst = instance(60, 130, 8);
    for strategy in [
        OrderingStrategy::Woss,
        OrderingStrategy::Identity,
        OrderingStrategy::Random { seed: 1 },
        OrderingStrategy::BestStartNearestNeighbor,
    ] {
        let config = OptimizerConfig {
            ordering: strategy,
            max_iterations: 30,
            ..quick_config()
        };
        let outcome = run(&inst, config);
        assert!(outcome.report.final_metrics.area_um2 > 0.0, "{strategy:?}");
    }
}
