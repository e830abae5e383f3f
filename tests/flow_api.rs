//! Integration tests of the staged `Flow` API: bitwise reproducibility of
//! fresh cold flows, the order phase's initial metrics and bounds, warm
//! starts, run control (observers, cancellation, iteration budgets,
//! deadlines), and the typed rejection of starts that do not fit the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ncgws::circuit::SizeVector;
use ncgws::core::{
    CancelFlag, CheckpointPolicy, CircuitMetrics, CollectObserver, ConstraintBounds, CoreError,
    IterationEvent, Observer, OptimizerConfig, Ordered, RunControl, SizedOutcome, SnapshotStore,
    Start, StopReason,
};
use ncgws::netlist::{iscas85_spec, CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws::Flow;
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("flow-{seed}"), gates, gates * 2 + 10)
            .with_seed(seed)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds")
}

fn quick_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(40)
        .max_lrs_sweeps(20)
        .build()
        .expect("valid configuration")
}

/// One fresh cold flow: prepare, order and size from nothing.
fn cold_flow(inst: &ProblemInstance) -> SizedOutcome {
    Flow::prepare(inst, quick_config())
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("size")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Two fresh cold flows on one instance must be the same computation,
    /// bit for bit, on random instances: nothing carries over from one
    /// prepare/order/size pipeline to the next.
    #[test]
    fn two_fresh_cold_flows_are_bitwise_identical(seed in 0u64..400, gates in 15usize..50) {
        let inst = instance(seed, gates);
        let first = cold_flow(&inst);
        let second = cold_flow(&inst);

        // Sizes and every numeric report field must match exactly (the
        // wall-clock fields are measurements and are excluded).
        prop_assert_eq!(second.sizes(), first.sizes());
        prop_assert_eq!(&second.report.initial_metrics, &first.report.initial_metrics);
        prop_assert_eq!(&second.report.final_metrics, &first.report.final_metrics);
        prop_assert_eq!(&second.report.improvements, &first.report.improvements);
        prop_assert_eq!(second.report.iterations, first.report.iterations);
        prop_assert_eq!(second.report.feasible, first.report.feasible);
        prop_assert_eq!(second.report.converged, first.report.converged);
        prop_assert_eq!(second.report.stop_reason, first.report.stop_reason);
        prop_assert_eq!(second.report.duality_gap, first.report.duality_gap);
        prop_assert_eq!(&second.report.constraint_slacks, &first.report.constraint_slacks);
        prop_assert!(second.report.constraint_slacks.is_empty(), "no extra families configured");
        prop_assert_eq!(&second.report.memory, &first.report.memory);
        prop_assert_eq!(
            second.report.ordering_effective_loading,
            first.report.ordering_effective_loading
        );
        prop_assert_eq!(
            second.report.iteration_records.len(),
            first.report.iteration_records.len()
        );
        for (a, b) in second
            .report
            .iteration_records
            .iter()
            .zip(&first.report.iteration_records)
        {
            prop_assert_eq!(a.primal_area, b.primal_area);
            prop_assert_eq!(a.dual_value, b.dual_value);
            prop_assert_eq!(a.gap, b.gap);
            prop_assert_eq!(a.lrs_sweeps, b.lrs_sweeps);
        }
    }

    /// Warm-starting from a cold run's solution converges in at most the
    /// cold iteration count: the feasible seed is an immediate primal upper
    /// bound while the dual trajectory is unchanged, so the gap at every
    /// iteration is no larger than the cold run's.
    #[test]
    fn warm_start_converges_no_slower_than_cold(seed in 0u64..300, gates in 15usize..40) {
        let inst = instance(seed, gates);
        let ordered = Flow::prepare(&inst, quick_config())
            .expect("prepare")
            .order()
            .expect("order");
        let cold = ordered.size().expect("cold run");
        let start = Some(Start::Warm(cold.sizes()));
        let warm = ordered
            .size_with_engine(&mut ordered.engine(), start, &RunControl::new())
            .expect("warm run");
        prop_assert!(
            warm.report.iterations <= cold.report.iterations,
            "warm {} vs cold {}",
            warm.report.iterations,
            cold.report.iterations
        );
        if cold.report.feasible {
            prop_assert!(warm.report.feasible);
            // The warm run can only keep or improve the cold area.
            prop_assert!(
                warm.report.final_metrics.area_um2
                    <= cold.report.final_metrics.area_um2 * (1.0 + 1e-9)
            );
        }
    }
}

/// An observer that cancels the shared flag once it has seen `after` events.
struct CancelAfter {
    flag: CancelFlag,
    after: usize,
    seen: AtomicUsize,
}

impl Observer for CancelAfter {
    fn on_iteration(&self, _event: &IterationEvent<'_>) {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.after {
            self.flag.cancel();
        }
    }
}

#[test]
fn cancellation_after_k_iterations_yields_exactly_k_events() {
    let inst = instance(77, 40);
    let ordered = Flow::prepare(&inst, quick_config())
        .unwrap()
        .order()
        .unwrap();
    // The uncontrolled run must need more than k iterations for the
    // cancellation to be what stops the run.
    let k = 3;
    let cold = ordered.size().unwrap();
    assert!(cold.report.iterations > k, "instance converges too fast");

    let flag = CancelFlag::new();
    let observer = CancelAfter {
        flag: flag.clone(),
        after: k,
        seen: AtomicUsize::new(0),
    };
    let control = RunControl::new()
        .with_observer(&observer)
        .with_cancel_flag(flag);
    let sized = ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .unwrap();

    assert_eq!(sized.stop_reason(), StopReason::Cancelled);
    assert_eq!(sized.report.stop_reason, StopReason::Cancelled);
    assert_eq!(
        observer.seen.load(Ordering::SeqCst),
        k,
        "exactly k observer events"
    );
    assert_eq!(sized.report.iterations, k);
    assert_eq!(sized.ogws.num_iterations(), k);
}

#[test]
fn iteration_budget_stops_within_one_iteration() {
    let inst = instance(5, 35);
    let ordered = Flow::prepare(&inst, quick_config())
        .unwrap()
        .order()
        .unwrap();
    let cold = ordered.size().unwrap();
    let budget = 4;
    assert!(
        cold.report.iterations > budget,
        "instance converges too fast"
    );

    let collector = CollectObserver::new();
    let control = RunControl::new()
        .with_observer(&collector)
        .with_iteration_budget(budget);
    let sized = ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .unwrap();
    assert_eq!(sized.report.iterations, budget);
    assert_eq!(sized.stop_reason(), StopReason::BudgetExhausted);
    assert_eq!(collector.count(), budget);
    // The budgeted prefix is the same trajectory as the cold run's.
    let budgeted: Vec<f64> = sized
        .report
        .iteration_records
        .iter()
        .map(|r| r.gap)
        .collect();
    let cold_prefix: Vec<f64> = cold.report.iteration_records[..budget]
        .iter()
        .map(|r| r.gap)
        .collect();
    assert_eq!(budgeted, cold_prefix);
}

#[test]
fn expired_deadline_stops_before_the_first_iteration() {
    let inst = instance(9, 30);
    let ordered = Flow::prepare(&inst, quick_config())
        .unwrap()
        .order()
        .unwrap();
    let control = RunControl::new().with_deadline(Instant::now() - Duration::from_millis(1));
    let sized = ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .unwrap();
    assert_eq!(sized.report.iterations, 0);
    assert_eq!(sized.stop_reason(), StopReason::DeadlineExpired);
    assert!(!sized.report.feasible);
    // The report is still fully formed and serializable.
    let json = serde_json::to_string(&sized.report).expect("report serializes");
    assert!(json.contains("DeadlineExpired"));
}

#[test]
fn stop_reason_serializes_into_report_json() {
    let inst = instance(42, 25);
    let json = serde_json::to_string(&cold_flow(&inst).report).unwrap();
    assert!(json.contains("stop_reason"));
    // A quick run either converges, stagnates, or exhausts its iterations.
    assert!(
        json.contains("Converged") || json.contains("Stagnated") || json.contains("IterationLimit"),
        "{json}"
    );
}

/// The bit patterns of every field of `m`.
fn metric_bits(m: &CircuitMetrics) -> [u64; 7] {
    [
        m.noise_pf,
        m.delay_ps,
        m.power_mw,
        m.area_um2,
        m.crosstalk_ff,
        m.delay_internal,
        m.total_capacitance_ff,
    ]
    .map(f64::to_bits)
}

/// The order phase evaluates the initial sizing once, without a sizing
/// engine. Its metrics are bitwise what an engine gives at the same sizes,
/// and its bounds and lowered extra families are the same in a second flow,
/// for every input the derivation reads: the default configuration, a
/// uniform initial size, the effective-coupling model, absolute bounds, and
/// per-net caps lowered from the initial sizes, on c432 and a generated
/// instance.
#[test]
fn initial_metrics_and_bounds_match_an_engine_evaluation() {
    let configs = [
        ("default", OptimizerConfig::builder()),
        ("initial size", OptimizerConfig::builder().initial_size(2.5)),
        (
            "effective coupling",
            OptimizerConfig::builder().effective_coupling(true),
        ),
        (
            "absolute bounds",
            OptimizerConfig::builder().absolute_bounds(ConstraintBounds {
                delay: 4.0e5,
                total_capacitance: 3.0e4,
                crosstalk: 50.0,
            }),
        ),
        (
            "per-net caps",
            OptimizerConfig::builder().per_net_crosstalk_cap(0.9),
        ),
    ];
    let c432 = SyntheticGenerator::new(iscas85_spec("c432").unwrap())
        .generate()
        .unwrap();
    for inst in [c432, instance(5, 40)] {
        let graph = &inst.circuit;
        for (label, builder) in configs.clone() {
            let config = builder.build().unwrap();
            let ordered = Flow::prepare(&inst, config.clone())
                .unwrap()
                .order()
                .unwrap();
            let engine_metrics = ordered.engine().metrics(&config.initial_sizes(graph));
            assert_eq!(
                metric_bits(ordered.initial_metrics()),
                metric_bits(&engine_metrics),
                "{}, {label}",
                inst.name
            );

            let again = Flow::prepare(&inst, config).unwrap().order().unwrap();
            let bounds = |o: &Ordered<'_>| {
                let b = o.bounds();
                [b.delay, b.total_capacitance, b.crosstalk].map(f64::to_bits)
            };
            assert_eq!(bounds(&again), bounds(&ordered), "{}, {label}", inst.name);
            assert_eq!(
                format!("{:?}", again.extra_constraints()),
                format!("{:?}", ordered.extra_constraints()),
                "{}, {label}",
                inst.name
            );
            assert_eq!(
                ordered.extra_constraints().num_families() > 0,
                label == "per-net caps",
                "{}, {label}",
                inst.name
            );
        }
    }
}

/// Every start that does not fit the run is a typed error from the one
/// start-up check of `size_with_engine`, never a panic: a warm vector of
/// the wrong length, a snapshot of another circuit, and a snapshot taken
/// under other constraint families than the run's.
#[test]
fn starts_that_do_not_fit_are_typed_errors() {
    let inst = instance(11, 20);
    let ordered = Flow::prepare(&inst, quick_config())
        .unwrap()
        .order()
        .unwrap();
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(2)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .unwrap();
    let snapshot = store.take().expect("an interrupted run checkpoints");

    let other = instance(11, 30);
    let other_circuit = Flow::prepare(&other, quick_config())
        .unwrap()
        .order()
        .unwrap();
    let capped_config = OptimizerConfig::builder()
        .max_iterations(40)
        .max_lrs_sweeps(20)
        .per_net_crosstalk_cap(1.0)
        .build()
        .unwrap();
    let capped = Flow::prepare(&inst, capped_config)
        .unwrap()
        .order()
        .unwrap();
    assert!(capped.extra_constraints().num_families() > 0);

    let short = SizeVector::uniform(3, 1.0);
    let cases = [
        (
            "short warm vector",
            &ordered,
            Start::Warm(&short),
            "warm_start",
        ),
        (
            "snapshot of another circuit",
            &other_circuit,
            Start::Resume(&snapshot),
            "snapshot",
        ),
        (
            "snapshot under other families",
            &capped,
            Start::Resume(&snapshot),
            "snapshot",
        ),
    ];
    for (label, ordered, start, expected) in cases {
        match ordered.size_with_engine(&mut ordered.engine(), Some(start), &RunControl::new()) {
            Err(CoreError::InvalidConfig { name, reason }) => {
                assert_eq!(name, expected, "{label}: {reason}");
            }
            result => panic!("{label}: expected a typed error, got {result:?}"),
        }
    }
}
