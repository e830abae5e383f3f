//! Facade-level contract tests for checkpointing, resume, and the serving
//! layer:
//!
//! * **kill/resume equivalence** (property tests): a run killed at an
//!   arbitrary iteration and resumed from its on-interrupt snapshot must
//!   reproduce the uninterrupted run — bitwise under the default exact
//!   strategy, to 1e-6 under the adaptive strategy, and bitwise for
//!   iteration-0 snapshots under both;
//! * **serde round trips**: every [`StopReason`] variant and the full
//!   [`Snapshot`] survive JSON serialization (the snapshot mutation and
//!   truncation property lives in `untrusted_input.rs`), and a c432
//!   snapshot persisted by an earlier build still decodes, re-encodes byte
//!   for byte and resumes bitwise;
//! * **memory accounting**: `Server::memory_bytes` covers queued specs and
//!   retained snapshots;
//! * **fault injection**: a server fed budget-killed and cancelled jobs
//!   drains with every job accounted for.

use ncgws::core::{OptimizerConfig, RunControl, Start, StopReason};
use ncgws::netlist::{iscas85_spec, CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws::{
    CheckpointPolicy, Flow, JobInput, JobSpec, Server, ServerConfig, Snapshot, SnapshotStore,
};
use proptest::prelude::*;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("ckpt-{seed}"), gates, gates * 2 + 10)
            .with_seed(seed)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds")
}

fn quick_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .build()
        .expect("valid configuration")
}

fn adaptive_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .adaptive_schedule()
        .build()
        .expect("valid configuration")
}

/// Runs cold, kills a second run after `k` iterations (capturing the
/// on-interrupt snapshot), resumes from the snapshot (after a JSON round
/// trip), and returns `(cold, snapshot, resumed)`.
fn kill_and_resume(
    inst: &ProblemInstance,
    config: &OptimizerConfig,
    k: usize,
) -> (
    ncgws::core::flow::SizedOutcome,
    Snapshot,
    ncgws::core::flow::SizedOutcome,
) {
    let cold = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("cold run");

    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(k)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    let ordered = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order");
    let killed = ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .expect("killed run");
    assert_eq!(killed.report.stop_reason, StopReason::BudgetExhausted);

    let snapshot = store.take().expect("on-interrupt snapshot captured");
    assert_eq!(snapshot.iterations_done, k);

    // The snapshot must survive its own JSON form exactly.
    let snapshot = Snapshot::from_json(&snapshot.to_json()).expect("snapshot JSON parses");

    let ordered = Flow::prepare(inst, config.clone())
        .expect("prepare")
        .order()
        .expect("order");
    let resumed = ordered
        .size_with_engine(
            &mut ordered.engine(),
            Some(Start::Resume(&snapshot)),
            &RunControl::new(),
        )
        .expect("resumed run");
    (cold, snapshot, resumed)
}

fn relative_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Exact strategy: resume is bitwise — same sizes, same metrics, and
    /// not a single completed iteration is redone. `k` sweeps the whole
    /// range of kill points including 0 (the pre-first-iteration
    /// snapshot).
    #[test]
    fn kill_resume_is_bitwise_under_exact(seed in 0u64..300, gates in 15usize..45, kill in 0usize..64) {
        let inst = instance(seed, gates);
        let config = quick_config();
        let probe = Flow::prepare(&inst, config.clone())
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("probe run");
        if probe.report.iterations < 1 {
            return;
        }
        let k = kill % probe.report.iterations;

        let (cold, snapshot, resumed) = kill_and_resume(&inst, &config, k);
        prop_assert_eq!(resumed.sizes(), cold.sizes());
        prop_assert_eq!(&resumed.report.final_metrics, &cold.report.final_metrics);
        prop_assert_eq!(resumed.report.stop_reason, cold.report.stop_reason);
        prop_assert_eq!(resumed.report.feasible, cold.report.feasible);
        prop_assert_eq!(
            snapshot.iterations_done + resumed.report.iterations,
            cold.report.iterations,
            "resume must redo no completed iterations"
        );
    }

    /// Adaptive strategy: the restored schedule state re-derives its
    /// warm-start decisions, so resume matches to 1e-6 rather than
    /// bitwise.
    #[test]
    fn kill_resume_matches_adaptive_to_1e6(seed in 0u64..300, gates in 15usize..45, kill in 1usize..64) {
        let inst = instance(seed, gates);
        let config = adaptive_config();
        let probe = Flow::prepare(&inst, config.clone())
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("probe run");
        if probe.report.iterations < 2 {
            return;
        }
        let k = 1 + kill % (probe.report.iterations - 1);

        let (cold, _snapshot, resumed) = kill_and_resume(&inst, &config, k);
        let cold_metrics = &cold.report.final_metrics;
        let warm_metrics = &resumed.report.final_metrics;
        prop_assert!(relative_close(warm_metrics.area_um2, cold_metrics.area_um2));
        prop_assert!(relative_close(warm_metrics.delay_ps, cold_metrics.delay_ps));
        prop_assert!(relative_close(warm_metrics.noise_pf, cold_metrics.noise_pf));
        for (a, b) in resumed.sizes().iter().zip(cold.sizes()) {
            prop_assert!(relative_close(*a, *b), "size diverged: {} vs {}", a, b);
        }
    }
}

/// An iteration-0 snapshot (killed before the first iteration completed)
/// resumes bitwise under *both* strategies: nothing has happened yet, so
/// the resumed run IS the cold run.
#[test]
fn iteration_zero_snapshot_resumes_bitwise_under_both_strategies() {
    let inst = instance(42, 24);
    for config in [quick_config(), adaptive_config()] {
        let (cold, snapshot, resumed) = kill_and_resume(&inst, &config, 0);
        assert_eq!(snapshot.iterations_done, 0);
        assert_eq!(resumed.sizes(), cold.sizes());
        assert_eq!(resumed.report.final_metrics, cold.report.final_metrics);
        assert_eq!(resumed.report.iterations, cold.report.iterations);
    }
}

/// A c432 snapshot of iteration 6 (exact strategy, 40 iterations, 20 LRS
/// sweeps), persisted by a build whose multipliers held a copy of the
/// graph's fanin offsets: it decodes, re-encodes to the same bytes, is the
/// snapshot this build takes at that iteration, and resumes to the
/// uninterrupted run bit for bit.
#[test]
fn a_persisted_c432_snapshot_reencodes_and_resumes_bitwise() {
    const JSON: &str = include_str!("fixtures/c432_iteration6_snapshot.json");
    let snapshot = Snapshot::from_json(JSON).expect("the persisted snapshot decodes");
    assert_eq!(snapshot.iterations_done, 6);
    assert_eq!(snapshot.to_json(), JSON);

    let inst = SyntheticGenerator::new(iscas85_spec("c432").unwrap())
        .generate()
        .unwrap();
    let config = OptimizerConfig::builder()
        .max_iterations(40)
        .max_lrs_sweeps(20)
        .build()
        .unwrap();
    let ordered = Flow::prepare(&inst, config).unwrap().order().unwrap();
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(6)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .unwrap();
    assert_eq!(store.take().unwrap().to_json(), JSON);

    let cold = ordered.size().unwrap();
    let resumed = ordered
        .size_with_engine(
            &mut ordered.engine(),
            Some(Start::Resume(&snapshot)),
            &RunControl::new(),
        )
        .unwrap();
    let bits = |sizes: &[f64]| sizes.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(resumed.sizes().as_slice()),
        bits(cold.sizes().as_slice())
    );
    assert_eq!(resumed.report.final_metrics, cold.report.final_metrics);
    assert_eq!(resumed.report.stop_reason, cold.report.stop_reason);
    assert_eq!(6 + resumed.report.iterations, cold.report.iterations);
    assert_eq!(
        resumed.ogws.best_gap.to_bits(),
        cold.ogws.best_gap.to_bits()
    );
    assert_eq!(
        (resumed.ogws.beta.to_bits(), resumed.ogws.gamma.to_bits()),
        (cold.ogws.beta.to_bits(), cold.ogws.gamma.to_bits())
    );
}

/// Every `StopReason` variant serializes to its name and decodes back;
/// other names and payload shapes are rejected.
#[test]
fn stop_reason_serde_round_trips_every_variant() {
    let variants = [
        (StopReason::Converged, "Converged"),
        (StopReason::Stagnated, "Stagnated"),
        (StopReason::IterationLimit, "IterationLimit"),
        (StopReason::BudgetExhausted, "BudgetExhausted"),
        (StopReason::Cancelled, "Cancelled"),
        (StopReason::DeadlineExpired, "DeadlineExpired"),
    ];
    for (reason, name) in variants {
        let encoded = serde_json::to_string(&reason).expect("serializes");
        assert_eq!(encoded, format!("\"{name}\""));
        let decoded: StopReason = serde_json::from_str(&encoded).expect("decodes");
        assert_eq!(decoded, reason);
    }
    for bad in ["\"Done\"", "{\"Converged\":null}", "true", "null"] {
        assert!(serde_json::from_str::<StopReason>(bad).is_err(), "{bad}");
    }
}

/// The snapshot's JSON form is a faithful round trip (field-for-field
/// equality via `PartialEq`), rejects garbage, and reports a plausible
/// memory footprint.
#[test]
fn snapshot_json_round_trip_is_exact() {
    let inst = instance(7, 20);
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(3)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    let ordered = Flow::prepare(&inst, quick_config())
        .expect("prepare")
        .order()
        .expect("order");
    ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .expect("killed run");
    let snapshot = store.take().expect("snapshot captured");

    let round_tripped = Snapshot::from_json(&snapshot.to_json()).expect("parses");
    assert_eq!(round_tripped, snapshot);
    assert!(snapshot.memory_bytes() >= snapshot.sizes.len() * std::mem::size_of::<f64>());
    assert!(Snapshot::from_json("{not json").is_err());
    assert!(Snapshot::from_json("[1,2,3]").is_err());
}

/// `Server::memory_bytes` is exactly the queue + snapshot gauges, and the
/// snapshot gauge covers a retained checkpoint.
#[test]
fn server_memory_accounting_covers_queue_and_snapshots() {
    let spec = CircuitSpec::new("mem", 20, 45)
        .with_seed(9)
        .with_num_patterns(16);
    let job = JobSpec::new(JobInput::Synthetic(spec), quick_config()).with_iteration_budget(2);
    assert!(job.memory_bytes() > 0);

    let server = Server::start(ServerConfig {
        workers: 1,
        max_attempts: 64,
        ..ServerConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push(server.submit(job.clone()).expect("queue accepts"));
    }
    for id in &ids {
        server.wait(*id).expect("job resolves");
    }
    let stats = server.stats();
    assert!(
        stats.snapshot_bytes > 0,
        "budget kills must retain snapshots"
    );
    assert_eq!(
        server.memory_bytes(),
        stats.queue_bytes + stats.snapshot_bytes
    );
    let snapshot = server.snapshot_of(ids[0]).expect("retained checkpoint");
    assert!(stats.snapshot_bytes >= snapshot.memory_bytes());
    server.drain();
}

/// Fault injection through the facade: budget-killed, deadline-killed and
/// cancelled jobs all drain with zero lost jobs, and a resumed completion
/// matches a cold run bitwise (exact strategy).
#[test]
fn server_fault_injection_drains_with_zero_lost_jobs() {
    let config = quick_config();
    let server = Server::start(ServerConfig {
        workers: 2,
        checkpoint_every: Some(4),
        max_attempts: 64,
        ..ServerConfig::default()
    });

    let mut ids = Vec::new();
    for i in 0..12u64 {
        let spec = CircuitSpec::new(format!("fault-{i}"), 18 + (i as usize % 5), 50)
            .with_seed(100 + i)
            .with_num_patterns(16);
        let mut job = JobSpec::new(JobInput::Synthetic(spec), config.clone())
            .with_tenant(format!("t{}", i % 3));
        if i % 2 == 0 {
            job = job.with_iteration_budget(3);
        }
        if i % 5 == 4 {
            job = job.with_attempt_timeout_ms(10);
        }
        ids.push(server.submit(job).expect("queue accepts"));
    }
    // Cancel two immediately; the rest must still resolve. (No assert on
    // the return value: a fast worker may already have finished them.)
    server.cancel(ids[1]);
    server.cancel(ids[7]);

    let mut resumed_completed = None;
    for (i, id) in ids.iter().enumerate() {
        let outcome = server.wait(*id).expect("job resolves");
        if !outcome.stop_reason.is_interrupted() && outcome.resumed_attempts > 0 {
            resumed_completed.get_or_insert((i as u64, outcome));
        }
    }
    let stats = server.drain();
    assert_eq!(
        stats.completed + stats.cancelled + stats.failed,
        stats.submitted,
        "every job is accounted for"
    );
    assert_eq!(stats.failed, 0, "the attempt cap must never be reached");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(
        stats.requeued > 0,
        "budget jobs must be killed and requeued"
    );

    let (i, outcome) = resumed_completed.expect("some budget job completed after resuming");
    let inst = SyntheticGenerator::new(
        CircuitSpec::new(format!("fault-{i}"), 18 + (i as usize % 5), 50)
            .with_seed(100 + i)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds");
    let cold = Flow::prepare(&inst, config)
        .expect("prepare")
        .order()
        .expect("order")
        .size()
        .expect("cold");
    assert_eq!(outcome.iterations, cold.report.iterations);
    assert_eq!(
        outcome.final_metrics.expect("completed jobs carry metrics"),
        cold.report.final_metrics
    );
}
