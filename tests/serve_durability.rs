//! Facade-level contract tests for the durability layer:
//!
//! * **disk snapshot store**: atomic checksummed round trips, the
//!   memory-budget spill/reload policy and its gauges;
//! * **corruption handling**: a corrupted current generation falls back to
//!   the previous good one; when every generation is bad the load is a
//!   typed error, never a panic or a silently-wrong snapshot;
//! * **fault injection**: seeded I/O-error and torn-write faults are
//!   detected by the checksum path; injected worker panics are isolated
//!   and retried under the job's [`RetryPolicy`];
//! * **crash-restart recovery**: a durable server dropped mid-churn (or a
//!   hand-crafted hard-crash journal) recovers with zero lost jobs, and
//!   recovered results match a cold run — bitwise under the exact
//!   strategy, to 1e-6 under the adaptive strategy (property test).

use std::path::PathBuf;
use std::sync::Arc;

use ncgws::core::OptimizerConfig;
use ncgws::netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws::{
    CheckpointPolicy, DiskSnapshotStore, DurableOptions, FaultPlan, Flow, JobId, JobInput, JobSpec,
    JobState, Journal, RetryPolicy, RunControl, Server, ServerConfig, Snapshot, SnapshotStore,
    StoreConfig, StoreError, WriteFault,
};
use proptest::prelude::*;

/// A unique, empty scratch directory per test (process-id qualified so
/// parallel test binaries never collide).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ncgws-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("durable-{seed}"), gates, gates * 2 + 10)
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

fn job(seed: u64, config: OptimizerConfig) -> JobSpec {
    let spec = CircuitSpec::new(format!("durable-{seed}"), 20, 45)
        .with_seed(seed)
        .with_num_patterns(16);
    JobSpec::new(JobInput::Synthetic(spec), config)
}

/// A real mid-run snapshot: kill a run after `k` iterations and take the
/// on-interrupt checkpoint.
fn mid_run_snapshot(seed: u64, k: usize) -> Snapshot {
    let inst = instance(seed, 20);
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(k)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    let ordered = Flow::prepare(&inst, quick_config())
        .expect("prepare")
        .order()
        .expect("order");
    ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .expect("killed run");
    store.take().expect("on-interrupt snapshot captured")
}

fn relative_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn disk_store_round_trips_and_spills_under_budget() {
    let dir = scratch_dir("spill");
    let snapshot = mid_run_snapshot(11, 3);
    let bytes = snapshot.memory_bytes();

    // Budget below two snapshots: saving three must evict cold entries.
    let store = DiskSnapshotStore::open(
        &dir,
        StoreConfig {
            memory_budget_bytes: Some(bytes + bytes / 2),
        },
    )
    .expect("store opens");
    for id in 1..=3u64 {
        store.save(id, &snapshot).expect("save succeeds");
    }
    let stats = store.stats();
    assert!(stats.spills >= 2, "expected evictions, got {stats:?}");
    assert!(stats.resident_bytes <= (bytes + bytes / 2) as u64);
    assert!(stats.spilled_bytes > 0, "spilled files must be gauged");

    // A spilled snapshot reloads from disk, bit-identical.
    assert!(!store.is_resident(1));
    let reloaded = store
        .load(1)
        .expect("load succeeds")
        .expect("snapshot exists");
    assert_eq!(reloaded.to_json(), snapshot.to_json());
    assert!(store.stats().reloads >= 1);

    // A fresh store (fresh process) reads everything back from disk.
    let fresh = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("store reopens");
    for id in 1..=3u64 {
        let from_disk = fresh.load(id).expect("load").expect("exists");
        assert_eq!(from_disk.to_json(), snapshot.to_json());
    }
    assert_eq!(fresh.load(99).expect("clean miss"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_current_generation_falls_back_to_previous() {
    let dir = scratch_dir("corrupt");
    let old = mid_run_snapshot(12, 2);
    let new = mid_run_snapshot(12, 4);

    let store = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("store opens");
    store.save(7, &old).expect("first generation");
    store.save(7, &new).expect("second generation");
    drop(store);

    // Flip a payload byte of the current generation: checksum must catch it
    // and the load must fall back to the previous generation.
    let current = dir.join("snap-7.json");
    let mut bytes = std::fs::read(&current).expect("read current");
    let last = bytes.len() - 2;
    bytes[last] ^= 0x20;
    std::fs::write(&current, &bytes).expect("corrupt current");

    let store = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("store reopens");
    let recovered = store
        .load(7)
        .expect("fallback load succeeds")
        .expect("previous generation exists");
    assert_eq!(recovered.to_json(), old.to_json());
    assert_eq!(store.stats().corrupt_recovered, 1);

    // Corrupt the previous generation too: now the load is a typed error —
    // detected, not a panic and not a silently-wrong snapshot.
    let prev = dir.join("snap-7.json.prev");
    let mut bytes = std::fs::read(&prev).expect("read prev");
    bytes.truncate(bytes.len() / 2);
    std::fs::write(&prev, &bytes).expect("truncate prev");
    let fresh = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("store reopens");
    match fresh.load(7) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_write_faults_are_detected_by_the_checksum_path() {
    let snapshot = mid_run_snapshot(13, 2);

    // Certain I/O error: the save fails, nothing lands on disk.
    let dir = scratch_dir("io-fault");
    let plan = Arc::new(FaultPlan::new(3).with_io_errors(1.0));
    assert_eq!(plan.write_fault(1, 0), Some(WriteFault::IoError));
    let store = DiskSnapshotStore::open(&dir, StoreConfig::default())
        .expect("store opens")
        .with_faults(Some(Arc::clone(&plan)));
    assert!(store.save(1, &snapshot).is_err());
    assert_eq!(store.stats().write_errors, 1);
    let fresh = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("reopen");
    assert_eq!(fresh.load(1).expect("clean miss"), None);
    let _ = std::fs::remove_dir_all(&dir);

    // Certain torn write: the save "succeeds" (as a crash mid-write would
    // look), but a fresh process detects the damage on load.
    let dir = scratch_dir("torn-fault");
    let plan = Arc::new(FaultPlan::new(3).with_torn_writes(1.0));
    let store = DiskSnapshotStore::open(&dir, StoreConfig::default())
        .expect("store opens")
        .with_faults(Some(plan));
    store.save(1, &snapshot).expect("torn write looks fine");
    let fresh = DiskSnapshotStore::open(&dir, StoreConfig::default()).expect("reopen");
    match fresh.load(1) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_tolerates_a_torn_final_line_only() {
    let dir = scratch_dir("journal");
    let journal = Journal::open(&dir).expect("journal opens");
    journal
        .append("{\"entry\":\"server\",\"workers\":1}")
        .unwrap();
    journal
        .append("{\"entry\":\"submitted\",\"job\":1}")
        .unwrap();
    drop(journal);

    // A torn final line — the signature of a crash mid-append — is dropped.
    let path = dir.join(ncgws::serve::store::JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.extend_from_slice(b"{\"entry\":\"dispat");
    std::fs::write(&path, &bytes).expect("tear final line");
    let entries = Journal::read_entries(&dir).expect("torn tail tolerated");
    assert_eq!(entries.len(), 2);

    // Damage *before* the final line is a typed error, not silence.
    let text = String::from_utf8(bytes).unwrap();
    let mangled = text.replacen("{\"entry\":\"submitted\"", "{broken", 1);
    std::fs::write(&path, mangled).expect("corrupt middle line");
    match Journal::read_entries(&dir) {
        Err(StoreError::Journal { .. }) => {}
        other => panic!("expected Journal error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panics_are_isolated_and_retried_to_completion() {
    let dir = scratch_dir("panic-retry");
    // Every first and second attempt panics; the third runs clean, so a
    // job with two retries must complete.
    let plan = Arc::new(
        FaultPlan::new(5)
            .with_panics(1.0, 4)
            .with_faulty_attempt_limit(2),
    );
    let server = Server::start_durable_with(
        &dir,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        DurableOptions {
            faults: Some(Arc::clone(&plan)),
            ..DurableOptions::default()
        },
    )
    .expect("durable server starts");
    let id = server
        .submit(job(21, quick_config()).with_retry(RetryPolicy::retries(2).with_seed(9)))
        .unwrap();
    let outcome = server.wait(id).expect("job finishes");
    assert_eq!(server.job_state(id), Some(JobState::Completed));
    assert_eq!(outcome.attempts, 3, "two panics then a clean attempt");
    let stats = server.drain();
    assert_eq!(stats.panics, 2);
    assert_eq!(stats.attempts_retried, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panic_without_retries_fails_the_job_and_frees_the_tenant_slot() {
    let plan = Arc::new(
        FaultPlan::new(6)
            .with_panics(1.0, 3)
            .with_faulty_attempt_limit(1),
    );
    let server = Server::start_with_faults(
        ServerConfig {
            workers: 1,
            max_in_flight_per_tenant: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&plan),
    );
    let doomed = server.submit(job(31, quick_config())).unwrap();
    let outcome = server.wait(doomed).expect("job settles");
    assert_eq!(server.job_state(doomed), Some(JobState::Failed));
    let reason = outcome.error.expect("failure carries the panic text");
    assert!(
        reason.contains("injected fault"),
        "panic text must surface: {reason}"
    );

    // The tenant's single in-flight slot must be free again: attempt 2 of
    // the next job runs clean (past the faulty-attempt limit)... but its
    // attempt 1 panics, so give it one retry.
    let survivor = server
        .submit(job(32, quick_config()).with_retry(RetryPolicy::retries(1)))
        .unwrap();
    let outcome = server.wait(survivor).expect("job settles");
    assert_eq!(server.job_state(survivor), Some(JobState::Completed));
    assert!(outcome.attempts >= 2);
    let stats = server.drain();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert!(stats.panics >= 2);
}

#[test]
fn retry_backoff_is_deterministic_and_capped() {
    let policy = RetryPolicy::retries(6).with_seed(1234);
    let a: Vec<u64> = (1..=6).map(|r| policy.delay_ms(77, r)).collect();
    let b: Vec<u64> = (1..=6).map(|r| policy.delay_ms(77, r)).collect();
    assert_eq!(a, b, "same (job, retry) must give the same delay");
    let other: Vec<u64> = (1..=6).map(|r| policy.delay_ms(78, r)).collect();
    assert_ne!(a, other, "different jobs must not retry in lockstep");
    for delay in &a {
        assert!(*delay <= 50, "delay {delay} exceeds the policy cap");
    }
    assert_eq!(RetryPolicy::none().delay_ms(1, 1), 0);
}

/// A durable server dropped mid-churn (jobs queued, running, and
/// checkpoint-requeued) recovers with zero lost jobs and finishes the
/// backlog; recovered results match cold runs bitwise under the exact
/// strategy.
#[test]
fn drop_mid_churn_then_recover_loses_nothing() {
    let dir = scratch_dir("recover");
    let server = Server::start_durable(
        &dir,
        ServerConfig {
            workers: 1,
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("durable server starts");
    let mut ids: Vec<JobId> = Vec::new();
    // Job 1 finishes before the drop; the rest (budget-interrupted
    // resumers and plain queued jobs) are in flight or waiting.
    ids.push(server.submit(job(41, quick_config())).unwrap());
    for seed in 42..46u64 {
        ids.push(
            server
                .submit(job(seed, quick_config()).with_iteration_budget(3))
                .unwrap(),
        );
    }
    server.wait(ids[0]).expect("first job completes");
    drop(server); // kill without drain: queue survives on disk

    let (server, report) = Server::recover(&dir).expect("recovery succeeds");
    assert_eq!(report.jobs_seen, 5);
    assert_eq!(report.completed + report.requeued, 5);
    assert!(report.requeued >= 1, "the backlog must survive the drop");
    let stats = server.drain();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);

    let (server, _) = Server::recover(&dir).expect("re-recovery sees the outcomes");
    for (offset, id) in ids.iter().enumerate() {
        let outcome = server
            .outcome(*id)
            .unwrap_or_else(|| panic!("job {offset} lost"));
        assert!(!outcome.stop_reason.is_interrupted());
        // Exact strategy: recovered results are bitwise identical to an
        // uninterrupted cold run of the same spec.
        let inst = SyntheticGenerator::new(
            CircuitSpec::new(format!("durable-{}", 41 + offset as u64), 20, 45)
                .with_seed(41 + offset as u64)
                .with_num_patterns(16),
        )
        .generate()
        .expect("generation succeeds");
        let cold = Flow::prepare(&inst, quick_config())
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("cold run");
        assert_eq!(
            outcome.final_metrics.expect("completed job has metrics"),
            cold.report.final_metrics,
            "job {offset} diverged from its cold run"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery from a hand-crafted journal describing a *hard* crash: the job
/// was dispatched but never settled (no `requeued`/terminal line), so the
/// recovered server must treat it as interrupted and finish it.
#[test]
fn recovery_replays_a_hard_crash_journal() {
    let dir = scratch_dir("hard-crash");
    let journal = Journal::open(&dir).expect("journal opens");
    journal
        .append(
            "{\"entry\":\"server\",\"workers\":1,\"max_in_flight_per_tenant\":4,\
             \"max_queued_per_tenant\":100,\"checkpoint_every\":null,\"max_attempts\":8}",
        )
        .unwrap();
    let spec = job(51, quick_config());
    let encoded = serde_json::to_string(&spec).unwrap();
    journal
        .append(&format!(
            "{{\"entry\":\"submitted\",\"job\":1,\"resume\":false,\"spec\":{encoded}}}"
        ))
        .unwrap();
    journal
        .append("{\"entry\":\"dispatched\",\"job\":1,\"attempt\":1,\"resumed\":false}")
        .unwrap();
    drop(journal);

    let (server, report) = Server::recover(&dir).expect("recovery succeeds");
    assert_eq!(report.jobs_seen, 1);
    assert_eq!(report.requeued, 1);
    assert_eq!(report.resumed_from_checkpoint, 0, "no checkpoint was taken");
    let outcome = server.wait(JobId::from_u64(1)).expect("job finishes");
    assert!(!outcome.stop_reason.is_interrupted());
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The acceptance property: a durable server with a seeded fault plan
    /// (worker panics, I/O errors, torn writes) is killed mid-churn and
    /// recovered; the drained results must equal a cold run of every job —
    /// bitwise under the exact strategy, to 1e-6 under the adaptive
    /// strategy — with zero lost jobs and all corruption detected.
    #[test]
    fn crash_recover_matches_cold_under_faults(
        seed in 0u64..1000,
        adaptive in 0u8..2,
        budget in 2usize..6,
    ) {
        let adaptive = adaptive == 1;
        let config = if adaptive { adaptive_config() } else { quick_config() };
        let dir = scratch_dir(&format!("prop-{seed}-{adaptive}-{budget}"));
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_panics(0.4, 4)
                .with_io_errors(0.15)
                .with_torn_writes(0.15)
                .with_faulty_attempt_limit(2),
        );
        let server = Server::start_durable_with(
            &dir,
            ServerConfig {
                workers: 2,
                checkpoint_every: Some(2),
                max_attempts: 32,
                ..ServerConfig::default()
            },
            DurableOptions { faults: Some(Arc::clone(&plan)), ..DurableOptions::default() },
        )
        .expect("durable server starts");

        let seeds: Vec<u64> = (0..3).map(|i| 100 + seed * 3 + i).collect();
        let ids: Vec<JobId> = seeds
            .iter()
            .map(|&s| {
                server
                    .submit(
                        job(s, config.clone())
                            .with_iteration_budget(budget)
                            .with_retry(RetryPolicy::retries(4).with_seed(s)),
                    )
                    .unwrap()
            })
            .collect();
        // Let the churn start (first job settles or requeues), then kill.
        server.wait(ids[0]);
        drop(server);

        let (server, report) = Server::recover_with(
            &dir,
            DurableOptions { faults: Some(plan), ..DurableOptions::default() },
        )
        .expect("recovery succeeds");
        prop_assert_eq!(report.jobs_seen, 3);
        server.drain();

        let (server, _) = Server::recover(&dir).expect("outcomes are durable");
        for (&s, &id) in seeds.iter().zip(&ids) {
            let outcome = server.outcome(id);
            let outcome = outcome.unwrap_or_else(|| panic!("job seed {s} lost"));
            prop_assert!(!outcome.stop_reason.is_interrupted());
            let inst = SyntheticGenerator::new(
                CircuitSpec::new(format!("durable-{s}"), 20, 45)
                    .with_seed(s)
                    .with_num_patterns(16),
            )
            .generate()
            .expect("generation succeeds");
            let cold = Flow::prepare(&inst, config.clone())
                .expect("prepare")
                .order()
                .expect("order")
                .size()
                .expect("cold run");
            let got = outcome.final_metrics.expect("completed job has metrics");
            let want = cold.report.final_metrics;
            if adaptive {
                prop_assert!(relative_close(got.area_um2, want.area_um2));
                prop_assert!(relative_close(got.delay_ps, want.delay_ps));
                prop_assert!(relative_close(got.noise_pf, want.noise_pf));
            } else {
                prop_assert_eq!(got, want, "seed {} diverged bitwise", s);
            }
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
