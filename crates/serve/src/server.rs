//! The persistent optimization server.
//!
//! A [`Server`] owns a pool of worker threads draining a priority job
//! queue. Each attempt runs the full two-stage flow under a
//! [`RunControl`] wired with the job's per-attempt limits and a checkpoint
//! sink; interrupted attempts are requeued and resume from their latest
//! [`Snapshot`] instead of restarting cold.
//!
//! Scheduling is strict priority with FIFO tie-breaking (a `BTreeSet`
//! ordered by descending priority, then submission sequence), subject to
//! per-tenant admission control: a tenant's queued jobs are capped at
//! submission time and its in-flight attempts are capped at dispatch time,
//! so one noisy tenant can neither flood the queue nor monopolize the
//! workers.
//!
//! # Durability
//!
//! [`Server::start_durable`] adds the crash-restart layer: every checkpoint
//! is persisted through a [`DiskSnapshotStore`] *as it is taken* (atomic,
//! checksummed files), and every job lifecycle transition is appended to a
//! [`Journal`]. After a crash — or a plain [`drop`] without
//! [`drain`](Server::drain) — [`Server::recover`] replays the journal,
//! restores terminal outcomes, and re-queues every unfinished job to resume
//! from its latest durable snapshot with the same bitwise (exact strategy) /
//! `1e-6` (adaptive) guarantees as in-process resume.
//!
//! # Failure isolation
//!
//! Worker panics are caught per attempt (`catch_unwind`): the job lands in
//! [`JobState::Failed`] with the panic text, its tenant's in-flight slot is
//! released, and — when the job carries a
//! [`RetryPolicy`](crate::RetryPolicy) — the attempt is
//! retried with deterministic exponential backoff instead. A seeded
//! [`FaultPlan`] can inject panics, store I/O errors and torn writes to
//! exercise all of this reproducibly.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncgws_core::flow::Flow;
use ncgws_core::{
    CancelFlag, CheckpointPolicy, CheckpointSink, CoreError, IterationEvent, Observer, RunControl,
    SizedOutcome, Snapshot, SnapshotStore, Start, StopReason,
};
use ncgws_netlist::{ProblemInstance, SyntheticGenerator};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::events::{line, Field};
use crate::fault::FaultPlan;
use crate::job::{JobId, JobInput, JobOutcome, JobSpec, JobState};
use crate::stats::{Counters, ServerStats};
use crate::store::{DiskSink, DiskSnapshotStore, Journal, StoreConfig, StoreError};
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// Server-wide policy knobs. The journal's `server` entry carries them,
/// and [`Server::recover`] decodes them back through `Deserialize`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Worker threads draining the queue (at least 1).
    pub workers: usize,
    /// Per-tenant cap on concurrently running attempts.
    pub max_in_flight_per_tenant: usize,
    /// Per-tenant cap on jobs waiting in the queue; submissions beyond it
    /// are rejected with [`SubmitError::QueueFull`]. Requeues of
    /// interrupted attempts are always admitted.
    pub max_queued_per_tenant: usize,
    /// Periodic checkpoint cadence applied to every attempt (`None` keeps
    /// only on-interrupt checkpoints).
    pub checkpoint_every: Option<usize>,
    /// Attempt cap per job: an interrupted job that has already started
    /// this many attempts fails instead of requeueing.
    pub max_attempts: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_in_flight_per_tenant: usize::MAX,
            max_queued_per_tenant: usize::MAX,
            checkpoint_every: None,
            max_attempts: 64,
        }
    }
}

impl ServerConfig {
    /// The journal's `server` entry for this config: the derived encoding
    /// with the entry tag in front of its fields.
    fn journal_line(&self) -> String {
        let encoded = serde_json::to_string(self).unwrap_or_default();
        encoded.replacen('{', "{\"entry\":\"server\",", 1)
    }
}

/// Optional pieces of a durable server: store tuning, an event sink, and
/// fault injection. Used by [`Server::start_durable_with`] and
/// [`Server::recover_with`].
#[derive(Default)]
pub struct DurableOptions {
    /// Snapshot-store tuning (memory budget for the resident cache).
    pub store: StoreConfig,
    /// JSON-lines event sink, as in [`Server::start_with_events`].
    pub events: Option<Box<dyn Write + Send>>,
    /// Deterministic fault injection, threaded through workers and the
    /// snapshot store.
    pub faults: Option<Arc<FaultPlan>>,
}

/// What [`Server::recover`] rebuilt from a server directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Jobs found in the journal.
    pub jobs_seen: usize,
    /// Unfinished jobs put back on the ready queue.
    pub requeued: usize,
    /// Of the requeued jobs, how many resume from a durable snapshot
    /// (the rest restart cold).
    pub resumed_from_checkpoint: usize,
    /// Jobs already completed before the crash (outcomes restored).
    pub completed: usize,
    /// Jobs already cancelled before the crash.
    pub cancelled: usize,
    /// Jobs already failed before the crash.
    pub failed: usize,
    /// Requeued jobs whose snapshot generations were all corrupt — they
    /// restart cold rather than being lost.
    pub corrupt_snapshots: usize,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is draining and accepts no new work.
    Draining,
    /// The tenant's queued-job cap is reached.
    QueueFull {
        /// The tenant whose queue is full.
        tenant: String,
    },
    /// A resume submission's snapshot does not fit the job's circuit.
    SnapshotMismatch {
        /// What does not fit, as [`Snapshot::validate_for`] words it.
        reason: String,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "server is draining"),
            SubmitError::QueueFull { tenant } => {
                write!(f, "queue for tenant {tenant} is full")
            }
            SubmitError::SnapshotMismatch { reason } => {
                write!(f, "snapshot does not fit the job's circuit: {reason}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Checks that `snapshot` has the shape of `input`'s circuit: the whole
/// [`Snapshot::validate_for`] for an instance, the size vector's length
/// against [`ncgws_netlist::CircuitSpec::total_components`] for a synthetic spec, whose
/// circuit is not generated yet.
fn check_snapshot_shape(input: &JobInput, snapshot: &Snapshot) -> Result<(), SubmitError> {
    let reason = match input {
        JobInput::Instance(instance) => snapshot.validate_for(&instance.circuit).err(),
        JobInput::Synthetic(spec) => {
            let (entries, n) = (snapshot.sizes.len(), spec.total_components());
            (entries != n)
                .then(|| format!("snapshot size vector has {entries} entries, expected {n}"))
        }
    };
    reason.map_or(Ok(()), |reason| {
        Err(SubmitError::SnapshotMismatch { reason })
    })
}

/// Ready-queue key: smaller sorts first, so negated priority puts the
/// highest priority at `first()`, then FIFO by submission sequence.
type QueueKey = (i64, u64, u64);

fn queue_key(priority: i32, seq: u64, id: u64) -> QueueKey {
    (-i64::from(priority), seq, id)
}

#[derive(Debug, Default)]
struct TenantState {
    queued: usize,
    in_flight: usize,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    seq: u64,
    state: JobState,
    attempts: usize,
    retries: usize,
    resumed_attempts: usize,
    iterations: usize,
    snapshot: Option<Snapshot>,
    /// Durable servers: whether the store holds a checkpoint for this job
    /// (the in-memory `snapshot` stays `None` so the store's spill policy
    /// owns all snapshot memory).
    has_checkpoint: bool,
    /// Backoff gate set by a retry; the job is not dispatchable before it.
    not_before: Option<Instant>,
    cancel: Option<CancelFlag>,
    cancel_requested: bool,
    outcome: Option<JobOutcome>,
    instance: Option<Arc<ProblemInstance>>,
}

#[derive(Debug, Default)]
struct State {
    jobs: BTreeMap<u64, JobEntry>,
    ready: BTreeSet<QueueKey>,
    tenants: BTreeMap<String, TenantState>,
    draining: bool,
    /// Hard-stop flag set by `Drop`: workers exit as soon as their current
    /// attempt settles, leaving remaining work queued (and, for durable
    /// servers, recoverable).
    shutdown: bool,
    in_flight: usize,
    next_seq: u64,
}

impl State {
    /// First admissible ready job: highest priority, oldest, backoff
    /// expired, whose tenant is under its in-flight cap.
    fn pick(&self, max_in_flight_per_tenant: usize, now: Instant) -> Option<QueueKey> {
        self.ready.iter().copied().find(|&(_, _, id)| {
            self.jobs.get(&id).is_some_and(|entry| {
                entry.not_before.is_none_or(|t| t <= now)
                    && self
                        .tenants
                        .get(&entry.spec.tenant)
                        .is_none_or(|t| t.in_flight < max_in_flight_per_tenant)
            })
        })
    }

    /// Soonest pending backoff among ready jobs, as a wait duration.
    fn earliest_backoff(&self, now: Instant) -> Option<Duration> {
        self.ready
            .iter()
            .filter_map(|&(_, _, id)| {
                self.jobs
                    .get(&id)
                    .and_then(|entry| entry.not_before)
                    .and_then(|t| t.checked_duration_since(now))
            })
            .min()
    }

    fn all_done(&self) -> bool {
        self.ready.is_empty() && self.in_flight == 0
    }
}

/// The durable half of a server: the snapshot store and the journal.
struct Durable {
    store: DiskSnapshotStore,
    journal: Journal,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for admissible work (or the drain signal).
    work_ready: Condvar,
    /// Clients wait here for job transitions (`wait`, `drain`).
    progress: Condvar,
    counters: Counters,
    config: ServerConfig,
    events: Option<Mutex<Box<dyn Write + Send>>>,
    durable: Option<Durable>,
    faults: Option<Arc<FaultPlan>>,
}

impl Shared {
    fn emit(&self, text: String) {
        if let Some(sink) = &self.events {
            let mut sink = lock_recover(sink);
            let _ = writeln!(sink, "{text}");
        }
    }

    fn journal(&self, text: &str) {
        if let Some(durable) = &self.durable {
            let _ = durable.journal.append(text);
        }
    }

    /// Journals a terminal transition together with its full outcome, so
    /// results survive a restart. A failed serialization (unreachable for
    /// these derive-encoded types) drops the entry rather than panicking —
    /// recovery then requeues the job, which is safe.
    fn journal_terminal(&self, kind: &str, id: u64, outcome: &JobOutcome) {
        if self.durable.is_some() {
            if let Ok(encoded) = serde_json::to_string(outcome) {
                self.journal(&format!(
                    "{{\"entry\":\"{kind}\",\"job\":{id},\"outcome\":{encoded}}}"
                ));
            }
        }
    }
}

/// A persistent optimization server: worker pool, priority queue,
/// checkpoint/resume, optional crash-restart durability.
///
/// See the [crate docs](crate) for an end-to-end example. Call
/// [`drain`](Server::drain) to finish outstanding work and join the
/// workers. Dropping a server without draining *stops* it: running
/// attempts are cancelled cooperatively, requeued at their latest
/// checkpoint, and the worker threads are joined — nothing keeps running
/// in the background. A durable server's queue survives the drop on disk
/// and [`Server::recover`] picks it back up.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("config", &self.shared.config)
            .field("durable", &self.shared.durable.is_some())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the worker pool with no event sink.
    pub fn start(config: ServerConfig) -> Server {
        Server::start_with_events(config, None)
    }

    /// Starts the worker pool, writing one JSON event line per job
    /// transition to `sink` (see [`events`](crate::events)).
    pub fn start_with_events(config: ServerConfig, sink: Option<Box<dyn Write + Send>>) -> Server {
        Server::start_inner(config, sink, None, None, State::default(), 1)
    }

    /// Starts an in-memory server with deterministic fault injection
    /// (worker panics) armed — the test harness for the failure paths.
    pub fn start_with_faults(config: ServerConfig, faults: Arc<FaultPlan>) -> Server {
        Server::start_inner(config, None, None, Some(faults), State::default(), 1)
    }

    /// Starts a durable server rooted at `dir`: every checkpoint is
    /// persisted through a [`DiskSnapshotStore`] as it is taken, and every
    /// job transition is journaled so [`Server::recover`] can rebuild the
    /// queue after a crash.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory or journal cannot be
    /// created.
    pub fn start_durable(
        dir: impl AsRef<Path>,
        config: ServerConfig,
    ) -> Result<Server, StoreError> {
        Server::start_durable_with(dir, config, DurableOptions::default())
    }

    /// [`start_durable`](Server::start_durable) with store tuning, an event
    /// sink and/or fault injection.
    ///
    /// # Errors
    ///
    /// As [`start_durable`](Server::start_durable).
    pub fn start_durable_with(
        dir: impl AsRef<Path>,
        config: ServerConfig,
        options: DurableOptions,
    ) -> Result<Server, StoreError> {
        let dir = dir.as_ref();
        let store =
            DiskSnapshotStore::open(dir, options.store)?.with_faults(options.faults.clone());
        let journal = Journal::open(dir)?;
        journal.append(&config.journal_line())?;
        let durable = Durable { store, journal };
        Ok(Server::start_inner(
            config,
            options.events,
            Some(durable),
            options.faults,
            State::default(),
            1,
        ))
    }

    /// Rebuilds a durable server from `dir` after a crash (or a drop
    /// without drain): replays the journal, restores terminal outcomes,
    /// and re-queues every unfinished job to resume from its latest
    /// durable snapshot. Corrupt snapshot files fall back to the previous
    /// good generation; when no generation survives, the job restarts cold
    /// instead of being lost.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for filesystem failures, [`StoreError::Journal`]
    /// when the journal is corrupt before its final line (a torn final
    /// line — the signature of a crash mid-append — is tolerated).
    pub fn recover(dir: impl AsRef<Path>) -> Result<(Server, RecoveryReport), StoreError> {
        Server::recover_with(dir, DurableOptions::default())
    }

    /// [`recover`](Server::recover) with store tuning, an event sink
    /// and/or fault injection for the recovered server.
    ///
    /// # Errors
    ///
    /// As [`recover`](Server::recover).
    pub fn recover_with(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<(Server, RecoveryReport), StoreError> {
        let dir = dir.as_ref();
        let entries = Journal::read_entries(dir)?;
        let journal_err = |index: usize, detail: String| StoreError::Journal {
            line: index + 1,
            detail,
        };

        struct RecJob {
            spec: Option<JobSpec>,
            attempts: usize,
            retries: usize,
            resumed_attempts: usize,
            state: JobState,
            outcome: Option<JobOutcome>,
            has_checkpoint: bool,
        }
        impl Default for RecJob {
            fn default() -> Self {
                RecJob {
                    spec: None,
                    attempts: 0,
                    retries: 0,
                    resumed_attempts: 0,
                    state: JobState::Queued,
                    outcome: None,
                    has_checkpoint: false,
                }
            }
        }

        fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a Value, String> {
            entry
                .get(key)
                .ok_or_else(|| format!("entry is missing `{key}`"))
        }
        let flag = |entry: &Value, key: &str| entry.get(key).and_then(Value::as_bool);

        let mut config: Option<ServerConfig> = None;
        let mut jobs: BTreeMap<u64, RecJob> = BTreeMap::new();
        let mut replay = |entry: &Value| -> Result<(), String> {
            let kind = field(entry, "entry")?
                .as_str()
                .ok_or("`entry` must be a string")?;
            if kind == "server" {
                // The derived decoder ignores the `entry` key.
                config = Some(serde_json::from_value(entry).map_err(|e| e.to_string())?);
                return Ok(());
            }
            let job_id = field(entry, "job")?
                .as_u64()
                .ok_or_else(|| format!("`{kind}` entry has a malformed `job`"))?;
            let job = jobs.entry(job_id).or_default();
            match kind {
                "submitted" => {
                    let spec = serde_json::from_value::<JobSpec>(field(entry, "spec")?)
                        .map_err(|e| e.to_string())?;
                    spec.validate()?;
                    job.spec = Some(spec);
                    job.has_checkpoint |= flag(entry, "resume").unwrap_or(false);
                }
                "dispatched" => {
                    job.attempts += 1;
                    job.state = JobState::Running;
                    if flag(entry, "resumed").unwrap_or(false) {
                        job.resumed_attempts += 1;
                    }
                }
                "checkpointed" => job.has_checkpoint = true,
                "requeued" => job.state = JobState::Queued,
                "retried" => {
                    job.state = JobState::Queued;
                    job.retries += 1;
                }
                "completed" | "cancelled" | "failed" => {
                    job.state = match kind {
                        "completed" => JobState::Completed,
                        "cancelled" => JobState::Cancelled,
                        _ => JobState::Failed,
                    };
                    job.outcome = Some(
                        serde_json::from_value(field(entry, "outcome")?)
                            .map_err(|e| e.to_string())?,
                    );
                }
                // Unknown kinds are tolerated for forward compatibility.
                _ => {}
            }
            Ok(())
        };
        for (index, entry) in entries.iter().enumerate() {
            replay(entry).map_err(|detail| journal_err(index, detail))?;
        }
        let config = config.ok_or(StoreError::Journal {
            line: 0,
            detail: "journal has no `server` config entry (not a server directory?)".into(),
        })?;

        let store =
            DiskSnapshotStore::open(dir, options.store)?.with_faults(options.faults.clone());
        let journal = Journal::open(dir)?;
        let mut report = RecoveryReport::default();
        let mut state = State::default();
        let mut max_id = 0u64;
        for (id, rec) in jobs {
            let Some(spec) = rec.spec else {
                // Lifecycle entries for a job whose `submitted` line was
                // torn away: nothing to rebuild from.
                continue;
            };
            max_id = max_id.max(id);
            report.jobs_seen += 1;
            let seq = state.next_seq;
            state.next_seq += 1;
            let mut entry = JobEntry {
                spec,
                seq,
                state: rec.state,
                attempts: rec.attempts,
                retries: rec.retries,
                resumed_attempts: rec.resumed_attempts,
                iterations: 0,
                snapshot: None,
                has_checkpoint: false,
                not_before: None,
                cancel: None,
                cancel_requested: false,
                outcome: rec.outcome,
                instance: None,
            };
            match rec.state {
                JobState::Completed => report.completed += 1,
                JobState::Cancelled => report.cancelled += 1,
                JobState::Failed => report.failed += 1,
                JobState::Queued | JobState::Running => {
                    // Interrupted (Running means the process died mid
                    // attempt): back on the queue, resuming from the latest
                    // durable snapshot when one decodes.
                    report.requeued += 1;
                    entry.state = JobState::Queued;
                    if rec.has_checkpoint {
                        match store.load(id) {
                            Ok(Some(snapshot)) => {
                                entry.has_checkpoint = true;
                                entry.iterations = snapshot.iterations_done;
                                report.resumed_from_checkpoint += 1;
                            }
                            Ok(None) => {}
                            Err(_) => report.corrupt_snapshots += 1,
                        }
                    }
                    state.ready.insert(queue_key(entry.spec.priority, seq, id));
                    state
                        .tenants
                        .entry(entry.spec.tenant.clone())
                        .or_default()
                        .queued += 1;
                }
            }
            state.jobs.insert(id, entry);
        }

        let durable = Durable { store, journal };
        let server = Server::start_inner(
            config,
            options.events,
            Some(durable),
            options.faults,
            state,
            max_id + 1,
        );
        Ok((server, report))
    }

    fn start_inner(
        config: ServerConfig,
        sink: Option<Box<dyn Write + Send>>,
        durable: Option<Durable>,
        faults: Option<Arc<FaultPlan>>,
        state: State,
        next_id: u64,
    ) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            progress: Condvar::new(),
            counters: Counters::default(),
            config,
            events: sink.map(Mutex::new),
            durable,
            faults: faults.filter(|p| p.is_active()),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server {
            shared,
            workers: handles,
            next_id: AtomicU64::new(next_id),
        }
    }

    /// Submits a job to run cold.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] after [`drain`](Server::drain) has begun;
    /// [`SubmitError::QueueFull`] when the tenant's queued-job cap is hit.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.enqueue(spec, None)
    }

    /// Submits a job that starts by resuming from `snapshot` instead of
    /// running cold (e.g. a snapshot taken by a previous server via
    /// [`snapshot_of`](Server::snapshot_of)).
    ///
    /// The snapshot's shape is checked against the job's circuit here,
    /// before anything is saved or journaled: an instance job's circuit is
    /// at hand, so the whole [`Snapshot::validate_for`] runs; a synthetic
    /// job's circuit is generated only when its attempt starts, so its
    /// size vector is checked against the spec's component count, and the
    /// rest when the attempt starts. The fit with the job's constraint
    /// families, which exist only once the attempt has ordered the
    /// circuit, is always checked then. A mismatch found when the attempt
    /// starts fails the job with the validation error, without a retry.
    ///
    /// # Errors
    ///
    /// As [`submit`](Server::submit), and [`SubmitError::SnapshotMismatch`]
    /// when the snapshot does not fit; a rejected submission leaves nothing
    /// in the store or the journal.
    pub fn submit_resume(&self, spec: JobSpec, snapshot: Snapshot) -> Result<JobId, SubmitError> {
        check_snapshot_shape(&spec.input, &snapshot)?;
        self.enqueue(spec, Some(snapshot))
    }

    fn enqueue(&self, spec: JobSpec, snapshot: Option<Snapshot>) -> Result<JobId, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Durable resume submissions persist the seed snapshot before the
        // journal promises it exists.
        let mut durable_checkpoint = false;
        let mut snapshot = snapshot;
        if let (Some(durable), Some(snap)) = (&self.shared.durable, &snapshot) {
            if durable.store.save(id, snap).is_ok() {
                durable_checkpoint = true;
                snapshot = None;
            }
        }
        let event = {
            let mut guard = lock_recover(&self.shared.state);
            let st = &mut *guard;
            if st.draining {
                Counters::add(&self.shared.counters.rejected, 1);
                if durable_checkpoint {
                    if let Some(durable) = &self.shared.durable {
                        durable.store.remove(id);
                    }
                }
                return Err(SubmitError::Draining);
            }
            let tenant = st.tenants.entry(spec.tenant.clone()).or_default();
            if tenant.queued >= self.shared.config.max_queued_per_tenant {
                Counters::add(&self.shared.counters.rejected, 1);
                if durable_checkpoint {
                    if let Some(durable) = &self.shared.durable {
                        durable.store.remove(id);
                    }
                }
                return Err(SubmitError::QueueFull {
                    tenant: spec.tenant,
                });
            }
            tenant.queued += 1;
            let seq = st.next_seq;
            st.next_seq += 1;
            st.ready.insert(queue_key(spec.priority, seq, id));
            let event = line(
                "submitted",
                &[
                    ("job", Field::U(id)),
                    ("tenant", Field::S(&spec.tenant)),
                    ("priority", Field::I(i64::from(spec.priority))),
                    (
                        "resumed",
                        Field::B(snapshot.is_some() || durable_checkpoint),
                    ),
                ],
            );
            // A failed spec serialization (unreachable for derive-encoded
            // types) skips the journal entry instead of panicking; the job
            // still runs, it is just not recoverable after a crash.
            let journal_line = self.shared.durable.as_ref().and_then(|_| {
                let encoded = serde_json::to_string(&spec).ok()?;
                Some(format!(
                    "{{\"entry\":\"submitted\",\"job\":{id},\"resume\":{},\"spec\":{encoded}}}",
                    durable_checkpoint
                ))
            });
            st.jobs.insert(
                id,
                JobEntry {
                    spec,
                    seq,
                    state: JobState::Queued,
                    attempts: 0,
                    retries: 0,
                    resumed_attempts: 0,
                    iterations: 0,
                    snapshot,
                    has_checkpoint: durable_checkpoint,
                    not_before: None,
                    cancel: None,
                    cancel_requested: false,
                    outcome: None,
                    instance: None,
                },
            );
            Counters::add(&self.shared.counters.submitted, 1);
            if let Some(text) = &journal_line {
                self.shared.journal(text);
            }
            event
        };
        self.shared.work_ready.notify_one();
        self.shared.emit(event);
        Ok(JobId(id))
    }

    /// Requests cancellation. A queued job is removed immediately; a
    /// running job's attempt is stopped cooperatively and the job finishes
    /// as [`JobState::Cancelled`] (unless the attempt completes before the
    /// flag is seen, in which case the finished result stands). Returns
    /// `false` for unknown or already terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let event = {
            let mut guard = lock_recover(&self.shared.state);
            let st = &mut *guard;
            let Some(entry) = st.jobs.get_mut(&id.0) else {
                return false;
            };
            match entry.state {
                JobState::Queued => {
                    entry.state = JobState::Cancelled;
                    let outcome = JobOutcome {
                        stop_reason: StopReason::Cancelled,
                        iterations: entry.iterations,
                        attempts: entry.attempts,
                        resumed_attempts: entry.resumed_attempts,
                        feasible: false,
                        final_metrics: None,
                        error: None,
                    };
                    entry.outcome = Some(outcome.clone());
                    let key = queue_key(entry.spec.priority, entry.seq, id.0);
                    st.ready.remove(&key);
                    let tenant = entry.spec.tenant.clone();
                    if let Some(t) = st.tenants.get_mut(&tenant) {
                        t.queued -= 1;
                    }
                    Counters::add(&self.shared.counters.cancelled, 1);
                    self.shared.journal_terminal("cancelled", id.0, &outcome);
                    line(
                        "cancelled",
                        &[
                            ("job", Field::U(id.0)),
                            ("tenant", Field::S(&tenant)),
                            ("while", Field::S("queued")),
                        ],
                    )
                }
                JobState::Running => {
                    entry.cancel_requested = true;
                    if let Some(flag) = &entry.cancel {
                        flag.cancel();
                    }
                    return true;
                }
                _ => return false,
            }
        };
        self.shared.progress.notify_all();
        self.shared.emit(event);
        true
    }

    /// The job's current lifecycle state, `None` for unknown ids.
    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        let st = lock_recover(&self.shared.state);
        st.jobs.get(&id.0).map(|e| e.state)
    }

    /// The job's final outcome once terminal, `None` before that.
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        let st = lock_recover(&self.shared.state);
        st.jobs.get(&id.0).and_then(|e| e.outcome.clone())
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// outcome; `None` for unknown ids.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let mut st = lock_recover(&self.shared.state);
        loop {
            match st.jobs.get(&id.0) {
                None => return None,
                Some(entry) if entry.state.is_terminal() => return entry.outcome.clone(),
                Some(_) => st = wait_recover(&self.shared.progress, st),
            }
        }
    }

    /// The job's latest retained checkpoint, usable with
    /// [`submit_resume`](Server::submit_resume) — on this server or a new
    /// one. Durable servers read it back through the store (resident cache
    /// or disk).
    pub fn snapshot_of(&self, id: JobId) -> Option<Snapshot> {
        let (snapshot, has_checkpoint) = {
            let st = lock_recover(&self.shared.state);
            let entry = st.jobs.get(&id.0)?;
            (entry.snapshot.clone(), entry.has_checkpoint)
        };
        if snapshot.is_some() {
            return snapshot;
        }
        if has_checkpoint {
            if let Some(durable) = &self.shared.durable {
                return durable.store.load(id.0).ok().flatten();
            }
        }
        None
    }

    /// A point-in-time statistics snapshot (counters plus queue gauges and
    /// memory accounting). For durable servers the snapshot gauges come
    /// from the store: `snapshot_bytes_resident` is the in-memory cache,
    /// `snapshot_bytes_spilled` the bytes living only on disk.
    pub fn stats(&self) -> ServerStats {
        let st = lock_recover(&self.shared.state);
        let mut stats = self.shared.counters.snapshot();
        stats.queue_depth = st.ready.len();
        stats.in_flight = st.in_flight;
        stats.queue_bytes = st.ready.len() * std::mem::size_of::<QueueKey>()
            + st.jobs
                .values()
                .filter(|e| !e.state.is_terminal())
                .map(|e| e.spec.memory_bytes())
                .sum::<usize>();
        stats.snapshot_bytes_resident = st
            .jobs
            .values()
            .filter_map(|e| e.snapshot.as_ref())
            .map(Snapshot::memory_bytes)
            .sum();
        drop(st);
        if let Some(durable) = &self.shared.durable {
            let store = durable.store.stats();
            stats.snapshot_bytes_resident += store.resident_bytes as usize;
            stats.snapshot_bytes_spilled = store.spilled_bytes as usize;
            stats.snapshots_spilled = store.spills as usize;
            stats.snapshots_corrupt_recovered = store.corrupt_recovered as usize;
        }
        stats.snapshot_bytes = stats.snapshot_bytes_resident + stats.snapshot_bytes_spilled;
        stats
    }

    /// Approximate bytes held by the server's queues and retained
    /// snapshots (the serving-side extension of the engine's
    /// [`MemoryBreakdown`](ncgws_core::MemoryBreakdown) accounting).
    /// Spilled snapshots do not count — spilling exists to shed exactly
    /// this memory.
    pub fn memory_bytes(&self) -> usize {
        let stats = self.stats();
        stats.queue_bytes + stats.snapshot_bytes_resident
    }

    /// Stops accepting submissions, finishes every queued and in-flight
    /// job (including requeued resumes), joins the workers and returns the
    /// final statistics.
    pub fn drain(mut self) -> ServerStats {
        lock_recover(&self.shared.state).draining = true;
        self.shared.work_ready.notify_all();
        {
            let mut st = lock_recover(&self.shared.state);
            while !st.all_done() {
                st = wait_recover(&self.shared.progress, st);
            }
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            // Per-attempt panics are caught inside the loop; a panic in the
            // loop itself is a bug, but must not also take the drainer down.
            let _ = handle.join();
        }
        let stats = self.stats();
        self.shared.emit(line(
            "drained",
            &[
                ("completed", Field::U(stats.completed as u64)),
                ("cancelled", Field::U(stats.cancelled as u64)),
                ("failed", Field::U(stats.failed as u64)),
                ("panics", Field::U(stats.panics as u64)),
                ("attempts_retried", Field::U(stats.attempts_retried as u64)),
                (
                    "snapshots_spilled",
                    Field::U(stats.snapshots_spilled as u64),
                ),
                (
                    "snapshots_corrupt_recovered",
                    Field::U(stats.snapshots_corrupt_recovered as u64),
                ),
            ],
        ));
        stats
    }
}

impl Drop for Server {
    /// Stops the server without finishing the queue: cancels running
    /// attempts cooperatively (they checkpoint and requeue), then joins
    /// every worker so no detached thread races on shared state after the
    /// drop. Durable servers leave the queue recoverable on disk.
    fn drop(&mut self) {
        {
            let mut st = lock_recover(&self.shared.state);
            st.draining = true;
            st.shutdown = true;
            for entry in st.jobs.values() {
                if let Some(flag) = &entry.cancel {
                    flag.cancel();
                }
            }
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One dispatched attempt, handed from the scheduler lock to the solver.
struct Attempt {
    id: u64,
    spec: JobSpec,
    snapshot: Option<Snapshot>,
    has_checkpoint: bool,
    instance: Option<Arc<ProblemInstance>>,
    attempt: usize,
    flag: CancelFlag,
}

fn worker_loop(shared: &Shared) {
    loop {
        let Some(attempt) = next_attempt(shared) else {
            return;
        };
        shared.emit(line(
            "started",
            &[
                ("job", Field::U(attempt.id)),
                ("tenant", Field::S(&attempt.spec.tenant)),
                ("attempt", Field::U(attempt.attempt as u64)),
                (
                    "resumed",
                    Field::B(attempt.snapshot.is_some() || attempt.has_checkpoint),
                ),
            ],
        ));
        run_and_settle(shared, attempt);
    }
}

/// Blocks until an admissible job can be claimed; `None` when the server
/// has drained completely or is shutting down.
fn next_attempt(shared: &Shared) -> Option<Attempt> {
    let mut guard = lock_recover(&shared.state);
    loop {
        if guard.shutdown {
            return None;
        }
        let now = Instant::now();
        let Some(key) = guard.pick(shared.config.max_in_flight_per_tenant, now) else {
            if guard.draining && guard.all_done() {
                return None;
            }
            guard = match guard.earliest_backoff(now) {
                // A retry backoff is pending: sleep at most until it expires.
                Some(delay) => wait_timeout_recover(&shared.work_ready, guard, delay).0,
                None => wait_recover(&shared.work_ready, guard),
            };
            continue;
        };
        let st = &mut *guard;
        st.ready.remove(&key);
        let id = key.2;
        let Some(entry) = st.jobs.get_mut(&id) else {
            // An orphaned ready key (no matching job) would be a scheduler
            // bug; dropping it and rescanning keeps the worker serving.
            continue;
        };
        let flag = CancelFlag::new();
        entry.state = JobState::Running;
        entry.attempts += 1;
        entry.not_before = None;
        entry.cancel = Some(flag.clone());
        let resumed = entry.snapshot.is_some() || entry.has_checkpoint;
        let attempt = Attempt {
            id,
            spec: entry.spec.clone(),
            snapshot: entry.snapshot.clone(),
            has_checkpoint: entry.has_checkpoint,
            instance: entry.instance.clone(),
            attempt: entry.attempts,
            flag,
        };
        if shared.durable.is_some() {
            shared.journal(&format!(
                "{{\"entry\":\"dispatched\",\"job\":{id},\"attempt\":{},\"resumed\":{resumed}}}",
                entry.attempts
            ));
        }
        if let Some(tenant) = st.tenants.get_mut(&attempt.spec.tenant) {
            tenant.queued = tenant.queued.saturating_sub(1);
            tenant.in_flight += 1;
        }
        st.in_flight += 1;
        return Some(attempt);
    }
}

/// How one guarded attempt ended.
enum AttemptResult {
    /// The solver returned (converged, interrupted, or limit).
    Finished(Box<SizedOutcome>),
    /// The solver returned an error (bad config, bad instance, mismatched
    /// snapshot) — deterministic, not retried.
    Error(String),
    /// The worker panicked (a real bug or an injected fault) — transient,
    /// retried under the job's [`RetryPolicy`](crate::RetryPolicy).
    Panicked(String),
}

/// An [`Observer`] wrapper that panics at a chosen iteration — the
/// fault-injection vehicle for worker panics (forwarding to the live
/// counters first, like a real observer would have).
struct PanicProbe<'a> {
    inner: &'a Counters,
    at: usize,
    seen: AtomicUsize,
}

impl Observer for PanicProbe<'_> {
    #[expect(
        clippy::panic,
        reason = "this panic is the injected fault the serving layer's catch_unwind contract \
                  is tested against; it fires only when a FaultPlan arms it"
    )]
    fn on_iteration(&self, event: &IterationEvent<'_>) {
        self.inner.on_iteration(event);
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        if n >= self.at {
            panic!("injected fault: worker panic at iteration {n}");
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Runs one attempt outside the scheduler lock, then re-locks to classify
/// the result: completion, cancellation, requeue-for-resume, retry-after-
/// panic, or failure.
fn run_and_settle(shared: &Shared, attempt: Attempt) {
    let instance = match &attempt.instance {
        Some(cached) => Ok(Arc::clone(cached)),
        None => match &attempt.spec.input {
            JobInput::Synthetic(spec) => SyntheticGenerator::new(spec.clone())
                .generate()
                .map(Arc::new)
                .map_err(|e| e.to_string()),
            JobInput::Instance(instance) => Ok(Arc::new((**instance).clone())),
        },
    };
    // Resolve the snapshot this attempt resumes from: the in-memory one, or
    // — durable servers — the latest good generation in the store. A store
    // where every generation is corrupt degrades to a cold start (counted
    // by the store), never a lost job.
    let mut resume = attempt.snapshot.clone();
    if resume.is_none() && attempt.has_checkpoint {
        if let Some(durable) = &shared.durable {
            resume = durable.store.load(attempt.id).ok().flatten();
        }
    }
    let resumed = resume.is_some();
    let (result, checkpoint, checkpoints_taken) = match &instance {
        Ok(instance) => match &shared.durable {
            None => {
                let store = SnapshotStore::new();
                let result = run_guarded(shared, &attempt, instance, &store, resume.as_ref());
                let taken = store.count();
                (result, store.take(), taken)
            }
            Some(durable) => {
                let sink = DiskSink::new(&durable.store, Some(&durable.journal), attempt.id);
                let result = run_guarded(shared, &attempt, instance, &sink, resume.as_ref());
                let taken = sink.saved();
                (result, None, taken)
            }
        },
        Err(e) => (AttemptResult::Error(e.clone()), None, 0),
    };
    Counters::add(&shared.counters.checkpoints, checkpoints_taken);

    let mut guard = lock_recover(&shared.state);
    let st = &mut *guard;
    let Some(entry) = st.jobs.get_mut(&attempt.id) else {
        // A running job vanishing from the map would be a scheduler bug;
        // release the slots it held and keep the worker serving.
        if let Some(tenant) = st.tenants.get_mut(&attempt.spec.tenant) {
            tenant.in_flight = tenant.in_flight.saturating_sub(1);
        }
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(guard);
        shared.work_ready.notify_all();
        shared.progress.notify_all();
        return;
    };
    entry.cancel = None;
    if entry.instance.is_none() {
        if let Ok(instance) = &instance {
            entry.instance = Some(Arc::clone(instance));
        }
    }
    if let Some(snapshot) = checkpoint {
        entry.snapshot = Some(snapshot);
    }
    if checkpoints_taken > 0 && shared.durable.is_some() {
        entry.has_checkpoint = true;
    }
    if resumed {
        entry.resumed_attempts += 1;
        Counters::add(&shared.counters.resumed, 1);
    }
    let event = match result {
        AttemptResult::Finished(sized) => {
            entry.iterations += sized.report.iterations;
            let reason = sized.stop_reason();
            if !reason.is_interrupted() {
                let outcome = settle(entry, JobState::Completed, reason, Some(&sized), None);
                Counters::add(&shared.counters.completed, 1);
                shared.journal_terminal("completed", attempt.id, &outcome);
                line(
                    "completed",
                    &[
                        ("job", Field::U(attempt.id)),
                        ("tenant", Field::S(&attempt.spec.tenant)),
                        ("stop", Field::S(&reason.to_string())),
                        ("iterations", Field::U(entry.iterations as u64)),
                        ("attempts", Field::U(entry.attempts as u64)),
                    ],
                )
            } else if entry.cancel_requested {
                let outcome = settle(
                    entry,
                    JobState::Cancelled,
                    StopReason::Cancelled,
                    Some(&sized),
                    None,
                );
                Counters::add(&shared.counters.cancelled, 1);
                shared.journal_terminal("cancelled", attempt.id, &outcome);
                line(
                    "cancelled",
                    &[
                        ("job", Field::U(attempt.id)),
                        ("tenant", Field::S(&attempt.spec.tenant)),
                        ("while", Field::S("running")),
                    ],
                )
            } else if entry.attempts >= shared.config.max_attempts {
                let outcome = settle(
                    entry,
                    JobState::Failed,
                    reason,
                    Some(&sized),
                    Some("attempt cap exhausted".to_string()),
                );
                Counters::add(&shared.counters.failed, 1);
                shared.journal_terminal("failed", attempt.id, &outcome);
                line(
                    "failed",
                    &[
                        ("job", Field::U(attempt.id)),
                        ("tenant", Field::S(&attempt.spec.tenant)),
                        ("error", Field::S("attempt cap exhausted")),
                    ],
                )
            } else {
                // Interrupted mid-run (budget, deadline, or a shutdown
                // cancel without a client cancel request): back on the
                // queue to resume from the checkpoint captured above.
                entry.state = JobState::Queued;
                let key = queue_key(entry.spec.priority, entry.seq, attempt.id);
                let resume_from = entry
                    .snapshot
                    .as_ref()
                    .map_or(entry.iterations, |s| s.iterations_done);
                st.ready.insert(key);
                if let Some(tenant) = st.tenants.get_mut(&attempt.spec.tenant) {
                    tenant.queued += 1;
                }
                Counters::add(&shared.counters.requeued, 1);
                shared.journal(&format!(
                    "{{\"entry\":\"requeued\",\"job\":{}}}",
                    attempt.id
                ));
                line(
                    "requeued",
                    &[
                        ("job", Field::U(attempt.id)),
                        ("tenant", Field::S(&attempt.spec.tenant)),
                        ("stop", Field::S(&reason.to_string())),
                        ("checkpoint_iteration", Field::U(resume_from as u64)),
                    ],
                )
            }
        }
        AttemptResult::Panicked(error)
            if !entry.cancel_requested
                && entry.retries < entry.spec.retry.max_retries
                && entry.attempts < shared.config.max_attempts =>
        {
            // Transient failure with retries left: back off and requeue.
            entry.retries += 1;
            let delay_ms = entry.spec.retry.delay_ms(attempt.id, entry.retries);
            if delay_ms > 0 {
                entry.not_before = Some(Instant::now() + Duration::from_millis(delay_ms));
            }
            entry.state = JobState::Queued;
            st.ready
                .insert(queue_key(entry.spec.priority, entry.seq, attempt.id));
            if let Some(tenant) = st.tenants.get_mut(&attempt.spec.tenant) {
                tenant.queued += 1;
            }
            Counters::add(&shared.counters.retried, 1);
            shared.journal(&format!(
                "{{\"entry\":\"retried\",\"job\":{},\"retry\":{}}}",
                attempt.id, entry.retries
            ));
            line(
                "retried",
                &[
                    ("job", Field::U(attempt.id)),
                    ("tenant", Field::S(&attempt.spec.tenant)),
                    ("retry", Field::U(entry.retries as u64)),
                    ("backoff_ms", Field::U(delay_ms)),
                    ("error", Field::S(&error)),
                ],
            )
        }
        AttemptResult::Error(error) | AttemptResult::Panicked(error) => {
            let cancelled = entry.cancel_requested;
            let (state, reason) = if cancelled {
                Counters::add(&shared.counters.cancelled, 1);
                (JobState::Cancelled, StopReason::Cancelled)
            } else {
                Counters::add(&shared.counters.failed, 1);
                (JobState::Failed, StopReason::IterationLimit)
            };
            let outcome = settle(entry, state, reason, None, Some(error.clone()));
            let kind = if cancelled { "cancelled" } else { "failed" };
            shared.journal_terminal(kind, attempt.id, &outcome);
            line(
                "failed",
                &[
                    ("job", Field::U(attempt.id)),
                    ("tenant", Field::S(&attempt.spec.tenant)),
                    ("error", Field::S(&error)),
                ],
            )
        }
    };
    if let Some(tenant) = st.tenants.get_mut(&attempt.spec.tenant) {
        tenant.in_flight = tenant.in_flight.saturating_sub(1);
    }
    st.in_flight = st.in_flight.saturating_sub(1);
    drop(guard);
    shared.work_ready.notify_all();
    shared.progress.notify_all();
    shared.emit(event);
}

/// Records a terminal state and outcome on the entry, returning the
/// outcome for journaling.
fn settle(
    entry: &mut JobEntry,
    state: JobState,
    stop_reason: StopReason,
    sized: Option<&SizedOutcome>,
    error: Option<String>,
) -> JobOutcome {
    entry.state = state;
    let outcome = JobOutcome {
        stop_reason,
        iterations: entry.iterations,
        attempts: entry.attempts,
        resumed_attempts: entry.resumed_attempts,
        feasible: sized.is_some_and(|s| s.report.feasible),
        final_metrics: sized.map(|s| s.report.final_metrics),
        error,
    };
    entry.outcome = Some(outcome.clone());
    outcome
}

/// Runs one attempt inside a panic guard, classifying the three ways it
/// can come back.
fn run_guarded(
    shared: &Shared,
    attempt: &Attempt,
    instance: &ProblemInstance,
    sink: &dyn CheckpointSink,
    resume: Option<&Snapshot>,
) -> AttemptResult {
    let panic_at = shared
        .faults
        .as_ref()
        .and_then(|plan| plan.panic_iteration(attempt.id, attempt.attempt));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_attempt(shared, attempt, instance, sink, resume, panic_at)
    }));
    match outcome {
        Ok(Ok(sized)) => AttemptResult::Finished(Box::new(sized)),
        Ok(Err(e)) => AttemptResult::Error(e.to_string()),
        Err(payload) => {
            Counters::add(&shared.counters.panics, 1);
            AttemptResult::Panicked(panic_text(payload))
        }
    }
}

/// Runs one attempt of the two-stage flow: cold, or resumed from the job's
/// latest checkpoint.
fn run_attempt(
    shared: &Shared,
    attempt: &Attempt,
    instance: &ProblemInstance,
    sink: &dyn CheckpointSink,
    resume: Option<&Snapshot>,
    panic_at: Option<usize>,
) -> Result<SizedOutcome, CoreError> {
    let probe = panic_at.map(|at| PanicProbe {
        inner: &shared.counters,
        at,
        seen: AtomicUsize::new(0),
    });
    let mut policy = CheckpointPolicy::new().on_interrupt(true);
    if let Some(every) = shared.config.checkpoint_every {
        policy = policy.every(every);
    }
    let mut control = RunControl::new()
        .with_cancel_flag(attempt.flag.clone())
        .with_checkpoints(sink, policy);
    control = match &probe {
        Some(probe) => control.with_observer(probe),
        None => control.with_observer(&shared.counters),
    };
    if let Some(budget) = attempt.spec.iteration_budget {
        control = control.with_iteration_budget(budget);
    }
    if let Some(millis) = attempt.spec.attempt_timeout_ms {
        control = control.with_timeout(Duration::from_millis(millis));
    }
    let ordered = Flow::prepare(instance, attempt.spec.config.clone())?.order()?;
    ordered.size_with_engine(&mut ordered.engine(), resume.map(Start::Resume), &control)
}
#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_core::OptimizerConfig;
    use ncgws_netlist::CircuitSpec;

    /// The `server` journal entry keeps its byte layout (journals written
    /// by earlier versions must still recover) and decodes back.
    #[test]
    fn server_journal_entry_is_stable_and_decodes() {
        let config = ServerConfig {
            checkpoint_every: Some(3),
            ..ServerConfig::default()
        };
        let line = config.journal_line();
        assert_eq!(
            line,
            "{\"entry\":\"server\",\"workers\":2,\
             \"max_in_flight_per_tenant\":18446744073709551615,\
             \"max_queued_per_tenant\":18446744073709551615,\
             \"checkpoint_every\":3,\"max_attempts\":64}"
        );
        let back: ServerConfig = serde_json::from_str(&line).expect("decodes");
        assert_eq!(back.checkpoint_every, Some(3));
        assert_eq!(back.max_in_flight_per_tenant, usize::MAX);
        let none = ServerConfig::default().journal_line();
        assert!(none.contains("\"checkpoint_every\":null"), "{none}");
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_iterations: 30,
            max_lrs_sweeps: 20,
            ..OptimizerConfig::default()
        }
    }

    fn job(seed: u64) -> JobSpec {
        let spec = CircuitSpec::new("serve-test", 20, 45)
            .with_seed(seed)
            .with_num_patterns(16);
        JobSpec::new(JobInput::Synthetic(spec), quick_config())
    }

    #[test]
    fn budget_kills_requeue_and_resume_to_completion() {
        let server = Server::start(ServerConfig {
            workers: 1,
            checkpoint_every: Some(2),
            ..ServerConfig::default()
        });
        let id = server.submit(job(9).with_iteration_budget(3)).unwrap();
        let outcome = server.wait(id).unwrap();
        assert!(!outcome.stop_reason.is_interrupted());
        assert!(outcome.attempts > 1, "a 3-iteration budget must interrupt");
        assert_eq!(outcome.resumed_attempts, outcome.attempts - 1);
        assert!(outcome.final_metrics.is_some());

        // Same job served uninterrupted: the metrics must agree to 1e-6.
        let cold_id = server.submit(job(9)).unwrap();
        let cold = server.wait(cold_id).unwrap();
        let resumed = outcome.final_metrics.unwrap();
        let coldm = cold.final_metrics.unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        assert!(close(resumed.area_um2, coldm.area_um2));
        assert!(close(resumed.delay_ps, coldm.delay_ps));
        assert!(close(resumed.noise_pf, coldm.noise_pf));
        // Resumed attempts redo no finished iterations: total work matches
        // the cold run's iteration count exactly.
        assert_eq!(outcome.iterations, cold.iterations);

        let stats = server.drain();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.requeued, outcome.attempts - 1);
        assert_eq!(stats.resumed, outcome.resumed_attempts);
        assert!(stats.checkpoints > 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn attempt_cap_fails_the_job_instead_of_looping() {
        let server = Server::start(ServerConfig {
            workers: 1,
            max_attempts: 2,
            ..ServerConfig::default()
        });
        let id = server.submit(job(5).with_iteration_budget(1)).unwrap();
        let outcome = server.wait(id).unwrap();
        assert_eq!(server.job_state(id), Some(JobState::Failed));
        assert_eq!(outcome.attempts, 2);
        assert_eq!(outcome.resumed_attempts, 1);
        assert_eq!(outcome.error.as_deref(), Some("attempt cap exhausted"));
        // The job still retains its last checkpoint for a manual resubmit.
        let snapshot = server.snapshot_of(id).expect("failed job keeps snapshot");
        assert_eq!(snapshot.iterations_done, 2);
        let stats = server.drain();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn snapshot_resubmit_continues_on_a_fresh_server() {
        let first = Server::start(ServerConfig {
            workers: 1,
            max_attempts: 1,
            ..ServerConfig::default()
        });
        let id = first.submit(job(9).with_iteration_budget(5)).unwrap();
        let outcome = first.wait(id).unwrap();
        assert_eq!(outcome.attempts, 1);
        let snapshot = first.snapshot_of(id).unwrap();
        assert_eq!(snapshot.iterations_done, 5);
        first.drain();

        let second = Server::start(ServerConfig::default());
        let resumed_id = second.submit_resume(job(9), snapshot).unwrap();
        let resumed = second.wait(resumed_id).unwrap();
        assert!(!resumed.stop_reason.is_interrupted());
        assert_eq!(resumed.resumed_attempts, 1);

        let cold_id = second.submit(job(9)).unwrap();
        let cold = second.wait(cold_id).unwrap();
        assert_eq!(resumed.iterations + 5, cold.iterations);
        second.drain();
    }

    /// A snapshot of another circuit of the same size passes the submit
    /// check of a synthetic job, whose circuit is generated only when the
    /// attempt starts; it fails the resumed job there with the typed flow
    /// error's message, and the worker neither panics nor retries.
    #[test]
    fn resuming_a_snapshot_of_another_circuit_fails_the_job() {
        let server = Server::start(ServerConfig {
            workers: 1,
            max_attempts: 1,
            ..ServerConfig::default()
        });
        let id = server.submit(job(9).with_iteration_budget(2)).unwrap();
        server.wait(id).unwrap();
        let snapshot = server.snapshot_of(id).expect("budgeted job keeps snapshot");

        let other = CircuitSpec::new("serve-other", 20, 45)
            .with_seed(10)
            .with_num_patterns(16);
        let expected = {
            let instance = SyntheticGenerator::new(other.clone()).generate().unwrap();
            let ordered = Flow::prepare(&instance, quick_config())
                .unwrap()
                .order()
                .unwrap();
            let error = ordered
                .size_with_engine(
                    &mut ordered.engine(),
                    Some(Start::Resume(&snapshot)),
                    &RunControl::new(),
                )
                .unwrap_err();
            assert!(matches!(
                error,
                CoreError::InvalidConfig {
                    name: "snapshot",
                    ..
                }
            ));
            error.to_string()
        };

        let spec = JobSpec::new(JobInput::Synthetic(other), quick_config());
        let resumed_id = server.submit_resume(spec, snapshot).unwrap();
        let outcome = server.wait(resumed_id).unwrap();
        assert_eq!(server.job_state(resumed_id), Some(JobState::Failed));
        assert_eq!(outcome.error.as_deref(), Some(expected.as_str()));
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.final_metrics.is_none());
        let stats = server.drain();
        // The budgeted donor job hit its one-attempt cap, then the resume.
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.attempts_retried, 0);
    }

    /// A snapshot of the job's own circuit, taken under other constraint
    /// families, passes the submit check (the families exist only once the
    /// attempt has ordered the circuit). The attempt's start-up check then
    /// fails the job with a typed error: one attempt, no panic, and so no
    /// retry, though the job has retries left.
    #[test]
    fn resuming_under_other_constraint_families_fails_once_without_panicking() {
        let donor = Server::start(ServerConfig {
            workers: 1,
            max_attempts: 1,
            ..ServerConfig::default()
        });
        let id = donor.submit(job(9).with_iteration_budget(2)).unwrap();
        donor.wait(id).unwrap();
        let snapshot = donor.snapshot_of(id).expect("budgeted job keeps snapshot");
        donor.drain();

        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut config = quick_config();
        config
            .extra_constraints
            .push(ncgws_core::ConstraintSpec::PerNetCrosstalk { factor: 1.0 });
        let spec = JobSpec::new(job(9).input, config)
            .with_retry(crate::job::RetryPolicy::retries(3).with_seed(7));
        let resumed_id = server.submit_resume(spec, snapshot).unwrap();
        let outcome = server.wait(resumed_id).unwrap();
        assert_eq!(server.job_state(resumed_id), Some(JobState::Failed));
        let error = outcome.error.expect("a failed job carries its error");
        assert!(error.contains("snapshot"), "{error}");
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.final_metrics.is_none());
        let stats = server.drain();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.attempts_retried, 0);
    }

    /// A snapshot that does not fit the job's circuit is refused when it
    /// is submitted: for an instance job by the whole shape check, for a
    /// synthetic job by its size vector against the spec's component
    /// count. A durable server saves and journals nothing for it.
    #[test]
    fn a_snapshot_of_another_circuit_is_rejected_at_submit() {
        let donor = Server::start(ServerConfig {
            workers: 1,
            max_attempts: 1,
            ..ServerConfig::default()
        });
        let id = donor.submit(job(9).with_iteration_budget(2)).unwrap();
        donor.wait(id).unwrap();
        let snapshot = donor.snapshot_of(id).expect("budgeted job keeps snapshot");
        donor.drain();
        assert_eq!(snapshot.sizes.len(), 65);

        let dir = std::env::temp_dir().join(format!("ncgws-serve-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start_durable(&dir, ServerConfig::default()).unwrap();
        let other = CircuitSpec::new("serve-other", 30, 70)
            .with_seed(9)
            .with_num_patterns(16);
        let instance = SyntheticGenerator::new(other.clone()).generate().unwrap();
        let instance_reason = snapshot.validate_for(&instance.circuit).unwrap_err();
        assert_eq!(
            instance_reason,
            "snapshot has 65 components but the circuit has 100"
        );
        for (input, reason) in [
            (
                JobInput::Instance(Box::new(instance)),
                instance_reason.as_str(),
            ),
            (
                JobInput::Synthetic(other),
                "snapshot size vector has 65 entries, expected 100",
            ),
        ] {
            let error = server
                .submit_resume(JobSpec::new(input, quick_config()), snapshot.clone())
                .unwrap_err();
            assert_eq!(
                error,
                SubmitError::SnapshotMismatch {
                    reason: reason.to_string()
                }
            );
            assert_eq!(
                error.to_string(),
                format!("snapshot does not fit the job's circuit: {reason}")
            );
        }
        let stats = server.drain();
        assert_eq!((stats.submitted, stats.rejected), (0, 0));
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, [crate::store::JOURNAL_FILE], "only the journal");
        let entries = Journal::read_entries(&dir).unwrap();
        assert!(entries
            .iter()
            .all(|e| e.get("entry").and_then(|v| v.as_str()) != Some("submitted")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_queue_cap_rejects_submissions() {
        let server = Server::start(ServerConfig {
            workers: 1,
            max_queued_per_tenant: 0,
            ..ServerConfig::default()
        });
        let err = server.submit(job(1)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                tenant: "default".to_string()
            }
        );
        let stats = server.drain();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn events_and_memory_accounting_cover_the_queue() {
        let buffer = crate::events::SharedBuffer::new();
        let server = Server::start_with_events(
            ServerConfig {
                workers: 1,
                checkpoint_every: Some(3),
                ..ServerConfig::default()
            },
            Some(Box::new(buffer.clone())),
        );
        let id = server.submit(job(9).with_iteration_budget(3)).unwrap();
        server.wait(id).unwrap();
        // The finished job retains its final checkpoint: the server's
        // memory accounting must see it.
        let snapshot = server.snapshot_of(id).unwrap();
        let stats = server.stats();
        assert!(stats.snapshot_bytes >= snapshot.memory_bytes());
        assert_eq!(
            server.memory_bytes(),
            stats.queue_bytes + stats.snapshot_bytes
        );
        assert!(stats.iterations > 0, "observer-fed iteration counter");
        let drained = server.drain();
        assert!(drained.checkpoints > 0);
        let text = buffer.contents();
        for event in ["submitted", "started", "requeued", "completed", "drained"] {
            assert!(
                text.contains(&format!("{{\"event\":\"{event}\"")),
                "missing {event} in event stream:\n{text}"
            );
        }
        // Every line is valid JSON per the workspace parser.
        for line in text.lines() {
            serde_json::parse(line).expect("event line must parse as JSON");
        }
    }

    #[test]
    fn cancel_while_queued_is_immediate_and_unknown_ids_are_rejected() {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        // A blocker keeps the single worker busy long enough for the
        // victims to still be queued; even if it finishes early, the
        // cancel-while-running path is equally valid, so only terminal
        // states are asserted.
        let blocker = server.submit(job(2).with_priority(10)).unwrap();
        let victims: Vec<JobId> = (0..4)
            .map(|i| server.submit(job(20 + i)).unwrap())
            .collect();
        for &victim in &victims {
            server.cancel(victim);
        }
        assert!(!server.cancel(JobId(9999)));
        server.wait(blocker).unwrap();
        for &victim in &victims {
            server.wait(victim).unwrap();
            assert!(server.job_state(victim).unwrap().is_terminal());
        }
        let stats = server.drain();
        assert_eq!(stats.completed + stats.cancelled, 5);
    }
}
