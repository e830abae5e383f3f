//! Job descriptions and outcomes.
//!
//! A [`JobSpec`] is everything the [`Server`](crate::Server) needs to run
//! one sizing job: the circuit (either a generator [`CircuitSpec`] or a
//! prepared [`ProblemInstance`]), the [`OptimizerConfig`], a scheduling
//! priority and a tenant id for admission control, plus optional per-attempt
//! interruption limits (iteration budget, wall-clock timeout) that turn a
//! long run into a chain of checkpointed attempts.
//!
//! Every type here derives `Serialize`, so specs and outcomes can be logged
//! as JSON next to the server's event stream; the journalled ones (specs,
//! inputs, retry policies, outcomes) also derive `Deserialize`, so
//! [`Server::recover`](crate::Server::recover) can read them back.

use std::fmt;
use std::mem;

use ncgws_core::{CircuitMetrics, OptimizerConfig, StopReason};
use ncgws_netlist::{CircuitSpec, ProblemInstance};
use serde::{Deserialize, Serialize};

/// Opaque handle to a submitted job, returned by
/// [`Server::submit`](crate::Server::submit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The numeric id (unique per server, assigned in submission order).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its numeric form — the handle a client kept
    /// across a crash, valid against the [`Server::recover`](crate::Server::recover)ed
    /// server that assigned it.
    pub fn from_u64(id: u64) -> Self {
        JobId(id)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The circuit a job runs on.
// A spec is a couple hundred bytes and jobs are few relative to the
// instances they produce; boxing it would only push Box::new onto every
// submission site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobInput {
    /// Generate the circuit from a synthetic benchmark spec on first run
    /// (the generated instance is cached across resume attempts).
    Synthetic(CircuitSpec),
    /// A prepared problem instance, submitted as-is.
    Instance(Box<ProblemInstance>),
}

impl JobInput {
    /// The benchmark name.
    pub fn name(&self) -> &str {
        match self {
            JobInput::Synthetic(spec) => &spec.name,
            JobInput::Instance(instance) => &instance.name,
        }
    }

    /// Approximate heap footprint of the input description while it sits in
    /// the queue (counted by [`Server::stats`](crate::Server::stats) as
    /// `queue_bytes`).
    pub fn memory_bytes(&self) -> usize {
        match self {
            JobInput::Synthetic(spec) => mem::size_of::<CircuitSpec>() + spec.name.len(),
            JobInput::Instance(instance) => {
                mem::size_of::<ProblemInstance>() + instance.memory_bytes()
            }
        }
    }
}

/// How a job recovers from *transient failures* (worker panics, injected
/// faults) — distinct from the requeue-on-interrupt path, which handles
/// budget/deadline interruptions and is not counted as a failure.
///
/// A failed attempt is retried up to `max_retries` times with exponential
/// backoff: retry `r` (1-based) waits `base_delay_ms · multiplier^(r-1)`
/// capped at `max_delay_ms`, plus a deterministic seeded jitter of up to
/// `jitter` × that delay. The jitter is a pure function of
/// `(seed, job id, retry index)`, so a replayed run backs off identically.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries allowed after the first failed attempt; `0` fails fast.
    pub max_retries: usize,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Multiplier applied to the delay for each further retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Fraction (0..=1) of the delay added as seeded jitter.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: the first panic or error fails the job.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay_ms: 0,
            multiplier: 1.0,
            max_delay_ms: 0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// `max_retries` retries with a small default backoff (1 ms base,
    /// doubling, 50 ms cap, 50% jitter).
    pub fn retries(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            base_delay_ms: 1,
            multiplier: 2.0,
            max_delay_ms: 50,
            jitter: 0.5,
            seed: 0,
        }
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff before retry `retry` (1-based) of `job`, jitter included.
    pub fn delay_ms(&self, job: u64, retry: usize) -> u64 {
        if retry == 0 {
            return 0;
        }
        let exp = self.multiplier.max(1.0).powi(retry as i32 - 1);
        let base = ((self.base_delay_ms as f64) * exp).min(self.max_delay_ms as f64);
        let jitter_span = (base * self.jitter.clamp(0.0, 1.0)).floor() as u64;
        let jitter = if jitter_span == 0 {
            0
        } else {
            crate::fault::mix(self.seed, 0x6a697474, job, retry as u64) % (jitter_span + 1)
        };
        (base as u64).saturating_add(jitter).min(self.max_delay_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Everything needed to run one optimization job on a [`Server`](crate::Server).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// The circuit to size.
    pub input: JobInput,
    /// The optimizer configuration for every attempt of this job.
    pub config: OptimizerConfig,
    /// Scheduling priority: higher runs first; ties run in submission order.
    pub priority: i32,
    /// Tenant id for per-tenant admission control (queue-depth and
    /// in-flight caps).
    pub tenant: String,
    /// Outer-iteration budget *per attempt*. When it runs out the attempt
    /// stops with [`StopReason::BudgetExhausted`], a checkpoint is taken and
    /// the job is requeued to resume from it.
    pub iteration_budget: Option<usize>,
    /// Wall-clock limit *per attempt*, in milliseconds. Expiry stops the
    /// attempt with [`StopReason::DeadlineExpired`] and requeues from the
    /// latest checkpoint.
    pub attempt_timeout_ms: Option<u64>,
    /// Recovery policy for transient failures (panics); defaults to
    /// [`RetryPolicy::none`].
    pub retry: RetryPolicy,
}

impl JobSpec {
    /// A job with default priority (0), the `"default"` tenant and no
    /// per-attempt limits.
    pub fn new(input: JobInput, config: OptimizerConfig) -> Self {
        JobSpec {
            input,
            config,
            priority: 0,
            tenant: "default".to_string(),
            iteration_budget: None,
            attempt_timeout_ms: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Sets the scheduling priority (higher runs first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant id used for admission control.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the per-attempt outer-iteration budget.
    pub fn with_iteration_budget(mut self, iterations: usize) -> Self {
        self.iteration_budget = Some(iterations);
        self
    }

    /// Sets the per-attempt wall-clock limit in milliseconds.
    pub fn with_attempt_timeout_ms(mut self, millis: u64) -> Self {
        self.attempt_timeout_ms = Some(millis);
        self
    }

    /// Sets the transient-failure retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Approximate heap footprint of this spec while queued.
    pub fn memory_bytes(&self) -> usize {
        mem::size_of::<Self>() + self.input.memory_bytes() + self.tenant.len()
    }

    /// The checks decoding alone cannot make: the optimizer configuration's
    /// ranges and, for a synthetic input, the technology parameters. (A
    /// prepared instance's circuit, channels and patterns are checked as
    /// they decode.)
    ///
    /// # Errors
    ///
    /// Describes the first failed check.
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate().map_err(|e| e.to_string())?;
        if let JobInput::Synthetic(spec) = &self.input {
            spec.technology.validate().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Lifecycle state of a job, pollable via
/// [`Server::job_state`](crate::Server::job_state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Waiting in the ready queue (first submission or requeued after an
    /// interrupted attempt).
    Queued,
    /// An attempt is running on a worker right now.
    Running,
    /// Finished by the solver's own stopping rules (converged, stagnated or
    /// iteration limit).
    Completed,
    /// Cancelled by [`Server::cancel`](crate::Server::cancel).
    Cancelled,
    /// Gave up: the attempt cap was exhausted or an attempt returned a
    /// non-recoverable error.
    Failed,
}

impl JobState {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

/// Final result of a job, available from
/// [`Server::outcome`](crate::Server::outcome) once the state is terminal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Why the final attempt stopped.
    pub stop_reason: StopReason,
    /// Outer iterations actually executed, summed across every attempt
    /// (resumed attempts only count the work they did, so this is the total
    /// compute spent on the job).
    pub iterations: usize,
    /// Number of attempts started (1 for an uninterrupted job).
    pub attempts: usize,
    /// How many attempts resumed from a checkpoint instead of starting cold.
    pub resumed_attempts: usize,
    /// Whether the final attempt ended with a feasible sizing in hand.
    pub feasible: bool,
    /// Final circuit metrics (`None` when the job never finished an
    /// attempt — cancelled while queued, or failed before sizing).
    pub final_metrics: Option<CircuitMetrics>,
    /// Error text for [`JobState::Failed`] outcomes caused by an error
    /// rather than the attempt cap.
    pub error: Option<String>,
}
