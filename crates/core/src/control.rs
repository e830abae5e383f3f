//! Run control for the OGWS outer loop: progress observers, cooperative
//! cancellation, iteration budgets and wall-clock deadlines.
//!
//! A [`RunControl`] is threaded through [`OgwsSolver`](crate::OgwsSolver)
//! (and from there into the inner [`LrsSolver`](crate::LrsSolver) sweeps) by
//! the [`flow`](crate::flow) pipeline. Every limit is *cooperative*: the
//! solver checks them between iterations (and between LRS sweeps), stops
//! cleanly, and records why it stopped as a [`StopReason`] in the
//! [`OgwsOutcome`](crate::OgwsOutcome) and
//! [`OptimizationReport`](crate::OptimizationReport).
//!
//! Observers receive one [`IterationEvent`] per outer iteration through a
//! `&self` method, so a single observer can watch many concurrent runs
//! (runs on several threads may share one control); implementors use
//! interior mutability (atomics, mutexes) for their state.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::metrics::IterationRecord;
use crate::snapshot::Snapshot;

/// Why an OGWS run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StopReason {
    /// The relative duality gap dropped below the configured tolerance with
    /// a feasible iterate in hand (A7 of Figure 9).
    Converged,
    /// Neither the primal nor the dual bound improved for a long stretch;
    /// the subgradient method stalled within its step resolution.
    Stagnated,
    /// The configured `max_iterations` were exhausted.
    IterationLimit,
    /// The [`RunControl`] iteration budget was exhausted.
    BudgetExhausted,
    /// The run was cancelled through a [`CancelFlag`].
    Cancelled,
    /// The [`RunControl`] wall-clock deadline expired.
    DeadlineExpired,
}

impl StopReason {
    /// `true` when the run was interrupted by its [`RunControl`] (cancelled,
    /// out of budget, or past the deadline) rather than by the solver's own
    /// stopping rules.
    pub fn is_interrupted(self) -> bool {
        matches!(
            self,
            StopReason::BudgetExhausted | StopReason::Cancelled | StopReason::DeadlineExpired
        )
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Converged => "converged",
            StopReason::Stagnated => "stagnated",
            StopReason::IterationLimit => "iteration-limit",
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline-expired",
        };
        f.write_str(s)
    }
}

/// A cloneable, thread-safe cancellation flag.
///
/// Clones share one underlying flag: cancelling any clone cancels every run
/// holding one. Cancellation is sticky — there is deliberately no `reset`,
/// so a flag observed as cancelled stays cancelled for the rest of its life
/// (hand a fresh flag to a fresh run instead).
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// Creates a new, uncancelled flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Requests cancellation of every run sharing this flag.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One outer (OGWS) iteration, as seen by an [`Observer`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct IterationEvent<'a> {
    /// The full progress record of this iteration: iteration number, primal
    /// and dual values, duality gap, constraint violations, LRS sweeps and
    /// wall-clock time.
    pub record: &'a IterationRecord,
    /// The subgradient step size `ρ_k` used by this iteration.
    pub step: f64,
    /// Best (smallest) relative duality gap observed so far.
    pub best_gap: f64,
    /// Whether this iteration's LRS solution satisfies every constraint.
    pub feasible: bool,
}

/// Receives per-iteration progress events from an OGWS run.
///
/// Methods take `&self` so one observer can serve several concurrent runs
/// (one [`RunControl`] shared across threads); the `Sync` supertrait makes
/// that sharing sound. Use interior mutability for any state.
pub trait Observer: Sync {
    /// Called after every outer iteration, in iteration order per run.
    fn on_iteration(&self, event: &IterationEvent<'_>);
}

/// An [`Observer`] that records `(iteration, duality gap)` snapshots —
/// handy for tests, examples and convergence plots.
#[derive(Debug, Default)]
pub struct CollectObserver {
    events: Mutex<Vec<(usize, f64)>>,
}

impl CollectObserver {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CollectObserver::default()
    }

    /// Number of events observed so far.
    pub fn count(&self) -> usize {
        self.events.lock().expect("observer lock").len()
    }

    /// The `(iteration, gap)` snapshots observed so far.
    pub fn snapshots(&self) -> Vec<(usize, f64)> {
        self.events.lock().expect("observer lock").clone()
    }
}

impl Observer for CollectObserver {
    fn on_iteration(&self, event: &IterationEvent<'_>) {
        self.events
            .lock()
            .expect("observer lock")
            .push((event.record.iteration, event.record.gap));
    }
}

/// When the OGWS loop should capture a [`Snapshot`] for an attached
/// [`CheckpointSink`].
///
/// Snapshots are taken at completed-iteration boundaries: periodically
/// (`every_iterations`) and/or when the run is interrupted by its control
/// (`on_interrupt`, covering [`StopReason::Cancelled`],
/// [`StopReason::DeadlineExpired`] and [`StopReason::BudgetExhausted`]).
/// The default policy checkpoints only on interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture a snapshot after every `n` completed outer iterations
    /// (counted globally, so a resumed run keeps the original cadence).
    /// `None` disables periodic capture.
    pub every_iterations: Option<usize>,
    /// Capture a final snapshot when the run stops with an interrupted
    /// [`StopReason`], so the caller can resume it later.
    pub on_interrupt: bool,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_iterations: None,
            on_interrupt: true,
        }
    }
}

impl CheckpointPolicy {
    /// The default policy: no periodic capture, snapshot on interrupt.
    pub fn new() -> Self {
        CheckpointPolicy::default()
    }

    /// Enables periodic capture every `n` completed iterations.
    pub fn every(mut self, n: usize) -> Self {
        self.every_iterations = Some(n.max(1));
        self
    }

    /// Sets whether an interrupted run captures a final snapshot.
    pub fn on_interrupt(mut self, enabled: bool) -> Self {
        self.on_interrupt = enabled;
        self
    }
}

/// Receives [`Snapshot`]s captured by the OGWS loop under a
/// [`CheckpointPolicy`].
///
/// Like [`Observer`], methods take `&self` and the trait is `Sync`, so one
/// sink can serve many concurrent runs.
pub trait CheckpointSink: Sync {
    /// Called with each captured snapshot, in capture order per run.
    fn on_checkpoint(&self, snapshot: Snapshot);
}

/// A [`CheckpointSink`] that keeps the most recent [`Snapshot`] — the
/// building block of requeue-on-interrupt serving (see `ncgws-serve`).
#[derive(Debug, Default)]
pub struct SnapshotStore {
    latest: Mutex<Option<Snapshot>>,
    taken: AtomicUsize,
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// A clone of the most recent snapshot, if any was captured.
    pub fn latest(&self) -> Option<Snapshot> {
        self.latest.lock().expect("snapshot store lock").clone()
    }

    /// Removes and returns the most recent snapshot.
    pub fn take(&self) -> Option<Snapshot> {
        self.latest.lock().expect("snapshot store lock").take()
    }

    /// Total snapshots delivered to this store over its lifetime.
    pub fn count(&self) -> usize {
        self.taken.load(Ordering::Relaxed)
    }

    /// Bytes held by the stored snapshot's buffers (0 when empty).
    pub fn memory_bytes(&self) -> usize {
        self.latest
            .lock()
            .expect("snapshot store lock")
            .as_ref()
            .map_or(0, Snapshot::memory_bytes)
    }
}

impl CheckpointSink for SnapshotStore {
    fn on_checkpoint(&self, snapshot: Snapshot) {
        *self.latest.lock().expect("snapshot store lock") = Some(snapshot);
        self.taken.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cooperative limits and instrumentation for one (or many) OGWS runs.
///
/// The default control imposes nothing: no observer, no cancellation, no
/// budget, no deadline — a run under `RunControl::new()` behaves exactly
/// like one without any control.
///
/// ```
/// use std::time::Duration;
/// use ncgws_core::{CancelFlag, RunControl};
///
/// let flag = CancelFlag::new();
/// let control = RunControl::new()
///     .with_cancel_flag(flag.clone())
///     .with_iteration_budget(200)
///     .with_timeout(Duration::from_secs(5));
/// assert!(!control.interrupted());
/// flag.cancel();
/// assert!(control.interrupted());
/// ```
#[derive(Clone, Default)]
pub struct RunControl<'a> {
    observer: Option<&'a dyn Observer>,
    cancel: Option<CancelFlag>,
    iteration_budget: Option<usize>,
    deadline: Option<Instant>,
    checkpoint_sink: Option<&'a dyn CheckpointSink>,
    checkpoint_policy: CheckpointPolicy,
}

impl fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("observer", &self.observer.map(|_| "dyn Observer"))
            .field("cancel", &self.cancel)
            .field("iteration_budget", &self.iteration_budget)
            .field("deadline", &self.deadline)
            .field(
                "checkpoint_sink",
                &self.checkpoint_sink.map(|_| "dyn CheckpointSink"),
            )
            .field("checkpoint_policy", &self.checkpoint_policy)
            .finish()
    }
}

impl<'a> RunControl<'a> {
    /// A control that imposes no limits and reports to no one.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Attaches a progress observer.
    pub fn with_observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a cancellation flag (typically a clone of a flag the caller
    /// keeps to cancel the run from another thread or an observer).
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Caps the number of outer iterations, on top of the configuration's
    /// `max_iterations`. Exceeding the budget stops the run with
    /// [`StopReason::BudgetExhausted`].
    pub fn with_iteration_budget(mut self, iterations: usize) -> Self {
        self.iteration_budget = Some(iterations);
        self
    }

    /// Sets an absolute wall-clock deadline. A run past the deadline stops
    /// with [`StopReason::DeadlineExpired`] before its next iteration (and
    /// between LRS sweeps within an iteration).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now (see
    /// [`with_deadline`](Self::with_deadline)).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// The iteration budget, if any.
    pub fn iteration_budget(&self) -> Option<usize> {
        self.iteration_budget
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` once the attached flag has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// `true` once the deadline has passed. Reads the clock only when a
    /// deadline is set, so an unlimited control costs nothing.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` when the run should stop mid-iteration: cancelled or past the
    /// deadline (the iteration budget only applies at iteration boundaries).
    pub fn interrupted(&self) -> bool {
        self.is_cancelled() || self.deadline_expired()
    }

    /// Checks every limit before an iteration starts. `iterations_done` is
    /// the number of completed outer iterations.
    pub fn stop_before_iteration(&self, iterations_done: usize) -> Option<StopReason> {
        if self.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if self.deadline_expired() {
            return Some(StopReason::DeadlineExpired);
        }
        if self
            .iteration_budget
            .is_some_and(|budget| iterations_done >= budget)
        {
            return Some(StopReason::BudgetExhausted);
        }
        None
    }

    /// Delivers an event to the observer, if one is attached.
    pub fn notify(&self, event: &IterationEvent<'_>) {
        if let Some(observer) = self.observer {
            observer.on_iteration(event);
        }
    }

    /// Attaches a checkpoint sink and its capture policy. The OGWS loop
    /// delivers [`Snapshot`]s per the policy; without a sink, no snapshot
    /// is ever built (checkpointing costs nothing when unused).
    pub fn with_checkpoints(
        mut self,
        sink: &'a dyn CheckpointSink,
        policy: CheckpointPolicy,
    ) -> Self {
        self.checkpoint_sink = Some(sink);
        self.checkpoint_policy = policy;
        self
    }

    /// The checkpoint capture policy (meaningful only with a sink attached).
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.checkpoint_policy
    }

    /// `true` when a checkpoint sink is attached.
    pub fn has_checkpoint_sink(&self) -> bool {
        self.checkpoint_sink.is_some()
    }

    /// `true` when the policy asks for a periodic snapshot after completed
    /// (global) iteration `iterations_done`.
    pub fn checkpoint_due(&self, iterations_done: usize) -> bool {
        self.checkpoint_sink.is_some()
            && iterations_done > 0
            && self
                .checkpoint_policy
                .every_iterations
                .is_some_and(|n| iterations_done.is_multiple_of(n))
    }

    /// `true` when the policy asks for a final snapshot on an interrupted
    /// stop.
    pub fn checkpoint_on_interrupt(&self) -> bool {
        self.checkpoint_sink.is_some() && self.checkpoint_policy.on_interrupt
    }

    /// Delivers a snapshot to the sink, if one is attached.
    pub fn deliver_checkpoint(&self, snapshot: Snapshot) {
        if let Some(sink) = self.checkpoint_sink {
            sink.on_checkpoint(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iteration: usize) -> IterationRecord {
        IterationRecord {
            iteration,
            primal_area: 1.0,
            dual_value: 0.5,
            gap: 0.5,
            delay_violation: 0.0,
            power_violation: 0.0,
            crosstalk_violation: 0.0,
            extra_violation: 0.0,
            seconds: 0.0,
            lrs_sweeps: 1,
            touched_components: 0,
            frozen_components: 0,
        }
    }

    #[test]
    fn default_control_imposes_nothing() {
        let control = RunControl::new();
        assert!(!control.interrupted());
        assert_eq!(control.stop_before_iteration(1_000_000), None);
        // Notifying without an observer is a no-op.
        let r = record(1);
        control.notify(&IterationEvent {
            record: &r,
            step: 0.1,
            best_gap: 0.5,
            feasible: false,
        });
    }

    #[test]
    fn cancel_flag_is_shared_and_sticky() {
        let flag = CancelFlag::new();
        let control = RunControl::new().with_cancel_flag(flag.clone());
        assert!(!control.is_cancelled());
        flag.cancel();
        assert!(control.is_cancelled());
        assert_eq!(
            control.stop_before_iteration(0),
            Some(StopReason::Cancelled)
        );
        assert!(control.interrupted());
    }

    #[test]
    fn budget_applies_at_iteration_boundaries() {
        let control = RunControl::new().with_iteration_budget(3);
        assert_eq!(control.stop_before_iteration(2), None);
        assert_eq!(
            control.stop_before_iteration(3),
            Some(StopReason::BudgetExhausted)
        );
        // The budget alone never interrupts mid-iteration.
        assert!(!control.interrupted());
    }

    #[test]
    fn expired_deadline_stops_and_interrupts() {
        let control = RunControl::new().with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(control.deadline_expired());
        assert!(control.interrupted());
        assert_eq!(
            control.stop_before_iteration(0),
            Some(StopReason::DeadlineExpired)
        );
        // Cancellation takes precedence over the deadline.
        let flag = CancelFlag::new();
        flag.cancel();
        let control = control.with_cancel_flag(flag);
        assert_eq!(
            control.stop_before_iteration(0),
            Some(StopReason::Cancelled)
        );
    }

    #[test]
    fn collect_observer_records_events_in_order() {
        let collector = CollectObserver::new();
        let control = RunControl::new().with_observer(&collector);
        for k in 1..=3 {
            let r = record(k);
            control.notify(&IterationEvent {
                record: &r,
                step: 0.1,
                best_gap: 0.5,
                feasible: true,
            });
        }
        assert_eq!(collector.count(), 3);
        let iterations: Vec<usize> = collector.snapshots().iter().map(|&(k, _)| k).collect();
        assert_eq!(iterations, vec![1, 2, 3]);
    }

    #[test]
    fn stop_reason_display_and_interrupted() {
        assert_eq!(StopReason::Converged.to_string(), "converged");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert!(StopReason::Cancelled.is_interrupted());
        assert!(StopReason::DeadlineExpired.is_interrupted());
        assert!(StopReason::BudgetExhausted.is_interrupted());
        assert!(!StopReason::Converged.is_interrupted());
        assert!(!StopReason::Stagnated.is_interrupted());
        assert!(!StopReason::IterationLimit.is_interrupted());
    }
}
