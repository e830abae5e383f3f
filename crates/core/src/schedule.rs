//! Adaptive solve schedules for the OGWS inner loop.
//!
//! The paper's Figure 8 restarts every LRS solve from the component lower
//! bounds and re-evaluates all `V` components, `E` stage couplings and `P`
//! coupling pairs on every coordinate sweep. That pays the `O(V + E + P)`
//! per-sweep bound in its most wasteful form: late in an OGWS run the
//! multipliers barely move between outer iterations, the previous iterate is
//! an excellent starting point, and the overwhelming majority of components
//! are either pinned to a size bound or already at their Theorem-5 fixed
//! point. This module makes the inner loop adaptive on two independent
//! axes, selected through [`SolveStrategy`] on
//! [`OptimizerConfig`](crate::OptimizerConfig):
//!
//! * **warm-started LRS** — each solve is seeded from the previous OGWS
//!   iterate instead of the lower bounds, so a steady-state solve converges
//!   in one or two sweeps instead of re-running the whole coordinate
//!   descent;
//! * **active-set sweeps** — the engine tracks the per-component relative
//!   change of every sweep and freezes components that have stayed below
//!   [`freeze_tolerance`](AdaptiveSchedule::freeze_tolerance) for
//!   [`freeze_after`](AdaptiveSchedule::freeze_after) consecutive sweeps;
//!   steady-state sweeps then touch only the active frontier. Every
//!   [`verify_every`](AdaptiveSchedule::verify_every)-th sweep is a full
//!   *verification sweep* that resizes every component, frozen or not, and
//!   unfreezes anything that moved.
//!
//! Each sweep keeps the cached electrical tables current the way the
//! paper's loop does: a full rebuild over the level grid. A fused pass
//! rebuilds the side of the Theorem-5 formula it walks (coupling loads and
//! downstream capacitances backward, λ-weighted upstream resistances
//! forward), and a rebuild is skipped only when the tables already reflect
//! exactly the current sizes.
//!
//! [`SolveStrategy::Exact`] (the default) leaves the Figure-8 schedule
//! untouched — that path stays bitwise-pinned to [`crate::reference`]. The
//! adaptive path is validated by invariants instead of bitwise equality:
//! the final metrics land within tolerance of the exact schedule, the
//! reported duality gap is no worse, and the KKT residuals match — see the
//! `schedule_strategies` integration tests.
//!
//! Both schedules are orthogonal to the **parallel policy**
//! ([`crate::par`], [`OptimizerConfig::parallel`](crate::OptimizerConfig)):
//! the fused Gauss–Seidel passes, the exact sweeps and the timing
//! evaluations all run over one fixed block grid, with outcomes bitwise
//! identical across thread counts (the `thread_determinism` integration
//! tests pin this, including the exact path's reference pinning).

use ncgws_circuit::{EngineCacheStamp, SizeVector};
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// How the OGWS inner loop schedules its LRS solves and coordinate sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolveStrategy {
    /// The paper's exact Figure-8 schedule: every solve restarts from the
    /// lower bounds and every sweep re-evaluates and resizes every
    /// component. Bitwise-pinned to [`crate::reference`].
    Exact,
    /// The adaptive schedule: warm-started solves and active-set sweeps,
    /// tuned by the [`AdaptiveSchedule`].
    Adaptive(AdaptiveSchedule),
}

// Not derived: `#[derive(Default)]` on an enum needs a `#[default]` variant
// attribute, which the vendored serde derive cannot parse past.
#[allow(clippy::derivable_impls)]
impl Default for SolveStrategy {
    fn default() -> Self {
        SolveStrategy::Exact
    }
}

impl SolveStrategy {
    /// The adaptive strategy with its default tuning.
    pub fn adaptive() -> Self {
        SolveStrategy::Adaptive(AdaptiveSchedule::default())
    }

    /// Validates the strategy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the invalid field.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            SolveStrategy::Exact => Ok(()),
            SolveStrategy::Adaptive(schedule) => schedule.validate(),
        }
    }
}

/// Tuning of the adaptive solve schedule (see the module docs for the two
/// axes). Every solve is warm-started from the incoming sizes, and a
/// component whose relative per-sweep change stays within
/// [`freeze_tolerance`](Self::freeze_tolerance) for
/// [`freeze_after`](Self::freeze_after) consecutive sweeps is frozen until
/// a verification sweep sees it move. The defaults favor throughput while
/// keeping every invariant the `schedule_strategies` tests check; tighten
/// `freeze_tolerance` and `verify_every` to track the exact schedule more
/// closely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSchedule {
    /// Relative size change below which a sweep counts as *calm* for a
    /// component.
    pub freeze_tolerance: f64,
    /// Number of consecutive calm sweeps after which a component is frozen.
    pub freeze_after: usize,
    /// Every `verify_every`-th sweep (counted across the whole OGWS run) is
    /// a full verification sweep: every component resized, movers
    /// unfrozen.
    pub verify_every: usize,
}

impl Default for AdaptiveSchedule {
    /// Defaults tuned on the Table-1 synthetic circuits: freezing a
    /// component after one sweep below 0.1 % relative change cuts the
    /// steady-state solve to a handful of passes, while the mandatory
    /// full re-check at the start of every solve and the periodic
    /// verification sweeps keep the final metrics within ~1e-5 relative of
    /// the exact schedule (the `schedule_strategies` tests pin the
    /// invariants; tighten `freeze_tolerance` to track the exact path more
    /// closely at a throughput cost).
    fn default() -> Self {
        AdaptiveSchedule {
            freeze_tolerance: 1e-3,
            freeze_after: 1,
            verify_every: 8,
        }
    }
}

impl AdaptiveSchedule {
    /// Validates the schedule parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the invalid field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.freeze_tolerance.is_finite() && self.freeze_tolerance >= 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "freeze_tolerance",
                reason: format!(
                    "must be non-negative and finite, got {}",
                    self.freeze_tolerance
                ),
            });
        }
        if self.freeze_after == 0 {
            return Err(CoreError::InvalidConfig {
                name: "freeze_after",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.verify_every < 2 {
            return Err(CoreError::InvalidConfig {
                name: "verify_every",
                reason: "must be at least 2 (1 would make every sweep a full sweep)".to_string(),
            });
        }
        Ok(())
    }
}

/// Convergence and accounting statistics of one scheduled LRS solve
/// ([`LrsSolver::solve_scheduled`](crate::LrsSolver::solve_scheduled)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScheduledStats {
    /// Number of coordinate sweeps performed.
    pub sweeps: usize,
    /// How many of those were full verification sweeps.
    pub full_sweeps: usize,
    /// Total component resize operations across all sweeps (a full sweep
    /// touches every component once).
    pub touched_components: usize,
    /// Components frozen at the end of the solve.
    pub frozen_components: usize,
    /// Whether the solve converged below the tolerance.
    pub converged: bool,
}

/// The serializable cross-solve state of the adaptive schedule — the part
/// of `ScheduleWorkspace` a [`Snapshot`](crate::Snapshot) must carry so a
/// resumed run keeps the freeze sets and the verification-sweep cadence of
/// the interrupted one. The cached electrical tables are deliberately *not*
/// captured: a restore leaves them unsynced, so the next solve rebuilds them
/// exactly from the snapshot sizes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleState {
    /// Consecutive calm sweeps per component.
    pub calm: Vec<u32>,
    /// Frozen flag per component.
    pub frozen: Vec<bool>,
    /// Sweeps performed across the run so far (the verification cadence
    /// counter).
    pub global_sweep: usize,
}

/// Decodes the state and rejects `calm` and `frozen` vectors of different
/// lengths (both are indexed per component on restore).
impl Deserialize for ScheduleState {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "ScheduleState")?;
        let state = ScheduleState {
            calm: f.field("calm")?,
            frozen: f.field("frozen")?,
            global_sweep: f.field("global_sweep")?,
        };
        if state.calm.len() != state.frozen.len() {
            return Err(Error::custom(format!(
                "schedule state has {} calm counters but {} frozen flags",
                state.calm.len(),
                state.frozen.len()
            )));
        }
        Ok(state)
    }
}

impl ScheduleState {
    /// Number of components the state covers.
    pub fn num_components(&self) -> usize {
        self.frozen.len()
    }

    /// Bytes held by the state's buffers.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.calm.capacity() * size_of::<u32>()
            + self.frozen.capacity() * size_of::<bool>()
    }
}

/// Per-engine mutable state of the adaptive schedule: the per-component
/// frozen flags and their count, calm-streak counters, and the
/// `EngineCacheStamp` of the sizes the cached electrical tables currently
/// reflect (no copy of those sizes). A component is active exactly when it
/// is not frozen, so the active set is empty exactly when
/// `num_frozen == frozen.len()`.
///
/// Owned by [`SizingEngine`](crate::SizingEngine) so the buffers are sized
/// once per circuit and counted by
/// [`memory_bytes`](crate::SizingEngine::memory_bytes); persists across the
/// solves of one OGWS run (the cross-solve freeze state is the point) and is
/// reset by [`reset_schedule`](crate::SizingEngine::reset_schedule) at run
/// start.
#[derive(Debug, Clone)]
pub(crate) struct ScheduleWorkspace {
    /// The stamp the engine put on the sizes the cached
    /// `extra_cap`/`charged`/`presented` tables reflect, when they reflect
    /// a stamped vector's at all. Cleared by every pass that resizes a
    /// component: a `SizeVector` loses its stamp on any `&mut` call, so a
    /// vector that still carries this one holds exactly those sizes.
    pub(crate) synced: Option<EngineCacheStamp>,
    /// Set after a backward fused Gauss–Seidel sweep: `charged`/`presented`
    /// already carry the *current* sizes' own capacitances (the pass
    /// maintains them through every resize), so the forward pass that
    /// follows reads them as they are.
    pub(crate) charged_fresh: bool,
    /// Consecutive calm sweeps per component.
    pub(crate) calm: Vec<u32>,
    /// Frozen flag per component.
    pub(crate) frozen: Vec<bool>,
    /// Number of frozen components (`== frozen.iter().filter(|f| **f).count()`).
    pub(crate) num_frozen: usize,
    /// Sweeps performed across the whole run (drives the verification
    /// cadence).
    pub(crate) global_sweep: usize,
}

impl ScheduleWorkspace {
    /// Creates a workspace for a circuit with `num_components` sizable
    /// components.
    pub(crate) fn new(num_components: usize) -> Self {
        ScheduleWorkspace {
            synced: None,
            charged_fresh: false,
            calm: vec![0; num_components],
            frozen: vec![false; num_components],
            num_frozen: 0,
            global_sweep: 0,
        }
    }

    /// Whether the cached `extra_cap`/`charged`/`presented` tables reflect
    /// exactly `sizes`, so a rebuild at `sizes` would reproduce them bit for
    /// bit and may be skipped. O(1): a stamp comparison. A vector with the
    /// same values but another stamp reads as not current, which costs
    /// only a rebuild.
    pub(crate) fn tables_current(&self, sizes: &SizeVector) -> bool {
        self.synced
            .is_some_and(|stamp| sizes.has_engine_cache_stamp(stamp))
    }

    /// Calm-streak bookkeeping after one component resize, on the
    /// component's `calm` streak and `frozen` flag: a calm resize (relative
    /// change within the freeze tolerance) extends the streak and freezes
    /// the component once the streak reaches the threshold; a mover resets
    /// the streak and unfreezes.
    #[inline(always)]
    pub(crate) fn note_resize(
        calm: &mut u32,
        frozen: &mut bool,
        rel: f64,
        schedule: &AdaptiveSchedule,
    ) {
        if rel <= schedule.freeze_tolerance {
            *calm = calm.saturating_add(1);
            if *calm as usize >= schedule.freeze_after {
                *frozen = true;
            }
        } else {
            *calm = 0;
            *frozen = false;
        }
    }

    /// Recounts the frozen components from the per-component flags
    /// (linear; trivial next to a traversal pass).
    pub(crate) fn count_frozen(&mut self) {
        self.num_frozen = self.frozen.iter().filter(|&&frozen| frozen).count();
    }

    /// Resets to the run-start state: everything active, nothing cached.
    pub(crate) fn reset(&mut self) {
        self.synced = None;
        self.charged_fresh = false;
        self.calm.fill(0);
        self.frozen.fill(false);
        self.num_frozen = 0;
        self.global_sweep = 0;
    }

    /// Captures the serializable cross-solve state (for snapshots).
    pub(crate) fn capture(&self) -> ScheduleState {
        ScheduleState {
            calm: self.calm.clone(),
            frozen: self.frozen.clone(),
            global_sweep: self.global_sweep,
        }
    }

    /// Restores a captured state: freeze sets and the sweep counter come
    /// back; the cached tables stay unsynced so the next solve re-derives
    /// them exactly from the restored sizes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `state` covers a different component
    /// count (callers validate via
    /// [`Snapshot::validate_for`](crate::Snapshot::validate_for)).
    pub(crate) fn restore(&mut self, state: &ScheduleState) {
        debug_assert_eq!(state.frozen.len(), self.frozen.len());
        debug_assert_eq!(state.calm.len(), self.calm.len());
        self.reset();
        self.calm.copy_from_slice(&state.calm);
        self.frozen.copy_from_slice(&state.frozen);
        self.global_sweep = state.global_sweep;
        self.count_frozen();
    }

    /// Bytes held by the schedule buffers (for the Figure 10(a) accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.calm.capacity() * size_of::<u32>() + self.frozen.capacity() * size_of::<bool>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_exact() {
        assert_eq!(SolveStrategy::default(), SolveStrategy::Exact);
        assert!(matches!(
            SolveStrategy::adaptive(),
            SolveStrategy::Adaptive(tuning) if tuning == AdaptiveSchedule::default()
        ));
    }

    #[test]
    fn default_schedule_is_valid() {
        assert!(AdaptiveSchedule::default().validate().is_ok());
        assert!(SolveStrategy::adaptive().validate().is_ok());
        assert!(SolveStrategy::Exact.validate().is_ok());
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let bad = AdaptiveSchedule {
            freeze_tolerance: f64::NAN,
            ..AdaptiveSchedule::default()
        };
        assert!(bad.validate().is_err());
        let bad = AdaptiveSchedule {
            freeze_after: 0,
            ..AdaptiveSchedule::default()
        };
        assert!(bad.validate().is_err());
        let bad = AdaptiveSchedule {
            verify_every: 1,
            ..AdaptiveSchedule::default()
        };
        assert!(SolveStrategy::Adaptive(bad).validate().is_err());
    }

    #[test]
    fn strategy_serializes_with_its_tuning() {
        let json = serde_json::to_string(&SolveStrategy::Exact).unwrap();
        assert!(json.contains("Exact"));
        let json = serde_json::to_string(&SolveStrategy::adaptive()).unwrap();
        assert!(json.contains("Adaptive"));
        assert!(json.contains("freeze_tolerance"));
    }

    #[test]
    fn workspace_reset_restores_the_run_start_state() {
        let mut ws = ScheduleWorkspace::new(4);
        ws.frozen[2] = true;
        ws.num_frozen = 1;
        ws.calm[1] = 7;
        ws.global_sweep = 42;
        ws.synced = Some(SizeVector::uniform(4, 1.0).stamp_engine_cache());
        ws.charged_fresh = true;
        ws.reset();
        assert!(ws.synced.is_none());
        assert!(!ws.charged_fresh);
        assert_eq!(ws.num_frozen, 0);
        assert!(ws.frozen.iter().all(|f| !f));
        assert!(ws.calm.iter().all(|&c| c == 0));
        assert_eq!(ws.global_sweep, 0);
        assert!(ws.memory_bytes() > 0);
    }
}
