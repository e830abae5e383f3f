//! Subgradient step-size schedules.
//!
//! OGWS requires a step size `ρ_k` with `lim ρ_k = 0` and `Σ ρ_k = ∞`
//! (a divergent-series rule), which guarantees convergence of the projected
//! subgradient method on the concave dual.

use serde::{Deserialize, Serialize};

/// A step-size schedule `ρ_k` for the OGWS outer loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StepSchedule {
    /// `ρ_k = c / k` — the classic divergent harmonic series.
    Harmonic {
        /// Scale constant `c`.
        scale: f64,
    },
    /// `ρ_k = c / √k` — slower decay, often faster in practice.
    SqrtDecay {
        /// Scale constant `c`.
        scale: f64,
    },
    /// `ρ_k = c` — constant step; does **not** satisfy the convergence
    /// conditions but is useful for ablation studies.
    Constant {
        /// The constant step.
        scale: f64,
    },
}

impl StepSchedule {
    /// The step size at (1-based) iteration `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; iterations are 1-based as in the paper.
    pub fn value(&self, k: usize) -> f64 {
        assert!(k >= 1, "iterations are 1-based");
        match *self {
            StepSchedule::Harmonic { scale } => scale / k as f64,
            StepSchedule::SqrtDecay { scale } => scale / (k as f64).sqrt(),
            StepSchedule::Constant { scale } => scale,
        }
    }

    /// The scale constant of the schedule.
    pub fn scale(&self) -> f64 {
        match *self {
            StepSchedule::Harmonic { scale }
            | StepSchedule::SqrtDecay { scale }
            | StepSchedule::Constant { scale } => scale,
        }
    }
}

impl Default for StepSchedule {
    fn default() -> Self {
        StepSchedule::SqrtDecay { scale: 8.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_decays_like_one_over_k() {
        let s = StepSchedule::Harmonic { scale: 2.0 };
        assert!((s.value(1) - 2.0).abs() < 1e-12);
        assert!((s.value(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sqrt_decay() {
        let s = StepSchedule::SqrtDecay { scale: 3.0 };
        assert!((s.value(9) - 1.0).abs() < 1e-12);
        assert_eq!(s.scale(), 3.0);
    }

    #[test]
    fn constant_is_flagged_nonconvergent() {
        let s = StepSchedule::Constant { scale: 0.1 };
        // ρ_k does not tend to 0: the divergent-series convergence
        // conditions do not hold.
        assert_eq!(s.value(1), s.value(100));
    }

    #[test]
    fn schedules_decrease_monotonically() {
        for s in [
            StepSchedule::Harmonic { scale: 1.0 },
            StepSchedule::SqrtDecay { scale: 8.0 },
        ] {
            let mut last = f64::INFINITY;
            for k in 1..50 {
                let v = s.value(k);
                assert!(v <= last);
                assert!(v > 0.0);
                last = v;
            }
        }
    }

    #[test]
    #[should_panic]
    fn zeroth_iteration_panics() {
        let _ = StepSchedule::default().value(0);
    }
}
