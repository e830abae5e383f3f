//! Deterministic fault injection for the durability layer.
//!
//! A [`FaultPlan`] is a seeded description of the failures a test wants the
//! server to suffer: worker panics at a chosen iteration, simulated I/O
//! errors and torn writes in the [`DiskSnapshotStore`](crate::DiskSnapshotStore).
//! Every decision is a pure function of the plan's seed and the coordinates
//! of the event (job id, attempt number, write index), so a failing run
//! replays bit-for-bit under `cargo test` — no clocks, no thread-timing
//! dependence, no global RNG.
//!
//! The plan is threaded through the server and store as an
//! `Option<Arc<FaultPlan>>`; the `None` fast path is a single branch, so
//! production servers pay nothing for the hook.

use serde::Serialize;

/// One splitmix64 scramble step — the same finalizer the netlist generator
/// family uses, hand-rolled here because the serve crate deliberately takes
/// no RNG dependency.
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a seed with event coordinates into one well-scrambled word.
#[inline]
pub(crate) fn mix(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ domain).wrapping_add(a)).wrapping_add(b))
}

/// Maps a scrambled word to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A simulated failure for one snapshot-store write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails outright with a simulated I/O error (nothing is
    /// persisted; the previous file, if any, is untouched).
    IoError,
    /// The write is torn: the file header promises the full payload but only
    /// a prefix lands on disk, as if the process died mid-`write`. Detected
    /// on load by the length/checksum check.
    Torn,
}

// Domain tags keep the per-event hash streams independent.
const DOMAIN_PANIC: u64 = 0x70616e69; // "pani"
const DOMAIN_PANIC_ITER: u64 = 0x70697472; // "pitr"
const DOMAIN_WRITE: u64 = 0x77726974; // "writ"

/// A seeded, deterministic plan of injected failures.
///
/// All probabilities default to zero; enable the failure modes a test wants
/// with the builder methods. Attempts numbered above
/// [`faulty_attempt_limit`](Self::with_faulty_attempt_limit) never receive
/// injected panics, so a job with enough retries always makes
/// forward progress (store write faults stay on — they are recovered by the
/// checksum/fallback path, not by retrying the attempt).
#[derive(Debug, Clone, Serialize)]
pub struct FaultPlan {
    seed: u64,
    panic_probability: f64,
    panic_iteration_max: usize,
    io_error_probability: f64,
    torn_write_probability: f64,
    faulty_attempt_limit: usize,
}

impl FaultPlan {
    /// A plan with the given seed and no failures enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_probability: 0.0,
            panic_iteration_max: 4,
            io_error_probability: 0.0,
            torn_write_probability: 0.0,
            faulty_attempt_limit: 2,
        }
    }

    /// Enables worker panics: each eligible attempt panics with
    /// `probability`, at a deterministic iteration in `0..=max_iteration`.
    pub fn with_panics(mut self, probability: f64, max_iteration: usize) -> Self {
        self.panic_probability = probability.clamp(0.0, 1.0);
        self.panic_iteration_max = max_iteration;
        self
    }

    /// Enables simulated I/O errors on snapshot-store writes.
    pub fn with_io_errors(mut self, probability: f64) -> Self {
        self.io_error_probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Enables torn snapshot-store writes (header present, payload cut
    /// short — caught by the checksum on load).
    pub fn with_torn_writes(mut self, probability: f64) -> Self {
        self.torn_write_probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Attempts numbered above `limit` (1-based) never panic, guaranteeing
    /// forward progress for jobs with retries left. Default 2.
    pub fn with_faulty_attempt_limit(mut self, limit: usize) -> Self {
        self.faulty_attempt_limit = limit;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The iteration at which worker attempt `attempt` (1-based) of `job`
    /// should panic, or `None` when this attempt runs clean.
    pub fn panic_iteration(&self, job: u64, attempt: usize) -> Option<usize> {
        if self.panic_probability <= 0.0 || attempt > self.faulty_attempt_limit {
            return None;
        }
        let roll = unit(mix(self.seed, DOMAIN_PANIC, job, attempt as u64));
        if roll >= self.panic_probability {
            return None;
        }
        let z = mix(self.seed, DOMAIN_PANIC_ITER, job, attempt as u64);
        Some((z % (self.panic_iteration_max as u64 + 1)) as usize)
    }

    /// The fault injected into write number `write_index` of `job`'s
    /// snapshot file, or `None` for a clean write.
    pub fn write_fault(&self, job: u64, write_index: u64) -> Option<WriteFault> {
        let total = self.io_error_probability + self.torn_write_probability;
        if total <= 0.0 {
            return None;
        }
        let roll = unit(mix(self.seed, DOMAIN_WRITE, job, write_index));
        if roll < self.io_error_probability {
            Some(WriteFault::IoError)
        } else if roll < total {
            Some(WriteFault::Torn)
        } else {
            None
        }
    }

    /// Whether any failure mode is enabled (used to skip per-event hashing
    /// entirely on the production path).
    pub fn is_active(&self) -> bool {
        self.panic_probability > 0.0
            || self.io_error_probability > 0.0
            || self.torn_write_probability > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(42)
            .with_panics(0.5, 6)
            .with_io_errors(0.2)
            .with_torn_writes(0.2);
        let b = a.clone();
        for job in 0..50 {
            for attempt in 1..4 {
                assert_eq!(
                    a.panic_iteration(job, attempt),
                    b.panic_iteration(job, attempt)
                );
            }
            for w in 0..8 {
                assert_eq!(a.write_fault(job, w), b.write_fault(job, w));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::new(1).with_panics(0.5, 6);
        let b = FaultPlan::new(2).with_panics(0.5, 6);
        let hits_a: Vec<_> = (0..200).map(|j| a.panic_iteration(j, 1)).collect();
        let hits_b: Vec<_> = (0..200).map(|j| b.panic_iteration(j, 1)).collect();
        assert_ne!(hits_a, hits_b);
    }

    #[test]
    fn rates_land_near_their_probability() {
        let plan = FaultPlan::new(7).with_panics(0.5, 6);
        let hits = (0..2000)
            .filter(|&j| plan.panic_iteration(j, 1).is_some())
            .count();
        assert!((800..1200).contains(&hits), "got {hits} panics of 2000");
        let quiet = FaultPlan::new(7);
        assert!(!quiet.is_active());
        assert_eq!(quiet.panic_iteration(3, 1), None);
        assert_eq!(quiet.write_fault(3, 0), None);
    }

    #[test]
    fn attempts_past_the_limit_run_clean() {
        let plan = FaultPlan::new(9)
            .with_panics(1.0, 6)
            .with_faulty_attempt_limit(2);
        assert!(plan.panic_iteration(5, 1).is_some());
        assert!(plan.panic_iteration(5, 2).is_some());
        assert_eq!(plan.panic_iteration(5, 3), None);
    }
}
