//! Mid-run OGWS checkpoints: the [`Snapshot`] type and its JSON codec.
//!
//! A [`Snapshot`] captures everything the outer loop needs to re-enter at an
//! iteration boundary: the current iterate, the full multiplier state (flat
//! CSR edge block, `β`/`γ`, and the extra constraint-family blocks), the
//! best-primal bookkeeping, the stagnation counter, the iteration count
//! (which drives the step schedule `ρ_k`), and — under the adaptive solve
//! strategy — the schedule's freeze/verification state
//! ([`ScheduleState`]).
//!
//! Snapshots are always taken at *completed-iteration boundaries* (the OGWS
//! loop discards a partially solved iteration when a control interrupt cuts
//! its inner LRS descent short), so a resumed run continues the exact
//! trajectory the interrupted run was on:
//!
//! * under [`SolveStrategy::Exact`](crate::SolveStrategy) the continuation
//!   is **bitwise identical** to the uninterrupted run (every LRS solve
//!   restarts from the lower bounds, so the only cross-iteration state is
//!   what the snapshot restores exactly);
//! * under the adaptive strategy the restored schedule state re-derives its
//!   electrical caches from the snapshot sizes instead of reusing the
//!   cached ones, so resumed metrics land within `1e-6`
//!   of the uninterrupted run (pinned by the `serve_checkpoint` tests);
//! * a snapshot taken at iteration 0 restores the exact run-start state, so
//!   its resume is bitwise identical under both strategies.
//!
//! Serialization goes both ways through the workspace's serde stand-in:
//! [`Snapshot::to_json`] uses the derived encoder and
//! [`Snapshot::from_json`] the derived decoder. The parts with invariants
//! check them as they decode (multiplier CSR shape, schedule vector
//! lengths); [`Snapshot::validate_for`] then checks the snapshot against
//! the circuit it resumes. Rust formats `f64` with the shortest string that
//! parses back to the same bits, so the JSON round trip is lossless and a
//! resume from a persisted snapshot equals a resume from the in-memory one.

use ncgws_circuit::{CircuitGraph, SizeVector};
use serde::{Deserialize, Serialize};

use crate::lagrangian::Multipliers;
use crate::schedule::ScheduleState;

/// Current snapshot format version ([`Snapshot::format`]).
pub const SNAPSHOT_FORMAT: u32 = 1;

/// A checkpoint of mid-run OGWS state, captured at a completed-iteration
/// boundary and sufficient to re-enter the loop with
/// [`Start::Resume`](crate::Start::Resume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version, for persisted snapshots ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Completed outer iterations (global count — a resumed run continues
    /// the step schedule at `iterations_done + 1`).
    pub iterations_done: usize,
    /// Number of sizable components of the circuit the snapshot belongs to
    /// (validated against the graph on resume).
    pub num_components: usize,
    /// The iterate after the last completed iteration (the warm seed of the
    /// adaptive schedule's next LRS solve).
    pub sizes: SizeVector,
    /// The full multiplier state after that iteration's A4 subgradient step
    /// and A5 flow projection — ready for the next LRS solve.
    pub multipliers: Multipliers,
    /// Best feasible solution found so far, if any.
    pub best_sizes: Option<SizeVector>,
    /// Area of [`best_sizes`](Self::best_sizes) (the primal upper bound);
    /// `None` exactly when no feasible iterate has been seen.
    pub best_area: Option<f64>,
    /// Best (smallest) relative duality gap observed; `None` while still
    /// infinite (no iteration completed).
    pub best_gap: Option<f64>,
    /// Best dual lower bound observed; `None` while still infinite.
    pub best_dual: Option<f64>,
    /// Consecutive iterations without primal or dual improvement (the
    /// stagnation stopping rule's counter).
    pub stagnant: usize,
    /// The adaptive schedule's freeze/verification state; `None` under the
    /// exact strategy.
    pub schedule: Option<ScheduleState>,
}

impl Snapshot {
    /// Validates that this snapshot can resume a run on `graph`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the snapshot belongs to a
    /// different circuit (component count, multiplier CSR shape, schedule
    /// dimensions) or is internally inconsistent. Whether its multiplier
    /// blocks fit the run's constraint families is checked when the run
    /// starts
    /// ([`Ordered::size_with_engine`](crate::flow::Ordered::size_with_engine)).
    pub fn validate_for(&self, graph: &CircuitGraph) -> Result<(), String> {
        if self.format != SNAPSHOT_FORMAT {
            return Err(format!(
                "snapshot format {} is not the supported format {SNAPSHOT_FORMAT}",
                self.format
            ));
        }
        let n = graph.num_components();
        if self.num_components != n {
            return Err(format!(
                "snapshot has {} components but the circuit has {n}",
                self.num_components
            ));
        }
        if self.sizes.len() != n {
            return Err(format!(
                "snapshot size vector has {} entries, expected {n}",
                self.sizes.len()
            ));
        }
        if !self.multipliers.matches(graph) {
            return Err("snapshot multipliers do not match the circuit's fanin structure".into());
        }
        match (&self.best_sizes, self.best_area) {
            (Some(best), Some(area)) => {
                if best.len() != n {
                    return Err(format!(
                        "snapshot best-size vector has {} entries, expected {n}",
                        best.len()
                    ));
                }
                if !area.is_finite() {
                    return Err("snapshot best_area must be finite when present".into());
                }
            }
            (None, None) => {}
            _ => {
                return Err(
                    "snapshot best_sizes and best_area must be present or absent together".into(),
                )
            }
        }
        if let Some(state) = &self.schedule {
            if state.num_components() != n {
                return Err(format!(
                    "snapshot schedule state covers {} components, expected {n}",
                    state.num_components()
                ));
            }
        }
        Ok(())
    }

    /// Heap + inline bytes held by the snapshot buffers (for the memory
    /// accounting that extends the Figure 10(a) breakdown to checkpoints).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let sizes = |v: &SizeVector| v.len() * size_of::<f64>();
        size_of::<Self>()
            + sizes(&self.sizes)
            + self.multipliers.memory_bytes()
            + self.best_sizes.as_ref().map_or(0, sizes)
            + self
                .schedule
                .as_ref()
                .map_or(0, ScheduleState::memory_bytes)
    }

    /// Serializes the snapshot to compact JSON (lossless: `f64` values are
    /// written in Rust's shortest round-trip decimal form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization is infallible")
    }

    /// Decodes a snapshot from the JSON produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, malformed or missing field, or
    /// broken multiplier/schedule invariant.
    pub fn from_json(input: &str) -> Result<Snapshot, serde_json::Error> {
        serde_json::from_str(input)
    }
}

/// The JSON reader, under the names this module has always exported.
pub mod json {
    pub use serde_json::{get, parse, Value as JsonValue};
}

#[cfg(test)]
mod tests {
    use super::json::{self, parse, JsonValue};

    // The reader contract snapshots and the journal rely on, through the
    // `json` re-export.

    #[test]
    fn parser_handles_the_serializer_grammar() {
        let v = parse(r#"{"a":[1,2.5,-3e-2],"b":null,"c":true,"d":"x\"y\u0001"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a: Vec<f64> = json::get(obj, "a")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect();
        assert_eq!(a, vec![1.0, 2.5, -3e-2]);
        assert_eq!(json::get(obj, "b"), Some(&JsonValue::Null));
        assert_eq!(json::get(obj, "c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\"y\u{1}"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for text in [
            "{",
            "[1,]",
            "1 2",
            "\"unterminated",
            "\"é",
            "nul",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\x\"",
            "{\"a\" 1}",
            "{1:2}",
            "-",
            "",
        ] {
            assert!(parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn parser_rejects_deep_nesting_without_overflowing() {
        // Well past any legitimate snapshot depth; must error, not crash.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        let closed = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&closed).is_err());
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integer_lexemes_stay_exact_beyond_f64_range() {
        let seed = u64::MAX - 1; // would round under an f64-only parser
        let v = parse(&format!("{{\"seed\":{seed}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
        let decoded: u64 = serde_json::from_str(&seed.to_string()).unwrap();
        assert_eq!(decoded, seed);
        // But `-0` stays a float so the sign bit survives.
        let neg = parse("-0").unwrap().as_f64().unwrap();
        assert_eq!(neg.to_bits(), (-0.0f64).to_bits());
        // And integral floats written without a fraction convert exactly.
        assert_eq!(parse("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(serde_json::from_str::<i32>("-7").unwrap(), -7);
    }

    #[test]
    fn float_round_trip_is_bitwise() {
        // Rust's f64 Display is shortest-round-trip; the parser recovers the
        // exact bits through str::parse::<f64>.
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.797_693_134_862_315_7e308,
            -2.2250738585072014e-308,
            123_456_789.123_456_78,
            -0.0,
        ] {
            let json = serde_json::to_string(&x).unwrap();
            let back: f64 = serde_json::from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {json}");
        }
    }
}
