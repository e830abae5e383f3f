//! Shared harness for the experiment-reproduction binaries and Criterion
//! benches.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`:
//!
//! * `table1`   — Table 1 (per-circuit noise / delay / power / area, before
//!   and after sizing, iterations, runtime, memory, and the average
//!   improvement row);
//! * `figure10` — Figure 10(a) memory vs circuit size and Figure 10(b)
//!   runtime per iteration vs circuit size;
//! * `theorem1` — the truncation-error table quoted with Theorem 1;
//! * `ablation` — the design-choice ablations (ordering strategy, noise
//!   constraint on/off, step schedule).
//!
//! The Criterion benches in `benches/` measure the micro-level costs
//! (one LRS sweep, one OGWS iteration, wire ordering, posynomial evaluation)
//! and verify the linear scaling the paper claims.

#![warn(missing_docs)]

use ncgws_core::{Flow, OptimizerConfig, SizedOutcome};
use ncgws_netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};

/// Generates the problem instance for a circuit specification, panicking on
/// error (the harness only feeds it known-good specs).
pub fn generate(spec: CircuitSpec) -> ProblemInstance {
    SyntheticGenerator::new(spec)
        .generate()
        .expect("benchmark generation succeeds")
}

/// Runs the full two-stage flow on an instance with the given
/// configuration, panicking on error.
pub fn optimize(instance: &ProblemInstance, config: OptimizerConfig) -> SizedOutcome {
    Flow::prepare(instance, config)
        .and_then(|prepared| prepared.order())
        .and_then(|ordered| ordered.size())
        .expect("optimization succeeds")
}

/// The configuration used by the Table 1 / Figure 10 reproductions:
/// the defaults (delay bound 1.0x, power bound 13%, crosstalk bound 11.5%,
/// WOSS ordering, 1% duality gap).
pub fn paper_config() -> OptimizerConfig {
    OptimizerConfig::default()
}

/// Returns `true` when the harness should only run a quick subset
/// (environment variable `NCGWS_QUICK=1`), used to keep CI fast.
pub fn quick_mode() -> bool {
    std::env::var("NCGWS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_netlist::CircuitSpec;

    #[test]
    fn harness_runs_end_to_end_on_a_tiny_circuit() {
        let instance = generate(CircuitSpec::new("harness", 30, 70).with_seed(2));
        let outcome = optimize(
            &instance,
            OptimizerConfig {
                max_iterations: 20,
                ..paper_config()
            },
        );
        assert!(outcome.report.final_metrics.area_um2 > 0.0);
    }
}
