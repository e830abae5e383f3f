//! Optimization reports: the data behind Table 1 and Figure 10.

use serde::Serialize;

use crate::constraints::FamilySlack;
use crate::control::StopReason;
use crate::metrics::{CircuitMetrics, IterationRecord, MemoryBreakdown};

/// Relative improvements, computed as `(initial − final) / initial × 100 %`,
/// exactly as in the paper's `Impr(%)` row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Improvements {
    /// Noise (total crosstalk) improvement in percent.
    pub noise_pct: f64,
    /// Delay improvement in percent (can be negative when delay degrades).
    pub delay_pct: f64,
    /// Power improvement in percent.
    pub power_pct: f64,
    /// Area improvement in percent.
    pub area_pct: f64,
}

impl Improvements {
    /// Computes the improvements between two metric snapshots.
    pub fn between(initial: &CircuitMetrics, fin: &CircuitMetrics) -> Self {
        let pct = |init: f64, fin: f64| {
            if init.abs() < 1e-12 {
                0.0
            } else {
                (init - fin) / init * 100.0
            }
        };
        Improvements {
            noise_pct: pct(initial.noise_pf, fin.noise_pf),
            delay_pct: pct(initial.delay_ps, fin.delay_ps),
            power_pct: pct(initial.power_mw, fin.power_mw),
            area_pct: pct(initial.area_um2, fin.area_um2),
        }
    }
}

/// The complete record of one optimization run — one row of Table 1 plus the
/// scaling data of Figure 10.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub struct OptimizationReport {
    /// Benchmark name.
    pub name: String,
    /// Number of gates.
    pub num_gates: usize,
    /// Number of wires.
    pub num_wires: usize,
    /// Metrics before sizing (the paper's `Init` columns).
    pub initial_metrics: CircuitMetrics,
    /// Metrics after sizing (the paper's `Fin` columns).
    pub final_metrics: CircuitMetrics,
    /// Relative improvements.
    pub improvements: Improvements,
    /// Number of outer (OGWS) iterations (the paper's `ite` column).
    pub iterations: usize,
    /// Total runtime in seconds (the paper's `time` column).
    pub runtime_seconds: f64,
    /// Average runtime per outer iteration in seconds (Figure 10(b)).
    pub seconds_per_iteration: f64,
    /// Total inner LRS sweeps across the run.
    pub sweeps_total: usize,
    /// Average inner sweeps per LRS solve — the schedule win the adaptive
    /// strategy's warm starts buy (the exact schedule restarts the whole
    /// coordinate descent every solve).
    pub mean_sweeps_per_solve: f64,
    /// Average components touched (resized) per sweep — the circuit size
    /// under the exact schedule, the active frontier under the adaptive
    /// one.
    pub mean_touched_per_sweep: f64,
    /// Memory accounting (Figure 10(a); the paper's `mem` column).
    pub memory: MemoryBreakdown,
    /// Whether the returned sizing satisfies every constraint (the three
    /// global bounds and every extra family).
    pub feasible: bool,
    /// Per-family slack summary of the extra constraint system at the final
    /// sizing (empty for the paper's three-bound formulation).
    pub constraint_slacks: Vec<FamilySlack>,
    /// Whether the duality gap reached the configured tolerance.
    pub converged: bool,
    /// Why the OGWS outer loop stopped (convergence, stagnation, a limit,
    /// or a [`RunControl`](crate::RunControl) interruption).
    pub stop_reason: StopReason,
    /// Best duality gap observed.
    pub duality_gap: f64,
    /// Per-iteration progress records.
    pub iteration_records: Vec<IterationRecord>,
    /// Total effective loading of the stage-1 wire ordering.
    pub ordering_effective_loading: f64,
}

impl OptimizationReport {
    /// Total number of gates and wires (the paper's `tot` column).
    pub fn total_components(&self) -> usize {
        self.num_gates + self.num_wires
    }

    /// Renders the report as one row in the style of the paper's Table 1.
    pub fn table1_row(&self) -> String {
        format!(
            "{:<8} {:>6} {:>6} {:>6} {:>9.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>8.2} {:>10.0} {:>9.0} {:>4} {:>8.1} {:>8.0}",
            self.name,
            self.num_gates,
            self.num_wires,
            self.total_components(),
            self.initial_metrics.noise_pf,
            self.final_metrics.noise_pf,
            self.initial_metrics.delay_ps,
            self.final_metrics.delay_ps,
            self.initial_metrics.power_mw,
            self.final_metrics.power_mw,
            self.initial_metrics.area_um2,
            self.final_metrics.area_um2,
            self.iterations,
            self.runtime_seconds,
            self.memory.total() as f64 / 1024.0,
        )
    }

    /// The header matching [`table1_row`](Self::table1_row).
    pub fn table1_header() -> String {
        format!(
            "{:<8} {:>6} {:>6} {:>6} {:>9} {:>8} {:>9} {:>9} {:>9} {:>8} {:>10} {:>9} {:>4} {:>8} {:>8}",
            "Ckt", "#G", "#W", "tot", "NoiseI", "NoiseF", "DelayI", "DelayF", "PowerI", "PowerF",
            "AreaI", "AreaF", "ite", "time(s)", "mem(KB)"
        )
    }
}

/// Averages the improvements of several reports (the paper's `Impr(%)` row).
pub fn average_improvements(reports: &[OptimizationReport]) -> Improvements {
    if reports.is_empty() {
        return Improvements {
            noise_pct: 0.0,
            delay_pct: 0.0,
            power_pct: 0.0,
            area_pct: 0.0,
        };
    }
    let n = reports.len() as f64;
    Improvements {
        noise_pct: reports
            .iter()
            .map(|r| r.improvements.noise_pct)
            .sum::<f64>()
            / n,
        delay_pct: reports
            .iter()
            .map(|r| r.improvements.delay_pct)
            .sum::<f64>()
            / n,
        power_pct: reports
            .iter()
            .map(|r| r.improvements.power_pct)
            .sum::<f64>()
            / n,
        area_pct: reports.iter().map(|r| r.improvements.area_pct).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(scale: f64) -> CircuitMetrics {
        CircuitMetrics {
            noise_pf: 10.0 * scale,
            delay_ps: 1000.0 * scale,
            power_mw: 100.0 * scale,
            area_um2: 50_000.0 * scale,
            crosstalk_ff: 10_000.0 * scale,
            delay_internal: 1_000_000.0 * scale,
            total_capacitance_ff: 40_000.0 * scale,
        }
    }

    fn report(name: &str, final_scale: f64) -> OptimizationReport {
        let initial = metrics(1.0);
        let fin = metrics(final_scale);
        OptimizationReport {
            name: name.to_string(),
            num_gates: 10,
            num_wires: 20,
            initial_metrics: initial,
            final_metrics: fin,
            improvements: Improvements::between(&initial, &fin),
            iterations: 7,
            runtime_seconds: 1.5,
            seconds_per_iteration: 0.2,
            sweeps_total: 21,
            mean_sweeps_per_solve: 3.0,
            mean_touched_per_sweep: 30.0,
            memory: MemoryBreakdown {
                circuit_bytes: 10,
                coupling_bytes: 10,
                multiplier_bytes: 10,
                working_bytes: 10,
            },
            feasible: true,
            constraint_slacks: Vec::new(),
            converged: true,
            stop_reason: StopReason::Converged,
            duality_gap: 0.005,
            iteration_records: Vec::new(),
            ordering_effective_loading: 3.0,
        }
    }

    #[test]
    fn improvements_match_the_paper_formula() {
        let initial = metrics(1.0);
        let fin = metrics(0.1);
        let imp = Improvements::between(&initial, &fin);
        assert!((imp.noise_pct - 90.0).abs() < 1e-9);
        assert!((imp.area_pct - 90.0).abs() < 1e-9);
        // A degradation shows as a negative improvement.
        let worse = metrics(1.2);
        let imp = Improvements::between(&initial, &worse);
        assert!(imp.delay_pct < 0.0);
    }

    #[test]
    fn zero_initial_values_do_not_divide_by_zero() {
        let mut initial = metrics(1.0);
        initial.noise_pf = 0.0;
        let imp = Improvements::between(&initial, &metrics(0.5));
        assert_eq!(imp.noise_pct, 0.0);
    }

    #[test]
    fn table_rendering_contains_the_key_numbers() {
        let r = report("c432", 0.2);
        let row = r.table1_row();
        assert!(row.contains("c432"));
        assert!(row.contains("30")); // total components
        let header = OptimizationReport::table1_header();
        assert_eq!(
            header.split_whitespace().count(),
            row.split_whitespace().count()
        );
    }

    #[test]
    fn averaging_improvements() {
        let reports = vec![report("a", 0.1), report("b", 0.3)];
        let avg = average_improvements(&reports);
        assert!((avg.noise_pct - 80.0).abs() < 1e-9);
        let empty = average_improvements(&[]);
        assert_eq!(empty.noise_pct, 0.0);
    }
}
