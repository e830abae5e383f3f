//! Circuit metrics (noise, delay, power, area) and run instrumentation.

use ncgws_circuit::{CircuitGraph, SizeVector, TimingAnalysis};
use ncgws_coupling::CouplingSet;
use serde::{Deserialize, Serialize};

use crate::units;

/// The four quantities of the paper's Table 1, plus the raw internal values
/// the optimizer works with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitMetrics {
    /// Total crosstalk (physical coupling capacitance, exact model) in pF.
    pub noise_pf: f64,
    /// Critical-path delay in ps.
    pub delay_ps: f64,
    /// Dynamic power in mW.
    pub power_mw: f64,
    /// Total area in µm².
    pub area_um2: f64,
    /// Total crosstalk in the engine's fF units (linearized constraint form).
    pub crosstalk_ff: f64,
    /// Critical-path delay in the engine's Ω·fF units.
    pub delay_internal: f64,
    /// Total switched capacitance in fF (the power constraint's quantity).
    pub total_capacitance_ff: f64,
}

impl CircuitMetrics {
    /// Evaluates all metrics for a circuit under `sizes`, with coupling
    /// included in the delay model.
    ///
    /// This is the allocate-per-call path: the order phase's one-shot
    /// evaluation of the initial sizing, and the reference the engine is
    /// checked against. Hot loops should build a
    /// [`SizingEngine`](crate::SizingEngine) once and use
    /// [`SizingEngine::metrics`](crate::SizingEngine::metrics), which is
    /// bitwise identical and does not allocate.
    pub fn evaluate(graph: &CircuitGraph, coupling: &CouplingSet, sizes: &SizeVector) -> Self {
        let extra = coupling.delay_load_per_node(graph, sizes);
        let timing = TimingAnalysis::run(graph, sizes, Some(&extra));
        let total_cap = ncgws_circuit::total_capacitance(graph, sizes);
        let area = ncgws_circuit::total_area(graph, sizes);
        let noise_exact = coupling.total_physical_coupling(graph, sizes);
        let crosstalk_lin = coupling.total_crosstalk(graph, sizes);
        CircuitMetrics {
            noise_pf: units::pf_from_ff(noise_exact),
            delay_ps: units::ps_from_internal(timing.critical_path_delay),
            power_mw: units::mw_from_ff(total_cap, graph.technology().power_scale_mw_per_ff()),
            area_um2: area,
            crosstalk_ff: crosstalk_lin,
            delay_internal: timing.critical_path_delay,
            total_capacitance_ff: total_cap,
        }
    }
}

/// One outer (OGWS) iteration's progress record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Primal objective `Σ α_i x_i` of the LRS solution (µm²).
    pub primal_area: f64,
    /// Dual value `min_x L(x)` including the `−A₀·Σλ` constant (µm²).
    pub dual_value: f64,
    /// Relative duality gap used for the stopping rule.
    pub gap: f64,
    /// Worst delay-constraint violation (Ω·fF; ≤ 0 when met).
    pub delay_violation: f64,
    /// Power-constraint violation (fF; ≤ 0 when met).
    pub power_violation: f64,
    /// Crosstalk-constraint violation (fF; ≤ 0 when met).
    pub crosstalk_violation: f64,
    /// Worst violation of the extra constraint families, relative to its
    /// bound and clamped at zero (0 when all extra constraints are met or
    /// none exist).
    pub extra_violation: f64,
    /// Wall-clock time of this iteration in seconds.
    pub seconds: f64,
    /// Number of inner LRS sweeps performed.
    pub lrs_sweeps: usize,
    /// Total component resize operations across this solve's sweeps (an
    /// exact-schedule sweep touches every component, so this is
    /// `lrs_sweeps × components` there; the adaptive schedule touches only
    /// the active frontier).
    pub touched_components: usize,
    /// Components frozen by the active-set schedule at the end of this
    /// solve (0 under the exact schedule).
    pub frozen_components: usize,
}

/// Byte-level accounting of the optimizer's live data structures, the
/// quantity plotted in Figure 10(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemoryBreakdown {
    /// Bytes held by the circuit graph.
    pub circuit_bytes: usize,
    /// Bytes held by the coupling set.
    pub coupling_bytes: usize,
    /// Bytes held by the multipliers.
    pub multiplier_bytes: usize,
    /// Bytes held by per-node working vectors (sizes, delays, arrival times,
    /// capacitances, upstream resistances).
    pub working_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.circuit_bytes + self.coupling_bytes + self.multiplier_bytes + self.working_bytes
    }

    /// Total in mebibytes.
    pub fn total_mib(&self) -> f64 {
        self.total() as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, NodeId, Technology};
    use ncgws_coupling::{CouplingPair, WirePairGeometry};

    fn setup() -> (CircuitGraph, CouplingSet) {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 120.0).unwrap();
        let w2 = b.add_wire("w2", 150.0).unwrap();
        let g = b.add_gate("g", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 90.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(w2, g).unwrap();
        b.connect(g, w3).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        let graph = b.build().unwrap();
        let w1 = graph.node_by_name("w1").unwrap();
        let w2 = graph.node_by_name("w2").unwrap();
        let geom = WirePairGeometry::new(100.0, 12.0, 0.03).unwrap();
        let coupling =
            CouplingSet::new(&graph, vec![CouplingPair::new(w1, w2, geom).unwrap()]).unwrap();
        (graph, coupling)
    }

    #[test]
    fn metrics_are_positive_and_scale_with_size() {
        let (graph, coupling) = setup();
        let small = CircuitMetrics::evaluate(&graph, &coupling, &graph.uniform_sizes(0.5));
        let large = CircuitMetrics::evaluate(&graph, &coupling, &graph.uniform_sizes(5.0));
        for m in [&small, &large] {
            assert!(m.noise_pf > 0.0);
            assert!(m.delay_ps > 0.0);
            assert!(m.power_mw > 0.0);
            assert!(m.area_um2 > 0.0);
        }
        assert!(large.area_um2 > small.area_um2);
        assert!(large.power_mw > small.power_mw);
        assert!(large.noise_pf > small.noise_pf);
    }

    #[test]
    fn unit_conversions_are_consistent() {
        let (graph, coupling) = setup();
        let sizes = graph.uniform_sizes(1.0);
        let m = CircuitMetrics::evaluate(&graph, &coupling, &sizes);
        assert!((m.delay_ps - m.delay_internal / 1000.0).abs() < 1e-9);
        let expected_power = m.total_capacitance_ff * graph.technology().power_scale_mw_per_ff();
        assert!((m.power_mw - expected_power).abs() < 1e-9);
    }

    #[test]
    fn coupling_free_circuit_has_zero_noise() {
        let (graph, _) = setup();
        let empty = CouplingSet::empty(&graph);
        let m = CircuitMetrics::evaluate(&graph, &empty, &graph.uniform_sizes(1.0));
        assert_eq!(m.noise_pf, 0.0);
        assert_eq!(m.crosstalk_ff, 0.0);
        let _ = NodeId::new(0);
    }

    #[test]
    fn memory_breakdown_totals() {
        let mb = MemoryBreakdown {
            circuit_bytes: 1000,
            coupling_bytes: 500,
            multiplier_bytes: 200,
            working_bytes: 300,
        };
        assert_eq!(mb.total(), 2000);
        assert!((mb.total_mib() - 2000.0 / 1048576.0).abs() < 1e-12);
    }
}
