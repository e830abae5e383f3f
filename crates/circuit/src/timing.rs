//! Arrival times and the critical path.
//!
//! The paper's problem `PP` replaces the exponential path enumeration with
//! one arrival-time variable `a_i` per node and the constraints
//!
//! * `D_i ≤ a_i` for the input drivers,
//! * `a_j + D_i ≤ a_i` for every component `i` and every `j ∈ input(i)`,
//! * `a_j ≤ A_0` for every `j ∈ input(~t)` (the primary outputs).
//!
//! [`TimingAnalysis`] computes the tightest arrival times (the usual static
//! timing analysis forward propagation), the critical path delay and the
//! critical path itself.

use serde::Serialize;

use crate::elmore::ElmoreAnalyzer;
use crate::graph::CircuitGraph;
use crate::id::NodeId;
use crate::sizing::SizeVector;

/// Arrival times for every node of a circuit under a particular sizing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArrivalTimes {
    /// Arrival time `a_i` per raw node index (0 for source; the sink holds
    /// the circuit delay).
    pub values: Vec<f64>,
}

impl ArrivalTimes {
    /// Arrival time of a node.
    pub fn of(&self, id: NodeId) -> f64 {
        self.values[id.index()]
    }
}

/// Complete timing picture of a circuit under a particular sizing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimingAnalysis {
    /// Per-component Elmore delays `D_i` (raw node index).
    pub delays: Vec<f64>,
    /// Tightest arrival times `a_i` (raw node index).
    pub arrival: ArrivalTimes,
    /// Delay of the critical path (the circuit delay `D`).
    pub critical_path_delay: f64,
    /// The nodes of one critical path, from a driver to a primary output.
    pub critical_path: Vec<NodeId>,
}

impl TimingAnalysis {
    /// Runs delay computation and arrival-time propagation for the circuit
    /// under `sizes`, with optional per-node extra (coupling) capacitance.
    pub fn run(
        graph: &CircuitGraph,
        sizes: &SizeVector,
        extra_cap: Option<&[f64]>,
    ) -> TimingAnalysis {
        let analyzer = ElmoreAnalyzer::new(graph);
        let delays = analyzer.delays(sizes, extra_cap);
        Self::from_delays(graph, delays)
    }

    /// Builds the timing picture from precomputed per-component delays.
    ///
    /// Allocates its result vectors; the allocation-free equivalent is
    /// [`propagate_arrivals_into`](crate::propagate_arrivals_into) with an
    /// [`EvalWorkspace`](crate::EvalWorkspace), which this delegates to.
    pub fn from_delays(graph: &CircuitGraph, delays: Vec<f64>) -> TimingAnalysis {
        let n = graph.num_nodes();
        debug_assert_eq!(delays.len(), n);
        let mut arrival = vec![0.0_f64; n];
        let mut pred = vec![crate::engine::NO_PRED; n];
        let mut path = Vec::new();
        let critical_path_delay = crate::engine::propagate_arrivals_into(
            graph,
            &delays,
            &mut arrival,
            &mut pred,
            &mut path,
        );

        TimingAnalysis {
            delays,
            arrival: ArrivalTimes { values: arrival },
            critical_path_delay,
            critical_path: path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GateKind;
    use crate::tech::Technology;

    /// Two-input circuit with reconvergence:
    /// d1 -> w1 -> g (nand) -> w3 -> out
    /// d2 -> w2 ---^
    fn reconvergent(len1: f64, len2: f64) -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d1 = b.add_driver("d1", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", len1).unwrap();
        let w2 = b.add_wire("w2", len2).unwrap();
        let g = b.add_gate("g", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 50.0).unwrap();
        b.connect(d1, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(w2, g).unwrap();
        b.connect(g, w3).unwrap();
        b.connect_output(w3, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn arrival_times_take_the_max_over_fanin() {
        let c = reconvergent(50.0, 400.0);
        let sizes = c.uniform_sizes(1.0);
        let t = TimingAnalysis::run(&c, &sizes, None);
        let g = c.node_by_name("g").unwrap();
        let w1 = c.node_by_name("w1").unwrap();
        let w2 = c.node_by_name("w2").unwrap();
        assert!(
            t.arrival.of(w2) > t.arrival.of(w1),
            "longer wire arrives later"
        );
        let expected = t.arrival.of(w2) + t.delays[g.index()];
        assert!((t.arrival.of(g) - expected).abs() < 1e-9);
    }

    #[test]
    fn critical_path_follows_the_slow_branch() {
        let c = reconvergent(50.0, 400.0);
        let sizes = c.uniform_sizes(1.0);
        let t = TimingAnalysis::run(&c, &sizes, None);
        let w2 = c.node_by_name("w2").unwrap();
        let w1 = c.node_by_name("w1").unwrap();
        assert!(t.critical_path.contains(&w2));
        assert!(!t.critical_path.contains(&w1));
        // Path runs from a driver to the primary-output driver.
        let first = *t.critical_path.first().unwrap();
        let last = *t.critical_path.last().unwrap();
        assert!(c.node(first).kind.is_driver());
        assert!(c.primary_output_drivers().contains(&last));
    }

    #[test]
    fn critical_delay_equals_sum_of_path_delays() {
        let c = reconvergent(120.0, 300.0);
        let sizes = c.uniform_sizes(1.0);
        let t = TimingAnalysis::run(&c, &sizes, None);
        let sum: f64 = t.critical_path.iter().map(|&id| t.delays[id.index()]).sum();
        assert!((sum - t.critical_path_delay).abs() < 1e-9);
    }

    #[test]
    fn arrival_satisfies_constraint_form() {
        // a_j + D_i <= a_i must hold with equality on at least one fanin.
        let c = reconvergent(80.0, 80.0);
        let sizes = c.uniform_sizes(1.0);
        let t = TimingAnalysis::run(&c, &sizes, None);
        for i in c.component_ids() {
            let mut any_tight = false;
            for &j in c.fanin(i) {
                if j == c.source() {
                    continue;
                }
                let lhs = t.arrival.of(j) + t.delays[i.index()];
                assert!(lhs <= t.arrival.of(i) + 1e-9);
                if (lhs - t.arrival.of(i)).abs() < 1e-9 {
                    any_tight = true;
                }
            }
            if !c.fanin(i).iter().all(|&j| j == c.source()) {
                assert!(
                    any_tight,
                    "at least one fanin constraint must be tight at {i}"
                );
            }
        }
    }

    /// The output constraint `a_j ≤ A_0` of problem PP: the slack
    /// `A_0 − a_j` at the primary output is positive when the bound lies
    /// above the critical delay, negative below it, and zero at it.
    #[test]
    fn slack_sign_matches_bound() {
        let c = reconvergent(100.0, 100.0);
        let t = TimingAnalysis::run(&c, &c.uniform_sizes(1.0), None);
        let d = t.critical_path_delay;
        let output = c.primary_output_drivers()[0];
        let slack = |a0: f64| a0 - t.arrival.of(output);
        assert!(slack(d * 1.1) > 0.0);
        assert!(slack(d * 0.9) < 0.0);
        assert!(slack(d).abs() < 1e-9);
    }

    /// A bound below the delay of the path through the long wire `w2`
    /// leaves that path a negative slack: `A_0` minus the arrival at `w2`
    /// and the delays after it.
    #[test]
    fn delay_bound_violations_show_as_negative_slack() {
        let c = reconvergent(100.0, 500.0);
        let t = TimingAnalysis::run(&c, &c.uniform_sizes(1.0), None);
        let node = |name: &str| c.node_by_name(name).unwrap();
        let through_w2 =
            t.arrival.of(node("w2")) + t.delays[node("g").index()] + t.delays[node("w3").index()];
        assert!(t.critical_path_delay * 0.5 - through_w2 < 0.0);
    }
}
