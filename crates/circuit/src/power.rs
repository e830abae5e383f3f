//! Total capacitance and dynamic power.
//!
//! The paper's power constraint is `V² · f · Σ c_i ≤ P_B`, simplified (with
//! fixed supply voltage and frequency) to `Σ c_i ≤ P' = P_B / (V² f)`. The
//! sizing engine therefore works with the **total switched capacitance**; the
//! reporting layer converts it back to milliwatts using the technology's
//! [`power_scale_mw_per_ff`](crate::Technology::power_scale_mw_per_ff).

use crate::graph::CircuitGraph;
use crate::sizing::SizeVector;

/// Total component capacitance `Σ_{i=s+1}^{n+s} c_i` in fF (excluding
/// coupling capacitance, which the paper accounts for in the noise term).
pub fn total_capacitance(graph: &CircuitGraph, sizes: &SizeVector) -> f64 {
    graph
        .component_ids()
        .map(|id| graph.capacitance(id, sizes))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GateKind;
    use crate::tech::Technology;

    fn circuit() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn capacitance_matches_hand_sum() {
        let c = circuit();
        let t = *c.technology();
        let sizes = c.uniform_sizes(1.0);
        let expected = (t.wire_unit_capacitance + t.wire_fringing_per_um) * 100.0
            + t.gate_unit_capacitance
            + (t.wire_unit_capacitance + t.wire_fringing_per_um) * 200.0;
        assert!((total_capacitance(&c, &sizes) - expected).abs() < 1e-9);
    }

    #[test]
    fn power_scales_with_capacitance_and_size() {
        let c = circuit();
        let small = c.uniform_sizes(1.0);
        let large = c.uniform_sizes(2.0);
        assert!(total_capacitance(&c, &large) > total_capacitance(&c, &small));
    }

    #[test]
    fn driver_contributes_no_power() {
        let c = circuit();
        let sizes = c.uniform_sizes(1.0);
        // Summing only over components is the definition; this guards against
        // accidentally including drivers or artificial nodes.
        let manual: f64 = c.component_ids().map(|id| c.capacitance(id, &sizes)).sum();
        assert_eq!(total_capacitance(&c, &sizes), manual);
    }
}
