//! Total circuit area — the objective of the paper's optimization problem.

use crate::graph::CircuitGraph;
use crate::sizing::SizeVector;

/// Total area `Σ_{i=s+1}^{n+s} α_i · x_i` in µm². Input drivers and output
/// loads contribute no area, exactly as in the paper. `α_i` is derived from
/// the component's kind and parameter.
///
/// # Panics
///
/// Panics if `sizes` holds fewer than `n` entries.
pub fn total_area(graph: &CircuitGraph, sizes: &SizeVector) -> f64 {
    graph
        .attributes()
        .range(graph.component_range())
        .enumerate()
        .map(|(k, rc)| rc.area_coefficient * sizes[k])
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
        let w = b.add_wire("w", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::Buf).unwrap();
        let w2 = b.add_wire("w2", 50.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn area_is_linear_in_size() {
        let c = circuit();
        let a1 = total_area(&c, &c.uniform_sizes(1.0));
        let a2 = total_area(&c, &c.uniform_sizes(2.0));
        assert!((a2 - 2.0 * a1).abs() < 1e-9);
    }

    #[test]
    fn per_component_sums_to_total() {
        let c = circuit();
        let sizes = c.uniform_sizes(1.7);
        let sum: f64 = c
            .component_ids()
            .map(|id| c.node(id).attrs.area_coefficient * c.size_of(id, &sizes))
            .sum();
        assert!((sum - total_area(&c, &sizes)).abs() < 1e-9);
    }

    #[test]
    fn hand_computed_area() {
        let c = circuit();
        let t = *c.technology();
        let a = total_area(&c, &c.uniform_sizes(1.0));
        let expected = t.wire_area_coefficient * 100.0
            + t.gate_area_coefficient
            + t.wire_area_coefficient * 50.0;
        assert!((a - expected).abs() < 1e-9);
    }
}
