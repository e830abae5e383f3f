//! Structural validation of a built circuit graph.

use crate::error::CircuitError;
use crate::graph::CircuitGraph;
use crate::node::NodeKind;

/// Checks the structural invariants the rest of the workspace relies on:
///
/// * node indexing is topological (every edge goes to a strictly larger index),
/// * the source feeds exactly the drivers and the sink is fed by at least one
///   component,
/// * every sizable component has a fanin and a fanout,
/// * wires have exactly one fanin,
/// * size bounds are positive and ordered,
/// * each node kind sits in its index range (source, drivers, components,
///   sink).
///
/// # Errors
///
/// Returns the first violated invariant as a [`CircuitError`].
pub fn validate(graph: &CircuitGraph) -> Result<(), CircuitError> {
    // Topological indexing.
    for u in graph.node_ids() {
        for &v in graph.fanout(u) {
            if v <= u {
                return Err(CircuitError::CyclicGraph);
            }
        }
    }
    // Source/sink shape.
    if graph.num_drivers() == 0 {
        return Err(CircuitError::NoDrivers);
    }
    if graph.primary_output_drivers().is_empty() {
        return Err(CircuitError::NoPrimaryOutputs);
    }
    for d in graph.driver_ids() {
        if graph.fanin(d) != [graph.source()] {
            return Err(CircuitError::DanglingInput(d));
        }
        if graph.fanout(d).is_empty() {
            return Err(CircuitError::DanglingOutput(d));
        }
    }
    // Components.
    let kinds = graph.kinds();
    let (lower_bounds, upper_bounds) = (graph.lower_bounds(), graph.upper_bounds());
    for id in graph.component_ids() {
        let i = id.index();
        if graph.fanin(id).is_empty() {
            return Err(CircuitError::DanglingInput(id));
        }
        if graph.fanout(id).is_empty() {
            return Err(CircuitError::DanglingOutput(id));
        }
        if kinds[i].is_wire() && graph.fanin(id).len() != 1 {
            return Err(CircuitError::InvalidConnection {
                from: graph.fanin(id)[0],
                to: id,
                reason: "a wire is driven by exactly one component",
            });
        }
        let (lower, upper) = (lower_bounds[i], upper_bounds[i]);
        if !(lower > 0.0 && lower.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "lower_bound",
                value: lower,
            });
        }
        if upper < lower {
            return Err(CircuitError::InvalidBounds {
                node: id,
                lower,
                upper,
            });
        }
    }
    // Every node kind sits in its index range: the source first, then the
    // drivers, the gates and wires, and the sink last. The dense engines
    // rely on this to derive a component's index by subtraction.
    if !matches!(kinds[graph.source().index()], NodeKind::Source)
        || !matches!(kinds[graph.sink().index()], NodeKind::Sink)
    {
        return Err(CircuitError::InvalidConnection {
            from: graph.source(),
            to: graph.sink(),
            reason: "the first node must be the source and the last the sink",
        });
    }
    for d in graph.driver_ids() {
        if !kinds[d.index()].is_driver() {
            return Err(CircuitError::InvalidConnection {
                from: d,
                to: d,
                reason: "driver index range must contain only drivers",
            });
        }
    }
    for id in graph.component_ids() {
        if matches!(
            kinds[id.index()],
            NodeKind::Source | NodeKind::Sink | NodeKind::Driver
        ) {
            return Err(CircuitError::InvalidConnection {
                from: id,
                to: id,
                reason: "component index range must contain only gates and wires",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::builder::CircuitBuilder;
    use crate::node::GateKind;
    use crate::tech::Technology;

    #[test]
    fn built_circuits_validate() {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w = b.add_wire("w", 10.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 10.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(super::validate(&c).is_ok());
    }
}
