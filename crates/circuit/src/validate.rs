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
/// * each node kind sits in its index range (source, drivers, components,
///   sink),
/// * the physical attributes are those of a circuit: a finite positive
///   `unit_resistance`, `unit_capacitance` and `area_coefficient` on every
///   gate and wire, a finite non-negative `fringing_capacitance` on every
///   wire, a finite positive `driver_resistance` on every driver and a
///   finite non-negative `output_load` wherever one is carried,
/// * every size-bound override on a component is positive and ordered
///   (the default bounds are the technology's, which
///   [`Technology::validate`](crate::Technology::validate) checks).
///
/// # Errors
///
/// Returns the first violated invariant as a [`CircuitError`]; a physical
/// attribute out of its range is [`CircuitError::InvalidParameter`] naming
/// the attribute.
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
    // Physical attributes, which the builder computes from a validated
    // technology and a decoded graph carries as given.
    // A builder-made wire's attributes are products of its length, which
    // may overflow.
    let attributes = graph.attributes().range(0..graph.num_nodes());
    for (kind, rc) in kinds.iter().zip(attributes) {
        if kind.is_sizable() {
            positive("unit_resistance", rc.resistance)?;
            positive("unit_capacitance", rc.unit_capacitance)?;
            positive("area_coefficient", rc.area_coefficient)?;
            if kind.is_wire() {
                non_negative("fringing_capacitance", rc.fringing)?;
            }
        } else if kind.is_driver() {
            positive("driver_resistance", rc.resistance)?;
        }
    }
    for &(_, load) in graph.output_load_list() {
        non_negative("output_load", load)?;
    }
    for &(node, lower, upper) in graph.component_bounds().overrides() {
        positive("lower_bound", lower)?;
        if !(upper.is_finite() && upper >= lower) {
            return Err(CircuitError::InvalidBounds { node, lower, upper });
        }
    }
    Ok(())
}

/// `value` as attribute `name`, which must be finite and positive.
fn positive(name: &'static str, value: f64) -> Result<(), CircuitError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(CircuitError::InvalidParameter { name, value })
    }
}

/// `value` as attribute `name`, which must be finite and not negative
/// (`-0.0` passes).
fn non_negative(name: &'static str, value: f64) -> Result<(), CircuitError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(CircuitError::InvalidParameter { name, value })
    }
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
