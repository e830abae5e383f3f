//! Error type for circuit construction and analysis.

use std::fmt;

use crate::id::NodeId;

/// Errors produced while building or analyzing a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// An edge refers to a node that does not exist.
    UnknownNode(NodeId),
    /// An edge would connect a node to itself.
    SelfLoop(NodeId),
    /// The same edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// An edge is not allowed between the two node kinds
    /// (e.g. a driver directly feeding a gate without a wire).
    InvalidConnection {
        /// Tail of the offending edge.
        from: NodeId,
        /// Head of the offending edge.
        to: NodeId,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The graph contains a cycle, so it is not a combinational circuit.
    CyclicGraph,
    /// A component has no fanin (other than drivers, which are fed by the source).
    DanglingInput(NodeId),
    /// A component has no fanout (other than primary outputs, which feed the sink).
    DanglingOutput(NodeId),
    /// A numeric parameter was not finite or out of its range: not positive,
    /// or for a fringing capacitance or an output load, negative.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A size vector has the wrong length for the circuit.
    SizeLengthMismatch {
        /// Expected number of components.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// Size bounds are inverted (lower > upper) for a component.
    InvalidBounds {
        /// The offending node.
        node: NodeId,
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// The circuit has no primary outputs connected to the sink.
    NoPrimaryOutputs,
    /// The circuit has no input drivers.
    NoDrivers,
    /// A duplicate component name was used.
    DuplicateName(String),
    /// The circuit outgrows a table's 32-bit index: more than `limit`
    /// node ids, edges or bytes of node names.
    TooLarge {
        /// What outgrew its limit.
        what: &'static str,
        /// The largest count the table holds.
        limit: usize,
    },
    /// A decoded node carries an attribute its kind does not have (a
    /// driver's unit resistance, a gate's fringing capacitance, …), which
    /// a node of its kind cannot hold.
    AttributeOfAnotherKind {
        /// The offending node.
        node: NodeId,
        /// Name of the attribute.
        attribute: &'static str,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownNode(id) => write!(f, "unknown node {id}"),
            CircuitError::SelfLoop(id) => write!(f, "self loop on node {id}"),
            CircuitError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            CircuitError::InvalidConnection { from, to, reason } => {
                write!(f, "invalid connection {from} -> {to}: {reason}")
            }
            CircuitError::CyclicGraph => write!(f, "circuit graph contains a cycle"),
            CircuitError::DanglingInput(id) => write!(f, "component {id} has no fanin"),
            CircuitError::DanglingOutput(id) => write!(f, "component {id} has no fanout"),
            CircuitError::InvalidParameter { name, value } => {
                write!(
                    f,
                    "parameter {name} is not finite or out of its range, got {value}"
                )
            }
            CircuitError::SizeLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "size vector length {actual} does not match {expected} components"
                )
            }
            CircuitError::InvalidBounds { node, lower, upper } => {
                write!(f, "node {node} has inverted size bounds [{lower}, {upper}]")
            }
            CircuitError::NoPrimaryOutputs => write!(f, "circuit has no primary outputs"),
            CircuitError::NoDrivers => write!(f, "circuit has no input drivers"),
            CircuitError::DuplicateName(name) => write!(f, "duplicate component name {name:?}"),
            CircuitError::TooLarge { what, limit } => {
                write!(f, "circuit exceeds the limit of {limit} {what}")
            }
            CircuitError::AttributeOfAnotherKind { node, attribute } => {
                write!(
                    f,
                    "node {node} carries a {attribute} its kind does not have"
                )
            }
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            CircuitError::UnknownNode(NodeId::new(3)),
            CircuitError::SelfLoop(NodeId::new(1)),
            CircuitError::DuplicateEdge(NodeId::new(1), NodeId::new(2)),
            CircuitError::CyclicGraph,
            CircuitError::DanglingInput(NodeId::new(5)),
            CircuitError::DanglingOutput(NodeId::new(6)),
            CircuitError::InvalidParameter {
                name: "length",
                value: -1.0,
            },
            CircuitError::SizeLengthMismatch {
                expected: 4,
                actual: 2,
            },
            CircuitError::InvalidBounds {
                node: NodeId::new(2),
                lower: 3.0,
                upper: 1.0,
            },
            CircuitError::NoPrimaryOutputs,
            CircuitError::NoDrivers,
            CircuitError::DuplicateName("w1".to_string()),
            CircuitError::TooLarge {
                what: "node ids",
                limit: u32::MAX as usize + 1,
            },
            CircuitError::AttributeOfAnotherKind {
                node: NodeId::new(1),
                attribute: "unit_resistance",
            },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase() || text.starts_with("parameter"));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
