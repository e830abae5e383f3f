//! Error type for coupling-model construction.

use std::fmt;

use ncgws_circuit::NodeId;

/// Errors produced while building a [`CouplingSet`](crate::CouplingSet).
#[derive(Debug, Clone, PartialEq)]
pub enum CouplingError {
    /// A coupling pair references a node that is not a wire.
    NotAWire(NodeId),
    /// A coupling pair couples a wire with itself.
    SelfCoupling(NodeId),
    /// The same unordered pair was supplied twice.
    DuplicatePair(NodeId, NodeId),
    /// A geometry parameter was non-positive or non-finite.
    InvalidGeometry {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The wires could collide: the maximum allowed widths do not fit in the
    /// pitch (`(U_i + U_j)/2 ≥ d_ij`), so the coupling model would diverge.
    PitchTooSmall {
        /// First wire.
        a: NodeId,
        /// Second wire.
        b: NodeId,
        /// Middle-to-middle distance.
        distance: f64,
    },
    /// A pair's switching factor is not finite or lies outside `[0, 2]`.
    InvalidSwitchingFactor {
        /// First wire.
        a: NodeId,
        /// Second wire.
        b: NodeId,
        /// The rejected factor.
        value: f64,
    },
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingError::NotAWire(id) => write!(f, "node {id} is not a wire"),
            CouplingError::SelfCoupling(id) => write!(f, "wire {id} cannot couple with itself"),
            CouplingError::DuplicatePair(a, b) => {
                write!(f, "coupling pair ({a}, {b}) supplied more than once")
            }
            CouplingError::InvalidGeometry { name, value } => {
                write!(
                    f,
                    "coupling geometry parameter {name} must be positive and finite, got {value}"
                )
            }
            CouplingError::PitchTooSmall { a, b, distance } => write!(
                f,
                "wires {a} and {b} at pitch {distance} could overlap at maximum width"
            ),
            CouplingError::InvalidSwitchingFactor { a, b, value } => write!(
                f,
                "coupling pair ({a}, {b}) has switching factor {value}, outside [0, 2]"
            ),
        }
    }
}

impl std::error::Error for CouplingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        let e = CouplingError::PitchTooSmall {
            a: NodeId::new(1),
            b: NodeId::new(2),
            distance: 3.0,
        };
        assert!(e.to_string().contains("pitch"));
        let e = CouplingError::InvalidGeometry {
            name: "distance",
            value: -1.0,
        };
        assert!(e.to_string().contains("distance"));
        let e = CouplingError::InvalidSwitchingFactor {
            a: NodeId::new(1),
            b: NodeId::new(2),
            value: f64::NAN,
        };
        assert!(e.to_string().contains("switching factor NaN"), "{e}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CouplingError>();
    }
}
