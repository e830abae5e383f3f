//! Error type for the sizing engine.

use std::fmt;

use ncgws_circuit::CircuitError;
use ncgws_coupling::CouplingError;
use ncgws_netlist::NetlistError;
use ncgws_ordering::OrderingError;

/// Errors produced by the sizing engine.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying circuit analysis failed.
    Circuit(CircuitError),
    /// The coupling model could not be built.
    Coupling(CouplingError),
    /// The wire-ordering stage failed.
    Ordering(OrderingError),
    /// The problem instance is inconsistent (see
    /// [`ProblemInstance::validate`](ncgws_netlist::ProblemInstance::validate)).
    Instance(NetlistError),
    /// A configuration value is invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The constraint bounds are unsatisfiable even at the extreme sizes
    /// (for example a crosstalk bound below the size-independent coupling).
    InfeasibleBounds {
        /// Human-readable description of the violated bound.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Circuit(e) => write!(f, "circuit analysis failed: {e}"),
            CoreError::Coupling(e) => write!(f, "coupling model failed: {e}"),
            CoreError::Ordering(e) => write!(f, "wire ordering failed: {e}"),
            CoreError::Instance(e) => write!(f, "invalid problem instance: {e}"),
            CoreError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration {name}: {reason}")
            }
            CoreError::InfeasibleBounds { reason } => {
                write!(f, "infeasible constraint bounds: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Circuit(e) => Some(e),
            CoreError::Coupling(e) => Some(e),
            CoreError::Ordering(e) => Some(e),
            CoreError::Instance(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<CouplingError> for CoreError {
    fn from(e: CouplingError) -> Self {
        CoreError::Coupling(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Instance(e)
    }
}

impl From<OrderingError> for CoreError {
    fn from(e: OrderingError) -> Self {
        CoreError::Ordering(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        use std::error::Error;
        let e = CoreError::from(CircuitError::NoDrivers);
        assert!(e.to_string().contains("circuit"));
        assert!(e.source().is_some());
        let e = CoreError::InvalidConfig {
            name: "max_iterations",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("max_iterations"));
        assert!(e.source().is_none());
        let e = CoreError::InfeasibleBounds {
            reason: "crosstalk bound too small".into(),
        };
        assert!(e.to_string().contains("crosstalk"));
    }
}
