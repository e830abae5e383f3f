//! Error type for benchmark generation and netlist I/O.

use std::fmt;

use ncgws_circuit::{CircuitError, NodeId};

/// Errors produced while generating or parsing benchmark circuits.
#[derive(Debug)]
pub enum NetlistError {
    /// The specification is not realizable (e.g. too few wires for the gates).
    InfeasibleSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// The underlying circuit construction failed.
    Circuit(CircuitError),
    /// A parse error in the text netlist format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An I/O error while reading or writing a netlist file.
    Io(std::io::Error),
    /// A routing channel lists a wire the circuit does not have.
    ChannelWireOutOfRange {
        /// Index of the channel.
        channel: usize,
        /// The offending wire.
        wire: NodeId,
    },
    /// The pattern set's width is not the circuit's driver count (the
    /// logic simulation reads one input row per driver).
    PatternWidth {
        /// Inputs per pattern.
        inputs: usize,
        /// Drivers of the circuit.
        drivers: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::InfeasibleSpec { reason } => {
                write!(f, "infeasible circuit specification: {reason}")
            }
            NetlistError::Circuit(e) => write!(f, "circuit construction failed: {e}"),
            NetlistError::Parse { line, reason } => {
                write!(f, "netlist parse error at line {line}: {reason}")
            }
            NetlistError::Io(e) => write!(f, "netlist i/o error: {e}"),
            NetlistError::ChannelWireOutOfRange { channel, wire } => {
                write!(f, "channel {channel}: channel wire {wire} is out of range")
            }
            NetlistError::PatternWidth { inputs, drivers } => write!(
                f,
                "pattern set has {inputs} inputs, the circuit has {drivers} drivers"
            ),
        }
    }
}

impl std::error::Error for NetlistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetlistError::Circuit(e) => Some(e),
            NetlistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for NetlistError {
    fn from(e: CircuitError) -> Self {
        NetlistError::Circuit(e)
    }
}

impl From<std::io::Error> for NetlistError {
    fn from(e: std::io::Error) -> Self {
        NetlistError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = NetlistError::InfeasibleSpec {
            reason: "too few wires".into(),
        };
        assert!(e.to_string().contains("too few wires"));
        assert!(e.source().is_none());
        let e = NetlistError::from(CircuitError::NoDrivers);
        assert!(e.source().is_some());
        let e = NetlistError::Parse {
            line: 3,
            reason: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
