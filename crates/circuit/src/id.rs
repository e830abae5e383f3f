//! Strongly-typed node identifiers.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`CircuitGraph`](crate::CircuitGraph).
///
/// Node identifiers are dense indices assigned in topological order, exactly
/// as in the paper: the artificial source is node `0`, the `s` input drivers
/// are nodes `1..=s`, the `n` gates and wires are nodes `s+1..=n+s`, and the
/// artificial sink is node `n+s+1`.
///
/// An identifier holds its index in 32 bits, so a circuit has at most
/// `u32::MAX + 1` nodes; [`CircuitBuilder`](crate::CircuitBuilder) refuses
/// to grow one past that with a typed error. It serializes as the plain
/// index, and decoding an index above `u32::MAX` is an error.
///
/// ```rust
/// use ncgws_circuit::NodeId;
///
/// let id = NodeId::new(4);
/// assert_eq!(id.index(), 4);
/// assert_eq!(format!("{id}"), "n4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`, the largest index a node
    /// identifier holds.
    pub const fn new(index: usize) -> Self {
        assert!(
            index <= u32::MAX as usize,
            "node index exceeds the 32-bit NodeId range"
        );
        NodeId(index as u32)
    }

    /// Returns the raw index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// # Panics
///
/// Panics if `index` exceeds `u32::MAX`, as [`NodeId::new`] does.
impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_usize() {
        for i in [0usize, 1, 7, 1024, u32::MAX as usize] {
            let id = NodeId::from(i);
            assert_eq!(usize::from(id), i);
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "32-bit NodeId range")]
    fn an_index_beyond_32_bits_panics() {
        let _ = NodeId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }

    #[test]
    fn display_format() {
        assert_eq!(NodeId::new(12).to_string(), "n12");
    }
}
