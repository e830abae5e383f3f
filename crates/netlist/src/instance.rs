//! The bundle of inputs the optimizer consumes.

use std::ops::Index;

use ncgws_circuit::{CircuitGraph, NodeId};
use ncgws_waveform::PatternSet;
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize, Serializer};

use crate::error::NetlistError;

/// Geometry shared by all routing channels of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelGeometry {
    /// Track pitch (middle-to-middle distance of adjacent tracks, µm).
    pub pitch: f64,
    /// Fraction of the shorter wire's length that overlaps its neighbor.
    pub overlap_fraction: f64,
    /// Unit-length fringing capacitance between adjacent wires (fF/µm).
    pub unit_fringing: f64,
}

impl ChannelGeometry {
    /// Overlap length between two wires of the given lengths.
    pub fn overlap_length(&self, len_a: f64, len_b: f64) -> f64 {
        self.overlap_fraction * len_a.min(len_b)
    }
}

/// Routing channels, each a list of the wires that share it, kept as one
/// compressed list: channel `c` is `wires()[offsets()[c]..offsets()[c +
/// 1]]`, so all the channels are two allocations however many there are.
/// The offsets are 32-bit, so the channels list at most `u32::MAX` wires
/// in all.
///
/// It reads like a list of channels ([`len`](Self::len), indexing,
/// [`iter`](Self::iter) over `&[NodeId]`), and serializes as the nested
/// arrays of a `Vec<Vec<NodeId>>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Channels {
    offsets: Vec<u32>,
    wires: Vec<NodeId>,
}

impl Default for Channels {
    fn default() -> Self {
        Channels::new()
    }
}

impl Channels {
    /// No channels.
    pub fn new() -> Self {
        Channels {
            offsets: vec![0],
            wires: Vec::new(),
        }
    }

    /// `wires` cut into consecutive channels of `size` wires each, the last
    /// one shorter when `size` does not divide the count. The wires are
    /// kept as given, so this allocates only the offsets.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, or there are more than `u32::MAX` wires.
    pub fn chunked(wires: Vec<NodeId>, size: usize) -> Self {
        assert!(size > 0, "a channel holds at least one wire");
        let end = offset(wires.len());
        let offsets = std::iter::once(0)
            .chain((size..wires.len()).step_by(size).map(offset))
            .chain((end > 0).then_some(end))
            .collect();
        Channels { offsets, wires }
    }

    /// Appends a channel holding `wires`.
    ///
    /// # Panics
    ///
    /// Panics if the channels would list more than `u32::MAX` wires.
    pub fn push(&mut self, wires: &[NodeId]) {
        self.wires.extend_from_slice(wires);
        self.offsets.push(offset(self.wires.len()));
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if there is no channel.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wires of channel `c`, if there is one.
    pub fn get(&self, c: usize) -> Option<&[NodeId]> {
        let range = self.offsets.get(c..c + 2)?;
        Some(&self.wires[range[0] as usize..range[1] as usize])
    }

    /// Every channel's wires, in channel order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.wires[w[0] as usize..w[1] as usize])
    }

    /// The channel offsets, one per channel plus the trailing total.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every channel's wires, back to back in channel order.
    pub fn wires(&self) -> &[NodeId] {
        &self.wires
    }

    /// Bytes held by the offsets and the wires.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>() + self.wires.capacity() * size_of::<NodeId>()
    }
}

/// The 32-bit offset of the channel that ends after `end` wires.
fn offset(end: usize) -> u32 {
    u32::try_from(end).expect("the channels list at most u32::MAX wires")
}

impl Index<usize> for Channels {
    type Output = [NodeId];

    /// The wires of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= len()`.
    fn index(&self, c: usize) -> &[NodeId] {
        match self.get(c) {
            Some(wires) => wires,
            None => panic!("channel {c} of {}", self.len()),
        }
    }
}

/// Collects one channel per item.
impl<C: AsRef<[NodeId]>> FromIterator<C> for Channels {
    fn from_iter<I: IntoIterator<Item = C>>(channels: I) -> Self {
        let mut collected = Channels::new();
        for wires in channels {
            collected.push(wires.as_ref());
        }
        collected
    }
}

impl Serialize for Channels {
    fn serialize_json(&self, serializer: &mut Serializer) {
        serializer.begin_array();
        for wires in self.iter() {
            serializer.element();
            wires.serialize_json(serializer);
        }
        serializer.end_array();
    }
}

/// Decodes the nested arrays of a `Vec<Vec<NodeId>>`, with its error
/// messages; more than `u32::MAX` wires in all is an error.
impl Deserialize for Channels {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let lists = Vec::<Vec<NodeId>>::deserialize_json(value)?;
        let total: usize = lists.iter().map(Vec::len).sum();
        if u32::try_from(total).is_err() {
            return Err(Error::custom(format!(
                "{total} channel wires, more than {}",
                u32::MAX
            )));
        }
        Ok(lists.into_iter().collect())
    }
}

/// A complete optimization problem instance: the circuit, its routing
/// channels (groups of wires that run in parallel and therefore couple), the
/// channel geometry, and the primary-input patterns used to derive switching
/// similarity.
#[derive(Debug, Clone, Serialize)]
pub struct ProblemInstance {
    /// Benchmark name.
    pub name: String,
    /// The circuit graph.
    pub circuit: CircuitGraph,
    /// Routing channels: each entry lists the wires sharing one channel.
    pub channels: Channels,
    /// Geometry of every channel.
    pub geometry: ChannelGeometry,
    /// Primary-input vectors for logic simulation.
    pub patterns: PatternSet,
}

/// Decodes the parts (the circuit and patterns check their own
/// invariants), then checks the whole with [`ProblemInstance::validate`].
impl Deserialize for ProblemInstance {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "ProblemInstance")?;
        let instance = ProblemInstance {
            name: f.field("name")?,
            circuit: f.field("circuit")?,
            channels: f.field("channels")?,
            geometry: f.field("geometry")?,
            patterns: f.field("patterns")?,
        };
        instance
            .validate()
            .map_err(|e| Error::custom(e.to_string()))?;
        Ok(instance)
    }
}

impl ProblemInstance {
    /// Checks what the parts cannot check alone: every channel wire lies
    /// inside the circuit, and the pattern set has one input per driver.
    /// The fields are public, so an instance built in code is checked here
    /// by whoever consumes it, as a decoded one is by the decoder.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ChannelWireOutOfRange`] for the first channel wire
    /// that is not a node of the circuit, and
    /// [`NetlistError::PatternWidth`] when the pattern width differs from
    /// the driver count.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let nodes = self.circuit.num_nodes();
        for (channel, wires) in self.channels.iter().enumerate() {
            if let Some(&wire) = wires.iter().find(|id| id.index() >= nodes) {
                return Err(NetlistError::ChannelWireOutOfRange { channel, wire });
            }
        }
        let (inputs, drivers) = (self.patterns.num_inputs(), self.circuit.num_drivers());
        if inputs != drivers {
            return Err(NetlistError::PatternWidth { inputs, drivers });
        }
        Ok(())
    }

    /// Length (µm) of a wire, recovered from its area coefficient.
    ///
    /// Returns 0 for non-wire nodes.
    pub fn wire_length(&self, id: NodeId) -> f64 {
        let i = id.index();
        if self.circuit.kinds()[i].is_wire() {
            self.circuit.area_coefficients()[i] / self.circuit.technology().wire_area_coefficient
        } else {
            0.0
        }
    }

    /// Total number of sizable components.
    pub fn num_components(&self) -> usize {
        self.circuit.num_components()
    }

    /// Number of wires that belong to some routing channel
    /// (only those can suffer crosstalk).
    pub fn num_channel_wires(&self) -> usize {
        self.channels.wires().len()
    }

    /// An estimate (in bytes) of the instance's memory, used by the
    /// Figure 10(a) reproduction.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.circuit.memory_bytes() + self.channels.memory_bytes() + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[usize]) -> Vec<NodeId> {
        raw.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn channels_read_like_a_list_of_lists() {
        let lists = vec![ids(&[4, 2]), ids(&[]), ids(&[7])];
        let channels: Channels = lists.iter().collect();
        assert_eq!(channels.len(), 3);
        assert_eq!(channels.offsets(), &[0, 2, 2, 3]);
        assert_eq!(channels.wires(), ids(&[4, 2, 7]).as_slice());
        assert_eq!(&channels[0], ids(&[4, 2]).as_slice());
        assert!(channels[1].is_empty());
        assert_eq!(channels.get(3), None);
        assert_eq!(channels.iter().collect::<Vec<_>>(), lists);
        assert_eq!(serde_json::to_string(&channels).unwrap(), "[[4,2],[],[7]]");
        let decoded: Channels = serde_json::from_str("[[4,2],[],[7]]").unwrap();
        assert_eq!(decoded, channels);
        assert!(serde_json::from_str::<Channels>("[[4,2],[-1]]").is_err());
        assert!(Channels::new().is_empty());
    }

    #[test]
    fn chunked_channels_cut_the_wires_in_order() {
        let wires = ids(&[9, 8, 7, 6, 5]);
        let channels = Channels::chunked(wires.clone(), 2);
        let expected: Channels = wires.chunks(2).collect();
        assert_eq!(channels, expected);
        assert_eq!(channels.offsets(), &[0, 2, 4, 5]);
        assert_eq!(Channels::chunked(wires.clone(), 5).len(), 1);
        assert_eq!(Channels::chunked(wires, 9).len(), 1);
        assert_eq!(Channels::chunked(Vec::new(), 3), Channels::new());
    }

    #[test]
    fn overlap_uses_the_shorter_wire() {
        let g = ChannelGeometry {
            pitch: 14.0,
            overlap_fraction: 0.5,
            unit_fringing: 0.03,
        };
        assert!((g.overlap_length(100.0, 40.0) - 20.0).abs() < 1e-12);
        assert!((g.overlap_length(40.0, 100.0) - 20.0).abs() < 1e-12);
    }
}
