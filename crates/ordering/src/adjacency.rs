//! Adjacency derived from a track ordering: the paper's `N(i)` and `I(i)`.

use std::collections::BTreeMap;

use ncgws_circuit::NodeId;
use serde::Serialize;

use crate::problem::WireOrdering;

/// The adjacency relationship induced by assigning ordered wires to
/// neighboring tracks: wire `k` is adjacent to wires `k−1` and `k+1` of the
/// ordering.
///
/// * `N(i)` — the neighborhood of wire `i` (its adjacent wires),
/// * `I(i)` — the *dominating index*: adjacent wires with a node index
///   greater than `i`, so that `Σ_{i∈W} Σ_{j∈I(i)}` visits each adjacent pair
///   exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Adjacency {
    neighbors: BTreeMap<NodeId, Vec<NodeId>>,
}

impl Adjacency {
    /// Builds the adjacency from one or more track orderings (one per
    /// routing channel). Wires in different channels are never adjacent.
    pub fn from_orderings<'a>(orderings: impl IntoIterator<Item = &'a WireOrdering>) -> Self {
        let mut neighbors: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for ordering in orderings {
            let seq = ordering.sequence();
            for pair in seq.windows(2) {
                neighbors.entry(pair[0]).or_default().push(pair[1]);
                neighbors.entry(pair[1]).or_default().push(pair[0]);
            }
            if seq.len() == 1 {
                neighbors.entry(seq[0]).or_default();
            }
        }
        Adjacency { neighbors }
    }

    /// The neighborhood `N(i)`.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.neighbors.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The dominating index `I(i)`: adjacent wires with a larger node index.
    pub fn dominating(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(id)
            .iter()
            .copied()
            .filter(move |&other| other > id)
    }

    /// All adjacent pairs `(i, j)` with `i < j`, each exactly once.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        for (&id, neigh) in &self.neighbors {
            for &other in neigh {
                if other > id {
                    pairs.push((id, other));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Number of wires that have at least one neighbor entry.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns `true` if no wire has a neighbor.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SsProblem;

    fn ordering(ids: &[usize]) -> WireOrdering {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId::new(i)).collect();
        let n = nodes.len();
        let p = SsProblem::from_weights(nodes, vec![0.0; n * n]).unwrap();
        p.make_ordering((0..n).collect())
    }

    #[test]
    fn paper_example_neighborhoods() {
        // Track assignment <5, 7, 4, 8> from Figure 6 of the paper:
        // N(5)={7}, N(7)={5,4}, N(4)={7,8}, N(8)={4};
        // I(5)={7}, I(7)={}, I(4)={7,8}∩(>4)={7,8}→{7,8}? The paper lists I(4)={8}
        // because 7 < 4 is false — node indices: I(4) = adjacent wires with
        // index greater than 4 = {7, 8}. The paper's I(4)={8} uses its own
        // wire numbering; with ours both 7 and 8 qualify.
        let o = ordering(&[5, 7, 4, 8]);
        let adj = Adjacency::from_orderings([&o]);
        assert_eq!(adj.neighbors(NodeId::new(5)), &[NodeId::new(7)]);
        let n7: Vec<_> = adj.neighbors(NodeId::new(7)).to_vec();
        assert!(n7.contains(&NodeId::new(5)) && n7.contains(&NodeId::new(4)));
        assert_eq!(adj.neighbors(NodeId::new(8)), &[NodeId::new(4)]);
        // I(5) = {7}, I(7) = {} (no neighbor has a larger index than 7 except… 5<7, 4<7).
        assert_eq!(
            adj.dominating(NodeId::new(5)).collect::<Vec<_>>(),
            vec![NodeId::new(7)]
        );
        assert!(adj
            .dominating(NodeId::new(7))
            .collect::<Vec<_>>()
            .is_empty());
        // Every adjacent pair appears exactly once across all I(i).
        let total: usize = [4, 5, 7, 8]
            .into_iter()
            .map(|i| adj.dominating(NodeId::new(i)).count())
            .sum();
        assert_eq!(total, adj.pairs().len());
        assert_eq!(adj.pairs().len(), 3);
    }

    #[test]
    fn channels_do_not_mix() {
        let a = ordering(&[1, 2]);
        let b = ordering(&[10, 11]);
        let adj = Adjacency::from_orderings([&a, &b]);
        assert_eq!(adj.pairs().len(), 2);
        assert!(adj.neighbors(NodeId::new(2)).contains(&NodeId::new(1)));
        assert!(!adj.neighbors(NodeId::new(2)).contains(&NodeId::new(10)));
    }

    #[test]
    fn single_wire_channel_has_no_pairs() {
        let a = ordering(&[42]);
        let adj = Adjacency::from_orderings([&a]);
        assert!(adj.neighbors(NodeId::new(42)).is_empty());
        assert!(adj.pairs().is_empty());
        assert_eq!(adj.len(), 1);
    }
}
