//! The Switching-Similarity problem and its solutions.

use ncgws_circuit::NodeId;
use ncgws_waveform::SimilarityMatrix;
use serde::Serialize;

use crate::error::OrderingError;

/// An instance of the Switching-Similarity (SS) problem: the complete graph
/// `K_n` over `n` wires with edge weights `1 − similarity(i, j)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SsProblem {
    nodes: Vec<NodeId>,
    /// Row-major `n × n` symmetric weight matrix with a zero diagonal.
    weights: Vec<f64>,
}

impl SsProblem {
    /// Builds the problem from a similarity matrix (weights become
    /// `1 − similarity`).
    pub fn from_similarity(matrix: &SimilarityMatrix) -> Self {
        let n = matrix.len();
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                weights[i * n + j] = if i == j { 0.0 } else { matrix.weight(i, j) };
            }
        }
        SsProblem {
            nodes: matrix.nodes().to_vec(),
            weights,
        }
    }

    /// Builds the problem from explicit weights (row-major `n × n`).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix has the wrong shape, contains negative
    /// or non-finite weights, or is not symmetric.
    pub fn from_weights(nodes: Vec<NodeId>, weights: Vec<f64>) -> Result<Self, OrderingError> {
        let n = nodes.len();
        if weights.len() != n * n {
            return Err(OrderingError::WeightShapeMismatch {
                wires: n,
                weights: weights.len(),
            });
        }
        for i in 0..n {
            for j in 0..n {
                let w = weights[i * n + j];
                if !w.is_finite() || w < 0.0 {
                    return Err(OrderingError::InvalidWeight { i, j, value: w });
                }
                if (w - weights[j * n + i]).abs() > 1e-9 {
                    return Err(OrderingError::AsymmetricWeight { i, j });
                }
            }
        }
        Ok(SsProblem { nodes, weights })
    }

    /// Number of wires `n`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for the empty problem.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The wires, in the position order used by `weight`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edge weight between positions `i` and `j`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.nodes.len() + j]
    }

    /// Total effective loading of an ordering given as positions into
    /// [`nodes`](Self::nodes): `Σ_i weight(order[i], order[i+1])`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation-sized slice of valid positions.
    pub fn ordering_cost(&self, order: &[usize]) -> f64 {
        assert_eq!(order.len(), self.len(), "ordering must cover every wire");
        path_cost(order, |i, j| self.weight(i, j))
    }

    /// Wraps a position ordering into a [`WireOrdering`] carrying node ids
    /// and cost.
    pub fn make_ordering(&self, positions: Vec<usize>) -> WireOrdering {
        let cost = if positions.len() >= 2 {
            self.ordering_cost(&positions)
        } else {
            0.0
        };
        let sequence = positions.iter().map(|&p| self.nodes[p]).collect();
        WireOrdering {
            positions,
            sequence,
            cost,
        }
    }
}

/// Total effective loading `Σ_i weight(order[i], order[i+1])` of an
/// ordering given as positions, summed left to right; `0` for fewer than
/// two wires.
pub fn path_cost(order: &[usize], weight: impl Fn(usize, usize) -> f64) -> f64 {
    if order.len() < 2 {
        return 0.0;
    }
    order.windows(2).map(|w| weight(w[0], w[1])).sum()
}

/// A solution of the SS problem: a linear track order of the wires.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WireOrdering {
    /// Ordering as positions into the problem's node list.
    positions: Vec<usize>,
    /// Ordering as node identifiers.
    sequence: Vec<NodeId>,
    /// Total effective loading `Σ weight(w_i, w_{i+1})`.
    cost: f64,
}

impl WireOrdering {
    /// The ordering as positions into [`SsProblem::nodes`].
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The ordering as node identifiers.
    pub fn sequence(&self) -> &[NodeId] {
        &self.sequence
    }

    /// The total effective loading of this ordering.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of wires ordered.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` for the empty ordering.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Returns `true` if this ordering is a permutation of the problem's wires.
    pub fn is_permutation_of(&self, problem: &SsProblem) -> bool {
        if self.positions.len() != problem.len() {
            return false;
        }
        let mut seen = vec![false; problem.len()];
        for &p in &self.positions {
            if p >= problem.len() || seen[p] {
                return false;
            }
            seen[p] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (10..10 + n).map(NodeId::new).collect()
    }

    #[test]
    fn from_weights_validates() {
        let n = nodes(2);
        assert!(SsProblem::from_weights(n.clone(), vec![0.0; 3]).is_err());
        assert!(SsProblem::from_weights(n.clone(), vec![0.0, -1.0, -1.0, 0.0]).is_err());
        assert!(SsProblem::from_weights(n.clone(), vec![0.0, 1.0, 2.0, 0.0]).is_err());
        let ok = SsProblem::from_weights(n, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.weight(0, 1), 1.0);
    }

    #[test]
    fn ordering_cost_sums_consecutive_weights() {
        let p = SsProblem::from_weights(
            nodes(3),
            vec![
                0.0, 1.0, 4.0, //
                1.0, 0.0, 2.0, //
                4.0, 2.0, 0.0,
            ],
        )
        .unwrap();
        assert_eq!(p.ordering_cost(&[0, 1, 2]), 3.0);
        assert_eq!(p.ordering_cost(&[0, 2, 1]), 6.0);
        let o = p.make_ordering(vec![1, 0, 2]);
        assert_eq!(o.cost(), 5.0);
        assert!(o.is_permutation_of(&p));
        assert_eq!(o.sequence()[0], NodeId::new(11));
    }

    #[test]
    fn from_similarity_uses_one_minus() {
        use ncgws_waveform::SimilarityMatrix;
        let ids = nodes(2);
        let m = SimilarityMatrix::from_values(ids.clone(), vec![1.0, 0.4, 0.4, 1.0]);
        let p = SsProblem::from_similarity(&m);
        assert!((p.weight(0, 1) - 0.6).abs() < 1e-12);
        assert_eq!(p.weight(0, 0), 0.0);
    }

    #[test]
    fn permutation_check_catches_duplicates() {
        let p = SsProblem::from_weights(nodes(3), vec![0.0; 9]).unwrap();
        let bad = WireOrdering {
            positions: vec![0, 0, 1],
            sequence: vec![NodeId::new(10), NodeId::new(10), NodeId::new(11)],
            cost: 0.0,
        };
        assert!(!bad.is_permutation_of(&p));
    }
}
