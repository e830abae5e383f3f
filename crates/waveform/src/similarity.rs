//! Pairwise switching similarity.

use ncgws_circuit::NodeId;
use serde::Serialize;

use crate::trace::{SimulationTrace, Waveform};

/// Switching similarity of two waveforms:
/// `similarity(i, j) = (1/T_D) Σ_t f(i,t) · f(j,t) ∈ [−1, 1]`.
///
/// # Panics
///
/// Panics if the waveforms have different lengths.
pub fn similarity(a: &Waveform, b: &Waveform) -> f64 {
    assert_eq!(a.len(), b.len(), "waveforms must cover the same duration");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = (0..a.len()).map(|t| a.value(t) * b.value(t)).sum();
    sum / a.len() as f64
}

/// Writes the row-major `k × k` similarity matrix of `nodes` into `values`
/// without allocating: `values[i·k + j]` is the similarity of `nodes[i]` and
/// `nodes[j]`, with ones on the diagonal. Each pair is computed once and
/// mirrored.
///
/// # Panics
///
/// Panics if `values` is not `nodes.len()²` long, or a node is not covered
/// by the trace.
pub fn fill_similarities(trace: &SimulationTrace, nodes: &[NodeId], values: &mut [f64]) {
    let k = nodes.len();
    assert_eq!(values.len(), k * k, "one value per pair of nodes");
    for i in 0..k {
        values[i * k + i] = 1.0;
        for j in (i + 1)..k {
            let s = trace.similarity(nodes[i], nodes[j]);
            values[i * k + j] = s;
            values[j * k + i] = s;
        }
    }
}

/// A dense matrix of pairwise similarities for a selected group of wires
/// (for example the wires sharing one routing channel).
///
/// Only the selected nodes are stored, so building a matrix for a channel of
/// `k` wires costs `O(k² · ⌈T_D/64⌉)` word operations (a popcount per word
/// of the packed trace) regardless of the circuit size.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimilarityMatrix {
    nodes: Vec<NodeId>,
    /// Row-major `k × k` matrix.
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Computes the similarity matrix of the given nodes from a trace
    /// (allocating; [`fill_similarities`] writes the same values into a
    /// caller's buffer).
    pub fn from_trace(trace: &SimulationTrace, nodes: &[NodeId]) -> Self {
        let k = nodes.len();
        let mut values = vec![0.0; k * k];
        fill_similarities(trace, nodes, &mut values);
        SimilarityMatrix {
            nodes: nodes.to_vec(),
            values,
        }
    }

    /// Builds a matrix from explicit values (row-major, `k × k`).
    ///
    /// # Panics
    ///
    /// Panics if `values` is not `nodes.len()²` long.
    pub fn from_values(nodes: Vec<NodeId>, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), nodes.len() * nodes.len());
        SimilarityMatrix { nodes, values }
    }

    /// The nodes covered by this matrix, in row/column order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the matrix covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Similarity by position in the node list.
    pub fn by_position(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.nodes.len() + j]
    }

    /// The ordering weight `1 − similarity` by position (the edge weight of
    /// the Switching-Similarity problem's complete graph `K_n`).
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        1.0 - self.by_position(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(bits: &[u8]) -> Waveform {
        Waveform::from_levels(bits.iter().map(|&b| b == 1).collect())
    }

    #[test]
    fn similarity_extremes() {
        let a = wf(&[1, 1, 0, 0]);
        let same = wf(&[1, 1, 0, 0]);
        let opposite = wf(&[0, 0, 1, 1]);
        assert_eq!(similarity(&a, &same), 1.0);
        assert_eq!(similarity(&a, &opposite), -1.0);
    }

    #[test]
    fn similarity_partial_agreement() {
        let a = wf(&[1, 1, 1, 1]);
        let b = wf(&[1, 1, 1, 0]);
        // 3 agreements, 1 disagreement: (3-1)/4 = 0.5.
        assert!((similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let a = wf(&[1, 0, 1, 0, 1, 1]);
        let b = wf(&[0, 0, 1, 1, 1, 0]);
        let s = similarity(&a, &b);
        assert_eq!(s, similarity(&b, &a));
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = similarity(&wf(&[1, 0]), &wf(&[1]));
    }

    #[test]
    fn matrix_from_trace() {
        let steps = vec![
            vec![true, true, false],
            vec![false, false, true],
            vec![true, true, true],
            vec![false, false, false],
        ];
        let trace = SimulationTrace::from_steps(3, steps);
        let nodes = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let m = SimilarityMatrix::from_trace(&trace, &nodes);
        assert_eq!(m.len(), 3);
        assert_eq!(m.by_position(0, 0), 1.0);
        assert_eq!(m.by_position(0, 1), 1.0);
        assert_eq!(m.by_position(1, 0), 1.0);
        assert_eq!(m.by_position(0, 2), 0.0);
        assert!((m.weight(0, 1) - 0.0).abs() < 1e-12);
        assert!((m.weight(0, 2) - 1.0).abs() < 1e-12);

        // The in-place fill writes the same matrix into a caller's buffer,
        // overwriting whatever it held.
        let mut values = vec![f64::NAN; 9];
        fill_similarities(&trace, &nodes, &mut values);
        let expected: Vec<f64> = (0..9).map(|e| m.by_position(e / 3, e % 3)).collect();
        assert_eq!(values, expected);
    }
}
