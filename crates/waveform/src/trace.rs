//! Simulation traces and normalized waveforms.

use ncgws_circuit::NodeId;
use serde::Serialize;

/// The normalized waveform `f(i, t)` of one node: `+1` when the node is
/// logically high at time step `t`, `−1` when it is low.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Waveform {
    levels: Vec<bool>,
}

impl Waveform {
    /// Builds a waveform from logic levels (`true` = high).
    pub fn from_levels(levels: Vec<bool>) -> Self {
        Waveform { levels }
    }

    /// Number of time steps `T_D`.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Returns `true` if the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The normalized value `f(t) ∈ {−1, +1}`.
    pub fn value(&self, t: usize) -> f64 {
        if self.levels[t] {
            1.0
        } else {
            -1.0
        }
    }

    /// The raw logic level at time step `t`.
    pub fn level(&self, t: usize) -> bool {
        self.levels[t]
    }

    /// Number of transitions (level changes between consecutive samples) —
    /// the switching activity of the node.
    pub fn transitions(&self) -> usize {
        self.levels.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Fraction of time the node spends high.
    pub fn duty_cycle(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.levels.iter().filter(|&&b| b).count() as f64 / self.levels.len() as f64
    }
}

/// The logic values of every node over every simulation time step.
///
/// Stored node-major so per-node waveforms are contiguous.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimulationTrace {
    num_nodes: usize,
    num_steps: usize,
    /// `levels[node][step]`
    levels: Vec<Vec<bool>>,
}

impl SimulationTrace {
    /// Builds a trace from per-step node values (`steps[t][node]`).
    pub fn from_steps(num_nodes: usize, steps: Vec<Vec<bool>>) -> Self {
        let num_steps = steps.len();
        let mut levels = vec![Vec::with_capacity(num_steps); num_nodes];
        for step in &steps {
            debug_assert_eq!(step.len(), num_nodes);
            for (node, &value) in step.iter().enumerate() {
                levels[node].push(value);
            }
        }
        SimulationTrace {
            num_nodes,
            num_steps,
            levels,
        }
    }

    /// Number of nodes covered by the trace.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of time steps `T_D`.
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// The waveform of one node.
    pub fn waveform(&self, id: NodeId) -> Waveform {
        Waveform::from_levels(self.levels[id.index()].clone())
    }

    /// The raw levels of one node (no allocation).
    pub fn levels(&self, id: NodeId) -> &[bool] {
        &self.levels[id.index()]
    }

    /// Switching similarity between two nodes directly from the trace
    /// (avoids materializing [`Waveform`]s):
    /// `similarity(i, j) = (1/T) Σ_t f(i,t)·f(j,t) = (agreements − disagreements)/T`.
    pub fn similarity(&self, a: NodeId, b: NodeId) -> f64 {
        let la = &self.levels[a.index()];
        let lb = &self.levels[b.index()];
        debug_assert_eq!(la.len(), lb.len());
        if la.is_empty() {
            return 0.0;
        }
        let agree = la.iter().zip(lb.iter()).filter(|(x, y)| x == y).count();
        let disagree = la.len() - agree;
        (agree as f64 - disagree as f64) / la.len() as f64
    }

    /// An estimate (in bytes) of the memory held by the trace.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.levels
            .iter()
            .map(|v| v.capacity() * size_of::<bool>())
            .sum::<usize>()
            + self.levels.capacity() * size_of::<Vec<bool>>()
            + size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_values_and_stats() {
        let w = Waveform::from_levels(vec![true, true, false, true]);
        assert_eq!(w.len(), 4);
        assert_eq!(w.value(0), 1.0);
        assert_eq!(w.value(2), -1.0);
        assert!(w.level(3));
        assert_eq!(w.transitions(), 2);
        assert!((w.duty_cycle() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_waveform() {
        let w = Waveform::from_levels(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.duty_cycle(), 0.0);
        assert_eq!(w.transitions(), 0);
    }

    #[test]
    fn trace_transposes_steps() {
        // 3 nodes, 2 steps.
        let steps = vec![vec![true, false, true], vec![false, false, true]];
        let trace = SimulationTrace::from_steps(3, steps);
        assert_eq!(trace.num_nodes(), 3);
        assert_eq!(trace.num_steps(), 2);
        assert_eq!(trace.levels(NodeId::new(0)), &[true, false]);
        assert_eq!(trace.levels(NodeId::new(2)), &[true, true]);
        assert!(!trace.waveform(NodeId::new(1)).level(0));
    }

    #[test]
    fn similarity_bounds_and_symmetry() {
        let steps = vec![
            vec![true, true, false],
            vec![false, false, true],
            vec![true, true, false],
            vec![false, false, true],
        ];
        let trace = SimulationTrace::from_steps(3, steps);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let c = NodeId::new(2);
        // a and b are identical: similarity 1.
        assert_eq!(trace.similarity(a, b), 1.0);
        // a and c are complementary: similarity -1.
        assert_eq!(trace.similarity(a, c), -1.0);
        // Symmetry.
        assert_eq!(trace.similarity(a, c), trace.similarity(c, a));
        // Self-similarity is 1.
        assert_eq!(trace.similarity(a, a), 1.0);
    }

    #[test]
    fn similarity_of_empty_trace_is_zero() {
        let trace = SimulationTrace::from_steps(2, vec![]);
        assert_eq!(trace.similarity(NodeId::new(0), NodeId::new(1)), 0.0);
    }

    #[test]
    fn memory_estimate_is_positive() {
        let trace = SimulationTrace::from_steps(2, vec![vec![true, false]]);
        assert!(trace.memory_bytes() > 0);
    }
}
