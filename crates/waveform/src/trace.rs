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
}

/// The logic values of every node over every simulation time step.
///
/// Stored node-major and packed 64 time steps per machine word, so each
/// node's waveform is one contiguous row: node `i` owns
/// `words[i·W..(i + 1)·W]` with `W = ⌈T/64⌉`, and its level at step `t` is
/// bit `t mod 64` of word `t / 64` of that row. Bits past the last step are
/// zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SimulationTrace {
    num_nodes: usize,
    num_steps: usize,
    words: Vec<u64>,
}

impl SimulationTrace {
    /// Wraps packed node-major rows of `⌈num_steps/64⌉` words each.
    pub(crate) fn from_words(num_nodes: usize, num_steps: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), num_nodes * num_steps.div_ceil(64));
        SimulationTrace {
            num_nodes,
            num_steps,
            words,
        }
    }

    /// Builds a trace from per-step node values (`steps[t][node]`).
    #[cfg(test)]
    pub(crate) fn from_steps(num_nodes: usize, steps: Vec<Vec<bool>>) -> Self {
        let num_steps = steps.len();
        let row_words = num_steps.div_ceil(64);
        let mut words = vec![0u64; num_nodes * row_words];
        for (t, step) in steps.iter().enumerate() {
            assert_eq!(step.len(), num_nodes);
            for (node, &value) in step.iter().enumerate() {
                words[node * row_words + t / 64] |= u64::from(value) << (t % 64);
            }
        }
        SimulationTrace::from_words(num_nodes, num_steps, words)
    }

    /// Number of nodes covered by the trace.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of time steps `T_D`.
    pub fn num_steps(&self) -> usize {
        self.num_steps
    }

    /// Words per node row, `⌈T/64⌉`.
    pub(crate) fn words_per_node(&self) -> usize {
        self.num_steps.div_ceil(64)
    }

    /// The packed levels of one node (no allocation): bit `t mod 64` of
    /// word `t / 64` is the level at step `t`; bits past the last step are
    /// zero.
    pub(crate) fn row(&self, id: NodeId) -> &[u64] {
        let w = self.words_per_node();
        &self.words[id.index() * w..(id.index() + 1) * w]
    }

    /// The logic level of one node at time step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_steps()` or the node is not covered.
    pub fn level(&self, id: NodeId, t: usize) -> bool {
        assert!(t < self.num_steps, "time step {t} out of range");
        (self.row(id)[t / 64] >> (t % 64)) & 1 == 1
    }

    /// The waveform of one node.
    pub fn waveform(&self, id: NodeId) -> Waveform {
        Waveform::from_levels((0..self.num_steps).map(|t| self.level(id, t)).collect())
    }

    /// Switching similarity between two nodes directly from the packed rows
    /// (avoids materializing [`Waveform`]s):
    /// `similarity(i, j) = (1/T) Σ_t f(i,t)·f(j,t) = (agreements − disagreements)/T`,
    /// where the disagreements are `Σ popcount(row_i ⊕ row_j)` (the zero tail
    /// bits never differ). Both counts are integers, so the value is the
    /// same `f64` a step-by-step count gives.
    pub fn similarity(&self, a: NodeId, b: NodeId) -> f64 {
        if self.num_steps == 0 {
            return 0.0;
        }
        let disagree: u64 = self
            .row(a)
            .iter()
            .zip(self.row(b))
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum();
        let agree = self.num_steps as u64 - disagree;
        (agree as f64 - disagree as f64) / self.num_steps as f64
    }

    /// An estimate (in bytes) of the memory held by the trace.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.capacity() * size_of::<u64>() + size_of::<Self>()
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
        assert!(!w.level(2));
    }

    #[test]
    fn empty_waveform() {
        let w = Waveform::from_levels(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn trace_transposes_steps() {
        // 3 nodes, 2 steps.
        let steps = vec![vec![true, false, true], vec![false, false, true]];
        let trace = SimulationTrace::from_steps(3, steps);
        assert_eq!(trace.num_nodes(), 3);
        assert_eq!(trace.num_steps(), 2);
        assert_eq!(trace.row(NodeId::new(0)), &[0b01]);
        assert_eq!(trace.row(NodeId::new(2)), &[0b11]);
        assert!(trace.level(NodeId::new(2), 1));
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

    /// The popcount similarity is the step-by-step agreement count of the
    /// byte-per-step trace, bit for bit, across word boundaries.
    #[test]
    fn similarity_matches_the_bytewise_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for steps in [1usize, 2, 3, 63, 64, 65, 127, 128, 130, 200] {
            let mut levels: Vec<Vec<bool>> = [0.5, 0.1, 0.9]
                .iter()
                .map(|&p| (0..steps).map(|_| rng.gen_bool(p)).collect())
                .collect();
            // A copy of node 0, so identical rows are covered too.
            levels.push(levels[0].clone());
            let steps_major: Vec<Vec<bool>> = (0..steps)
                .map(|t| levels.iter().map(|l| l[t]).collect())
                .collect();
            let trace = SimulationTrace::from_steps(4, steps_major);
            for a in 0..4 {
                for b in 0..4 {
                    let (la, lb) = (&levels[a], &levels[b]);
                    let agree = la.iter().zip(lb).filter(|(x, y)| x == y).count();
                    let disagree = la.len() - agree;
                    let bytewise = (agree as f64 - disagree as f64) / la.len() as f64;
                    let packed = trace.similarity(NodeId::new(a), NodeId::new(b));
                    assert_eq!(packed.to_bits(), bytewise.to_bits(), "T={steps} {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn memory_estimate_is_positive() {
        let trace = SimulationTrace::from_steps(2, vec![vec![true, false]]);
        assert!(trace.memory_bytes() > 0);
    }
}
