//! Size vectors for the sizable components of a circuit.

use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::graph::SizeBounds;

/// A dense vector of component sizes `x = (x_{s+1}, …, x_{n+s})`, indexed by
/// the dense component index (`0..n`) of a
/// [`CircuitGraph`](crate::CircuitGraph).
///
/// The vector is deliberately decoupled from the graph so the sizing engine
/// can hold several candidate solutions without cloning the circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeVector {
    values: Vec<f64>,
}

impl SizeVector {
    /// Wraps a vector of sizes.
    pub fn new(values: Vec<f64>) -> Self {
        SizeVector { values }
    }

    /// A vector of `n` identical sizes.
    pub fn uniform(n: usize, size: f64) -> Self {
        SizeVector {
            values: vec![size; n],
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over the sizes.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.values.iter()
    }

    /// Mutable iterator over the sizes.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.values.iter_mut()
    }

    /// Borrows the raw slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Borrows the raw slice mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Copies another vector's values into this one without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn copy_from(&mut self, other: &SizeVector) {
        self.values.copy_from_slice(&other.values);
    }

    /// Consumes the vector and returns the raw values.
    pub fn into_inner(self) -> Vec<f64> {
        self.values
    }

    /// Largest relative element-wise difference `|a-b| / max(|b|, eps)`.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn max_rel_diff(&self, other: &SizeVector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "size vectors must have equal length"
        );
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b).abs() / b.abs().max(1e-12))
            .fold(0.0, f64::max)
    }

    /// Element-wise clamp into each component's bounds `[L_i, U_i]`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` covers a different number of components.
    pub fn clamp_into(&mut self, bounds: SizeBounds<'_>) {
        assert_eq!(self.len(), bounds.len());
        for (i, v) in self.values.iter_mut().enumerate() {
            let (lower, upper) = bounds.get(i);
            *v = v.clamp(lower, upper);
        }
    }

    /// Sum of all sizes (useful as a quick monotonicity probe in tests).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The largest component size, or `0.0` for an empty vector.
    ///
    /// Sizes are widths and therefore non-negative, so `0.0` is a natural
    /// identity — callers reporting "the widest component" no longer need
    /// the `fold(f64::NEG_INFINITY, f64::max)` dance.
    pub fn max_size(&self) -> f64 {
        self.values.iter().fold(0.0, |acc: f64, &x| acc.max(x))
    }
}

impl Index<usize> for SizeVector {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

impl IndexMut<usize> for SizeVector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.values[index]
    }
}

impl From<Vec<f64>> for SizeVector {
    fn from(values: Vec<f64>) -> Self {
        SizeVector::new(values)
    }
}

impl FromIterator<f64> for SizeVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        SizeVector::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SizeVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = SizeVector::uniform(4, 2.0);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v[2], 2.0);
        assert_eq!(v.sum(), 8.0);
        let w: SizeVector = vec![1.0, 2.0].into();
        assert_eq!(w.as_slice(), &[1.0, 2.0]);
        let z: SizeVector = [3.0, 4.0].into_iter().collect();
        assert_eq!(z.into_inner(), vec![3.0, 4.0]);
    }

    #[test]
    fn max_size_over_entries() {
        assert_eq!(SizeVector::new(vec![1.0, 4.5, 2.0]).max_size(), 4.5);
        assert_eq!(SizeVector::new(Vec::new()).max_size(), 0.0);
    }

    #[test]
    fn diffs() {
        let a = SizeVector::new(vec![1.0, 2.0, 3.0]);
        let b = SizeVector::new(vec![1.5, 2.0, 2.0]);
        assert!((a.max_rel_diff(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_rel_diff(&a), 0.0);
    }

    #[test]
    #[should_panic]
    fn diff_length_mismatch_panics() {
        let a = SizeVector::new(vec![1.0]);
        let b = SizeVector::new(vec![1.0, 2.0]);
        let _ = a.max_rel_diff(&b);
    }

    #[test]
    fn clamp_into_bounds() {
        // d -> w0 -> g -> w1 -> output, all at the technology's [0.1, 10]
        // but g, which is overridden to [0.5, 2].
        let mut b = crate::CircuitBuilder::new(crate::Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w0 = b.add_wire("w0", 10.0).unwrap();
        let g = b.add_gate("g", crate::GateKind::Inv).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        b.connect(d, w0).unwrap();
        b.connect(w0, g).unwrap();
        b.connect(g, w1).unwrap();
        b.connect_output(w1, 1.0).unwrap();
        b.set_size_bounds(g, 0.5, 2.0).unwrap();
        let graph = b.build().unwrap();
        let mut v = SizeVector::new(vec![0.01, 5.0, 100.0]);
        v.clamp_into(graph.component_bounds());
        assert_eq!(v.as_slice(), &[0.1, 2.0, 10.0]);
    }

    #[test]
    fn mutation_through_index_and_iter() {
        let mut v = SizeVector::uniform(3, 1.0);
        v[1] = 4.0;
        for x in v.iter_mut() {
            *x *= 2.0;
        }
        assert_eq!(v.as_slice(), &[2.0, 8.0, 2.0]);
    }
}
