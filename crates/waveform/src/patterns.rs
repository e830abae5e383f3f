//! Primary-input test patterns.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize};

/// A sequence of primary-input vectors applied to the circuit, one per
/// simulation time step.
///
/// The paper assumes patterns "are available from the logic simulation
/// stage"; since no production traces ship with the benchmarks, this type
/// generates reproducible pseudo-random vectors instead. Deterministic
/// seeding keeps every experiment repeatable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PatternSet {
    num_inputs: usize,
    vectors: Vec<Vec<bool>>,
}

/// Decodes the vectors and rejects any whose width is not `num_inputs`
/// (the invariant [`PatternSet::from_vectors`] asserts).
impl Deserialize for PatternSet {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "PatternSet")?;
        let num_inputs: usize = f.field("num_inputs")?;
        let vectors: Vec<Vec<bool>> = f.field("vectors")?;
        if let Some(bad) = vectors.iter().find(|v| v.len() != num_inputs) {
            return Err(Error::custom(format!(
                "pattern vector has {} bits, expected {num_inputs}",
                bad.len()
            )));
        }
        Ok(PatternSet {
            num_inputs,
            vectors,
        })
    }
}

impl PatternSet {
    /// Wraps explicit vectors. Every vector must have the same width.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not all `num_inputs` wide.
    pub fn from_vectors(num_inputs: usize, vectors: Vec<Vec<bool>>) -> Self {
        assert!(
            vectors.iter().all(|v| v.len() == num_inputs),
            "inconsistent vector width"
        );
        PatternSet {
            num_inputs,
            vectors,
        }
    }

    /// Generates `num_vectors` uniformly random vectors for `num_inputs`
    /// primary inputs, reproducibly from `seed`.
    pub fn random(num_inputs: usize, num_vectors: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vectors = (0..num_vectors)
            .map(|_| (0..num_inputs).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        PatternSet {
            num_inputs,
            vectors,
        }
    }

    /// Generates correlated random vectors: each input flips with probability
    /// `toggle_probability` between consecutive vectors, which produces
    /// realistic temporal correlation (and therefore a wider spread of
    /// switching similarities) than fully independent sampling.
    pub fn random_correlated(
        num_inputs: usize,
        num_vectors: usize,
        toggle_probability: f64,
        seed: u64,
    ) -> Self {
        let p = toggle_probability.clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut current: Vec<bool> = (0..num_inputs).map(|_| rng.gen_bool(0.5)).collect();
        let mut vectors = Vec::with_capacity(num_vectors);
        for _ in 0..num_vectors {
            vectors.push(current.clone());
            for bit in current.iter_mut() {
                if rng.gen_bool(p) {
                    *bit = !*bit;
                }
            }
        }
        PatternSet {
            num_inputs,
            vectors,
        }
    }

    /// Number of primary inputs each vector covers.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of vectors (simulation time steps `T_D`).
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The vector applied at time step `t`.
    pub fn vector(&self, t: usize) -> &[bool] {
        &self.vectors[t]
    }

    /// Iterator over all vectors in time order.
    pub fn iter(&self) -> impl Iterator<Item = &[bool]> + '_ {
        self.vectors.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let a = PatternSet::random(8, 64, 42);
        let b = PatternSet::random(8, 64, 42);
        let c = PatternSet::random(8, 64, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_inputs(), 8);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let p = PatternSet::random(4, 4000, 7);
        let ones: usize = p.iter().map(|v| v.iter().filter(|&&b| b).count()).sum();
        let total = 4 * 4000;
        let ratio = ones as f64 / total as f64;
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn correlated_patterns_toggle_at_requested_rate() {
        let p = PatternSet::random_correlated(6, 2000, 0.1, 3);
        let mut toggles = 0usize;
        let mut total = 0usize;
        for t in 1..p.len() {
            for i in 0..p.num_inputs() {
                total += 1;
                if p.vector(t)[i] != p.vector(t - 1)[i] {
                    toggles += 1;
                }
            }
        }
        let rate = toggles as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn from_vectors_checks_width() {
        let ok = PatternSet::from_vectors(2, vec![vec![true, false], vec![false, false]]);
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.vector(0), &[true, false]);
    }

    #[test]
    #[should_panic]
    fn from_vectors_rejects_ragged_input() {
        let _ = PatternSet::from_vectors(2, vec![vec![true], vec![false, false]]);
    }
}
