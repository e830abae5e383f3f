//! Primary-input test patterns.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize, Serializer};

/// A sequence of primary-input vectors applied to the circuit, one per
/// simulation time step.
///
/// The paper assumes patterns "are available from the logic simulation
/// stage"; since no production traces ship with the benchmarks, this type
/// generates reproducible pseudo-random vectors instead. Deterministic
/// seeding keeps every experiment repeatable.
///
/// The bits are packed 64 time steps per machine word, input-major: input
/// `i` owns the row `bits[i·W..(i + 1)·W]` with `W = ⌈T/64⌉`, and its
/// level at step `t` is bit `t mod 64` of word `t / 64` of that row. Bits
/// past the last step are zero, so two equal sets compare equal word for
/// word. The JSON form is unchanged: `{"num_inputs":N,"vectors":[[…],…]}`,
/// one array of `N` booleans per time step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    num_inputs: usize,
    num_vectors: usize,
    bits: Vec<u64>,
}

/// Writes the step-major form, one array of `num_inputs` booleans per time
/// step: the instance JSON keeps its shape, which the generator digests
/// pin.
impl Serialize for PatternSet {
    fn serialize_json(&self, serializer: &mut Serializer) {
        serializer.begin_object();
        serializer.key("num_inputs");
        self.num_inputs.serialize_json(serializer);
        serializer.key("vectors");
        serializer.begin_array();
        for t in 0..self.num_vectors {
            serializer.element();
            serializer.begin_array();
            for input in 0..self.num_inputs {
                serializer.element();
                serializer.boolean(self.bit(t, input));
            }
            serializer.end_array();
        }
        serializer.end_array();
        serializer.end_object();
    }
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
        Ok(PatternSet::pack(num_inputs, &vectors))
    }
}

impl PatternSet {
    /// Wraps explicit vectors, `vectors[t][input]`. Every vector must have
    /// the same width.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not all `num_inputs` wide.
    pub fn from_vectors(num_inputs: usize, vectors: Vec<Vec<bool>>) -> Self {
        assert!(
            vectors.iter().all(|v| v.len() == num_inputs),
            "inconsistent vector width"
        );
        PatternSet::pack(num_inputs, &vectors)
    }

    /// Packs step-major vectors of width `num_inputs` into input-major rows.
    fn pack(num_inputs: usize, vectors: &[Vec<bool>]) -> Self {
        PatternSet::generate(num_inputs, vectors.len(), |t, input| vectors[t][input])
    }

    /// Builds `num_vectors` vectors from `level(t, input)`, called step by
    /// step and, within a step, input by input. The buffer is allocated
    /// once and each bit is ORed into place without a branch.
    fn generate(
        num_inputs: usize,
        num_vectors: usize,
        mut level: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let words = num_vectors.div_ceil(64);
        let mut bits = vec![0u64; num_inputs * words];
        for t in 0..num_vectors {
            let (word, shift) = (t / 64, t % 64);
            for (input, row) in bits.chunks_exact_mut(words).enumerate() {
                row[word] |= u64::from(level(t, input)) << shift;
            }
        }
        PatternSet {
            num_inputs,
            num_vectors,
            bits,
        }
    }

    /// Generates `num_vectors` uniformly random vectors for `num_inputs`
    /// primary inputs, reproducibly from `seed`.
    pub fn random(num_inputs: usize, num_vectors: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        PatternSet::generate(num_inputs, num_vectors, |_, _| rng.gen_bool(0.5))
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
        // Each input records its level and then draws its toggle, input by
        // input: the same draws in the same order as recording the whole
        // vector first and toggling afterwards.
        PatternSet::generate(num_inputs, num_vectors, |_, input| {
            let level = current[input];
            current[input] ^= rng.gen_bool(p);
            level
        })
    }

    /// Number of primary inputs each vector covers.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of vectors (simulation time steps `T_D`).
    pub fn len(&self) -> usize {
        self.num_vectors
    }

    /// Returns `true` if the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.num_vectors == 0
    }

    /// Words per input row, `⌈T/64⌉`.
    pub(crate) fn words_per_input(&self) -> usize {
        self.num_vectors.div_ceil(64)
    }

    /// The packed levels of one input over all time steps: bit `t mod 64`
    /// of word `t / 64` is the level at step `t`; bits past the last step
    /// are zero.
    ///
    /// # Panics
    ///
    /// Panics if `input >= num_inputs()`.
    pub(crate) fn row(&self, input: usize) -> &[u64] {
        assert!(input < self.num_inputs, "input {input} out of range");
        let words = self.words_per_input();
        &self.bits[input * words..(input + 1) * words]
    }

    /// The level of `input` at time step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len()` or `input >= num_inputs()`.
    pub fn bit(&self, t: usize, input: usize) -> bool {
        assert!(t < self.num_vectors, "time step {t} out of range");
        (self.row(input)[t / 64] >> (t % 64)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(p: &PatternSet, t: usize) -> Vec<bool> {
        (0..p.num_inputs()).map(|i| p.bit(t, i)).collect()
    }

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
        let ones: usize = (0..4)
            .map(|i| {
                p.row(i)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum();
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
                if p.bit(t, i) != p.bit(t - 1, i) {
                    toggles += 1;
                }
            }
        }
        let rate = toggles as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.03, "rate {rate}");
    }

    /// The draws of the step-major generator before packing, replayed: the
    /// packed set holds exactly its vectors, so generated instances and
    /// their digests do not move.
    #[test]
    fn packed_generators_replay_the_step_major_draws() {
        for (inputs, steps) in [(0, 5), (3, 0), (1, 1), (5, 63), (7, 64), (4, 65), (9, 130)] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut current: Vec<bool> = (0..inputs).map(|_| rng.gen_bool(0.5)).collect();
            let mut vectors = Vec::new();
            for _ in 0..steps {
                vectors.push(current.clone());
                for bit in current.iter_mut() {
                    if rng.gen_bool(0.3) {
                        *bit = !*bit;
                    }
                }
            }
            let packed = PatternSet::random_correlated(inputs, steps, 0.3, 11);
            assert_eq!(packed, PatternSet::from_vectors(inputs, vectors.clone()));
            for (t, v) in vectors.iter().enumerate() {
                assert_eq!(&vector(&packed, t), v);
            }

            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let vectors: Vec<Vec<bool>> = (0..steps)
                .map(|_| (0..inputs).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            assert_eq!(
                PatternSet::random(inputs, steps, 5),
                PatternSet::from_vectors(inputs, vectors)
            );
        }
    }

    #[test]
    fn tail_bits_stay_zero() {
        let p = PatternSet::from_vectors(1, vec![vec![true]; 65]);
        assert_eq!(p.words_per_input(), 2);
        assert_eq!(p.row(0), &[u64::MAX, 1]);
    }

    /// The JSON the derived step-major encoder wrote before the bits were
    /// packed, for comparison.
    #[derive(Serialize)]
    struct StepMajor {
        num_inputs: usize,
        vectors: Vec<Vec<bool>>,
    }

    #[test]
    fn json_is_the_step_major_form() {
        for (inputs, steps) in [
            (0, 0),
            (3, 0),
            (0, 4),
            (1, 1),
            (5, 63),
            (7, 64),
            (4, 65),
            (9, 130),
        ] {
            let p = PatternSet::random_correlated(inputs, steps, 0.3, 17);
            let vectors = (0..steps).map(|t| vector(&p, t)).collect();
            let json = serde_json::to_string(&p).unwrap();
            let old = StepMajor {
                num_inputs: inputs,
                vectors,
            };
            assert_eq!(json, serde_json::to_string(&old).unwrap());
            assert_eq!(serde_json::from_str::<PatternSet>(&json).unwrap(), p);
        }
    }

    #[test]
    fn a_line_written_before_packing_still_decodes() {
        let line = r#"{"num_inputs":2,"vectors":[[true,false],[false,false],[true,true]]}"#;
        let p: PatternSet = serde_json::from_str(line).unwrap();
        assert_eq!((p.num_inputs(), p.len()), (2, 3));
        assert_eq!(p.row(0), &[0b101]);
        assert_eq!(p.row(1), &[0b100]);
        assert_eq!(serde_json::to_string(&p).unwrap(), line);
    }

    #[test]
    fn ragged_json_vectors_are_an_error() {
        let line = r#"{"num_inputs":2,"vectors":[[true,false],[false]]}"#;
        let err = serde_json::from_str::<PatternSet>(line).unwrap_err();
        assert!(err.to_string().contains("1 bits, expected 2"), "{err}");
    }

    #[test]
    fn from_vectors_checks_width() {
        let ok = PatternSet::from_vectors(2, vec![vec![true, false], vec![false, false]]);
        assert_eq!(ok.len(), 2);
        assert_eq!(vector(&ok, 0), [true, false]);
    }

    #[test]
    #[should_panic]
    fn from_vectors_rejects_ragged_input() {
        let _ = PatternSet::from_vectors(2, vec![vec![true], vec![false, false]]);
    }
}
