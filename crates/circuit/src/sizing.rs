//! Size vectors for the sizable components of a circuit.

use std::num::NonZeroU64;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize, Serializer};

use crate::graph::SizeBounds;

/// A dense vector of component sizes `x = (x_{s+1}, …, x_{n+s})`, indexed by
/// the dense component index (`0..n`) of a
/// [`CircuitGraph`](crate::CircuitGraph).
///
/// The vector is deliberately decoupled from the graph so the sizing engine
/// can hold several candidate solutions without cloning the circuit.
///
/// Equality, `Debug` and the JSON form see the values only.
pub struct SizeVector {
    values: Vec<f64>,
    /// The sizing engine's cache stamp: the token of the last
    /// `stamp_engine_cache`, or `0` once the values may have changed since.
    /// Every `&mut` method clears it, and a clone or a decoded vector starts
    /// without one. Atomic so a shared vector can be stamped and the type
    /// stays `Send + Sync`.
    stamp: AtomicU64,
}

/// For the sizing engine's table cache only: a token naming the values a
/// [`SizeVector`] held when `SizeVector::stamp_engine_cache` returned it.
/// Tokens come from one process-wide counter, so no two calls return the
/// same one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCacheStamp(NonZeroU64);

/// The counter `SizeVector::stamp_engine_cache` draws from; `0` means "no
/// stamp".
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A clone holds the same values, unstamped.
impl Clone for SizeVector {
    fn clone(&self) -> Self {
        SizeVector::new(self.values.clone())
    }
}

impl PartialEq for SizeVector {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl std::fmt::Debug for SizeVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizeVector")
            .field("values", &self.values)
            .finish()
    }
}

/// Writes `{"values":[…]}`, as a derive would: the stamp is not encoded.
impl Serialize for SizeVector {
    fn serialize_json(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("values");
        self.values.serialize_json(s);
        s.end_object();
    }
}

/// Decodes `{"values":[…]}` into an unstamped vector.
impl Deserialize for SizeVector {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "SizeVector")?;
        Ok(SizeVector::new(f.field("values")?))
    }
}

impl SizeVector {
    /// Wraps a vector of sizes.
    pub fn new(values: Vec<f64>) -> Self {
        SizeVector {
            values,
            stamp: AtomicU64::new(0),
        }
    }

    /// A vector of `n` identical sizes.
    pub fn uniform(n: usize, size: f64) -> Self {
        SizeVector::new(vec![size; n])
    }

    /// For the sizing engine's table cache only, which calls it when its
    /// tables reflect these values: marks them with a fresh stamp and
    /// returns it. Until the next `&mut` call,
    /// `has_engine_cache_stamp` holds for it, which tells the engine in
    /// O(1), with no copy of the values, that its tables are current. A
    /// call from anywhere else only costs the engine a rebuild.
    #[doc(hidden)]
    pub fn stamp_engine_cache(&self) -> EngineCacheStamp {
        let next = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        let stamp = EngineCacheStamp(NonZeroU64::new(next).expect("stamp counter wrapped"));
        self.stamp.store(next, Ordering::Relaxed);
        stamp
    }

    /// For the sizing engine's table cache only: whether this vector was
    /// stamped with `stamp` and no `&mut` call has changed its values
    /// since. Another vector with the same values does not have it.
    #[doc(hidden)]
    pub fn has_engine_cache_stamp(&self, stamp: EngineCacheStamp) -> bool {
        self.stamp.load(Ordering::Relaxed) == stamp.0.get()
    }

    /// Drops the stamp: the values may be about to change.
    #[inline]
    fn unstamp(&mut self) {
        *self.stamp.get_mut() = 0;
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
        self.unstamp();
        self.values.iter_mut()
    }

    /// Borrows the raw slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Borrows the raw slice mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.unstamp();
        &mut self.values
    }

    /// Copies another vector's values into this one without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn copy_from(&mut self, other: &SizeVector) {
        self.unstamp();
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
        self.unstamp();
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
        self.unstamp();
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
    fn every_mut_method_drops_the_stamp() {
        let bounds_graph = {
            let mut b = crate::CircuitBuilder::new(crate::Technology::dac99());
            let d = b.add_driver("d", 100.0).unwrap();
            let w = b.add_wire("w", 10.0).unwrap();
            b.connect(d, w).unwrap();
            b.connect_output(w, 1.0).unwrap();
            b.build().unwrap()
        };
        let (other, bounds) = (SizeVector::uniform(1, 2.0), bounds_graph.component_bounds());
        let mutations: [&dyn Fn(&mut SizeVector); 5] = [
            &|v| v.as_mut_slice()[0] = 1.0,
            &|v| v.iter_mut().for_each(|x| *x = 1.0),
            &|v| v[0] = 1.0,
            &|v| v.copy_from(&other),
            &|v| v.clamp_into(bounds),
        ];
        for mutate in mutations {
            let mut v = SizeVector::uniform(1, 1.0);
            let stamp = v.stamp_engine_cache();
            assert!(v.has_engine_cache_stamp(stamp));
            mutate(&mut v);
            assert!(!v.has_engine_cache_stamp(stamp));
        }
    }

    #[test]
    fn stamps_are_unique_and_not_part_of_the_value() {
        let v = SizeVector::new(vec![1.0, 2.5]);
        let (first, second) = (v.stamp_engine_cache(), v.stamp_engine_cache());
        assert_ne!(first, second);
        assert!(v.has_engine_cache_stamp(second) && !v.has_engine_cache_stamp(first));
        let clone = v.clone();
        assert!(
            !clone.has_engine_cache_stamp(second),
            "a clone starts unstamped"
        );
        assert_eq!(clone, v);
        assert_eq!(format!("{v:?}"), "SizeVector { values: [1.0, 2.5] }");
        // The JSON form is a derive's over the values alone.
        #[derive(Serialize)]
        struct Derived {
            values: Vec<f64>,
        }
        let encode = |value: &dyn Fn(&mut Serializer)| {
            let mut s = Serializer::new();
            value(&mut s);
            s.into_string()
        };
        let json = encode(&|s| v.serialize_json(s));
        let values = v.as_slice().to_vec();
        assert_eq!(
            json,
            encode(&|s| Derived {
                values: values.clone()
            }
            .serialize_json(s))
        );
        let decoded = SizeVector::deserialize_json(&serde::de::parse(&json).unwrap()).unwrap();
        assert_eq!(decoded, v);
        assert!(!decoded.has_engine_cache_stamp(second));
        fn send_sync<T: Send + Sync>() {}
        send_sync::<SizeVector>();
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
