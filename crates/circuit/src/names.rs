//! Node names stored as one table, and the one check that names repeat.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::error::CircuitError;
use crate::graph::AdjacencyFill;
use crate::id::NodeId;

/// A list of names kept back to back in one `String`: name `i` is
/// `text[starts[i]..starts[i + 1]]`. The offsets are 32-bit, so the table
/// holds at most `u32::MAX` bytes of names; [`push`](Self::push) refuses
/// more with a typed error.
#[derive(Debug, Clone)]
pub(crate) struct NameTable {
    text: String,
    starts: Vec<u32>,
}

impl NameTable {
    /// An empty table with room for `names` names of `bytes` bytes in all.
    pub(crate) fn with_capacity(names: usize, bytes: usize) -> Self {
        let mut starts = Vec::with_capacity(names + 1);
        starts.push(0);
        NameTable {
            text: String::with_capacity(bytes),
            starts,
        }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total length of the names in bytes.
    pub(crate) fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Appends `name` as name `len()`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::TooLarge`] when the names would exceed `u32::MAX`
    /// bytes.
    pub(crate) fn push(&mut self, name: &str) -> Result<(), CircuitError> {
        let end =
            u32::try_from(self.text.len() + name.len()).map_err(|_| CircuitError::TooLarge {
                what: "bytes of node names",
                limit: u32::MAX as usize,
            })?;
        self.text.push_str(name);
        self.starts.push(end);
        Ok(())
    }

    /// Name `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub(crate) fn get(&self, i: usize) -> &str {
        &self.text[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Every name, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.text[w[0] as usize..w[1] as usize])
    }

    /// Bytes held: the text buffer and the offsets.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.text.capacity() + self.starts.capacity() * std::mem::size_of::<u32>()
    }
}

/// The earliest second occurrence among `len` names: the smallest `j` such
/// that `name(j)` equals `name(i)` for some `i < j`, or `None` when the
/// names are distinct.
///
/// Each name is hashed once with a keyed SipHash ([`RandomState`]), so
/// hostile netlist text cannot choose names that collide, and the names
/// are compared only within a hash bucket. It runs in expected O(len) with
/// no hash table and no sort.
///
/// # Errors
///
/// [`CircuitError::TooLarge`] when `len` does not fit the 32-bit bucket
/// offsets.
pub(crate) fn first_repeat<'a>(
    len: usize,
    name: impl Fn(usize) -> &'a str,
) -> Result<Option<usize>, CircuitError> {
    let keys = RandomState::new();
    let hashes: Vec<u64> = (0..len).map(|i| keys.hash_one(name(i))).collect();
    first_repeat_hashed(&hashes, name)
}

/// [`first_repeat`] with the hash of name `i` given as `hashes[i]`.
///
/// Names go into one bucket per name, picked by the high bits of
/// `hash * len`, as one compressed list (each bucket in increasing name
/// order); a name is compared only with the earlier names of its bucket
/// that have its hash.
pub(crate) fn first_repeat_hashed<'a>(
    hashes: &[u64],
    name: impl Fn(usize) -> &'a str,
) -> Result<Option<usize>, CircuitError> {
    let len = hashes.len();
    let bucket = |hash: u64| ((u128::from(hash) * len as u128) >> 64) as usize;
    // A bucket holds at most `len` names, so its count fits a `u32`.
    if u32::try_from(len).is_err() {
        return Err(CircuitError::TooLarge {
            what: "names",
            limit: u32::MAX as usize,
        });
    }
    let mut sizes = vec![0u32; len];
    for &hash in hashes {
        sizes[bucket(hash)] += 1;
    }
    let mut fill = AdjacencyFill::new(sizes.into_iter().map(|size| size as usize))?;
    for (i, &hash) in hashes.iter().enumerate() {
        fill.push(bucket(hash), NodeId::new(i));
    }
    let buckets = fill.finish();
    let mut first: Option<usize> = None;
    for b in 0..len {
        let members = buckets.list(b);
        for (k, j) in members.iter().enumerate().skip(1) {
            let j = j.index();
            if first.is_some_and(|first| first <= j) {
                break;
            }
            let repeats = members[..k].iter().any(|i| {
                let i = i.index();
                hashes[i] == hashes[j] && name(i) == name(j)
            });
            if repeats {
                first = Some(j);
                break;
            }
        }
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_earliest_second_occurrence_is_reported() {
        let names = ["a", "b", "a", "b"];
        assert_eq!(first_repeat(4, |i| names[i]), Ok(Some(2)));
        let names = ["x", "b", "a", "b", "a"];
        assert_eq!(first_repeat(5, |i| names[i]), Ok(Some(3)));
        let names = ["a", "b", "c"];
        assert_eq!(first_repeat(3, |i| names[i]), Ok(None));
        assert_eq!(first_repeat(0, |_| ""), Ok(None));
    }

    #[test]
    fn names_come_back_in_order() {
        let mut t = NameTable::with_capacity(0, 0);
        assert_eq!(t.len(), 0);
        for name in ["a", "", "g\u{e9}\"0", "w10"] {
            t.push(name).unwrap();
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(2), "g\u{e9}\"0");
        assert_eq!(t.get(1), "");
        assert_eq!(t.text_len(), 1 + 5 + 3);
        assert_eq!(t.iter().collect::<Vec<_>>(), ["a", "", "g\u{e9}\"0", "w10"]);
    }
}
