//! Node names stored as one table.

use crate::error::CircuitError;

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

#[cfg(test)]
mod tests {
    use super::*;

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
