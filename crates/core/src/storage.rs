//! Word-addressed storage abstraction given to banks.

use std::collections::HashMap;

use crate::msg::{Addr, Word};

/// Backing storage a [`crate::Bank`] reads and writes through.
///
/// The simulator implements this over its SPM bank arrays; tests can use the
/// provided [`MapStorage`].
pub trait WordStorage {
    /// Reads the word at (word-aligned) byte address `addr`.
    fn read_word(&self, addr: Addr) -> Word;
    /// Writes the word at (word-aligned) byte address `addr`.
    fn write_word(&mut self, addr: Addr, value: Word);

    /// Read–modify–write helper applying a byte-lane `mask`.
    fn write_masked(&mut self, addr: Addr, value: Word, mask: Word) {
        if mask == !0 {
            self.write_word(addr, value);
        } else {
            let old = self.read_word(addr);
            self.write_word(addr, (old & !mask) | (value & mask));
        }
    }
}

/// Sparse word storage for tests and the protocol harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapStorage {
    words: HashMap<Addr, Word>,
}

impl MapStorage {
    /// Creates empty (all-zero) storage.
    #[must_use]
    pub fn new() -> MapStorage {
        MapStorage::default()
    }

    /// Number of words ever written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word was ever written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl WordStorage for MapStorage {
    fn read_word(&self, addr: Addr) -> Word {
        debug_assert_eq!(addr % 4, 0, "unaligned word read at {addr:#x}");
        self.words.get(&addr).copied().unwrap_or(0)
    }

    fn write_word(&mut self, addr: Addr, value: Word) {
        debug_assert_eq!(addr % 4, 0, "unaligned word write at {addr:#x}");
        self.words.insert(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reads_zero() {
        let s = MapStorage::new();
        assert_eq!(s.read_word(0x100), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut s = MapStorage::new();
        s.write_word(0x40, 0xDEAD_BEEF);
        assert_eq!(s.read_word(0x40), 0xDEAD_BEEF);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn masked_write_merges_lanes() {
        let mut s = MapStorage::new();
        s.write_word(0x10, 0xAABB_CCDD);
        s.write_masked(0x10, 0x0000_00EE, 0x0000_00FF);
        assert_eq!(s.read_word(0x10), 0xAABB_CCEE);
        s.write_masked(0x10, 0x1122_0000, 0xFFFF_0000);
        assert_eq!(s.read_word(0x10), 0x1122_CCEE);
        // Full mask takes the fast path.
        s.write_masked(0x10, 7, !0);
        assert_eq!(s.read_word(0x10), 7);
    }
}
