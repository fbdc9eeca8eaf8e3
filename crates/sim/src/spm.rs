//! The scratchpad's storage: every SPM word in address order, in
//! fixed-size pages.
//!
//! The banks are word-interleaved (bank = word mod banks), so storing the
//! SPM in address order rather than bank by bank makes every access a
//! shift and a mask instead of a division by the bank count, and a
//! snapshot of the memory a sequential walk.

use lrscwait_core::{StateError, StateReader, StateWriter};

/// log2 of the words per page: 64 KiB pages. A page stays below glibc's
/// 128 KiB mmap threshold, so the pages come from the heap like every
/// other machine allocation; one array of the whole SPM would be mapped
/// lazily, and a 1024-core machine would build without growing its
/// resident set.
const PAGE_SHIFT: u32 = 14;
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (1 << PAGE_SHIFT) - 1;

/// Zero-initialized SPM words, indexed by word address (`addr / 4`).
pub(crate) struct Spm {
    pages: Vec<Box<[u32]>>,
    words: u32,
}

impl Spm {
    /// An all-zero SPM of `words` words; the last page holds the remainder.
    pub(crate) fn new(words: u32) -> Spm {
        let pages = (0..words as usize)
            .step_by(PAGE_WORDS)
            .map(|start| vec![0; PAGE_WORDS.min(words as usize - start)].into_boxed_slice())
            .collect();
        Spm { pages, words }
    }

    /// Size in bytes: every address below it is backed by a word.
    pub(crate) fn bytes(&self) -> u32 {
        self.words * 4
    }

    /// The word at word address `word`.
    pub(crate) fn read(&self, word: u32) -> u32 {
        self.pages[(word >> PAGE_SHIFT) as usize][(word & PAGE_MASK) as usize]
    }

    /// Overwrites the word at word address `word`.
    pub(crate) fn write(&mut self, word: u32, value: u32) {
        self.pages[(word >> PAGE_SHIFT) as usize][(word & PAGE_MASK) as usize] = value;
    }

    /// Appends every word, in address order.
    pub(crate) fn save(&self, out: &mut StateWriter) {
        for page in &self.pages {
            for &w in page.iter() {
                out.put_u32(w);
            }
        }
    }

    /// Reads back what [`Spm::save`] wrote for an SPM of the same size.
    pub(crate) fn load(&mut self, src: &mut StateReader<'_>) -> Result<(), StateError> {
        for page in &mut self.pages {
            for w in page.iter_mut() {
                *w = src.take_u32()?;
            }
        }
        Ok(())
    }
}
