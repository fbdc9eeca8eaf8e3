//! The scratchpad's storage: every SPM word in address order, in
//! fixed-size pages allocated on first write.
//!
//! The banks are word-interleaved (bank = word mod banks), so storing the
//! SPM in address order rather than bank by bank makes every access a
//! shift and a mask instead of a division by the bank count, and the
//! memory's state bytes a sequential walk.
//!
//! A page is allocated the first time a nonzero value is written to it;
//! until then it reads as zeros and a write of zero leaves it absent. The
//! benchmark kernels keep their data in the first few KiB of a 1–4 MiB
//! SPM, and a machine holds only the pages its guest and host touch.
//! Nothing outside this module sees the pages: reads and writes are those
//! of one zero-initialized array, and the state bytes hold only the pages
//! that hold a nonzero word.

use lrscwait_core::StateWriter;

/// log2 of the words per page: 64 KiB pages. A page stays below glibc's
/// default 128 KiB mmap threshold, so the first write to it is an
/// ordinary heap allocation, not a fresh mapping made in the middle of a
/// run and unmapped again when the machine drops.
const PAGE_SHIFT: u32 = 14;
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (1 << PAGE_SHIFT) - 1;

/// Zero-initialized SPM words, indexed by word address (`addr / 4`).
#[derive(Debug)]
pub(crate) struct Spm {
    /// `None` for a page never written with a nonzero value.
    pages: Vec<Option<Box<[u32]>>>,
    words: u32,
}

/// Page by page, so that [`clone_from`](Clone::clone_from) overwrites the
/// pages both sides hold in place.
impl Clone for Spm {
    fn clone(&self) -> Spm {
        Spm {
            pages: self.pages.clone(),
            words: self.words,
        }
    }

    fn clone_from(&mut self, source: &Spm) {
        self.pages.clone_from(&source.pages);
        self.words = source.words;
    }
}

impl Spm {
    /// An all-zero SPM of `words` words, with no page allocated yet; the
    /// last page holds the remainder.
    pub(crate) fn new(words: u32) -> Spm {
        let pages = (0..words as usize)
            .step_by(PAGE_WORDS)
            .map(|_| None)
            .collect();
        Spm { pages, words }
    }

    /// Size in bytes: every address below it is backed by a word.
    pub(crate) fn bytes(&self) -> u32 {
        self.words * 4
    }

    /// The word at word address `word`.
    pub(crate) fn read(&self, word: u32) -> u32 {
        debug_assert!(word < self.words, "word {word} outside the SPM");
        match &self.pages[(word >> PAGE_SHIFT) as usize] {
            Some(page) => page[(word & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Overwrites the word at word address `word`, allocating its page on
    /// the first nonzero write.
    pub(crate) fn write(&mut self, word: u32, value: u32) {
        let index = (word >> PAGE_SHIFT) as usize;
        let words = self.words;
        let page = match &mut self.pages[index] {
            Some(page) => page,
            None if value == 0 => return,
            slot => slot.insert(vec![0; page_len(words, index)].into_boxed_slice()),
        };
        page[(word & PAGE_MASK) as usize] = value;
    }

    /// Appends every page in address order: a presence flag, then the
    /// page's words if it holds a nonzero one. A page of zeros, allocated
    /// or not, is its flag alone, so the bytes depend only on the words.
    pub(crate) fn save(&self, out: &mut StateWriter) {
        for page in &self.pages {
            match page.as_deref().filter(|page| page.iter().any(|&w| w != 0)) {
                Some(page) => {
                    out.put_bool(true);
                    page.iter().for_each(|&w| out.put_u32(w));
                }
                None => out.put_bool(false),
            }
        }
    }
}

/// Words in page `index` of an SPM of `words` words: the last page is
/// partial.
fn page_len(words: u32, index: usize) -> usize {
    PAGE_WORDS.min(words as usize - (index << PAGE_SHIFT))
}
