//! An ordered set of small integer ids, stored as a two-level bitset.

/// A set of ids drawn from `0..universe`, always iterated in ascending id
/// order.
///
/// Level 0 holds one bit per id, level 1 one bit per non-zero level-0
/// word, so the successor query behind every iteration skips 4096 absent
/// ids per summary word read. Insert, remove and membership are O(1) and
/// the set never allocates after construction — which is what lets the
/// simulator keep its "ascending id" worklists (active NoC nodes, runnable
/// cores, dirty outboxes) ordered without ever sorting or merging them.
///
/// A walk that inserts or removes members as it goes steps with
/// [`next_from`](IdSet::next_from), which holds no borrow between steps (a
/// member removed behind the cursor is not revisited, one inserted ahead
/// of it is reached).
#[derive(Clone, Debug)]
pub struct IdSet {
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set over the ids `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> IdSet {
        assert!(u32::try_from(universe).is_ok(), "ids are 32-bit");
        let words = universe.div_ceil(64);
        IdSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; returns whether it was absent. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when `id` lies outside the universe.
    pub fn insert(&mut self, id: u32) -> bool {
        let w = id as usize / 64;
        let bit = 1 << (id % 64);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `id`; returns whether it was present. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when `id` lies outside the universe.
    pub fn remove(&mut self, id: u32) -> bool {
        let w = id as usize / 64;
        let bit = 1 << (id % 64);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= usize::from(present);
        present
    }

    /// Makes `id` a member exactly when `member` holds, with no branch on
    /// either the argument or the current membership.
    ///
    /// # Panics
    ///
    /// Panics when `id` lies outside the universe.
    pub fn set(&mut self, id: u32, member: bool) {
        let w = id as usize / 64;
        let shift = id % 64;
        let old = self.words[w];
        let word = (old & !(1 << shift)) | (u64::from(member) << shift);
        self.words[w] = word;
        let summary = &mut self.summary[w / 64];
        let bit = w % 64;
        *summary = (*summary & !(1 << bit)) | (u64::from(word != 0) << bit);
        self.len = self.len + usize::from(member) - ((old >> shift) & 1) as usize;
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
        self.len = 0;
    }

    /// Smallest member `>= from`, if any (`from` may lie past the
    /// universe).
    #[must_use]
    pub fn next_from(&self, from: u32) -> Option<u32> {
        if self.len == 0 {
            return None; // the common case for a worklist, kept cheap
        }
        self.iter_from(from).next()
    }

    /// The members `>= from`, ascending.
    #[must_use]
    pub fn iter_from(&self, from: u32) -> Iter<'_> {
        let w = from as usize / 64;
        let above = |bits: &u64, at: usize| bits & (!0 << (at % 64));
        Iter {
            set: self,
            w,
            bits: self
                .words
                .get(w)
                .map_or(0, |word| above(word, from as usize)),
            // Words after `w` only: `w` itself is in `bits` already.
            later: (self.summary.get(w / 64)).map_or(0, |s| above(s, w) & !(1 << (w % 64))),
        }
    }

    /// All members, ascending.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Overwrites `out` with the members in ascending order rotated left
    /// by `start` positions: member number `start` comes first, the
    /// members before it follow the largest one.
    ///
    /// # Panics
    ///
    /// Panics when `start > len()`.
    pub fn rotated_into(&self, start: usize, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len, 0);
        let (front, back) = out.split_at_mut(self.len - start);
        let mut members = self.iter();
        for (slot, id) in back.iter_mut().zip(&mut members) {
            *slot = id;
        }
        for (slot, id) in front.iter_mut().zip(members) {
            *slot = id;
        }
    }
}

/// Ascending iterator over an [`IdSet`] (see [`IdSet::iter_from`]).
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    set: &'a IdSet,
    /// Word the cursor is in, and its members not yet yielded.
    w: usize,
    bits: u64,
    /// Non-zero words after `w` under the same summary word.
    later: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            let mut s = self.w / 64;
            while self.later == 0 {
                s += 1;
                self.later = *self.set.summary.get(s)?;
            }
            self.w = s * 64 + self.later.trailing_zeros() as usize;
            self.later &= self.later - 1;
            self.bits = self.set.words[self.w];
        }
        let id = (self.w * 64) as u32 + self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids straddling the word (64) and summary-word (4096) boundaries.
    const IDS: [u32; 9] = [0, 1, 63, 64, 65, 4095, 4096, 4097, 8999];

    fn filled() -> IdSet {
        let mut set = IdSet::new(9000);
        for id in IDS.iter().rev() {
            assert!(set.insert(*id), "{id} is new");
        }
        set
    }

    #[test]
    fn insert_and_remove_are_idempotent_and_keep_len() {
        let mut set = filled();
        assert_eq!(set.len(), IDS.len());
        assert!(!set.insert(64), "already present");
        assert_eq!(set.len(), IDS.len());
        assert!(set.remove(64));
        assert!(!set.remove(64), "already gone");
        assert_eq!(set.len(), IDS.len() - 1);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.next_from(0), None);
    }

    #[test]
    fn set_matches_insert_and_remove() {
        let mut set = filled();
        let mut model = filled();
        for (step, &id) in IDS.iter().chain(&[2, 4096, 8999, 2]).enumerate() {
            let member = step % 3 != 0;
            set.set(id, member);
            if member {
                model.insert(id);
            } else {
                model.remove(id);
            }
            assert_eq!(set.len(), model.len(), "step {step}");
            assert!(set.iter().eq(model.iter()), "step {step}");
            assert_eq!(set.summary, model.summary, "step {step}");
        }
    }

    #[test]
    fn iterates_ascending_across_word_and_summary_boundaries() {
        let mut set = filled();
        assert_eq!(set.iter().collect::<Vec<_>>(), IDS);
        assert_eq!(set.iter_from(64).collect::<Vec<_>>(), IDS[3..]);
        assert_eq!(set.iter_from(66).collect::<Vec<_>>(), IDS[5..]);
        assert_eq!(set.next_from(4098), Some(8999));
        assert_eq!(set.next_from(9000), None);
        assert_eq!(set.next_from(u32::MAX), None, "past the universe");
        // Emptying the only word under a summary bit clears that bit.
        for id in [4096, 4097, 8999] {
            set.remove(id);
        }
        assert_eq!(set.next_from(66), Some(4095));
        assert_eq!(set.next_from(4096), None);
        for id in [0, 1, 63, 64] {
            set.remove(id);
        }
        assert_eq!(set.next_from(0), Some(65));
        set.clear();
        assert_eq!(set.next_from(0), None);
    }

    #[test]
    fn a_walk_may_mutate_the_set_under_its_cursor() {
        let mut set = filled();
        let mut seen = Vec::new();
        let mut next = set.next_from(0);
        while let Some(id) = next {
            seen.push(id);
            set.remove(id);
            if id == 63 {
                set.insert(5000); // ahead of the cursor: reached
                set.insert(2); // behind it: not revisited
            }
            next = set.next_from(id + 1);
        }
        assert_eq!(seen, [0, 1, 63, 64, 65, 4095, 4096, 4097, 5000, 8999]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn rotation_starts_at_the_nth_member() {
        let set = filled();
        let mut out = vec![7; 3];
        for start in 0..IDS.len() {
            set.rotated_into(start, &mut out);
            let mut expect = IDS.to_vec();
            expect.rotate_left(start);
            assert_eq!(out, expect, "rotated by {start}");
        }
        IdSet::new(10).rotated_into(0, &mut out);
        assert!(out.is_empty());
    }
}
