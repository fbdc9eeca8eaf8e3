//! The production stepper's ready queue: `Running` cores that cannot
//! issue before some later cycle, each re-admitted to the runnable set at
//! exactly its `ready_at`.
//!
//! Almost every deferral is a few cycles long (a branch penalty, a divide,
//! a superblock that ran a little ahead), so the queue is a timing wheel
//! of [`SLOTS`] one-cycle slots for cores due within `SLOTS` cycles, and a
//! min-heap only for the rest (long `Countdown` run-aheads). A slot is a
//! list threaded through the cores themselves (`Core::ready_link`), and an
//! occupancy bitmap answers the earliest-time query of cycle
//! fast-forwarding with one rotate and one count of trailing zeros.
//!
//! Within one cycle the queue hands out its due cores in no particular
//! order. That is exact: a re-admission is an `IdSet` insert plus that
//! core's own stall credit, and neither depends on the order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cpu::Core;

/// Wheel slots: cores due fewer than this many cycles ahead go on the
/// wheel, the rest on the heap.
const SLOTS: u64 = 64;

/// The end of a slot's list.
const NIL: u32 = u32::MAX;

/// Deferred cores by due cycle (see the module docs).
///
/// Invariant between cycles: every queued core's `ready_at` lies after the
/// last stepped cycle, and a wheel entry's lies fewer than [`SLOTS`] cycles
/// after it, so slot `t % SLOTS` holds exactly the cores due at `t`.
#[derive(Debug)]
pub(crate) struct ReadyQueue {
    /// First core of each slot's list, or [`NIL`].
    heads: [u32; SLOTS as usize],
    /// Bit `s` is set iff slot `s` is non-empty.
    occupied: u64,
    /// `(ready_at, core)` of the cores due `SLOTS` or more cycles ahead.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ReadyQueue {
    /// An empty queue whose heap holds `cores` entries without growing.
    pub(crate) fn with_capacity(cores: usize) -> ReadyQueue {
        ReadyQueue {
            heads: [NIL; SLOTS as usize],
            occupied: 0,
            far: BinaryHeap::with_capacity(cores),
        }
    }

    /// Files core `c`, deferred at cycle `now`, under its `ready_at`.
    pub(crate) fn push(&mut self, cores: &mut [Core], c: u32, now: u64) {
        let core = &mut cores[c as usize];
        let due = core.ready_at;
        if due - now < SLOTS {
            let slot = (due % SLOTS) as usize;
            core.ready_link = self.heads[slot];
            self.heads[slot] = c;
            self.occupied |= 1 << slot;
        } else {
            self.far.push(Reverse((due, c)));
        }
    }

    /// The earliest due cycle, between cycles after cycle `now` was
    /// stepped; `None` when the queue is empty.
    pub(crate) fn earliest(&self, now: u64) -> Option<u64> {
        let from = now + 1;
        let wheel = (self.occupied != 0).then(|| {
            let ahead = self.occupied.rotate_right((from % SLOTS) as u32);
            from + u64::from(ahead.trailing_zeros())
        });
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        match (wheel, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes every core due at `now`, handing each to `admit`.
    pub(crate) fn pop_due(
        &mut self,
        cores: &mut [Core],
        now: u64,
        mut admit: impl FnMut(&mut Core, u32),
    ) {
        let slot = (now % SLOTS) as usize;
        if self.occupied & (1 << slot) != 0 {
            self.occupied &= !(1 << slot);
            let mut c = std::mem::replace(&mut self.heads[slot], NIL);
            while c != NIL {
                let core = &mut cores[c as usize];
                debug_assert_eq!(core.ready_at, now, "deferred core re-admitted late");
                let next = core.ready_link;
                admit(core, c);
                c = next;
            }
        }
        while let Some(&Reverse((t, c))) = self.far.peek() {
            if t > now {
                break;
            }
            debug_assert_eq!(t, now, "deferred core re-admitted late");
            self.far.pop();
            admit(&mut cores[c as usize], c);
        }
    }

    /// Calls `visit` on every queued core, in no particular order.
    pub(crate) fn for_each(&self, cores: &[Core], mut visit: impl FnMut(u32)) {
        for &head in &self.heads {
            let mut c = head;
            while c != NIL {
                visit(c);
                c = cores[c as usize].ready_link;
            }
        }
        for &Reverse((_, c)) in &self.far {
            visit(c);
        }
    }
}

/// Field by field, so that [`clone_from`](Clone::clone_from) reuses the
/// heap's buffer.
impl Clone for ReadyQueue {
    fn clone(&self) -> ReadyQueue {
        ReadyQueue {
            heads: self.heads,
            occupied: self.occupied,
            far: self.far.clone(),
        }
    }

    fn clone_from(&mut self, source: &ReadyQueue) {
        self.heads = source.heads;
        self.occupied = source.occupied;
        self.far.clone_from(&source.far);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deferred(ready_at: &[u64]) -> Vec<Core> {
        ready_at
            .iter()
            .enumerate()
            .map(|(c, &t)| Core {
                ready_at: t,
                ..Core::new(c as u32, 0)
            })
            .collect()
    }

    #[test]
    fn cores_come_out_at_exactly_their_cycle() {
        // Due 2, 63, 64 and 300 cycles after cycle 10, and two at once.
        let now = 10;
        let mut cores = deferred(&[12, 73, 74, 310, 12]);
        let mut queue = ReadyQueue::with_capacity(cores.len());
        for c in 0..cores.len() as u32 {
            queue.push(&mut cores, c, now);
        }
        assert_eq!(queue.far.len(), 2, "64 or more cycles ahead");
        let mut queued = Vec::new();
        queue.for_each(&cores, |c| queued.push(c));
        queued.sort_unstable();
        assert_eq!(queued, [0, 1, 2, 3, 4]);
        let mut out = Vec::new();
        let mut cycle = now;
        while let Some(t) = queue.earliest(cycle) {
            assert!(t > cycle);
            cycle = t;
            let mut due = Vec::new();
            queue.pop_due(&mut cores, cycle, |core, c| {
                assert_eq!(core.ready_at, cycle);
                due.push(c);
            });
            due.sort_unstable();
            out.push((cycle, due));
        }
        assert_eq!(
            out,
            [
                (12, vec![0, 4]),
                (73, vec![1]),
                (74, vec![2]),
                (310, vec![3])
            ]
        );
        assert_eq!(queue.occupied, 0);
    }

    #[test]
    fn the_earliest_slot_wraps_around_the_wheel() {
        // Cycle 120: due at 130 (slot 2) and 180 (slot 52).
        let mut cores = deferred(&[180, 130]);
        let mut queue = ReadyQueue::with_capacity(2);
        queue.push(&mut cores, 0, 120);
        queue.push(&mut cores, 1, 120);
        assert_eq!(queue.earliest(120), Some(130));
        assert_eq!(queue.earliest(129), Some(130));
        queue.pop_due(&mut cores, 130, |_, c| assert_eq!(c, 1));
        assert_eq!(queue.earliest(130), Some(180));
        let mut copy = ReadyQueue::with_capacity(0);
        copy.clone_from(&queue);
        assert_eq!(copy.earliest(130), Some(180));
    }
}
