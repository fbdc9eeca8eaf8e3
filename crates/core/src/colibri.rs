//! Colibri: the paper's scalable, distributed LRSCwait implementation.
//!
//! Instead of a capacity-`n` queue per bank, each bank controller holds a
//! parameterizable number of *(head, tail)* register pairs — one per
//! concurrently tracked address — and each core contributes one hardware
//! queue node ([`crate::Qnode`]). The waiting cores themselves form a
//! linked list:
//!
//! * An `lrwait`/`mwait` reaching an occupied queue overwrites the tail and
//!   sends a [`SuccessorUpdate`] to the previous tail's Qnode.
//! * When the head finishes (its `scwait` passes the Qnode, or its `mwait`
//!   response arrives), the Qnode bounces a [`WakeUp`] carrying the
//!   successor back to the controller, which promotes it and releases the
//!   next withheld response.
//!
//! Total state is `O(n + 2m)` — linear in system size — versus `O(n·m)` for
//! the centralized queue (Fig. 1 of the paper).
//!
//! Correctness relies on FIFO delivery per (bank → core) channel: a
//! `SuccessorUpdate` is always received before the response that retires the
//! session it belongs to (the [`harness`](crate::harness) checks this under
//! random interleavings, and `tests/proptests.rs` drives it).
//!
//! [`SuccessorUpdate`]: crate::MemResponse::SuccessorUpdate
//! [`WakeUp`]: crate::MemRequest::WakeUp

use crate::adapter::SyncEvent;
use crate::bank::Port;
use crate::msg::{Addr, CoreId, MemResponse, WaitMode, Word};
use crate::state::StateWriter;

/// One (head, tail) register pair: the controller-resident part of a queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct QueueSlot {
    occupied: bool,
    addr: Addr,
    head: CoreId,
    tail: CoreId,
    /// Head is an `lrwait` holder whose reservation is still intact.
    head_valid: bool,
    /// Head was dequeued by `scwait`; promotion pends on the bounced WakeUp.
    waiting_wakeup: bool,
    /// Head is an `mwait` armed for the next write.
    armed_mwait: bool,
}

/// Colibri's wait unit: `queues` concurrently tracked addresses per
/// controller (Table I evaluates 1, 2, 4 and 8).
#[derive(Clone, Debug)]
pub(crate) struct Colibri {
    queues: usize,
    /// The register pairs: none until the bank's first wait, then all
    /// `queues` of them, allocated in one piece. Most banks never see a
    /// wait, and a 1024-core machine has 4096 of them.
    slots: Box<[QueueSlot]>,
}

impl Colibri {
    /// # Panics
    ///
    /// Panics when `queues` is zero.
    pub(crate) fn new(queues: usize) -> Colibri {
        assert!(
            queues > 0,
            "Colibri needs at least one queue per controller"
        );
        Colibri {
            queues,
            slots: Box::default(),
        }
    }

    fn queue_for(&mut self, addr: Addr) -> Option<&mut QueueSlot> {
        self.slots.iter_mut().find(|q| q.occupied && q.addr == addr)
    }

    pub(crate) fn wait(&mut self, port: &mut Port<'_>, core: CoreId, addr: Addr, mode: WaitMode) {
        // The register pairs are allocated at the bank's first wait.
        if self.slots.is_empty() {
            self.slots = vec![QueueSlot::default(); self.queues].into_boxed_slice();
        }
        if let Some(q) = self.queue_for(addr) {
            debug_assert!(
                q.head != core && q.tail != core,
                "core {core} enqueued twice on {addr:#x}"
            );
            let predecessor = std::mem::replace(&mut q.tail, core);
            port.record(SyncEvent::WaitEnqueued { core, addr, mode });
            port.record(SyncEvent::SuccessorUpdate {
                predecessor,
                successor: core,
                addr,
                mode,
            });
            port.send(
                predecessor,
                MemResponse::SuccessorUpdate {
                    successor: core,
                    mode,
                },
            );
        } else if let Some(q) = self.slots.iter_mut().find(|q| !q.occupied) {
            *q = QueueSlot {
                occupied: true,
                addr,
                head: core,
                tail: core,
                head_valid: mode == WaitMode::LrWait,
                waiting_wakeup: false,
                armed_mwait: mode == WaitMode::MWait,
            };
            port.record(SyncEvent::WaitEnqueued { core, addr, mode });
            // An mwait head gets no response: it sleeps until a write.
            if mode == WaitMode::LrWait {
                port.serve(core, addr, mode, false);
            }
        } else {
            // All head/tail register pairs busy with other addresses.
            port.fail_fast(core, addr, mode);
        }
    }

    pub(crate) fn scwait(&mut self, port: &mut Port<'_>, core: CoreId, addr: Addr, value: Word) {
        let success = match self.queue_for(addr) {
            Some(q) if q.head == core && !q.waiting_wakeup && !q.armed_mwait => {
                let success = q.head_valid;
                // Dequeue the head either way: on the last member free the
                // slot, otherwise invalidate the head and wait for the
                // bounced WakeUp to learn the successor.
                if q.head == q.tail {
                    q.occupied = false;
                } else {
                    q.head_valid = false;
                    q.waiting_wakeup = true;
                }
                success
            }
            _ => false,
        };
        if success {
            port.write(addr, value);
        }
        port.scwait_result(core, addr, success);
    }

    pub(crate) fn wake_up(
        &mut self,
        port: &mut Port<'_>,
        addr: Addr,
        successor: CoreId,
        mode: WaitMode,
    ) {
        let Some(q) = self.queue_for(addr) else {
            debug_assert!(false, "WakeUp for untracked address {addr:#x}");
            return;
        };
        q.head = successor;
        q.waiting_wakeup = false;
        q.head_valid = mode == WaitMode::LrWait;
        q.armed_mwait = false;
        // An mwait successor is done the moment it is notified; if it is
        // also the tail the queue empties now, otherwise its own Qnode
        // continues the cascade.
        if mode == WaitMode::MWait && q.head == q.tail {
            q.occupied = false;
        }
        port.record(SyncEvent::WakeupPromoted {
            addr,
            successor,
            mode,
        });
        port.serve(successor, addr, mode, true);
    }

    pub(crate) fn on_write(&mut self, port: &mut Port<'_>, addr: Addr) {
        match self.queue_for(addr) {
            Some(q) if q.armed_mwait => {
                // Fire the monitor; the rest of the queue drains through the
                // head's Qnode bouncing WakeUps.
                q.armed_mwait = false;
                q.occupied = q.head != q.tail;
                let head = q.head;
                port.serve(head, addr, WaitMode::MWait, true);
            }
            _ => {
                if self.evict(addr) {
                    port.record(SyncEvent::ReservationBroken { addr });
                }
            }
        }
    }

    pub(crate) fn evict(&mut self, addr: Addr) -> bool {
        // Its scwait will fail and still dequeue it. Heads pending a
        // bounced WakeUp are left alone too.
        match self.queue_for(addr) {
            Some(q) if q.head_valid && !q.waiting_wakeup && !q.armed_mwait => {
                q.head_valid = false;
                true
            }
            _ => false,
        }
    }

    /// Writes every pair, an unallocated one as the default pair, so the
    /// bytes do not depend on whether the bank has seen a wait.
    pub(crate) fn save(&self, out: &mut StateWriter) {
        out.put_u32(self.queues as u32);
        let unallocated = QueueSlot::default();
        for i in 0..self.queues {
            let q = self.slots.get(i).unwrap_or(&unallocated);
            out.put_bool(q.occupied);
            out.put_u32(q.addr);
            out.put_u32(q.head);
            out.put_u32(q.tail);
            out.put_bool(q.head_valid);
            out.put_bool(q.waiting_wakeup);
            out.put_bool(q.armed_mwait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{Bank, WaitUnit};
    use crate::msg::MemRequest;
    use crate::storage::{MapStorage, WordStorage};
    use crate::SyncArch;

    fn colibri(queues: usize) -> Bank {
        Bank::new(SyncArch::Colibri { queues }, 0)
    }

    fn queues(a: &Bank) -> &[QueueSlot] {
        match &a.wait {
            WaitUnit::Colibri(c) => &c.slots,
            other => panic!("no Colibri queues: {other:?}"),
        }
    }

    /// Addresses tracked right now.
    fn occupancy(a: &Bank) -> usize {
        queues(a).iter().filter(|q| q.occupied).count()
    }

    fn run(
        a: &mut Bank,
        mem: &mut MapStorage,
        src: CoreId,
        req: MemRequest,
    ) -> Vec<(CoreId, MemResponse)> {
        let mut out = Vec::new();
        a.handle(src, &req, mem, &mut out);
        out
    }

    #[test]
    fn chaos_evict_invalidates_valid_head_only() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        let mut events = Vec::new();
        assert!(a.chaos_evict(0x40, &mut |e| events.push(e)));
        assert_eq!(events, vec![SyncEvent::ReservationBroken { addr: 0x40 }]);
        assert_eq!(a.stats().reservations_broken, 1);
        // The evicted head's scwait fails but still dequeues it; the
        // successor arrives via the bounced WakeUp as usual.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::ScWait {
                addr: 0x40,
                value: 7,
            },
        );
        assert_eq!(r, vec![(0, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 0, "failed scwait must not write");
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::WakeUp {
                addr: 0x40,
                successor: 1,
                mode: WaitMode::LrWait,
            },
        );
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 0,
                    reserved: true
                }
            )]
        );
    }

    #[test]
    fn chaos_evict_never_touches_armed_mwait() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(
            &mut a,
            &mut mem,
            0,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        let mut events = Vec::new();
        assert!(!a.chaos_evict(0x40, &mut |e| events.push(e)));
        assert!(events.is_empty());
        // The monitor still fires on a real write.
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::Store {
                addr: 0x40,
                value: 8,
                mask: !0,
            },
        );
        assert!(r.contains(&(
            0,
            MemResponse::Wait {
                value: 8,
                reserved: true
            }
        )));
    }

    #[test]
    fn fig2_sequence_two_cores() {
        // Reproduces the paper's Fig. 2 walk-through.
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 100);

        // (1)+(2) A's lrwait: queue empty, head=tail=A, value returned.
        let r = run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        assert_eq!(
            r,
            vec![(
                0,
                MemResponse::Wait {
                    value: 100,
                    reserved: true
                }
            )]
        );

        // (3)+(4) B's lrwait: appended at tail, SuccessorUpdate to A.
        let r = run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        assert_eq!(
            r,
            vec![(
                0,
                MemResponse::SuccessorUpdate {
                    successor: 1,
                    mode: WaitMode::LrWait
                }
            )]
        );

        // (5) A's scwait: write accepted, head temporarily invalidated.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::ScWait {
                addr: 0x40,
                value: 101,
            },
        );
        assert_eq!(r, vec![(0, MemResponse::ScWait { success: true })]);
        assert_ne!(occupancy(&a), 0);

        // (6)+(7) A's Qnode bounces the WakeUp; B gets the fresh value.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::WakeUp {
                addr: 0x40,
                successor: 1,
                mode: WaitMode::LrWait,
            },
        );
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 101,
                    reserved: true
                }
            )]
        );

        // B finishes; head==tail, slot freed.
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 102,
            },
        );
        assert_eq!(r, vec![(1, MemResponse::ScWait { success: true })]);
        assert_eq!(occupancy(&a), 0);
        assert_eq!(mem.read_word(0x40), 102);
    }

    #[test]
    fn no_free_queue_fails_fast() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        // A different address with all head/tail pairs busy: fail fast.
        let r = run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x80 });
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 0,
                    reserved: false
                }
            )]
        );
        assert_eq!(a.stats().wait_failfast, 1);
    }

    #[test]
    fn two_queues_track_two_addresses() {
        let mut a = colibri(2);
        let mut mem = MapStorage::new();
        assert_eq!(
            run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 }).len(),
            1
        );
        assert_eq!(
            run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x80 }).len(),
            1
        );
        assert_eq!(occupancy(&a), 2);
    }

    #[test]
    fn store_invalidates_head_reservation() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        run(
            &mut a,
            &mut mem,
            2,
            MemRequest::Store {
                addr: 0x40,
                value: 5,
                mask: !0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::ScWait {
                addr: 0x40,
                value: 1,
            },
        );
        assert_eq!(r, vec![(0, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 5);
        assert_eq!(occupancy(&a), 0, "single-member queue freed after scwait");
    }

    #[test]
    fn scwait_from_non_head_fails() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 9,
            },
        );
        assert_eq!(r, vec![(1, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 0, "non-head must not write");
    }

    #[test]
    fn scwait_while_waiting_wakeup_fails() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 0, MemRequest::LrWait { addr: 0x40 });
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        run(
            &mut a,
            &mut mem,
            0,
            MemRequest::ScWait {
                addr: 0x40,
                value: 1,
            },
        );
        // A second scwait from the stale head (before the WakeUp) must fail.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::ScWait {
                addr: 0x40,
                value: 7,
            },
        );
        assert_eq!(r, vec![(0, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 1);
    }

    #[test]
    fn mwait_armed_fires_on_write_and_frees_single_member() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        assert!(r.is_empty(), "armed monitor sleeps");
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::Store {
                addr: 0x40,
                value: 3,
                mask: !0,
            },
        );
        assert_eq!(
            r,
            vec![
                (
                    0,
                    MemResponse::Wait {
                        value: 3,
                        reserved: true
                    }
                ),
                (1, MemResponse::StoreAck),
            ]
        );
        assert_eq!(
            occupancy(&a),
            0,
            "single-member monitor queue freed on fire"
        );
    }

    #[test]
    fn mwait_expected_mismatch_immediate() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 7);
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        assert_eq!(
            r,
            vec![(
                0,
                MemResponse::Wait {
                    value: 7,
                    reserved: false
                }
            )]
        );
        assert_eq!(occupancy(&a), 0);
    }

    #[test]
    fn mwait_cascade_via_wakeups() {
        // Three monitors; a write fires the head, then Qnode-bounced WakeUps
        // drain the rest, the last promotion freeing the slot.
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(
            &mut a,
            &mut mem,
            0,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        assert_eq!(
            r,
            vec![(
                0,
                MemResponse::SuccessorUpdate {
                    successor: 1,
                    mode: WaitMode::MWait
                }
            )]
        );
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::SuccessorUpdate {
                    successor: 2,
                    mode: WaitMode::MWait
                }
            )]
        );

        let r = run(
            &mut a,
            &mut mem,
            9,
            MemRequest::Store {
                addr: 0x40,
                value: 1,
                mask: !0,
            },
        );
        assert!(r.contains(&(
            0,
            MemResponse::Wait {
                value: 1,
                reserved: true
            }
        )));

        // Core 0's Qnode bounces its successor.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::WakeUp {
                addr: 0x40,
                successor: 1,
                mode: WaitMode::MWait,
            },
        );
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 1,
                    reserved: true
                }
            )]
        );
        assert_ne!(occupancy(&a), 0);

        // Core 1's Qnode bounces the last member; slot freed.
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::WakeUp {
                addr: 0x40,
                successor: 2,
                mode: WaitMode::MWait,
            },
        );
        assert_eq!(
            r,
            vec![(
                2,
                MemResponse::Wait {
                    value: 1,
                    reserved: true
                }
            )]
        );
        assert_eq!(occupancy(&a), 0);
    }

    #[test]
    fn mixed_queue_lrwait_behind_mwait() {
        let mut a = colibri(1);
        let mut mem = MapStorage::new();
        run(
            &mut a,
            &mut mem,
            0,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        // Write fires the monitor head.
        run(
            &mut a,
            &mut mem,
            9,
            MemRequest::Store {
                addr: 0x40,
                value: 2,
                mask: !0,
            },
        );
        // Monitor's Qnode promotes the lrwait member, which becomes a normal head.
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::WakeUp {
                addr: 0x40,
                successor: 1,
                mode: WaitMode::LrWait,
            },
        );
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 2,
                    reserved: true
                }
            )]
        );
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 3,
            },
        );
        assert_eq!(r, vec![(1, MemResponse::ScWait { success: true })]);
        assert_eq!(mem.read_word(0x40), 3);
        assert_eq!(occupancy(&a), 0);
    }

    #[test]
    fn fresh_controller_tracks_nothing() {
        let mut a = colibri(4);
        assert!(queues(&a).is_empty(), "no pair before the first wait");
        // The first wait allocates all four pairs; a fifth address still
        // fails fast.
        let mut mem = MapStorage::new();
        for (core, addr) in [(0, 0x40), (1, 0x80), (2, 0xC0), (3, 0x100)] {
            run(&mut a, &mut mem, core, MemRequest::LrWait { addr });
            assert_eq!(queues(&a).len(), 4);
        }
        assert_eq!(occupancy(&a), 4);
        let r = run(&mut a, &mut mem, 4, MemRequest::LrWait { addr: 0x140 });
        assert_eq!(
            r,
            vec![(
                4,
                MemResponse::Wait {
                    value: 0,
                    reserved: false
                }
            )]
        );
        assert_eq!(a.stats().wait_failfast, 1);
        // Pairs allocated on first wait cost the bank no size.
        assert!(std::mem::size_of::<Colibri>() <= std::mem::size_of::<Vec<QueueSlot>>());
    }
}
