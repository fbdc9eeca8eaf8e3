//! Centralized LRSCwait implementation: a reservation *queue* per bank.
//!
//! This is the paper's Section III-A/B design: a wait unit in front of each
//! bank holding up to `q` outstanding `lrwait`/`mwait` entries in FIFO
//! order. With `q = n` (number of cores) it is `LRSCwait_ideal`; smaller `q`
//! trades hardware for fail-fast behaviour under contention. Its hardware
//! cost is what motivates Colibri — see the area model in `lrscwait-bench`
//! (`model`).

use crate::adapter::SyncEvent;
use crate::bank::Port;
use crate::msg::{Addr, CoreId, WaitMode, Word};
use crate::state::{StateError, StateReader, StateWriter};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    core: CoreId,
    addr: Addr,
    mode: WaitMode,
    expected: Word,
    /// Head-of-queue for its address: response sent (`LrWait`) or armed (`MWait`).
    active: bool,
    /// `LrWait`: reservation still valid. `MWait`: armed, waiting for a write.
    valid: bool,
}

/// The centralized wait unit: a capacity-`q` reservation queue shared by
/// every address of the bank.
#[derive(Clone, Debug)]
pub(crate) struct WaitQueue {
    /// The enforced limit: a wait beyond it fails fast.
    capacity: usize,
    /// Starts empty and grows to the bank's high-water mark: most banks
    /// never hold a waiter, and `capacity` may be the core count.
    entries: Vec<Entry>,
}

impl WaitQueue {
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> WaitQueue {
        assert!(capacity > 0, "reservation queue needs at least one slot");
        WaitQueue {
            capacity,
            entries: Vec::new(),
        }
    }

    /// The head entry for `addr`, when it is active, valid and of `mode`.
    fn live_head(&self, addr: Addr, mode: WaitMode) -> Option<usize> {
        let idx = self.entries.iter().position(|e| e.addr == addr)?;
        let e = self.entries[idx];
        (e.active && e.valid && e.mode == mode).then_some(idx)
    }

    /// Activates the head entry for `addr` (after a pop or fresh enqueue),
    /// cascading through `mwait` entries whose condition already holds.
    /// `handoff` records whether the activation was triggered by a
    /// predecessor leaving the queue (for the emitted
    /// [`SyncEvent::WaitServed`] events).
    fn activate_next(&mut self, port: &mut Port<'_>, addr: Addr, handoff: bool) {
        while let Some(idx) = self.entries.iter().position(|e| e.addr == addr) {
            let entry = self.entries[idx];
            if entry.active {
                return; // current head still in flight
            }
            if entry.mode == WaitMode::MWait && port.read(addr) != entry.expected {
                // Condition already true: notify and keep cascading.
                self.entries.remove(idx);
                port.serve(entry.core, addr, WaitMode::MWait, handoff);
                continue;
            }
            // An lrwait head gets its reservation; an mwait head is armed.
            self.entries[idx].active = true;
            self.entries[idx].valid = true;
            if entry.mode == WaitMode::LrWait {
                port.serve(entry.core, addr, WaitMode::LrWait, handoff);
            }
            return;
        }
    }

    pub(crate) fn wait(
        &mut self,
        port: &mut Port<'_>,
        core: CoreId,
        addr: Addr,
        mode: WaitMode,
        expected: Word,
    ) {
        let duplicate = self.entries.iter().any(|e| e.core == core);
        if self.entries.len() >= self.capacity || duplicate {
            debug_assert!(!duplicate, "core {core} has two outstanding wait ops");
            port.fail_fast(core, addr, mode);
            return;
        }
        port.record(SyncEvent::WaitEnqueued { core, addr, mode });
        self.entries.push(Entry {
            core,
            addr,
            mode,
            expected,
            active: false,
            valid: false,
        });
        self.activate_next(port, addr, false);
    }

    pub(crate) fn scwait(&mut self, port: &mut Port<'_>, core: CoreId, addr: Addr, value: Word) {
        let pos = self.entries.iter().position(|e| {
            e.core == core && e.addr == addr && e.active && e.mode == WaitMode::LrWait
        });
        let success = pos.is_some_and(|idx| self.entries[idx].valid);
        port.scwait_result(core, addr, success);
        if success {
            port.write(addr, value);
        }
        // A failed scwait still dequeues its head, so the queue advances.
        if let Some(idx) = pos {
            self.entries.remove(idx);
            self.activate_next(port, addr, true);
        }
    }

    pub(crate) fn on_write(&mut self, port: &mut Port<'_>, addr: Addr) {
        if self.evict(addr) {
            port.record(SyncEvent::ReservationBroken { addr });
        } else if let Some(idx) = self.live_head(addr, WaitMode::MWait) {
            // Fire the monitor and wake any satisfied followers.
            let core = self.entries.remove(idx).core;
            port.serve(core, addr, WaitMode::MWait, true);
            self.activate_next(port, addr, true);
        }
    }

    pub(crate) fn evict(&mut self, addr: Addr) -> bool {
        // Its scwait will fail and advance the queue.
        let head = self.live_head(addr, WaitMode::LrWait);
        if let Some(idx) = head {
            self.entries[idx].valid = false;
        }
        head.is_some()
    }

    pub(crate) fn save(&self, out: &mut StateWriter) {
        out.put_u32(self.capacity as u32);
        out.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            out.put_u32(e.core);
            out.put_u32(e.addr);
            out.put_u8(e.mode.encode());
            out.put_u32(e.expected);
            out.put_bool(e.active);
            out.put_bool(e.valid);
        }
    }

    pub(crate) fn load(&mut self, src: &mut StateReader<'_>) -> Result<(), StateError> {
        if src.take_u32()? as usize != self.capacity {
            return Err(StateError::Invalid("wait-queue capacity"));
        }
        let len = src.take_u32()? as usize;
        if len > self.capacity {
            return Err(StateError::Invalid("wait-queue occupancy"));
        }
        self.entries.clear();
        for _ in 0..len {
            self.entries.push(Entry {
                core: src.take_u32()?,
                addr: src.take_u32()?,
                mode: WaitMode::decode(src.take_u8()?)?,
                expected: src.take_u32()?,
                active: src.take_bool()?,
                valid: src.take_bool()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{Bank, WaitUnit};
    use crate::msg::{MemRequest, MemResponse};
    use crate::storage::{MapStorage, WordStorage};
    use crate::SyncArch;

    fn queue(slots: usize) -> Bank {
        Bank::new(SyncArch::LrscWait { slots }, 0)
    }

    /// Entries queued right now.
    fn entries(a: &Bank) -> &[Entry] {
        match &a.wait {
            WaitUnit::Queue(q) => &q.entries,
            other => panic!("no centralized queue: {other:?}"),
        }
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
    fn first_lrwait_served_immediately() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 5);
        let r = run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        assert_eq!(
            r,
            vec![(
                1,
                MemResponse::Wait {
                    value: 5,
                    reserved: true
                }
            )]
        );
    }

    #[test]
    fn second_lrwait_withheld_until_scwait() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        let r = run(&mut a, &mut mem, 2, MemRequest::LrWait { addr: 0x40 });
        assert!(r.is_empty(), "second core must sleep: {r:?}");
        // Core 1 closes its sequence; core 2 receives the new value.
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 9,
            },
        );
        assert_eq!(
            r,
            vec![
                (1, MemResponse::ScWait { success: true }),
                (
                    2,
                    MemResponse::Wait {
                        value: 9,
                        reserved: true
                    }
                ),
            ]
        );
        assert_eq!(entries(&a).len(), 1);
        assert!(!entries(&a).is_empty());
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::ScWait {
                addr: 0x40,
                value: 10,
            },
        );
        assert_eq!(r[0], (2, MemResponse::ScWait { success: true }));
        assert!(entries(&a).is_empty());
        assert_eq!(mem.read_word(0x40), 10);
    }

    #[test]
    fn independent_addresses_are_concurrent() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        let r1 = run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        let r2 = run(&mut a, &mut mem, 2, MemRequest::LrWait { addr: 0x80 });
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1, "different address must not queue");
    }

    #[test]
    fn full_queue_fails_fast() {
        let mut a = queue(1);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        let r = run(&mut a, &mut mem, 2, MemRequest::LrWait { addr: 0x40 });
        assert_eq!(
            r,
            vec![(
                2,
                MemResponse::Wait {
                    value: 0,
                    reserved: false
                }
            )]
        );
        assert_eq!(a.stats().wait_failfast, 1);
        // The failed core's scwait also fails and does not write.
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::ScWait {
                addr: 0x40,
                value: 7,
            },
        );
        assert_eq!(r, vec![(2, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 0);
    }

    #[test]
    fn store_breaks_active_reservation() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        run(
            &mut a,
            &mut mem,
            3,
            MemRequest::Store {
                addr: 0x40,
                value: 99,
                mask: !0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 1,
            },
        );
        assert_eq!(r[0], (1, MemResponse::ScWait { success: false }));
        assert_eq!(mem.read_word(0x40), 99, "failed scwait must not write");
    }

    #[test]
    fn failed_scwait_still_advances_queue() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        run(&mut a, &mut mem, 2, MemRequest::LrWait { addr: 0x40 });
        run(
            &mut a,
            &mut mem,
            3,
            MemRequest::Store {
                addr: 0x40,
                value: 99,
                mask: !0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 1,
            },
        );
        assert_eq!(
            r,
            vec![
                (1, MemResponse::ScWait { success: false }),
                (
                    2,
                    MemResponse::Wait {
                        value: 99,
                        reserved: true
                    }
                ),
            ]
        );
    }

    #[test]
    fn fifo_order_across_three_cores() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 5, MemRequest::LrWait { addr: 0x40 });
        assert!(run(&mut a, &mut mem, 6, MemRequest::LrWait { addr: 0x40 }).is_empty());
        assert!(run(&mut a, &mut mem, 7, MemRequest::LrWait { addr: 0x40 }).is_empty());
        let r = run(
            &mut a,
            &mut mem,
            5,
            MemRequest::ScWait {
                addr: 0x40,
                value: 1,
            },
        );
        assert_eq!(r[1].0, 6, "service order must be FIFO");
        let r = run(
            &mut a,
            &mut mem,
            6,
            MemRequest::ScWait {
                addr: 0x40,
                value: 2,
            },
        );
        assert_eq!(r[1].0, 7);
    }

    #[test]
    fn mwait_immediate_when_value_differs() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 3);
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
                1,
                MemResponse::Wait {
                    value: 3,
                    reserved: false
                }
            )]
        );
        assert!(entries(&a).is_empty());
        assert_eq!(a.stats().wait_failfast, 0, "answered, not failed fast");
    }

    #[test]
    fn mwait_sleeps_until_write() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        assert!(r.is_empty());
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
        assert_eq!(
            r,
            vec![
                (
                    1,
                    MemResponse::Wait {
                        value: 8,
                        reserved: true
                    }
                ),
                (2, MemResponse::StoreAck),
            ]
        );
        assert!(entries(&a).is_empty());
    }

    #[test]
    fn mwait_queue_drains_fully_on_one_write() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        for core in 1..=3 {
            assert!(run(
                &mut a,
                &mut mem,
                core,
                MemRequest::MWait {
                    addr: 0x40,
                    expected: 0
                }
            )
            .is_empty());
        }
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
        let woken: Vec<CoreId> = r
            .iter()
            .filter(|(_, resp)| matches!(resp, MemResponse::Wait { .. }))
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(woken, vec![1, 2, 3], "whole queue wakes in order");
        assert!(entries(&a).is_empty());
    }

    #[test]
    fn amo_fires_mwait() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(
            &mut a,
            &mut mem,
            1,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::Amo {
                addr: 0x40,
                op: crate::RmwOp::Add,
                operand: 4,
            },
        );
        assert!(r.contains(&(
            1,
            MemResponse::Wait {
                value: 4,
                reserved: true
            }
        )));
    }

    #[test]
    fn plain_lrsc_still_works() {
        let mut a = queue(4);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::Lr { addr: 0x40 });
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::Sc {
                addr: 0x40,
                value: 3,
            },
        );
        assert_eq!(r[0], (1, MemResponse::Sc { success: true }));
    }

    #[test]
    fn scwait_success_fires_mwait_on_same_address() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        run(
            &mut a,
            &mut mem,
            2,
            MemRequest::MWait {
                addr: 0x40,
                expected: 0,
            },
        );
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 5,
            },
        );
        assert!(
            r.contains(&(
                2,
                MemResponse::Wait {
                    value: 5,
                    reserved: true
                }
            )),
            "mwait behind an lrwait head wakes when the scwait writes: {r:?}"
        );
    }

    #[test]
    fn chaos_evict_breaks_active_lrwait_head() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        run(&mut a, &mut mem, 2, MemRequest::LrWait { addr: 0x40 });
        let mut events = Vec::new();
        assert!(a.chaos_evict(0x40, &mut |e| events.push(e)));
        assert_eq!(events, vec![SyncEvent::ReservationBroken { addr: 0x40 }]);
        assert_eq!(a.stats().reservations_broken, 1);
        // The evicted head's scwait fails but still advances the queue.
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 7,
            },
        );
        assert_eq!(
            r,
            vec![
                (1, MemResponse::ScWait { success: false }),
                (
                    2,
                    MemResponse::Wait {
                        value: 0,
                        reserved: true
                    }
                ),
            ]
        );
        assert_eq!(mem.read_word(0x40), 0, "failed scwait must not write");
    }

    #[test]
    fn chaos_evict_never_touches_armed_mwait() {
        let mut a = queue(8);
        let mut mem = MapStorage::new();
        run(
            &mut a,
            &mut mem,
            1,
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
            1,
            MemResponse::Wait {
                value: 8,
                reserved: true
            }
        )));
    }

    #[test]
    fn ideal_queue_holds_one_entry_per_core() {
        let mut a = SyncArch::LrscWaitIdeal.build(3);
        let mut mem = MapStorage::new();
        let mut out = Vec::new();
        for core in 0..4 {
            a.handle(core, &MemRequest::LrWait { addr: 0x40 }, &mut mem, &mut out);
        }
        assert_eq!(a.stats().wait_enqueued, 3);
        assert_eq!(a.stats().wait_failfast, 1, "a fourth waiter overflows");
    }
}
