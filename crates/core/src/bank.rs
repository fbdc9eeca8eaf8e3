//! The bank front end every architecture shares.
//!
//! Loads, stores, RV32A atomics and MemPool's single LR/SC reservation
//! slot are the same hardware at every design point the paper evaluates.
//! What differs is the [`WaitUnit`] behind them, which serves
//! `lrwait`/`mwait`/`scwait` and Colibri's `WakeUp`:
//!
//! * none — plain LRSC: every wait request fails fast, so a kernel built
//!   for the wait extension degrades into a retry loop instead of
//!   deadlocking;
//! * [`WaitQueue`] — the centralized queue;
//! * [`Colibri`] — the distributed head/tail pairs.
//!
//! [`Bank`] serves all three with one request path. Every write first
//! breaks the LR/SC slot; a write the wait unit did not make itself is
//! then reported to it.

use crate::adapter::{no_trace, AdapterStats, SyncEvent};
use crate::arch::SyncArch;
use crate::colibri::Colibri;
use crate::msg::{Addr, CoreId, MemRequest, MemResponse, WaitMode, Word};
use crate::state::StateWriter;
use crate::storage::WordStorage;
use crate::waitq::WaitQueue;

/// What a wait unit serves one request through: the bank's counters and
/// LR/SC slot, and the request's memory, responses and event sink.
pub(crate) struct Port<'a> {
    stats: &'a mut AdapterStats,
    slot: &'a mut Option<(CoreId, Addr)>,
    mem: &'a mut dyn WordStorage,
    out: &'a mut Vec<(CoreId, MemResponse)>,
    emit: &'a mut dyn FnMut(SyncEvent),
}

impl Port<'_> {
    /// Reads the word at `addr`.
    pub(crate) fn read(&self, addr: Addr) -> Word {
        self.mem.read_word(addr)
    }

    /// Queues `resp` for `core`.
    pub(crate) fn send(&mut self, core: CoreId, resp: MemResponse) {
        self.out.push((core, resp));
    }

    /// Counts `event` and reports it.
    pub(crate) fn record(&mut self, event: SyncEvent) {
        self.stats.count(&event);
        (self.emit)(event);
    }

    /// Writes `value` to `addr`, breaking an LR/SC reservation on it.
    pub(crate) fn write(&mut self, addr: Addr, value: Word) {
        self.mem.write_word(addr, value);
        self.break_slot(addr);
    }

    fn break_slot(&mut self, addr: Addr) {
        if self.slot.take_if(|&mut (_, a)| a == addr).is_some() {
            self.record(SyncEvent::ReservationBroken { addr });
        }
    }

    /// Releases `core`'s withheld wait response with the current value.
    pub(crate) fn serve(&mut self, core: CoreId, addr: Addr, mode: WaitMode, handoff: bool) {
        self.record(SyncEvent::WaitServed {
            core,
            addr,
            mode,
            handoff,
        });
        let value = self.read(addr);
        self.send(
            core,
            MemResponse::Wait {
                value,
                reserved: true,
            },
        );
    }

    /// Answers a wait request at once without placing a reservation.
    pub(crate) fn fail_fast(&mut self, core: CoreId, addr: Addr, mode: WaitMode) {
        self.record(SyncEvent::WaitFailFast { core, addr, mode });
        let value = self.read(addr);
        self.send(
            core,
            MemResponse::Wait {
                value,
                reserved: false,
            },
        );
    }

    /// Counts, reports and answers an `scwait.w`.
    pub(crate) fn scwait_result(&mut self, core: CoreId, addr: Addr, success: bool) {
        self.record(SyncEvent::ScResult {
            core,
            addr,
            success,
            wait: true,
        });
        self.send(core, MemResponse::ScWait { success });
    }
}

/// The part of a bank that differs between architectures.
#[derive(Clone, Debug)]
pub(crate) enum WaitUnit {
    /// Plain LRSC has none: every wait request fails fast (even an `mwait`
    /// whose value already differs) and every `scwait.w` fails.
    None,
    /// The centralized reservation queue.
    Queue(WaitQueue),
    /// Colibri's head/tail register pairs.
    Colibri(Colibri),
}

impl WaitUnit {
    /// An `lrwait.w` (`expected` is 0) or an `mwait.w` to park.
    fn wait(
        &mut self,
        port: &mut Port<'_>,
        core: CoreId,
        addr: Addr,
        mode: WaitMode,
        expected: Word,
    ) {
        match self {
            WaitUnit::None => port.fail_fast(core, addr, mode),
            WaitUnit::Queue(q) => q.wait(port, core, addr, mode, expected),
            WaitUnit::Colibri(c) => c.wait(port, core, addr, mode),
        }
    }

    /// An `scwait.w` closing `core`'s `lrwait` sequence on `addr`.
    fn scwait(&mut self, port: &mut Port<'_>, core: CoreId, addr: Addr, value: Word) {
        match self {
            WaitUnit::None => port.scwait_result(core, addr, false),
            WaitUnit::Queue(q) => q.scwait(port, core, addr, value),
            WaitUnit::Colibri(c) => c.scwait(port, core, addr, value),
        }
    }

    /// A Qnode bounced `successor` back for promotion.
    fn wake_up(&mut self, port: &mut Port<'_>, addr: Addr, successor: CoreId, mode: WaitMode) {
        match self {
            WaitUnit::Colibri(c) => c.wake_up(port, addr, successor, mode),
            _ => debug_assert!(false, "WakeUp sent to a bank without Colibri queues"),
        }
    }

    /// A write other than the unit's own landed on `addr`, after the LR/SC
    /// slot broke.
    fn on_write(&mut self, port: &mut Port<'_>, addr: Addr) {
        match self {
            WaitUnit::None => {}
            WaitUnit::Queue(q) => q.on_write(port, addr),
            WaitUnit::Colibri(c) => c.on_write(port, addr),
        }
    }

    /// Chaos: invalidates a valid `lrwait` head on `addr`, as a write
    /// would; returns whether one was. Armed monitors are never touched.
    fn evict(&mut self, addr: Addr) -> bool {
        match self {
            WaitUnit::None => false,
            WaitUnit::Queue(q) => q.evict(addr),
            WaitUnit::Colibri(c) => c.evict(addr),
        }
    }

    fn save(&self, out: &mut StateWriter) {
        match self {
            WaitUnit::None => {}
            WaitUnit::Queue(q) => q.save(out),
            WaitUnit::Colibri(c) => c.save(out),
        }
    }
}

/// One SPM bank's synchronization hardware: the shared RV32A front end
/// with its single LR/SC slot, and the architecture's wait unit.
///
/// The bank observes **all** traffic reaching it (it must see plain
/// stores to invalidate reservations and fire `mwait` monitors), performs
/// the architectural side effects through [`WordStorage`], and produces
/// the response messages to send. [`SyncArch::build`] is its only
/// constructor.
///
/// A bank is *time-free*: the surrounding simulator decides when messages
/// are delivered. Correctness of Colibri relies on the transport
/// delivering messages between a fixed (bank, core) pair in FIFO order,
/// which both the protocol harness and the NoC guarantee.
///
/// A bank is plain data, so it is [`Send`], because sweeps run
/// independent machines on worker threads, and [`Clone`], so a protocol
/// explorer can fork a run.
#[derive(Clone, Debug)]
pub struct Bank {
    arch: SyncArch,
    /// `lr.w` displaces any previous reservation; `sc.w` succeeds only
    /// while the slot still holds `(core, addr)`; a write to the reserved
    /// address clears it.
    slot: Option<(CoreId, Addr)>,
    stats: AdapterStats,
    pub(crate) wait: WaitUnit,
}

impl Bank {
    /// A fresh bank for `arch`; `num_cores` sizes the ideal queue.
    pub(crate) fn new(arch: SyncArch, num_cores: usize) -> Bank {
        let wait = match arch {
            SyncArch::Lrsc => WaitUnit::None,
            SyncArch::LrscWait { slots } => WaitUnit::Queue(WaitQueue::new(slots)),
            SyncArch::LrscWaitIdeal => WaitUnit::Queue(WaitQueue::new(num_cores.max(1))),
            SyncArch::Colibri { queues } => WaitUnit::Colibri(Colibri::new(queues)),
        };
        Bank {
            arch,
            slot: None,
            stats: AdapterStats::default(),
            wait,
        }
    }

    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order, and reporting every
    /// synchronization event through `emit` (see [`SyncEvent`]).
    ///
    /// The bank behaves identically regardless of what `emit` does —
    /// tracing observes, it never steers.
    pub fn handle_traced(
        &mut self,
        src: CoreId,
        req: &MemRequest,
        mem: &mut dyn WordStorage,
        out: &mut Vec<(CoreId, MemResponse)>,
        emit: &mut dyn FnMut(SyncEvent),
    ) {
        self.stats.requests += 1;
        let wait = &mut self.wait;
        let mut port = Port {
            stats: &mut self.stats,
            slot: &mut self.slot,
            mem,
            out,
            emit,
        };
        match *req {
            MemRequest::Load { addr } => {
                port.stats.loads += 1;
                let value = port.read(addr);
                port.send(src, MemResponse::Load { value });
            }
            MemRequest::Store { addr, value, mask } => {
                port.stats.stores += 1;
                port.mem.write_masked(addr, value, mask);
                port.break_slot(addr);
                wait.on_write(&mut port, addr);
                port.send(src, MemResponse::StoreAck);
            }
            MemRequest::Amo { addr, op, operand } => {
                port.stats.amos += 1;
                let old = port.read(addr);
                port.write(addr, op.apply(old, operand));
                wait.on_write(&mut port, addr);
                port.send(src, MemResponse::Amo { old });
            }
            MemRequest::Lr { addr } => {
                *port.slot = Some((src, addr));
                let value = port.read(addr);
                port.send(src, MemResponse::Lr { value });
            }
            MemRequest::Sc { addr, value } => {
                let success = port.slot.take_if(|r| *r == (src, addr)).is_some();
                port.record(SyncEvent::ScResult {
                    core: src,
                    addr,
                    success,
                    wait: false,
                });
                if success {
                    port.write(addr, value);
                    wait.on_write(&mut port, addr);
                }
                port.send(src, MemResponse::Sc { success });
            }
            MemRequest::LrWait { addr } => wait.wait(&mut port, src, addr, WaitMode::LrWait, 0),
            MemRequest::MWait { addr, expected } => {
                let value = port.read(addr);
                if !matches!(wait, WaitUnit::None) && value != expected {
                    // Already changed: immediate notification, no enqueue.
                    port.send(
                        src,
                        MemResponse::Wait {
                            value,
                            reserved: false,
                        },
                    );
                } else {
                    wait.wait(&mut port, src, addr, WaitMode::MWait, expected);
                }
            }
            MemRequest::ScWait { addr, value } => wait.scwait(&mut port, src, addr, value),
            MemRequest::WakeUp {
                addr,
                successor,
                mode,
            } => wait.wake_up(&mut port, addr, successor, mode),
        }
    }

    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order (untraced).
    pub fn handle(
        &mut self,
        src: CoreId,
        req: &MemRequest,
        mem: &mut dyn WordStorage,
        out: &mut Vec<(CoreId, MemResponse)>,
    ) {
        self.handle_traced(src, req, mem, out, &mut no_trace);
    }

    /// Chaos hook: spuriously evicts any reservation covering `addr` —
    /// the classic LR/SC slot and, for wait-queue architectures, an
    /// *active and valid* `lrwait` head — as if invalidated by capacity
    /// pressure. This is an architecturally legal perturbation: software
    /// must already tolerate reservations lost to intervening writes.
    /// Armed `mwait` monitors are **never** touched (dropping a monitor
    /// would be a lost wakeup — a hardware bug, not a legal fault).
    ///
    /// Each broken reservation increments
    /// [`reservations_broken`](AdapterStats::reservations_broken) and
    /// emits one [`SyncEvent::ReservationBroken`], preserving the 1:1
    /// event/stat contract. Returns `true` when anything was evicted.
    pub fn chaos_evict(&mut self, addr: Addr, emit: &mut dyn FnMut(SyncEvent)) -> bool {
        let slot = self.slot.take_if(|&mut (_, a)| a == addr).is_some();
        let head = self.wait.evict(addr);
        for broken in [slot, head] {
            if broken {
                self.stats.reservations_broken += 1;
                emit(SyncEvent::ReservationBroken { addr });
            }
        }
        slot || head
    }

    /// Human-readable architecture label (used in reports and plots): the
    /// [`SyncArch`]'s `Display`.
    #[must_use]
    pub fn label(&self) -> String {
        self.arch.to_string()
    }

    /// Event counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &AdapterStats {
        &self.stats
    }

    /// Encodes the bank's complete mutable state — reservation slot, wait
    /// unit, statistics — for a machine's state bytes. The wait unit's
    /// shape comes first; the [`SyncArch`] it follows from is not written.
    pub fn save_state(&self, out: &mut StateWriter) {
        self.wait.save(out);
        out.put_bool(self.slot.is_some());
        if let Some((core, addr)) = self.slot {
            out.put_u32(core);
            out.put_u32(addr);
        }
        self.stats.save(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MapStorage;

    fn run(
        bank: &mut Bank,
        mem: &mut MapStorage,
        src: CoreId,
        req: MemRequest,
    ) -> Vec<(CoreId, MemResponse)> {
        let mut out = Vec::new();
        bank.handle(src, &req, mem, &mut out);
        out
    }

    fn sc(addr: Addr, value: Word) -> MemRequest {
        MemRequest::Sc { addr, value }
    }

    #[test]
    fn load_store_amo() {
        let mut a = SyncArch::Lrsc.build(4);
        let mut mem = MapStorage::new();
        let r = run(
            &mut a,
            &mut mem,
            0,
            MemRequest::Store {
                addr: 0x40,
                value: 5,
                mask: !0,
            },
        );
        assert_eq!(r, vec![(0, MemResponse::StoreAck)]);
        let r = run(&mut a, &mut mem, 1, MemRequest::Load { addr: 0x40 });
        assert_eq!(r, vec![(1, MemResponse::Load { value: 5 })]);
        let r = run(
            &mut a,
            &mut mem,
            2,
            MemRequest::Amo {
                addr: 0x40,
                op: crate::RmwOp::Add,
                operand: 3,
            },
        );
        assert_eq!(r, vec![(2, MemResponse::Amo { old: 5 })]);
        assert_eq!(mem.read_word(0x40), 8);
        assert_eq!(a.stats().amos, 1);
    }

    #[test]
    fn sc_succeeds_only_with_matching_reservation() {
        let mut a = SyncArch::Lrsc.build(4);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 10);
        let r = run(&mut a, &mut mem, 3, MemRequest::Lr { addr: 0x40 });
        assert_eq!(r, vec![(3, MemResponse::Lr { value: 10 })]);
        let fail = vec![(3, MemResponse::Sc { success: false })];
        assert_eq!(run(&mut a, &mut mem, 3, sc(0x44, 1)), fail, "wrong addr");
        let r = run(&mut a, &mut mem, 2, sc(0x40, 1));
        assert_eq!(
            r,
            vec![(2, MemResponse::Sc { success: false })],
            "wrong core"
        );
        let r = run(&mut a, &mut mem, 3, sc(0x40, 11));
        assert_eq!(r, vec![(3, MemResponse::Sc { success: true })]);
        assert_eq!(mem.read_word(0x40), 11);
        assert_eq!(run(&mut a, &mut mem, 3, sc(0x40, 12)), fail, "slot used up");
        assert_eq!((a.stats().sc_success, a.stats().sc_failure), (1, 3));
        assert_eq!(
            a.stats().reservations_broken,
            0,
            "an SC consumes, not breaks"
        );
    }

    #[test]
    fn interleaved_lr_causes_sc_failure() {
        let mut a = SyncArch::Lrsc.build(4);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::Lr { addr: 0x40 });
        run(&mut a, &mut mem, 2, MemRequest::Lr { addr: 0x40 });
        let r = run(&mut a, &mut mem, 1, sc(0x40, 1));
        assert_eq!(r, vec![(1, MemResponse::Sc { success: false })]);
        let r = run(&mut a, &mut mem, 2, sc(0x40, 2));
        assert_eq!(r, vec![(2, MemResponse::Sc { success: true })]);
        assert_eq!(mem.read_word(0x40), 2);
        assert_eq!(a.stats().sc_failure, 1);

        // The one slot holds one reservation, whatever its address.
        run(&mut a, &mut mem, 1, MemRequest::Lr { addr: 0x40 });
        run(&mut a, &mut mem, 2, MemRequest::Lr { addr: 0x80 });
        let r = run(&mut a, &mut mem, 1, sc(0x40, 3));
        assert_eq!(r, vec![(1, MemResponse::Sc { success: false })]);
        let r = run(&mut a, &mut mem, 2, sc(0x80, 4));
        assert_eq!(r, vec![(2, MemResponse::Sc { success: true })]);
        assert_eq!((mem.read_word(0x40), mem.read_word(0x80)), (2, 4));
        assert_eq!(a.stats().sc_failure, 2);
    }

    #[test]
    fn store_breaks_reservation() {
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWaitIdeal,
            SyncArch::Colibri { queues: 1 },
        ] {
            let mut a = arch.build(4);
            let mut mem = MapStorage::new();
            run(&mut a, &mut mem, 1, MemRequest::Lr { addr: 0x40 });
            let store = MemRequest::Store {
                addr: 0x44,
                value: 9,
                mask: !0,
            };
            run(&mut a, &mut mem, 2, store);
            assert_eq!(a.stats().reservations_broken, 0, "{arch}: other address");
            let store = MemRequest::Store {
                addr: 0x40,
                value: 9,
                mask: !0,
            };
            run(&mut a, &mut mem, 2, store);
            assert_eq!(a.stats().reservations_broken, 1, "{arch}");
            run(&mut a, &mut mem, 2, store);
            assert_eq!(a.stats().reservations_broken, 1, "{arch}: already clear");
            let r = run(&mut a, &mut mem, 1, sc(0x40, 1));
            assert_eq!(r, vec![(1, MemResponse::Sc { success: false })], "{arch}");
            assert_eq!(mem.read_word(0x40), 9);
            assert_eq!(a.stats().reservations_broken, 1, "{arch}");
        }
    }

    #[test]
    fn chaos_evict_clears_matching_reservation() {
        let mut a = SyncArch::Lrsc.build(4);
        let mut mem = MapStorage::new();
        run(&mut a, &mut mem, 1, MemRequest::Lr { addr: 0x40 });
        let mut events = Vec::new();
        assert!(!a.chaos_evict(0x44, &mut |e| events.push(e)), "other addr");
        assert!(a.chaos_evict(0x40, &mut |e| events.push(e)));
        assert_eq!(events, vec![SyncEvent::ReservationBroken { addr: 0x40 }]);
        assert_eq!(a.stats().reservations_broken, 1);
        let r = run(&mut a, &mut mem, 1, sc(0x40, 1));
        assert_eq!(r, vec![(1, MemResponse::Sc { success: false })]);
    }

    #[test]
    fn wait_requests_fail_fast_on_lrsc() {
        let mut a = SyncArch::Lrsc.build(4);
        let mut mem = MapStorage::new();
        mem.write_word(0x40, 7);
        let failfast = vec![(
            1,
            MemResponse::Wait {
                value: 7,
                reserved: false,
            },
        )];
        let r = run(&mut a, &mut mem, 1, MemRequest::LrWait { addr: 0x40 });
        assert_eq!(r, failfast);
        // Even an mwait whose value already differs counts as fail-fast.
        let mwait = MemRequest::MWait {
            addr: 0x40,
            expected: 0,
        };
        assert_eq!(run(&mut a, &mut mem, 1, mwait), failfast);
        assert_eq!(a.stats().wait_failfast, 2);
        let r = run(
            &mut a,
            &mut mem,
            1,
            MemRequest::ScWait {
                addr: 0x40,
                value: 8,
            },
        );
        assert_eq!(r, vec![(1, MemResponse::ScWait { success: false })]);
        assert_eq!(mem.read_word(0x40), 7, "failed scwait must not write");
        assert_eq!(a.stats().scwait_failure, 1);
    }

    #[test]
    fn every_counted_event_is_emitted() {
        // A mixed request stream on every architecture: the counters must
        // equal the emitted event tally (the 1:1 `SyncEvent` contract).
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWait { slots: 1 },
            SyncArch::LrscWaitIdeal,
            SyncArch::Colibri { queues: 1 },
        ] {
            let mut a = arch.build(4);
            let mut mem = MapStorage::new();
            let mut tally = AdapterStats::default();
            let mut out = Vec::new();
            let reqs = [
                (0, MemRequest::Lr { addr: 0x40 }),
                (0, MemRequest::LrWait { addr: 0x40 }),
                (1, MemRequest::LrWait { addr: 0x40 }),
                (2, MemRequest::LrWait { addr: 0x80 }),
                (0, sc(0x40, 1)),
                (
                    0,
                    MemRequest::ScWait {
                        addr: 0x40,
                        value: 2,
                    },
                ),
                (
                    3,
                    MemRequest::Amo {
                        addr: 0x80,
                        op: crate::RmwOp::Add,
                        operand: 1,
                    },
                ),
            ];
            for (src, req) in reqs {
                a.handle_traced(src, &req, &mut mem, &mut out, &mut |e| tally.count(&e));
            }
            tally.requests = a.stats().requests;
            tally.loads = a.stats().loads;
            tally.stores = a.stats().stores;
            tally.amos = a.stats().amos;
            assert_eq!(&tally, a.stats(), "{arch}");
            assert_eq!(a.label(), arch.to_string());
        }
    }
}
