//! The bank's synchronization events and its counters.

use crate::msg::{Addr, CoreId, WaitMode};
use crate::state::StateWriter;

/// A structured synchronization event observed inside a bank.
///
/// These are the per-occurrence counterparts of the aggregate
/// [`AdapterStats`] counters: where the counters answer *how many*, the
/// events answer *who, where and in which order* — the raw material for
/// handoff-latency and queue-occupancy analysis. Banks are time-free,
/// so events carry no cycle; the caller (the simulator, or a protocol
/// harness) stamps them on receipt.
///
/// Emission is exact with respect to the statistics: one `WaitEnqueued`
/// per `wait_enqueued` increment, one `WaitFailFast` per `wait_failfast`,
/// one `ScResult` per `sc_*`/`scwait_*` increment, one `SuccessorUpdate`
/// per `successor_updates`, one `WakeupPromoted` per `wakeups`, and one
/// `ReservationBroken` per `reservations_broken`. The bank counts each
/// event as it reports it, so event streams reconcile with end-of-run
/// aggregates by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// A `lrwait`/`mwait` request was accepted into a reservation queue
    /// (the issuing core will sleep until served).
    WaitEnqueued {
        /// Enqueued core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction created the entry.
        mode: WaitMode,
    },
    /// A queued waiter's withheld response was released (the core at the
    /// queue head becomes runnable once the response reaches it).
    WaitServed {
        /// Served core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction the entry came from.
        mode: WaitMode,
        /// `true` when the serve was triggered by a predecessor leaving
        /// the queue (a lock handoff or monitor fire) rather than the
        /// waiter finding the queue empty on arrival.
        handoff: bool,
    },
    /// A `lrwait`/`mwait` request failed fast (queue structure full, or
    /// wait-free hardware): no reservation was placed and software must
    /// retry.
    WaitFailFast {
        /// Rejected core.
        core: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Which wait instruction was rejected.
        mode: WaitMode,
    },
    /// A store-conditional completed. `wait: false` is a classic `sc.w`,
    /// `wait: true` an `scwait.w` closing an `lrwait` sequence.
    ScResult {
        /// Issuing core.
        core: CoreId,
        /// Target word address.
        addr: Addr,
        /// Whether the store was performed.
        success: bool,
        /// Whether this was the wait-extension (`scwait.w`) form.
        wait: bool,
    },
    /// Colibri: a new tail enqueued behind `predecessor`, whose Qnode is
    /// being notified of its `successor`.
    SuccessorUpdate {
        /// Previous tail (receives the notification).
        predecessor: CoreId,
        /// Newly enqueued core.
        successor: CoreId,
        /// Contended word address.
        addr: Addr,
        /// Wait mode of the new tail.
        mode: WaitMode,
    },
    /// Colibri: a bounced `WakeUp` was processed and `successor` promoted
    /// to queue head (its withheld response is released in the same
    /// cycle, reported as a separate [`SyncEvent::WaitServed`]).
    WakeupPromoted {
        /// Contended word address.
        addr: Addr,
        /// Promoted core.
        successor: CoreId,
        /// Wait mode of the promoted head.
        mode: WaitMode,
    },
    /// A reservation (classic slot or `lrwait` head) was invalidated by
    /// an intervening write.
    ReservationBroken {
        /// Word address whose reservation broke.
        addr: Addr,
    },
}

/// The no-op event consumer the untraced [`Bank::handle`](crate::Bank::handle)
/// entry point uses.
#[inline]
pub(crate) fn no_trace(_: SyncEvent) {}

/// Event counters every bank maintains (inputs to the energy model and
/// the interference analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Requests processed, of any kind.
    pub requests: u64,
    /// Plain loads served.
    pub loads: u64,
    /// Stores (including masked) performed.
    pub stores: u64,
    /// RV32A read–modify-write atomics performed.
    pub amos: u64,
    /// Classic `sc.w` attempts that succeeded.
    pub sc_success: u64,
    /// Classic `sc.w` attempts that failed.
    pub sc_failure: u64,
    /// `lrwait`/`mwait` requests that were enqueued (or served as head).
    pub wait_enqueued: u64,
    /// `lrwait`/`mwait` requests that failed fast (structure full).
    pub wait_failfast: u64,
    /// `scwait` attempts that succeeded.
    pub scwait_success: u64,
    /// `scwait` attempts that failed (reservation lost or misuse).
    pub scwait_failure: u64,
    /// `SuccessorUpdate` messages emitted (Colibri only).
    pub successor_updates: u64,
    /// `WakeUp` requests processed (Colibri only).
    pub wakeups: u64,
    /// Reservations invalidated by an intervening write.
    pub reservations_broken: u64,
}

impl AdapterStats {
    /// Bumps the counter `event` corresponds to (`WaitServed` has none).
    pub(crate) fn count(&mut self, event: &SyncEvent) {
        let counter = match *event {
            SyncEvent::WaitEnqueued { .. } => &mut self.wait_enqueued,
            SyncEvent::WaitServed { .. } => return,
            SyncEvent::WaitFailFast { .. } => &mut self.wait_failfast,
            SyncEvent::ScResult { success, wait, .. } => match (wait, success) {
                (false, true) => &mut self.sc_success,
                (false, false) => &mut self.sc_failure,
                (true, true) => &mut self.scwait_success,
                (true, false) => &mut self.scwait_failure,
            },
            SyncEvent::SuccessorUpdate { .. } => &mut self.successor_updates,
            SyncEvent::WakeupPromoted { .. } => &mut self.wakeups,
            SyncEvent::ReservationBroken { .. } => &mut self.reservations_broken,
        };
        *counter += 1;
    }

    /// Encodes every counter (machine state bytes).
    pub fn save(&self, out: &mut StateWriter) {
        for v in [
            self.requests,
            self.loads,
            self.stores,
            self.amos,
            self.sc_success,
            self.sc_failure,
            self.wait_enqueued,
            self.wait_failfast,
            self.scwait_success,
            self.scwait_failure,
            self.successor_updates,
            self.wakeups,
            self.reservations_broken,
        ] {
            out.put_u64(v);
        }
    }
}
