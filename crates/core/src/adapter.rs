//! The bank-adapter trait, its events and its counters.

use std::fmt;

use crate::msg::{Addr, CoreId, MemRequest, MemResponse, WaitMode};
use crate::state::{StateError, StateReader, StateWriter};
use crate::storage::WordStorage;

/// A structured synchronization event observed inside a bank adapter.
///
/// These are the per-occurrence counterparts of the aggregate
/// [`AdapterStats`] counters: where the counters answer *how many*, the
/// events answer *who, where and in which order* — the raw material for
/// handoff-latency and queue-occupancy analysis. Adapters are time-free,
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

/// The no-op event consumer the untraced [`SyncAdapter::handle`] entry
/// point uses.
#[inline]
pub(crate) fn no_trace(_: SyncEvent) {}

/// Event counters every adapter maintains (inputs to the energy model and
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

    /// Encodes every counter (checkpoint/restore).
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

    /// Decodes counters written by [`save`](AdapterStats::save).
    ///
    /// # Errors
    ///
    /// [`StateError::UnexpectedEof`] on a truncated buffer.
    pub fn load(src: &mut StateReader<'_>) -> Result<AdapterStats, StateError> {
        Ok(AdapterStats {
            requests: src.take_u64()?,
            loads: src.take_u64()?,
            stores: src.take_u64()?,
            amos: src.take_u64()?,
            sc_success: src.take_u64()?,
            sc_failure: src.take_u64()?,
            wait_enqueued: src.take_u64()?,
            wait_failfast: src.take_u64()?,
            scwait_success: src.take_u64()?,
            scwait_failure: src.take_u64()?,
            successor_updates: src.take_u64()?,
            wakeups: src.take_u64()?,
            reservations_broken: src.take_u64()?,
        })
    }
}

/// A synchronization adapter in front of one SPM bank.
///
/// The adapter observes **all** traffic reaching the bank (it must see plain
/// stores to invalidate reservations and fire `mwait` monitors), performs
/// the architectural side effects through [`WordStorage`], and produces the
/// response messages to send.
///
/// Implementations are *time-free*: the surrounding simulator decides when
/// messages are delivered. Correctness of the Colibri implementation relies
/// on the transport delivering messages between a fixed (bank, core) pair in
/// FIFO order, which both the test harness and the NoC guarantee.
///
/// Adapters must be [`Send`]: a machine is stepped by one thread, but
/// sweeps build and run independent machines on worker threads, so every
/// adapter may live on a thread other than the one that configured it. An
/// adapter is only ever *used* by one thread at a time — no `Sync`
/// requirement — and plain-data adapters (all shipped ones) satisfy the
/// bound automatically.
pub trait SyncAdapter: fmt::Debug + Send {
    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order, and reporting every
    /// synchronization event through `emit` (see [`SyncEvent`]).
    ///
    /// This is the one required entry point; the untraced
    /// [`handle`](SyncAdapter::handle) wrapper passes a no-op consumer.
    /// Implementations must behave identically regardless of what `emit`
    /// does — tracing observes, it never steers.
    fn handle_traced(
        &mut self,
        src: CoreId,
        req: &MemRequest,
        mem: &mut dyn WordStorage,
        out: &mut Vec<(CoreId, MemResponse)>,
        emit: &mut dyn FnMut(SyncEvent),
    );

    /// Processes one request from `src`, appending `(destination core,
    /// response)` pairs to `out` in send order (untraced).
    fn handle(
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
    fn chaos_evict(&mut self, addr: Addr, emit: &mut dyn FnMut(SyncEvent)) -> bool;

    /// Human-readable architecture label (used in reports and plots): the
    /// [`SyncArch`](crate::SyncArch)'s `Display`.
    fn label(&self) -> String;

    /// Event counters accumulated so far.
    fn stats(&self) -> &AdapterStats;

    /// Serializes the adapter's complete mutable state — reservation
    /// slots, wait queues, statistics — for a machine checkpoint.
    ///
    /// Structural configuration (queue capacity, number of tracked
    /// addresses) is *not* written: a snapshot is restored into an adapter
    /// built from the same [`SyncArch`](crate::SyncArch), and
    /// [`load_state`](SyncAdapter::load_state) validates the shapes match.
    fn save_state(&self, out: &mut StateWriter);

    /// Restores state written by [`save_state`](SyncAdapter::save_state)
    /// into an adapter of identical structure.
    ///
    /// # Errors
    ///
    /// [`StateError`] when the buffer is truncated, a discriminant is
    /// unknown, or the recorded structure (queue capacity, slot count)
    /// does not match this adapter.
    fn load_state(&mut self, src: &mut StateReader<'_>) -> Result<(), StateError>;
}
