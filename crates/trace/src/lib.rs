//! Simulation tracing for the LRSCwait simulator.
//!
//! The paper's argument is about *where cycles go* — polling retries vs.
//! parked-in-queue waiting vs. useful work — yet aggregate counters
//! (`SimStats`) cannot show a single lock handoff or a wait-queue
//! occupancy curve. This crate defines the structured event vocabulary
//! the simulator emits and the sinks that consume it:
//!
//! * [`TraceEvent`] — the full event model: instruction-region markers,
//!   core park/wake with cause, barrier arrive/release, request issue
//!   and the bank adapters' [`SyncEvent`]s (LR/SC results, wait-queue
//!   enqueue/serve/handoff, Colibri successor updates and wakeups). NoC
//!   traffic is not an event: the networks count it per node themselves
//!   (`lrscwait_noc::NodeTraffic`).
//! * [`TraceSink`] — the consumer interface, stamped with the cycle.
//! * [`Tracer`] — the enum-dispatch switch the simulator holds, and the
//!   one way it traces: every emit site, in the stepper's hot loops as
//!   much as anywhere else, is `tracer.emit(cycle, || TraceEvent::…)`.
//!   When [`Tracer::Off`] (the default) that is one predictable branch
//!   and the event constructor is never evaluated — traced and untraced
//!   runs are bit-identical in results, and the untraced hot path
//!   allocates nothing (the differential and counting-allocator suites
//!   enforce both).
//!
//! Shipped sinks:
//!
//! * [`PerfettoSink`] — a Perfetto / Chrome `about:tracing` JSON exporter
//!   with one track per core (sleep, barrier and measured-region spans,
//!   SC-failure instants) plus counter tracks for wait-queue depth and
//!   runnable-core count. It writes each object to its `io::Write` as the
//!   event arrives, so a full-scale trace costs constant host memory.
//! * [`AnalysisSink`] — in-memory derived metrics: lock handoff latency
//!   distribution (p50/p99/max), wait-queue occupancy over time, and
//!   SC-failure / retry-abort causes. Sample vectors are bounded by
//!   seeded reservoir sampling, so arbitrarily long runs analyze at
//!   constant memory.
//! * [`InvariantChecker`] — the litmus runner's safety and liveness
//!   invariants over the stream, reported as an [`InvariantReport`].
//! * [`RecordingSink`] (raw event log), [`FanoutSink`] (tee to several
//!   sinks), and [`SharedSink`] (hand a sink to a `Machine` and read it
//!   back after the run).

#![forbid(unsafe_code)]

mod analysis;
mod checker;
pub mod json;
mod perfetto;

use std::sync::{Arc, Mutex};

pub use analysis::{
    AnalysisSink, HandoffStats, OccupancyStats, SyncAnalysis, SyncCounters, ANALYSIS_RESERVOIR_CAP,
};
pub use checker::{
    violated_invariants, Invariant, InvariantChecker, InvariantReport, RunOutcome, Violation,
    WaitGraphEntry,
};
pub use lrscwait_core::SyncEvent;
pub use perfetto::PerfettoSink;

/// The memory operation a core issued (cause of a park, kind of a sent
/// request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Plain load.
    Load,
    /// Posted store (does not park the core).
    Store,
    /// RV32A read–modify–write atomic.
    Amo,
    /// Classic `lr.w`.
    Lr,
    /// Classic `sc.w`.
    Sc,
    /// `lrwait.w` (Xlrscwait).
    LrWait,
    /// `scwait.w` (Xlrscwait).
    ScWait,
    /// `mwait.w` (Xlrscwait).
    MWait,
    /// Qnode-bounced `WakeUp` hand-off message (Colibri).
    WakeUp,
}

impl OpKind {
    /// Instruction-style label (used by the Perfetto exporter).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Amo => "amo",
            OpKind::Lr => "lr.w",
            OpKind::Sc => "sc.w",
            OpKind::LrWait => "lrwait.w",
            OpKind::ScWait => "scwait.w",
            OpKind::MWait => "mwait.w",
            OpKind::WakeUp => "wakeup",
        }
    }
}

/// What woke a parked core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeCause {
    /// A memory response for the operation in `OpKind` completed.
    Response(OpKind),
    /// The hardware barrier released.
    Barrier,
}

/// One structured simulator event. The cycle is supplied alongside (see
/// [`TraceSink::record`]); events themselves are plain `Copy` data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Emitted once when tracing is attached: machine geometry, so sinks
    /// can size per-core state and seed the runnable-core counter.
    Start {
        /// Number of cores.
        cores: u32,
        /// Number of SPM banks.
        banks: u32,
    },
    /// A bank adapter's synchronization event (see [`SyncEvent`]).
    Sync {
        /// Bank the adapter fronts.
        bank: u32,
        /// The adapter-level event.
        event: SyncEvent,
    },
    /// A core handed a memory request to its outbox.
    ReqSent {
        /// Issuing core.
        core: u32,
        /// Destination bank.
        bank: u32,
        /// Operation kind.
        kind: OpKind,
    },
    /// A core parked on a blocking memory operation (sleeping, issuing no
    /// traffic — the LRSCwait benefit shows up as long spans here).
    Park {
        /// Parked core.
        core: u32,
        /// The blocking operation.
        cause: OpKind,
    },
    /// A parked core became runnable again.
    Wake {
        /// Woken core.
        core: u32,
        /// What woke it.
        cause: WakeCause,
    },
    /// A core entered the measured region (MMIO region marker = 1).
    RegionEnter {
        /// Core.
        core: u32,
    },
    /// A core left the measured region (MMIO region marker = 0).
    RegionExit {
        /// Core.
        core: u32,
    },
    /// A core arrived at the hardware barrier and parked.
    BarrierArrive {
        /// Core.
        core: u32,
    },
    /// The barrier released all waiting cores (each also gets a
    /// [`TraceEvent::Wake`] with [`WakeCause::Barrier`]).
    BarrierRelease {
        /// How many cores were released.
        waiting: u32,
    },
    /// A core halted (MMIO EXIT or `ecall`).
    Halt {
        /// Core.
        core: u32,
    },
    /// The host harness injected a store into scratchpad memory between
    /// cycles (open-loop traffic generation). The store goes through the
    /// owning bank's synchronization adapter, so any [`TraceEvent::Sync`]
    /// events it provokes (monitor fires, broken reservations) follow
    /// immediately in the stream.
    Inject {
        /// Target byte address.
        addr: u32,
        /// Word written.
        value: u32,
    },
}

/// A consumer of simulator trace events.
///
/// `record` is called in emission order; `cycle` values are
/// non-decreasing within a run. Sinks must never influence simulation
/// (the simulator guarantees traced and untraced runs are bit-identical;
/// sinks only observe).
pub trait TraceSink {
    /// Consumes one event stamped with the cycle it occurred in.
    fn record(&mut self, cycle: u64, event: TraceEvent);
}

/// The tracing switch a `Machine` holds.
///
/// Every emit site is written as
/// `tracer.emit(cycle, || TraceEvent::…)` — when the tracer is
/// [`Tracer::Off`] the closure is never evaluated, so constructing the
/// event costs nothing and the whole site is a single predictable
/// branch. Dispatch to a live sink is one enum match plus one virtual
/// call.
///
/// ```
/// use lrscwait_trace::{OpKind, RecordingSink, SharedSink, TraceEvent, Tracer};
///
/// let mut off = Tracer::Off;
/// off.emit(0, || unreachable!("closure never evaluated while off"));
///
/// let shared = SharedSink::new(RecordingSink::new());
/// let mut on = Tracer::sink(Box::new(shared.clone()));
/// on.emit(3, || TraceEvent::Park { core: 7, cause: OpKind::MWait });
/// assert_eq!(shared.take().events.len(), 1);
/// ```
#[derive(Default)]
pub enum Tracer {
    /// Tracing disabled (the default): emits are no-ops.
    #[default]
    Off,
    /// Tracing enabled: events go to the boxed sink.
    On(Box<dyn TraceSink>),
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tracer::Off => write!(f, "Tracer::Off"),
            Tracer::On(_) => write!(f, "Tracer::On(..)"),
        }
    }
}

impl Tracer {
    /// Wraps a sink.
    #[must_use]
    pub fn sink(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer::On(sink)
    }

    /// Whether tracing is disabled.
    #[inline]
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self, Tracer::Off)
    }

    /// Emits an event; `event` is only evaluated when tracing is on.
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: impl FnOnce() -> TraceEvent) {
        if let Tracer::On(sink) = self {
            sink.record(cycle, event());
        }
    }
}

/// A sink that stores the raw `(cycle, event)` stream (tests,
/// ad-hoc debugging).
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// The recorded stream, in emission order.
    pub events: Vec<(u64, TraceEvent)>,
}

impl RecordingSink {
    /// An empty recording sink.
    #[must_use]
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }

    /// Number of events matching `pred`.
    #[must_use]
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.events.push((cycle, event));
    }
}

/// Tees every event to several sinks (e.g. Perfetto export *and*
/// analysis from one simulation).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl FanoutSink {
    /// An empty fan-out.
    #[must_use]
    pub fn new() -> FanoutSink {
        FanoutSink::default()
    }

    /// Adds a downstream sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: Box<dyn TraceSink>) -> FanoutSink {
        self.sinks.push(sink);
        self
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        for sink in &mut self.sinks {
            sink.record(cycle, event);
        }
    }
}

/// A cloneable handle around a sink, so the same sink can be handed to a
/// `Machine` (boxed) *and* read back by the caller after the run:
///
/// ```
/// use lrscwait_trace::{RecordingSink, SharedSink, TraceEvent, TraceSink};
///
/// let shared = SharedSink::new(RecordingSink::new());
/// let mut handle: Box<dyn TraceSink> = Box::new(shared.clone());
/// handle.record(3, TraceEvent::Halt { core: 0 });
/// assert_eq!(shared.take().events.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedSink<S>(Arc<Mutex<S>>);

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> SharedSink<S> {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<S> SharedSink<S> {
    /// Wraps `sink` in a shared handle.
    #[must_use]
    pub fn new(sink: S) -> SharedSink<S> {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` against the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock())
    }

    /// Takes the inner sink out, leaving a default in its place.
    #[must_use]
    pub fn take(&self) -> S
    where
        S: Default,
    {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        self.lock().record(cycle, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_never_evaluates_the_event() {
        let mut tracer = Tracer::Off;
        let mut evaluated = false;
        tracer.emit(1, || {
            evaluated = true;
            TraceEvent::Halt { core: 0 }
        });
        assert!(!evaluated, "Off tracer must not build events");
        assert!(tracer.is_off());
    }

    #[test]
    fn on_tracer_records_with_cycle() {
        let shared = SharedSink::new(RecordingSink::new());
        let mut tracer = Tracer::sink(Box::new(shared.clone()));
        assert!(!tracer.is_off());
        tracer.emit(7, || TraceEvent::RegionEnter { core: 2 });
        tracer.emit(9, || TraceEvent::RegionExit { core: 2 });
        let events = shared.take().events;
        assert_eq!(
            events,
            vec![
                (7, TraceEvent::RegionEnter { core: 2 }),
                (9, TraceEvent::RegionExit { core: 2 }),
            ]
        );
    }

    #[test]
    fn fanout_tees_to_all_sinks() {
        let a = SharedSink::new(RecordingSink::new());
        let b = SharedSink::new(RecordingSink::new());
        let mut fan = FanoutSink::new()
            .with(Box::new(a.clone()))
            .with(Box::new(b.clone()));
        fan.record(1, TraceEvent::Halt { core: 3 });
        assert_eq!(a.take().events.len(), 1);
        assert_eq!(b.take().events.len(), 1);
    }

    #[test]
    fn recording_sink_counts() {
        let mut sink = RecordingSink::new();
        sink.record(1, TraceEvent::Halt { core: 0 });
        sink.record(2, TraceEvent::Halt { core: 1 });
        sink.record(2, TraceEvent::RegionEnter { core: 1 });
        assert_eq!(sink.count(|e| matches!(e, TraceEvent::Halt { .. })), 2);
    }

    #[test]
    fn op_kind_labels_are_distinct() {
        let kinds = [
            OpKind::Load,
            OpKind::Store,
            OpKind::Amo,
            OpKind::Lr,
            OpKind::Sc,
            OpKind::LrWait,
            OpKind::ScWait,
            OpKind::MWait,
            OpKind::WakeUp,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
