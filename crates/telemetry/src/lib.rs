//! Host-side self-profiling for the LRSCwait simulator.
//!
//! `crates/trace` answers *guest* questions — where do simulated cycles
//! go, lock by lock. This crate answers the *host* questions: where does
//! host wall-clock go inside `Machine::step_cycle`, and is a
//! billion-cycle sweep still alive. Everything here observes the
//! simulator from outside the simulated clock: attaching a profiler never
//! changes simulated results, which stay bit-identical with profiling on
//! or off (the differential suites enforce this).
//!
//! The pieces, mirroring the [`Tracer`] discipline of `crates/trace`
//! (off is one predictable branch at the instrumentation site):
//!
//! * [`Profiler`] — the enum-dispatch switch the simulator holds. When
//!   [`Profiler::Off`] (the default) every instrumentation site reduces
//!   to one predictable branch and no clock is read. When on, the
//!   stepper laces monotonic timestamps between the sub-phases of
//!   every *sampled* cycle (one cycle in [`ProfilerConfig::sample_every`])
//!   through a [`CycleClock`], so per-phase *shares* converge while the
//!   hot loop pays only a countdown on unsampled cycles.
//! * [`PhaseProfile`] — the immutable snapshot a run produces: per-phase
//!   nanoseconds and wall time, rendered as deterministic-schema JSON
//!   (`lrscwait.profile.v2`).
//! * [`Heartbeat`] — progress-line bookkeeping for long sweeps: live
//!   Mcycles/s since the previous beat and ETA against the cycle budget.
//!   Pure computation and formatting; the bench harness owns the stderr
//!   / NDJSON I/O.
//!
//! [`Tracer`]: https://docs.rs/lrscwait-trace

#![forbid(unsafe_code)]

pub mod heartbeat;
pub mod profiler;

pub use heartbeat::{Heartbeat, HeartbeatLine};
pub use profiler::{
    CycleClock, Phase, PhaseProfile, PhaseStat, Profiler, ProfilerConfig, NUM_PHASES,
};
