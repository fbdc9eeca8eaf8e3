//! The phase profiler: monotonic scoped timers around the simulator's
//! per-cycle sub-phases.
//!
//! The design copies the `Tracer` discipline from `crates/trace`: the
//! simulator holds a [`Profiler`] that is [`Profiler::Off`] by default,
//! every instrumentation site is a single predictable branch when off,
//! and the phase bodies themselves stay monomorphized — profiling wraps
//! them, it never specializes them. All state is host-side: simulated
//! results are bit-identical with profiling on or off.
//!
//! Timing is *sampled*: one cycle in [`ProfilerConfig::sample_every`] is
//! measured end-to-end with a timestamp laced between consecutive phases
//! (a [`CycleClock`]), so a sampled cycle pays `NUM_PHASES + 1` monotonic
//! clock reads and every other cycle pays a countdown decrement. Phase
//! *shares* converge quickly under sampling (tens of thousands of
//! sampled cycles per second at simulator speed) while keeping the
//! profiled run within a few percent of the unprofiled one.
//!
//! What a run yields is a [`PhaseProfile`] (`Machine::profile`): wall time
//! plus sampled nanoseconds per [`Phase`]. `lrscwait-bench` writes it as
//! the `lrscwait.profile.v2` JSON artifact.
//!
//! # The profile artifact
//!
//! A figure run with `--profile` samples one cycle in every 128 and writes
//! `<fig>.profile.json` next to its CSVs, schema
//! `lrscwait.profile-set.v2`: one point per sweep configuration plus a
//! merged `aggregate`. Each is an embedded `lrscwait.profile.v2` object
//! with `wall_ns`, the stepped and sampled cycle counts, and one
//! `{phase, ns, share}` row per [`Phase`]; the shares sum to 1 over
//! sampled time.

use std::time::Instant;

/// Number of distinct [`Phase`]s.
pub(crate) const NUM_PHASES: usize = 8;

/// One sub-phase of `Machine::step_cycle`, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Phase 1a: `Network::advance` on the request network.
    ReqNetAdvance,
    /// Phase 1b: banks service delivered requests.
    BankService,
    /// Phase 2: bank outboxes flush into the response network.
    BankFlush,
    /// Phase 3a: `Network::advance` on the response network.
    RespNetAdvance,
    /// Phase 3b: response delivery to cores through their Qnodes.
    RespDelivery,
    /// Phase 4: core stepping.
    CoreStep,
    /// Barrier release accounting.
    BarrierRelease,
    /// Phase 5: core outboxes flush into the request network.
    CoreFlush,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::ReqNetAdvance,
        Phase::BankService,
        Phase::BankFlush,
        Phase::RespNetAdvance,
        Phase::RespDelivery,
        Phase::CoreStep,
        Phase::BarrierRelease,
        Phase::CoreFlush,
    ];

    /// Stable snake_case identifier (JSON field and ledger metric name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::ReqNetAdvance => "req_net_advance",
            Phase::BankService => "bank_service",
            Phase::BankFlush => "bank_flush",
            Phase::RespNetAdvance => "resp_net_advance",
            Phase::RespDelivery => "resp_delivery",
            Phase::CoreStep => "core_step",
            Phase::BarrierRelease => "barrier_release",
            Phase::CoreFlush => "core_flush",
        }
    }
}

/// Profiler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerConfig {
    /// Measure one cycle in this many (1 = every cycle). The default
    /// keeps the profiled hot loop within a few percent of unprofiled
    /// throughput while still collecting tens of thousands of samples
    /// per host second.
    pub sample_every: u32,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig { sample_every: 128 }
    }
}

/// Per-cycle timestamp lace. Obtained from [`Profiler::begin_cycle`];
/// *armed* only on sampled cycles. Each [`CycleClock::lap`] attributes
/// the time since the previous timestamp to one phase, so consecutive
/// phases share a single monotonic clock read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CycleClock {
    last: Option<Instant>,
    ns: [u64; NUM_PHASES],
}

impl CycleClock {
    /// A disarmed clock: every [`lap`](CycleClock::lap) is one branch.
    #[must_use]
    pub fn idle() -> CycleClock {
        CycleClock {
            last: None,
            ns: [0; NUM_PHASES],
        }
    }

    fn armed() -> CycleClock {
        CycleClock {
            last: Some(Instant::now()),
            ns: [0; NUM_PHASES],
        }
    }

    /// Attributes the time since the previous timestamp to `phase` and
    /// restarts the lap timer. One predictable branch when disarmed.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            self.ns[phase as usize] += now.duration_since(prev).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// Accumulated profiling state (the `On` payload of [`Profiler`]).
#[derive(Clone, Debug)]
pub(crate) struct ProfilerCore {
    sample_every: u32,
    countdown: u32,
    stepped_cycles: u64,
    sampled_cycles: u64,
    phase_ns: [u64; NUM_PHASES],
    sampled_ns: u64,
    wall_ns: u64,
}

/// The profiling switch the simulator holds, following the `Tracer`
/// pattern: [`Profiler::Off`] (the default) keeps every instrumentation
/// site a single predictable branch; `On` laces timestamps through
/// sampled cycles.
#[derive(Clone, Debug, Default)]
pub(crate) enum Profiler {
    /// No profiling: zero clock reads, one branch per site.
    #[default]
    Off,
    /// Profiling with the boxed accumulator state.
    On(Box<ProfilerCore>),
}

impl Profiler {
    /// An enabled profiler.
    #[must_use]
    pub fn enabled(cfg: ProfilerConfig) -> Profiler {
        let sample_every = cfg.sample_every.max(1);
        Profiler::On(Box::new(ProfilerCore {
            sample_every,
            // Sample the very first cycle so short runs still profile.
            countdown: 0,
            stepped_cycles: 0,
            sampled_cycles: 0,
            phase_ns: [0; NUM_PHASES],
            sampled_ns: 0,
            wall_ns: 0,
        }))
    }

    /// Whether profiling is off.
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self, Profiler::Off)
    }

    /// Starts a cycle: counts it and returns an armed [`CycleClock`] on
    /// sampled cycles, a disarmed one otherwise. One branch when off.
    #[inline]
    pub fn begin_cycle(&mut self) -> CycleClock {
        match self {
            Profiler::Off => CycleClock::idle(),
            Profiler::On(core) => {
                core.stepped_cycles += 1;
                if core.countdown == 0 {
                    core.countdown = core.sample_every - 1;
                    CycleClock::armed()
                } else {
                    core.countdown -= 1;
                    CycleClock::idle()
                }
            }
        }
    }

    /// Folds a finished cycle's laps into the accumulators. One branch
    /// when the clock is disarmed (and always when off).
    #[inline]
    pub fn commit(&mut self, clock: &CycleClock) {
        if clock.last.is_none() {
            return;
        }
        if let Profiler::On(core) = self {
            core.sampled_cycles += 1;
            for (total, lap) in core.phase_ns.iter_mut().zip(clock.ns.iter()) {
                *total += lap;
            }
            core.sampled_ns += clock.ns.iter().sum::<u64>();
        }
    }

    /// Adds run-loop wall time (the simulator's `run_until` charges the
    /// whole loop, so fast-forward and loop overhead are covered too).
    pub fn add_wall_ns(&mut self, ns: u64) {
        if let Profiler::On(core) = self {
            core.wall_ns += ns;
        }
    }

    /// Snapshots the accumulated profile (`None` when off).
    #[must_use]
    pub fn snapshot(&self) -> Option<PhaseProfile> {
        match self {
            Profiler::Off => None,
            Profiler::On(core) => Some(PhaseProfile {
                wall_ns: core.wall_ns,
                stepped_cycles: core.stepped_cycles,
                sampled_cycles: core.sampled_cycles,
                sample_every: core.sample_every,
                sampled_ns: core.sampled_ns,
                phases: Phase::ALL
                    .into_iter()
                    .map(|phase| PhaseStat {
                        phase,
                        ns: core.phase_ns[phase as usize],
                    })
                    .collect(),
            }),
        }
    }
}

/// One phase's accumulated sampled nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Nanoseconds spent in the phase across all sampled cycles.
    pub ns: u64,
}

/// A finished run's profile: sampled per-phase time.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// Wall-clock nanoseconds inside the simulator's run loop
    /// (`Machine::run` / `run_until`), fast-forward included.
    pub wall_ns: u64,
    /// Cycles actually stepped (`step_cycle` invocations; fast-forward
    /// skips don't step).
    pub stepped_cycles: u64,
    /// Cycles measured end-to-end.
    pub sampled_cycles: u64,
    /// Sampling interval the profile was taken with.
    pub sample_every: u32,
    /// Total nanoseconds across all phases of all sampled cycles. Phase
    /// laps are contiguous, so per-phase times sum to exactly this.
    pub sampled_ns: u64,
    /// Per-phase sampled nanoseconds, in execution order.
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    /// A phase's share of sampled step time (0 when nothing sampled).
    #[must_use]
    pub fn share(&self, phase: Phase) -> f64 {
        if self.sampled_ns == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .find(|s| s.phase == phase)
            .map_or(0.0, |s| s.ns as f64 / self.sampled_ns as f64)
    }

    /// Folds another profile into this one (profile aggregation across a
    /// sweep).
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.wall_ns += other.wall_ns;
        self.stepped_cycles += other.stepped_cycles;
        self.sampled_cycles += other.sampled_cycles;
        self.sampled_ns += other.sampled_ns;
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            debug_assert_eq!(mine.phase, theirs.phase);
            mine.ns += theirs.ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> PhaseProfile {
        let mut profiler = Profiler::enabled(ProfilerConfig { sample_every: 1 });
        for _ in 0..4 {
            let mut clock = profiler.begin_cycle();
            assert!(clock.last.is_some());
            for phase in Phase::ALL {
                clock.lap(phase);
            }
            profiler.commit(&clock);
        }
        profiler.add_wall_ns(1_000_000);
        profiler.snapshot().expect("profiler is on")
    }

    #[test]
    fn off_profiler_commits_nothing() {
        let mut profiler = Profiler::Off;
        let mut clock = profiler.begin_cycle();
        assert!(clock.last.is_none());
        clock.lap(Phase::CoreStep);
        profiler.commit(&clock);
        assert!(profiler.snapshot().is_none());
    }

    #[test]
    fn sampling_skips_cycles() {
        let mut profiler = Profiler::enabled(ProfilerConfig { sample_every: 4 });
        let mut armed = 0;
        for _ in 0..8 {
            let clock = profiler.begin_cycle();
            armed += usize::from(clock.last.is_some());
            profiler.commit(&clock);
        }
        let profile = profiler.snapshot().expect("on");
        assert_eq!(profile.stepped_cycles, 8);
        assert_eq!(profile.sampled_cycles, 2);
        assert_eq!(armed, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample_profile();
        let b = sample_profile();
        let cycles = a.sampled_cycles + b.sampled_cycles;
        a.merge(&b);
        assert_eq!(a.sampled_cycles, cycles);
        assert_eq!(a.stepped_cycles, 8);
        assert_eq!(a.wall_ns, 2_000_000);
    }
}
