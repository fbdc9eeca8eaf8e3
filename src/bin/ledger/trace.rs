//! The traced run: the ledger's own spans around every call into a layer,
//! the observer-overhead runs, and the layer model.
//!
//! Spans live in memory and are written with the result file when the run
//! ends. They are recorded from this binary only — around the calls into
//! each crate — so the simulator itself is untouched; spans *inside* the
//! simulator are a later change, and the model's residual is the list of
//! what they should cover.

use std::cell::Cell;
use std::fmt::Display;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use lrscwait_kernels::Workload;
use lrscwait_sim::{ExitReason, Machine, PhaseProfile, ProfilerConfig, SimStats};
use lrscwait_trace::{TraceEvent, TraceSink};

use crate::catalog::{PROFILE_PHASES, SPAN_NAMES};
use crate::e2e::{self, Outcome};
use crate::layers::{self, Scale};
use crate::workloads::{AdapterOp, CpuMix, NocPattern, Spec};

/// The run is split into this many `Machine::run_until` chunks.
pub const RUN_CHUNKS: u64 = 32;
/// Rounds of the untraced, chunked, sink-traced and profiled runs. The four
/// kinds alternate within a round, and the best run of each kind counts on
/// both sides of an overhead ratio: one observed run against separately
/// timed base runs read 4-7 % *negative* overhead on the sandbox this was
/// sized on, because the host drifts by more than the effect.
pub const ROUNDS: usize = 3;
/// Snapshot/restore round trips timed at the mid-run point.
pub const SNAPSHOT_REPS: usize = 3;
/// Name of the root span; its self time is the ledger's own bookkeeping.
pub const ROOT_SPAN: &str = "ledger.trace";

/// Work counted at a span boundary (deltas of `SimStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Guest instructions retired.
    pub instr: u64,
    /// Requests served by bank adapters.
    pub requests: u64,
    /// Flit-hops on both networks.
    pub hops: u64,
}

impl Counts {
    /// The cumulative counts in `stats`.
    pub fn of(stats: &SimStats) -> Counts {
        Counts {
            instr: stats.total_instructions(),
            requests: stats.adapters.requests,
            hops: stats.req_network.hops + stats.resp_network.hops,
        }
    }

    fn since(self, earlier: Counts) -> Counts {
        Counts {
            instr: self.instr - earlier.instr,
            requests: self.requests - earlier.requests,
            hops: self.hops - earlier.hops,
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// [`ROOT_SPAN`] or one of `catalog::SPAN_NAMES`.
    pub name: &'static str,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// Nanoseconds from the recorder's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's start.
    pub end_ns: u64,
    /// Work done inside the span, where it was counted.
    pub counts: Option<Counts>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. All spans of one recorder share `run_id`.
#[derive(Debug)]
pub struct Recorder {
    /// Identifier shared by every span of this run.
    pub run_id: u64,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    origin: Instant,
    open: Vec<usize>,
}

impl Recorder {
    /// Starts a recorder; the caller picks the shared identifier.
    pub fn new(run_id: u64) -> Recorder {
        Recorder {
            run_id,
            spans: Vec::new(),
            origin: Instant::now(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: None,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` (and any span still open inside it, which only
    /// happens on an error path).
    pub fn exit(&mut self, index: usize) {
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == index {
                break;
            }
        }
    }

    /// Records `work` as a span.
    pub fn within<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let index = self.enter(name);
        let value = work();
        self.exit(index);
        value
    }

    /// Total self time of the spans named `name`, in nanoseconds: each
    /// span's duration minus the part its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(index, s)| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(index))
                    .map(Span::duration_ns)
                    .sum();
                s.duration_ns().saturating_sub(children)
            })
            .sum()
    }
}

/// A [`TraceSink`] that only counts events: the cheapest possible
/// consumer, so the sink-traced run measures the cost of *emitting*. The
/// count is shared so it can be read after the machine took the sink.
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    /// Events recorded so far.
    pub events: Rc<Cell<u64>>,
}

impl TraceSink for CountingSink {
    fn record(&mut self, _cycle: u64, _event: TraceEvent) {
        self.events.set(self.events.get() + 1);
    }
}

/// Everything [`measure`] found.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
    /// The chunked run's spans.
    pub recorder: Recorder,
    /// Runs put through the gate.
    pub attempted: u64,
    /// Runs that missed it (a digest that differs between the untraced,
    /// chunked, sink-traced and profiled runs is a miss).
    pub failed: u64,
}

/// Host cost of machine state at the mid-run point.
#[derive(Clone, Copy, Debug, Default)]
struct StateCost {
    bytes: usize,
    snapshot_s: f64,
    restore_s: f64,
}

fn step_failed(step: &str, error: &dyn Display) -> Vec<String> {
    vec![format!("{step}: {error}")]
}

/// Snapshots the live machine and restores it into itself
/// [`SNAPSHOT_REPS`] times; the run then continues from the restored state
/// and must still reproduce the untraced digest.
fn snapshot_round_trips(
    machine: &mut Machine,
    rec: &mut Recorder,
) -> Result<StateCost, Vec<String>> {
    let mut cost = StateCost {
        bytes: 0,
        snapshot_s: f64::INFINITY,
        restore_s: f64::INFINITY,
    };
    for _ in 0..SNAPSHOT_REPS {
        let id = rec.enter("sim.snapshot");
        let bytes = machine.snapshot();
        rec.exit(id);
        cost.snapshot_s = cost
            .snapshot_s
            .min(rec.spans[id].duration_ns() as f64 / 1e9);
        let id = rec.enter("sim.restore");
        let restored = machine.restore(&bytes);
        rec.exit(id);
        restored.map_err(|e| step_failed("restore", &e))?;
        cost.restore_s = cost.restore_s.min(rec.spans[id].duration_ns() as f64 / 1e9);
        cost.bytes = bytes.len();
    }
    Ok(cost)
}

/// The chunked, span-recorded run: every call into a layer is a span, the
/// run itself is [`RUN_CHUNKS`] `run_until` spans carrying the work done in
/// each, and the machine is snapshotted and restored half-way.
fn chunked_run(
    spec: &Spec,
    kernel: &dyn Workload,
    reference: &Outcome,
    rec: &mut Recorder,
) -> Result<StateCost, Vec<String>> {
    let program = rec.within("kernels.program", || kernel.program());
    let decoded = rec
        .within("sim.decode", || Machine::decode(&program))
        .map_err(|e| step_failed("decode", &e))?;
    let config = spec.config(kernel).map_err(|e| step_failed("config", &e))?;
    let mut machine = rec
        .within("sim.build", || Machine::with_decoded(config, decoded))
        .map_err(|e| step_failed("build", &e))?;
    rec.within("kernels.init", || kernel.init(&mut machine));

    let chunk = reference.cycles.div_ceil(RUN_CHUNKS).max(1);
    let mut done = Counts::default();
    let mut state = None;
    let mut target = 0;
    let summary = loop {
        target += chunk;
        let id = rec.enter("sim.run");
        let step = machine.run_until(target);
        rec.exit(id);
        let now = Counts::of(&machine.stats());
        rec.spans[id].counts = Some(now.since(done));
        done = now;
        let summary = step.map_err(|e| step_failed("run", &e))?;
        if summary.exit != ExitReason::TargetReached {
            break summary;
        }
        if state.is_none() && target >= reference.cycles / 2 {
            state = Some(snapshot_round_trips(&mut machine, rec)?);
        }
    };
    black_box(rec.within("sim.stats", || machine.stats()));
    rec.within("kernels.verify", || {
        e2e::gate(kernel, &machine, &summary, Some(reference.digest))
    })?;
    Ok(state.unwrap_or_default())
}

/// One run to completion with whatever `attach` attaches (nothing, for the
/// untraced base), gated against `reference` when there is one. The base
/// and the observed runs share this function so that they differ by the
/// observer alone: timed through different call sites, two *identical* runs
/// differed by 4-8 % on the sandbox, whichever ran first. Returns the
/// seconds inside `run()`, the machine and what it simulated.
fn observed_run(
    spec: &Spec,
    kernel: &dyn Workload,
    reference: Option<u64>,
    attach: impl FnOnce(&mut Machine),
) -> Result<(f64, Machine, Outcome), Vec<String>> {
    let mut machine = e2e::setup(spec, kernel).map_err(|e| vec![e])?;
    attach(&mut machine);
    let (result, record) = e2e::timed(|| machine.run());
    let summary = result.map_err(|e| step_failed("run", &e))?;
    let outcome = e2e::gate(kernel, &machine, &summary, reference)?;
    Ok((record.wall_s, machine, outcome))
}

/// What the interleaved rounds collected: the `run()` seconds of every
/// passing run of each kind, and what the fastest chunked and profiled
/// runs left behind.
#[derive(Default)]
struct Rounds {
    /// The first untraced run's outcome; every later run must reproduce it.
    reference: Option<Outcome>,
    base_s: Vec<f64>,
    chunked_s: Vec<f64>,
    sink_s: Vec<f64>,
    profiled_s: Vec<f64>,
    chunked: Option<(Recorder, StateCost)>,
    profile: Option<PhaseProfile>,
    events: u64,
}

/// The smallest sample (host noise only ever adds time); NaN when there is
/// none, which the document then reports as a defect.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Whether `seconds` beats every sample so far.
fn fastest_yet(samples: &[f64], seconds: f64) -> bool {
    samples.iter().all(|&s| seconds < s)
}

impl Traced {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// The value of an already measured metric (NaN when a failed step
    /// left it out; the document then reports the defect).
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// Counts a run through the gate; names its misses on stderr and
    /// returns what it produced when it passed.
    fn gated<T>(&mut self, spec: &Spec, label: &str, run: Result<T, Vec<String>>) -> Option<T> {
        self.attempted += 1;
        run.map_err(|misses| {
            self.failed += 1;
            for miss in misses {
                eprintln!("ledger: {}: {label}: {miss}", spec.name);
            }
        })
        .ok()
    }

    /// One round: an untraced run, then the chunked, sink-traced and
    /// profiled runs, back to back so all four see the same stretch of host
    /// time. Each observed run is gated against the first untraced outcome.
    fn round(&mut self, spec: &Spec, kernel: &dyn Workload, seed: u64, rounds: &mut Rounds) {
        let digest = rounds.reference.as_ref().map(|o| o.digest);
        let run = observed_run(spec, kernel, digest, |_| {});
        if let Some((seconds, _, outcome)) = self.gated(spec, "untraced run", run) {
            rounds.base_s.push(seconds);
            rounds.reference.get_or_insert(outcome);
        }
        let Some(reference) = rounds.reference.clone() else {
            return;
        };
        let digest = Some(reference.digest);

        let mut rec = Recorder::new(seed);
        let root = rec.enter(ROOT_SPAN);
        let run = chunked_run(spec, kernel, &reference, &mut rec);
        rec.exit(root);
        if let Some(state) = self.gated(spec, "chunked run", run) {
            let seconds = rec.self_ns("sim.run") as f64 / 1e9;
            if fastest_yet(&rounds.chunked_s, seconds) {
                rounds.chunked = Some((rec, state));
            }
            rounds.chunked_s.push(seconds);
        }

        let sink = CountingSink::default();
        let events = Rc::clone(&sink.events);
        let run = observed_run(spec, kernel, digest, |m| m.set_tracer(Box::new(sink)));
        if let Some((seconds, ..)) = self.gated(spec, "sink-traced run", run) {
            rounds.sink_s.push(seconds);
            rounds.events = events.get();
        }

        let run = observed_run(spec, kernel, digest, |m| {
            m.enable_profiler(ProfilerConfig::default());
        });
        if let Some((seconds, machine, _)) = self.gated(spec, "profiled run", run) {
            if fastest_yet(&rounds.profiled_s, seconds) {
                rounds.profile = machine.profile();
            }
            rounds.profiled_s.push(seconds);
        }
    }

    /// The observer overheads: best observed `run()` time over the best
    /// untraced one, both out of [`ROUNDS`] interleaved runs. The effect is
    /// a few percent and so is the host's noise, so the untraced runs' own
    /// worst-over-best spread is reported beside the ratios, and a ratio
    /// closer to 1 than that spread is named unresolved on stderr.
    fn overheads(&mut self, spec: &Spec, rounds: &Rounds) -> f64 {
        let base_s = best(&rounds.base_s);
        let spread = rounds.base_s.iter().copied().fold(base_s, f64::max) / base_s - 1.0;
        for (name, samples) in [
            ("ledger.trace_overhead_ratio", &rounds.chunked_s),
            ("trace.sink_overhead_ratio", &rounds.sink_s),
            ("telemetry.profiler_overhead_ratio", &rounds.profiled_s),
        ] {
            let ratio = best(samples) / base_s;
            if (ratio - 1.0).abs() < spread {
                eprintln!(
                    "ledger: {}: {name} {ratio:.4} is unresolved: the untraced runs themselves spread {spread:.4}",
                    spec.name
                );
            }
            self.push(name, ratio);
        }
        self.push("ledger.base_run_spread", spread);
        self.push("trace.events", rounds.events as f64);
        base_s
    }

    /// Span self times and the cost of machine state, from the fastest
    /// chunked run; its recorder becomes the document's span list.
    fn spans_and_state(&mut self, chunked: Option<(Recorder, StateCost)>) {
        let state = chunked.map_or_else(StateCost::default, |(recorder, state)| {
            self.recorder = recorder;
            state
        });
        for span in SPAN_NAMES {
            let self_ms = self.recorder.self_ns(span) as f64 / 1e6;
            self.push(format!("ledger.span_self_ms.{span}"), self_ms);
        }
        let mb = state.bytes as f64 / 1e6;
        self.push("sim.machine.snapshot_mb_per_s", mb / state.snapshot_s);
        self.push("sim.machine.restore_mb_per_s", mb / state.restore_s);
        self.push(
            "sim.machine.snapshot_mib",
            state.bytes as f64 / (1024.0 * 1024.0),
        );
    }

    /// The profiler's own phase shares, from the fastest profiled run.
    fn phase_shares(&mut self, profile: Option<&PhaseProfile>) {
        let mut named = 0.0;
        for phase in PROFILE_PHASES {
            let share = profile.map_or(f64::NAN, |p| {
                let ns: u64 = p
                    .phases
                    .iter()
                    .filter(|s| s.phase.name() == phase)
                    .map(|s| s.ns)
                    .sum();
                ns as f64 / p.sampled_ns.max(1) as f64
            });
            named += share;
            self.push(format!("telemetry.phase_share.{phase}"), share);
        }
        self.push("telemetry.phase_share.other", 1.0 - named);
    }

    /// The run's simulated counts (exact) and the layer model: unit costs
    /// from the probes times those counts, as shares of the untraced
    /// `run()` time. What the three shares leave is the residual —
    /// scheduler, merge and delivery work that no probe times yet.
    fn counts_and_model(&mut self, spec: &Spec, stats: &SimStats, run_s: f64) {
        let counts = Counts::of(stats);
        self.push("sim.count.instr", counts.instr as f64);
        self.push("sim.count.requests", counts.requests as f64);
        self.push("sim.count.hops", counts.hops as f64);
        let core_cycles = stats.total_active_cycles()
            + stats.total_stall_cycles()
            + stats.total_sleep_cycles()
            + stats.total_barrier_cycles();
        self.push(
            "sim.share.sleep",
            stats.total_sleep_cycles() as f64 / core_cycles.max(1) as f64,
        );
        // Useful outcomes per attempt: 1 when nothing was retried, which
        // includes a workload that attempts no sc/scwait at all.
        let a = &stats.adapters;
        let retried = a.sc_failure + a.scwait_failure + a.wait_failfast;
        let attempts = a.sc_success + a.scwait_success + retried;
        self.push(
            "core.sc_success_share",
            1.0 - retried as f64 / attempts.max(1) as f64,
        );

        let cpu_ns = self.value(match spec.cpu_mix {
            CpuMix::Alu => "sim.cpu.execute_ns_per_instr.alu",
            CpuMix::Branchy => "sim.cpu.execute_ns_per_instr.branchy",
        });
        let (adapter_probe, requests_per_unit) = match spec.adapter_op {
            AdapterOp::Amo => ("amo", 1.0),
            AdapterOp::LrscPair => ("lrsc_pair", 2.0),
            AdapterOp::WaitPair => ("wait_pair", 2.0),
        };
        let adapter_ns = self.value(&format!(
            "core.{}.handle_ns.{adapter_probe}",
            spec.arch_key()
        )) / requests_per_unit;
        let pattern = match spec.noc_pattern {
            NocPattern::Uniform => "uniform",
            NocPattern::Hotspot => "hotspot",
        };
        let noc_ns = self.value(&format!(
            "noc.advance_ns_per_hop.{}.{pattern}",
            spec.geometry_key()
        ));
        let run_ns = run_s * 1e9;
        let mut residual = 1.0;
        for (layer, units, unit_ns) in [
            ("core", counts.instr, cpu_ns),
            ("adapter", counts.requests, adapter_ns),
            ("noc", counts.hops, noc_ns),
        ] {
            let share = units as f64 * unit_ns / run_ns;
            residual -= share;
            self.push(format!("model.share.{layer}"), share);
        }
        self.push("model.residual_share", residual);
    }
}

/// The per-layer measurement of one workload: the layer probes, then
/// [`ROUNDS`] rounds of an untraced, a chunked, a sink-traced and a profiled
/// run — each of which must reproduce the first untraced digest — and the
/// layer model. Every gate miss is named on stderr. A `--smoke` run makes
/// two rounds, the fewest that have a spread.
pub fn measure(spec: &Spec, seed: u64, smoke: bool) -> Traced {
    let scale = if smoke { Scale::SMOKE } else { Scale::FULL };
    let mut traced = Traced {
        metrics: layers::run_all(seed, scale),
        recorder: Recorder::new(seed),
        attempted: 0,
        failed: 0,
    };
    let kernel = spec.kernel(smoke);
    let kernel = kernel.as_ref();

    let started = Instant::now();
    black_box(kernel.program());
    traced.push("kernels.program_us", started.elapsed().as_secs_f64() * 1e6);

    let mut rounds = Rounds::default();
    for _ in 0..if smoke { 2 } else { ROUNDS } {
        traced.round(spec, kernel, seed, &mut rounds);
    }
    if let Some(reference) = &rounds.reference {
        let base_s = traced.overheads(spec, &rounds);
        traced.spans_and_state(rounds.chunked.take());
        traced.phase_shares(rounds.profile.as_ref());
        traced.counts_and_model(spec, &reference.stats, base_s);
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(7);
        let root = rec.enter(ROOT_SPAN);
        let child = rec.enter("sim.run");
        rec.exit(child);
        rec.exit(root);
        // Pin the clock readings so the arithmetic is exact.
        rec.spans[root].start_ns = 0;
        rec.spans[root].end_ns = 100;
        rec.spans[child].start_ns = 10;
        rec.spans[child].end_ns = 70;
        assert_eq!(rec.spans[child].parent, Some(root));
        assert_eq!(rec.spans[root].parent, None);
        assert_eq!(rec.self_ns("sim.run"), 60);
        assert_eq!(rec.self_ns(ROOT_SPAN), 40);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut rec = Recorder::new(0);
        let root = rec.enter(ROOT_SPAN);
        let inner = rec.enter("sim.build");
        rec.exit(root);
        assert!(rec.spans[inner].end_ns >= rec.spans[inner].start_ns);
        assert_eq!(rec.enter("sim.run"), 2);
        assert_eq!(rec.spans[2].parent, None);
    }
}
