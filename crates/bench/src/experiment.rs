//! One workload run against one machine configuration: [`Experiment`], the
//! [`Measurement`] it produces and the [`BenchError`] it can fail with.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lrscwait_kernels::{VerifyError, Workload};
use lrscwait_sim::{
    ConfigError, ExitReason, Machine, PhaseProfile, ProfilerConfig, RunSummary, SimConfig,
    SimError, SimStats, NUM_ARGS,
};
use lrscwait_trace::{AnalysisSink, FanoutSink, SharedSink, SyncAnalysis, TraceSink};

use crate::heartbeat::Heartbeat;
use crate::report::fmt_tp;

/// Everything that can go wrong while producing a benchmark number.
///
/// The harness is `Result`-based end to end: a failed experiment surfaces
/// as a typed error instead of a panic, so sweeps can report *which* point
/// failed and runners can decide what to do about it.
#[derive(Debug)]
pub enum BenchError {
    /// The simulator configuration was rejected.
    Config(ConfigError),
    /// The machine could not be built or the program could not load.
    Load(SimError),
    /// The simulation itself faulted (kernel bug).
    Run(SimError),
    /// The watchdog fired before every core halted — a DNF point.
    Watchdog {
        /// Label of the offending experiment.
        label: String,
        /// Cycle count when the watchdog fired.
        cycles: u64,
        /// Why the point did not finish: which part of the machine was
        /// still live when the budget ran out.
        reason: String,
    },
    /// The run completed but computed wrong results.
    Verify {
        /// Label of the offending experiment.
        label: String,
        /// What was wrong.
        source: VerifyError,
    },
    /// A required measurement point is missing from a sweep result.
    MissingPoint {
        /// Series label searched for.
        series: String,
        /// X value searched for.
        x: u32,
    },
    /// An expected measurement (region cycles, throughput) was not taken.
    MissingMeasurement {
        /// Label of the offending experiment.
        label: String,
        /// What was missing.
        what: &'static str,
    },
    /// A quantitative claim about the results did not hold.
    ClaimFailed(String),
    /// Results could not be written.
    Io {
        /// Path being written.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// A CSV row whose field count differs from the header's (it would
    /// shift every later column); nothing was written.
    RaggedRow(String),
    /// Bad command-line usage.
    Usage(String),
    /// `-h`/`--help` was requested (not a failure; the binaries print the
    /// text to stdout and exit 0).
    Help,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Config(e) => write!(f, "invalid configuration: {e}"),
            BenchError::Load(e) => write!(f, "failed to load program: {e}"),
            BenchError::Run(e) => write!(f, "simulation faulted: {e}"),
            BenchError::Watchdog {
                label,
                cycles,
                reason,
            } => write!(
                f,
                "{label}: watchdog fired after {cycles} cycles ({reason})"
            ),
            BenchError::Verify { label, source } => {
                write!(f, "{label}: verification failed: {source}")
            }
            BenchError::MissingPoint { series, x } => {
                write!(f, "sweep produced no measurement for {series} at x={x}")
            }
            BenchError::MissingMeasurement { label, what } => {
                write!(f, "{label}: run produced no {what}")
            }
            BenchError::ClaimFailed(msg) => write!(f, "claim failed: {msg}"),
            BenchError::Io { path, source } => write!(f, "{path}: {source}"),
            BenchError::RaggedRow(msg) | BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::Help => write!(f, "help requested"),
        }
    }
}

impl BenchError {
    /// A `map_err` adapter: an I/O error on `path` as [`BenchError::Io`].
    pub fn io(path: &Path) -> impl Fn(std::io::Error) -> BenchError + Copy + '_ {
        move |source| BenchError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Config(e) => Some(e),
            BenchError::Load(e) | BenchError::Run(e) => Some(e),
            BenchError::Verify { source, .. } => Some(source),
            BenchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ConfigError> for BenchError {
    fn from(e: ConfigError) -> BenchError {
        BenchError::Config(e)
    }
}

/// A measured throughput point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Series label (legend entry).
    pub label: String,
    /// X value (bins, cores, …).
    pub x: u32,
    /// Aggregate throughput in operations per cycle (0 when the workload
    /// counts no ops).
    pub throughput: f64,
    /// Slowest per-core throughput (fairness band).
    pub lo: f64,
    /// Fastest per-core throughput (fairness band).
    pub hi: f64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Host wall-clock seconds spent inside [`Machine::run`] (simulator
    /// throughput reporting; deliberately excluded from the CSV so result
    /// files stay byte-deterministic).
    pub host_seconds: f64,
    /// Full statistics (for the energy model and diagnostics).
    pub stats: SimStats,
    /// Host-side phase profile of the run (`None` unless the experiment
    /// was [`profiled`](Experiment::profiled)). Excluded from the CSV —
    /// host timings are not deterministic.
    pub profile: Option<PhaseProfile>,
    /// Synchronization analysis of the run's event stream — lock handoff
    /// latency distribution, wait-queue occupancy, SC-failure causes —
    /// (`None` unless the experiment was [`traced`](Experiment::traced)).
    pub analysis: Option<SyncAnalysis>,
}

impl Measurement {
    /// The standard figure CSV row:
    /// `[label, x, throughput, lo, hi, cycles, stall_cycles]`.
    #[must_use]
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            self.x.to_string(),
            fmt_tp(self.throughput),
            fmt_tp(self.lo),
            fmt_tp(self.hi),
            self.cycles.to_string(),
            self.stats.total_stall_cycles().to_string(),
        ]
    }

    /// `(label, x)`, the key a figure's claims look a point up by.
    #[must_use]
    pub fn key(&self) -> (&str, u32) {
        (&self.label, self.x)
    }

    /// Longest measured-region length among `cores`, when every one of them
    /// wrote both region markers (e.g. the worker partition of the matmul
    /// interference workload).
    #[must_use]
    pub fn max_region_cycles(&self, cores: std::ops::Range<usize>) -> Option<u64> {
        self.stats.cores.get(cores).and_then(|slice| {
            slice
                .iter()
                .map(lrscwait_sim::CoreStats::region_cycles)
                .collect::<Option<Vec<_>>>()
                .and_then(|v| v.into_iter().max())
        })
    }
}

/// One workload run against one machine configuration.
///
/// Builder-style: construct with [`Experiment::new`], optionally attach a
/// series [`label`](Experiment::label) and [`x`](Experiment::x) value, then
/// [`run`](Experiment::run). The run loads the program, applies the
/// workload's MMIO arguments and memory initialization, simulates to
/// completion, enforces the watchdog, and functionally verifies the result
/// — no benchmark number without a correct run:
///
/// ```
/// use lrscwait_bench::Experiment;
/// use lrscwait_core::SyncArch;
/// use lrscwait_kernels::{HistImpl, HistogramKernel};
/// use lrscwait_sim::SimConfig;
///
/// # fn main() -> Result<(), lrscwait_bench::BenchError> {
/// let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 16, 4);
/// let cfg = SimConfig::builder()
///     .cores(4)
///     .arch(SyncArch::Lrsc)
///     .build()?;
/// let m = Experiment::new(&kernel, cfg).label("amoadd").x(4).run()?;
/// assert_eq!(m.label, "amoadd");
/// assert!(m.throughput > 0.0); // 64 verified increments happened
/// # Ok(())
/// # }
/// ```
pub struct Experiment<'w> {
    workload: &'w dyn Workload,
    cfg: SimConfig,
    label: Option<String>,
    x: u32,
    sink: Option<Box<dyn TraceSink>>,
    profile: bool,
    traced: bool,
    heartbeat: Option<(u64, Option<PathBuf>)>,
    inspect: Option<InspectHook<'w>>,
}

/// Post-verify machine hook (see [`Experiment::inspect`]).
type InspectHook<'w> = Box<dyn FnOnce(&Machine) + 'w>;

impl<'w> Experiment<'w> {
    /// Pairs a workload with a machine configuration.
    #[must_use]
    pub fn new(workload: &'w dyn Workload, cfg: SimConfig) -> Experiment<'w> {
        Experiment {
            workload,
            cfg,
            label: None,
            x: 0,
            sink: None,
            profile: false,
            traced: false,
            heartbeat: None,
            inspect: None,
        }
    }

    /// Overrides the series label (default: the workload's own label).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Experiment<'w> {
        self.label = Some(label.into());
        self
    }

    /// Sets the x-axis value recorded in the measurement.
    #[must_use]
    pub fn x(mut self, x: u32) -> Experiment<'w> {
        self.x = x;
        self
    }

    /// Enables the host-side phase profiler for this run; the
    /// [`Measurement`] then carries a [`PhaseProfile`]. Profiling is
    /// strictly host-side — results are bit-identical to an unprofiled
    /// run (the sim crate's differential suite proves it).
    #[must_use]
    pub fn profiled(mut self) -> Experiment<'w> {
        self.profile = true;
        self
    }

    /// Attaches an [`AnalysisSink`] for this run; the [`Measurement`] then
    /// carries the derived [`SyncAnalysis`]. Tracing only observes —
    /// results are bit-identical to an untraced run.
    #[must_use]
    pub fn traced(mut self) -> Experiment<'w> {
        self.traced = true;
        self
    }

    /// Emits a heartbeat progress line to stderr every `secs` seconds
    /// while the run executes (and appends an NDJSON record to
    /// `ndjson` when given): cycles simulated against the watchdog
    /// budget, live Mcycles/s and ETA. Implemented by
    /// chunking the run through [`Machine::run_until`], which is
    /// transparent — results stay bit-identical to an uninterrupted run.
    #[must_use]
    pub fn heartbeat(mut self, secs: u64, ndjson: Option<PathBuf>) -> Experiment<'w> {
        self.heartbeat = Some((secs.max(1), ndjson));
        self
    }

    /// Registers a closure that receives the finished, *verified* machine
    /// just before [`run`](Experiment::run) returns. `run` consumes the
    /// machine, so this is the hook for workloads whose guest memory
    /// carries measurements beyond the standard [`Measurement`] fields —
    /// e.g. the RCU kernel's per-sync grace-period cycle stamps. The hook
    /// only observes (`&Machine`); it cannot change the result.
    #[must_use]
    pub fn inspect(mut self, hook: impl FnOnce(&Machine) + 'w) -> Experiment<'w> {
        self.inspect = Some(Box::new(hook));
        self
    }

    /// Attaches a trace sink for this run (see `lrscwait-trace`).
    /// Tracing never changes results — the measurement is bit-identical
    /// to an untraced run. Hand in a [`SharedSink`] clone to read the
    /// sink back afterwards (e.g. a `PerfettoSink`, whose `finish`
    /// closes the document and returns the event count), or use the
    /// [`traced`](Experiment::traced) convenience.
    ///
    /// Calling this more than once (directly, or implicitly through
    /// `traced`) fans the event stream out to every attached sink — a
    /// second sink never silently replaces the first.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Experiment<'w> {
        self.sink = Some(match self.sink {
            Some(existing) => Box::new(FanoutSink::new().with(existing).with(sink)),
            None => sink,
        });
        self
    }

    /// Runs the experiment to completion.
    ///
    /// # Errors
    ///
    /// * [`BenchError::Config`] — workload arguments outside the MMIO window
    ///   or an inconsistent machine configuration;
    /// * [`BenchError::Load`] — the program image does not fit or decode;
    /// * [`BenchError::Run`] — the simulation faulted;
    /// * [`BenchError::Watchdog`] — not every core halted in time;
    /// * [`BenchError::Verify`] — the computation produced wrong results,
    ///   including a mismatched MMIO op count;
    /// * [`BenchError::Io`] — a [`heartbeat`](Experiment::heartbeat)
    ///   NDJSON file could not be written.
    pub fn run(mut self) -> Result<Measurement, BenchError> {
        let analysis = self.traced.then(|| SharedSink::new(AnalysisSink::new()));
        if let Some(analysis) = &analysis {
            self = self.sink(Box::new(analysis.clone()));
        }
        let label = self.label.unwrap_or_else(|| self.workload.label());
        let mut cfg = self.cfg;
        for (i, value) in self.workload.args() {
            if i >= NUM_ARGS {
                return Err(BenchError::Config(ConfigError::ArgIndexOutOfRange {
                    index: i,
                }));
            }
            cfg.args[i] = value;
        }
        let program = self.workload.program();
        let budget = cfg.max_cycles;
        let mut machine = Machine::new(cfg, &program).map_err(|e| match e {
            SimError::Config(e) => BenchError::Config(e),
            e => BenchError::Load(e),
        })?;
        if let Some(sink) = self.sink {
            machine.set_tracer(sink);
        }
        if self.profile {
            machine.enable_profiler(ProfilerConfig::default());
        }
        self.workload.init(&mut machine);
        let started = Instant::now();
        let summary = match &self.heartbeat {
            Some((secs, ndjson)) => {
                run_with_heartbeat(&mut machine, &label, *secs, ndjson.as_deref(), budget)?
            }
            None => machine.run().map_err(BenchError::Run)?,
        };
        let host_seconds = started.elapsed().as_secs_f64();
        let profile = machine.profile();
        if summary.exit != ExitReason::AllHalted {
            let live = machine.cores() - machine.halted_cores();
            return Err(BenchError::Watchdog {
                label,
                cycles: summary.cycles,
                reason: format!(
                    "{live} of {} cores never halted within the {budget}-cycle budget",
                    machine.cores()
                ),
            });
        }
        self.workload
            .verify(&machine)
            .map_err(|source| BenchError::Verify {
                label: label.clone(),
                source,
            })?;
        let stats = machine.stats();
        if let Some(expected) = self.workload.expected_ops() {
            let actual = stats.total_ops();
            if actual != expected {
                return Err(BenchError::Verify {
                    label,
                    source: VerifyError::Conservation {
                        what: "MMIO op counter",
                        expected,
                        actual,
                    },
                });
            }
        }
        if let Some(hook) = self.inspect {
            hook(&machine);
        }
        let (lo, hi) = stats.throughput_range().unwrap_or((0.0, 0.0));
        Ok(Measurement {
            label,
            x: self.x,
            throughput: stats.throughput().unwrap_or(0.0),
            lo,
            hi,
            cycles: summary.cycles,
            host_seconds,
            stats,
            profile,
            analysis: analysis.map(|shared| shared.take().finish()),
        })
    }
}

/// Runs a machine to completion in [`Machine::run_until`] chunks,
/// emitting a heartbeat line every `secs` seconds. Chunking is
/// transparent (see `run_until`), so results are bit-identical to one
/// uninterrupted [`Machine::run`]; the chunk size adapts toward a
/// quarter of the heartbeat interval so beats land close to schedule
/// without a per-cycle clock read.
fn run_with_heartbeat(
    machine: &mut Machine,
    label: &str,
    secs: u64,
    ndjson: Option<&Path>,
    budget: u64,
) -> Result<RunSummary, BenchError> {
    let interval = Duration::from_secs(secs.max(1));
    let mut heartbeat = Heartbeat::new(label, interval, budget);
    let mut chunk: u64 = 100_000;
    loop {
        let target = machine.cycles().saturating_add(chunk);
        let chunk_started = Instant::now();
        let summary = machine.run_until(target).map_err(BenchError::Run)?;
        if summary.exit != ExitReason::TargetReached {
            return Ok(summary);
        }
        let chunk_secs = chunk_started.elapsed().as_secs_f64();
        if chunk_secs > 0.0 {
            let per_sec = chunk as f64 / chunk_secs;
            let desired = per_sec * interval.as_secs_f64() / 4.0;
            chunk = (desired as u64).clamp(10_000, 1_000_000_000);
        }
        let now = Instant::now();
        if heartbeat.due(now) {
            let line = heartbeat.beat(now, machine.cycles());
            eprintln!("{}", line.render_text());
            if let Some(path) = ndjson {
                use std::io::Write as _;
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(BenchError::io(path))?;
                writeln!(file, "{}", line.render_ndjson()).map_err(BenchError::io(path))?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_kernels::{
        HistImpl, HistogramKernel, MatmulKernel, PollerKind, QueueImpl, QueueKernel,
    };
    use lrscwait_sim::ExecMode;

    #[test]
    fn histogram_experiment_small() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(8).run().unwrap();
        assert!(m.throughput > 0.0);
        assert!(m.lo <= m.hi);
        assert_eq!(m.stats.total_ops(), 32);
        assert_eq!(m.label, "Atomic Add");
        assert_eq!(m.x, 8);
    }

    #[test]
    fn queue_experiment_small() {
        let arch = SyncArch::Colibri { queues: 4 };
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).run().unwrap();
        assert!(m.throughput > 0.0);
        assert_eq!(m.stats.total_ops(), 64);
    }

    #[test]
    fn matmul_experiment_small() {
        let arch = SyncArch::Lrsc;
        let kernel = MatmulKernel::new(8, 2, 4, PollerKind::Idle);
        let cfg = SimConfig::builder().cores(4).arch(arch).build().unwrap();
        let m = Experiment::new(&kernel, cfg).run().unwrap();
        let cycles = m.max_region_cycles(0..2).unwrap();
        assert!(cycles > 100);
        // Verification ran: the result matrix was checked against init().
    }

    #[test]
    fn experiment_label_override() {
        let cfg = SimConfig::builder().cores(2).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 4, 2);
        let m = Experiment::new(&kernel, cfg)
            .label("Roofline")
            .x(4)
            .run()
            .unwrap();
        assert_eq!(m.label, "Roofline");
    }

    #[test]
    fn watchdog_is_typed_error() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Lrsc)
            .max_cycles(50)
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 64, 4);
        let err = Experiment::new(&kernel, cfg).run().unwrap_err();
        assert!(matches!(err, BenchError::Watchdog { .. }), "{err}");
    }

    #[test]
    fn reference_mode_is_bit_identical() {
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(SyncArch::Colibri { queues: 2 })
            .build()
            .unwrap();
        let kernel = HistogramKernel::new(HistImpl::LrscWait, 2, 8, 4);
        let fast = Experiment::new(&kernel, cfg).x(2).run().unwrap();
        let mut reference_cfg = cfg;
        reference_cfg.exec_mode = ExecMode::Reference;
        let reference = Experiment::new(&kernel, reference_cfg).x(2).run().unwrap();
        assert_eq!(fast.cycles, reference.cycles);
        assert_eq!(fast.stats, reference.stats);
        assert_eq!(fast.csv_row(), reference.csv_row());
    }

    #[test]
    fn measurement_reports_host_time_and_stalls() {
        let cfg = SimConfig::builder().cores(4).build().unwrap();
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 4, 8, 4);
        let m = Experiment::new(&kernel, cfg).x(4).run().unwrap();
        assert!(m.host_seconds > 0.0, "run must be timed");
        let row = m.csv_row();
        assert_eq!(row.len(), 7, "stall column present");
        assert_eq!(row[6], m.stats.total_stall_cycles().to_string());
    }
}
