//! The end-to-end measurement: set-up batches, one warm-up repetition and a
//! fixed number of timed repetitions of `Machine::run()`, each passed
//! through the correctness gate.
//!
//! Tracing, profiling and chunking are all off here; `trace.rs` measures
//! them in separate runs and compares against these.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lrscwait_kernels::Workload;
use lrscwait_sim::{ExitReason, Machine, RunSummary, SimStats};

use crate::estimator::Summary;
use crate::host;
use crate::workloads::Spec;

/// Set-ups per timed batch: one set-up is well under a millisecond on the
/// 256-core geometry, too short to time alone. There is one batch per timed
/// repetition, and the metric is the best batch.
pub const SETUPS_PER_BATCH: usize = 64;
/// A repetition whose run-queue wait exceeds this share of its wall time
/// was disturbed by another process and is run again.
pub const DISTURBED_WAIT_SHARE: f64 = 0.02;
/// Extra repetitions granted to replace disturbed ones.
pub const MAX_EXTRA_REPS: usize = 3;
/// How many times its length a window may stay open waiting for undisturbed
/// repetitions.
pub const WINDOW_STRETCH: u32 = 2;
/// The most timed repetitions one invocation makes, however long its window:
/// a repetition that fails before `run()` costs no time, and must not spin
/// until the window closes.
pub const MAX_REPS: usize = 64;

/// Everything paid before `run`: assemble the kernel, decode it, build the
/// machine and initialise its memory.
///
/// # Errors
///
/// Returns a message naming the failing step (a ledger or simulator bug:
/// the workloads are fixed).
pub fn setup(spec: &Spec, kernel: &dyn Workload) -> Result<Machine, String> {
    let program = kernel.program();
    let decoded = Machine::decode(&program).map_err(|e| format!("{}: decode: {e}", spec.name))?;
    let config = spec
        .config(kernel)
        .map_err(|e| format!("{}: config: {e}", spec.name))?;
    let mut machine =
        Machine::with_decoded(config, decoded).map_err(|e| format!("{}: build: {e}", spec.name))?;
    kernel.init(&mut machine);
    Ok(machine)
}

/// FNV-1a over the cycle count and every counter of [`SimStats`]: two runs
/// with the same digest simulated the same machine history.
pub fn digest(cycles: u64, stats: &SimStats) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |value: u64| {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(cycles);
    for core in &stats.cores {
        for value in [
            core.instret,
            core.active_cycles,
            core.stall_cycles,
            core.sleep_cycles,
            core.barrier_cycles,
            core.ops,
            core.region_start.map_or(u64::MAX, |c| c),
            core.region_end.map_or(u64::MAX, |c| c),
        ] {
            feed(value);
        }
    }
    for net in [&stats.req_network, &stats.resp_network] {
        for value in [
            net.injected,
            net.inject_stalls,
            net.hops,
            net.delivered,
            net.hol_blocks,
        ] {
            feed(value);
        }
    }
    let a = &stats.adapters;
    for value in [
        a.requests,
        a.loads,
        a.stores,
        a.amos,
        a.sc_success,
        a.sc_failure,
        a.wait_enqueued,
        a.wait_failfast,
        a.scwait_success,
        a.scwait_failure,
        a.successor_updates,
        a.wakeups,
        a.reservations_broken,
    ] {
        feed(value);
    }
    hash
}

/// What one completed run simulated.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated cycles at exit.
    pub cycles: u64,
    /// Statistics at exit.
    pub stats: SimStats,
    /// [`digest`] of the two above.
    pub digest: u64,
}

/// The correctness gate: the run must end with every core halted, the
/// kernel's own verification must pass, the MMIO op counter must match, and
/// the digest must equal `reference` (the first run of this process) when
/// there is one.
///
/// # Errors
///
/// Returns one message per miss.
pub fn gate(
    kernel: &dyn Workload,
    machine: &Machine,
    summary: &RunSummary,
    reference: Option<u64>,
) -> Result<Outcome, Vec<String>> {
    let mut misses = Vec::new();
    if summary.exit != ExitReason::AllHalted {
        misses.push(format!(
            "run ended with {:?} at cycle {}, not AllHalted",
            summary.exit, summary.cycles
        ));
    }
    if let Err(e) = kernel.verify(machine) {
        misses.push(format!("verify: {e}"));
    }
    let stats = machine.stats();
    if let Some(expected) = kernel.expected_ops() {
        let actual = stats.total_ops();
        if actual != expected {
            misses.push(format!("op counter: expected {expected}, found {actual}"));
        }
    }
    let digest = digest(summary.cycles, &stats);
    if let Some(reference) = reference {
        if digest != reference {
            misses.push(format!(
                "digest {digest:016x} differs from the first run's {reference:016x}"
            ));
        }
    }
    if misses.is_empty() {
        Ok(Outcome {
            cycles: summary.cycles,
            stats,
            digest,
        })
    } else {
        Err(misses)
    }
}

/// Host-side record of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Wall time of `Machine::run()`.
    pub wall_s: f64,
    /// Time the thread sat runnable without a CPU during it, when the
    /// host reports it.
    pub runqueue_wait_s: Option<f64>,
    /// Whether the wait exceeded [`DISTURBED_WAIT_SHARE`] of the wall time.
    pub disturbed: bool,
}

/// Times `work`, recording run-queue wait beside wall time.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Rep) {
    let wait_before = host::runqueue_wait_ns();
    let started = Instant::now();
    let result = work();
    let wall_s = started.elapsed().as_secs_f64();
    let runqueue_wait_s = match (wait_before, host::runqueue_wait_ns()) {
        (Some(before), Some(after)) => Some(after.saturating_sub(before) as f64 / 1e9),
        _ => None,
    };
    let disturbed = runqueue_wait_s.is_some_and(|w| w > DISTURBED_WAIT_SHARE * wall_s);
    (
        result,
        Rep {
            wall_s,
            runqueue_wait_s,
            disturbed,
        },
    )
}

/// One untraced repetition: set up, time `run()`, gate. A simulator or
/// set-up error is a gate miss too; a repetition that misses has no timing.
///
/// # Errors
///
/// Returns one message per miss.
pub fn rep(
    spec: &Spec,
    kernel: &dyn Workload,
    reference: Option<u64>,
) -> Result<(Rep, Outcome), Vec<String>> {
    let mut machine = setup(spec, kernel).map_err(|e| vec![e])?;
    let (result, record) = timed(|| machine.run());
    let summary = result.map_err(|e| vec![format!("simulator error: {e}")])?;
    let outcome = gate(kernel, &machine, &summary, reference)?;
    Ok((record, outcome))
}

/// Result of [`measure`].
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Per-set-up seconds of each timed batch.
    pub setup_s: Summary,
    /// `run()` seconds of each passing timed repetition; `None` when none
    /// passed.
    pub run_s: Option<Summary>,
    /// The passing timed repetitions, in order (disturbed ones included).
    pub reps: Vec<Rep>,
    /// The simulated outcome shared by every passing repetition, if any
    /// passed.
    pub outcome: Option<Outcome>,
    /// Repetitions run through the gate (warm-up included).
    pub attempted: u64,
    /// Repetitions that missed the gate.
    pub failed: u64,
    /// How many timed repetitions were disturbed.
    pub disturbed_reps: u64,
}

/// Times one batch of `count` set-ups (each built and dropped) and returns
/// seconds per set-up.
fn setup_batch(spec: &Spec, kernel: &dyn Workload, count: usize) -> f64 {
    let started = Instant::now();
    for _ in 0..count {
        // A set-up failure resurfaces in the repetitions, where it is
        // counted and named.
        drop(black_box(setup(spec, kernel)));
    }
    started.elapsed().as_secs_f64() / count as f64
}

/// Runs the end-to-end measurement of one workload: one untimed set-up
/// batch and one untimed warm-up repetition, then timed repetitions, each
/// preceded by a timed batch of [`SETUPS_PER_BATCH`] set-ups. Interleaving
/// the batches with the repetitions makes `setup_s` sample the same stretch
/// of host time as `run_s`: the sandbox slows down for tens of seconds at a
/// time, and a set-up measured once at process start inherits whatever
/// state the host is in at that moment.
///
/// Without a `window` there are `reps` timed repetitions, plus up to
/// [`MAX_EXTRA_REPS`] replacements for disturbed ones. With one,
/// repetitions go on until that much time has passed since the first timed
/// one started: a repetition stays a fixed amount of work, and the window
/// only decides over how long a stretch of host time the best one is sought
/// -- long enough to outlast the host's slow phases, which a fixed count of
/// nine could not (whole 18-second invocations read half as fast again).
/// A window that has not yet held `reps` undisturbed repetitions stays open
/// up to [`WINDOW_STRETCH`] times its length: two busy neighbours on this
/// two-CPU host cost exactly that half again, every repetition they touch
/// is marked disturbed, and waiting them out is the only way to a clean one.
/// Every gate miss is named on stderr. A `--smoke` run is one set-up and
/// one repetition of the 1/64-size kernel.
pub fn measure(spec: &Spec, smoke: bool, reps: usize, window: Option<Duration>) -> EndToEnd {
    let (reps, per_batch, window) = if smoke {
        (1, 1, None)
    } else {
        (reps, SETUPS_PER_BATCH, window)
    };
    let kernel = spec.kernel(smoke);
    let kernel = kernel.as_ref();

    let mut attempted = 0;
    let mut failed = 0;
    let mut reference: Option<Outcome> = None;
    let mut gated = |label: &str| {
        attempted += 1;
        match rep(spec, kernel, reference.as_ref().map(|o| o.digest)) {
            Ok((record, outcome)) => {
                reference.get_or_insert(outcome);
                Some(record)
            }
            Err(misses) => {
                failed += 1;
                for miss in misses {
                    eprintln!("ledger: {}: {label}: {miss}", spec.name);
                }
                None
            }
        }
    };

    if !smoke {
        setup_batch(spec, kernel, per_batch);
        gated("warm-up");
    }
    let mut setup_samples = Vec::new();
    let mut records = Vec::new();
    let mut clean = 0;
    let started = Instant::now();
    for attempt in 1..=MAX_REPS {
        let gave_up = attempt > reps + MAX_EXTRA_REPS;
        let done = match (window, started.elapsed()) {
            (None, _) => clean >= reps || gave_up,
            (Some(w), elapsed) => {
                elapsed >= w && (clean >= reps || (gave_up && elapsed >= w * WINDOW_STRETCH))
            }
        };
        if done {
            break;
        }
        setup_samples.push(setup_batch(spec, kernel, per_batch));
        if let Some(record) = gated(&format!("rep {attempt}")) {
            clean += usize::from(!record.disturbed);
            records.push(record);
        }
    }

    let walls: Vec<f64> = records.iter().map(|r| r.wall_s).collect();
    EndToEnd {
        setup_s: Summary::of(&setup_samples),
        run_s: (!walls.is_empty()).then(|| Summary::of(&walls)),
        disturbed_reps: records.iter().filter(|r| r.disturbed).count() as u64,
        reps: records,
        outcome: reference,
        attempted,
        failed,
    }
}
