//! perf_smoke — simulator-performance smoke test and regression guard.
//!
//! Three measurements on the paper's full 256-core MemPool geometry:
//!
//! 1. **Production stepper vs reference** on the mostly-sleeping Colibri
//!    queue (every core contending on one LRSCwait-owned queue, so at any
//!    instant almost the whole machine is asleep in hardware wait
//!    queues): verifies bit-identical results and holds the O(issue
//!    events) stepper to a **5x** wall-clock bar over the naive reference
//!    (enforced unless `--quick`, which is wall-clock-noise dominated).
//!    Per-regime stepper cost is tracked by the `ledger` benchmark
//!    (`busy_loop_256`, `hist_spread_256`, `queue_sleep_256`), not here.
//! 2. **Sharded vs single-sharded** on the same queue scenario: verifies
//!    the bank-sharded worker pool is bit-identical too, and reports its
//!    throughput. (This scenario has little per-cycle parallelism by
//!    design — it exists to prove sharding never corrupts the
//!    mostly-asleep fast path.)
//! 3. **Sharded vs single-sharded** on a busy scenario (all 256 cores
//!    hammering a 1024-bin histogram, heavy per-cycle bank service):
//!    the configuration sharding is *for*. The speedup is printed and
//!    recorded in `BENCH_sim.json`; by default it is only enforced when
//!    the host actually has `>= shards` CPUs (a single-CPU container
//!    cannot demonstrate parallel speedup, and dev hosts vary).
//!
//! Every speedup bar prints the detected host CPU count and an explicit
//! `ENFORCED`/`SKIPPED`/`informational` decision, so a CI log always
//! says *why* a bar did or did not gate the run. With
//! `--enforce-sharded` (the CI bench-smoke job on 4-vCPU hosted
//! runners), skipping is turned into failure: the host must have
//! `>= shards` CPUs and the busy speedup must clear the **2x** bar —
//! the scaled-up claim the sharded machine was built for. The
//! mostly-sleeping queue speedup stays informational under every flag:
//! an almost-entirely-parked machine has too little per-cycle work to
//! parallelize, so a bar there would measure the pool's overhead, not
//! its benefit.
//!
//! With `--baseline FILE` (CI), the measured `sim_cycles_per_sec` is
//! compared against the committed baseline and the run fails when
//! throughput drops more than 2x below it.

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, write_bench_json, BenchArgs, BenchError, Experiment, Measurement, PerfSummary,
};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel};
use lrscwait_sim::SimConfig;

/// Shard count exercised by the parallel smoke.
const SHARDS: usize = 4;

fn main() -> ExitCode {
    lrscwait_bench::run_main("perf_smoke", run)
}

fn report(name: &str, m: &Measurement) {
    eprintln!(
        "perf_smoke: {name}: {} cycles in {:.3}s ({:.2} Mcycles/s)",
        m.cycles,
        m.host_seconds,
        m.sim_cycles_per_sec() / 1e6
    );
}

fn speedup(base: &Measurement, improved: &Measurement) -> f64 {
    if improved.host_seconds > 0.0 {
        base.host_seconds / improved.host_seconds
    } else {
        0.0
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let iters = if args.quick { 4 } else { 64 };
    let cores = 256;
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cfg = SimConfig::builder()
        .mempool()
        .arch(SyncArch::Colibri { queues: 4 })
        .max_cycles(100_000_000)
        .build()?;
    let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, iters, cores);

    // 1. Production stepper vs reference on the mostly-sleeping queue.
    eprintln!("perf_smoke: {cores}-core Colibri queue, {iters} iterations/core");
    let fast = Experiment::new(&kernel, cfg)
        .label("translated")
        .x(cores)
        .run()?;
    report("translated  ", &fast);
    let reference = Experiment::new(&kernel, cfg)
        .label("reference")
        .x(cores)
        .reference()
        .run()?;
    report("reference   ", &reference);

    check_claim(
        fast.cycles == reference.cycles && fast.stats == reference.stats,
        "translated and reference runs must be bit-identical",
    )?;

    let reference_speedup = speedup(&reference, &fast);
    println!(
        "perf_smoke: translated vs reference on mostly-sleeping {cores} cores: \
         {reference_speedup:.1}x"
    );

    // 2. Sharded worker pool on the same mostly-sleeping scenario:
    // bit-identity is the hard requirement, throughput is informational
    // (a mostly-asleep machine has little per-cycle work to parallelize).
    let sharded_cfg = SimConfig::builder()
        .mempool()
        .arch(SyncArch::Colibri { queues: 4 })
        .max_cycles(100_000_000)
        .shards(SHARDS)
        .build()?;
    let sharded = Experiment::new(&kernel, sharded_cfg)
        .label("sharded")
        .x(cores)
        .run()?;
    report("sharded     ", &sharded);
    check_claim(
        fast.cycles == sharded.cycles && fast.stats == sharded.stats,
        "sharded and single-sharded runs must be bit-identical",
    )?;
    let queue_sharded_speedup = speedup(&fast, &sharded);
    println!(
        "perf_smoke: sharded_queue_speedup bar: informational (host has {parallelism} CPUs): \
         {SHARDS}-shard vs 1-shard on mostly-sleeping {cores} cores = \
         {queue_sharded_speedup:.2}x — this scenario exists to prove bit-identity, \
         not parallel speedup"
    );

    // 3. Sharded worker pool on the busy histogram: per-cycle bank
    // service and core stepping dominate — the work sharding targets.
    // Under --enforce-sharded the measurement gates CI, so always use the
    // full-length run there: tiny --quick runs are wall-clock-noise
    // dominated and would make the 2x bar flaky.
    let busy_iters = if args.quick && !args.enforce_sharded {
        32
    } else {
        512
    };
    let busy_kernel = HistogramKernel::new(HistImpl::AmoAdd, 1024, busy_iters, cores);
    let busy_cfg = |shards: usize| {
        SimConfig::builder()
            .mempool()
            .arch(SyncArch::Lrsc)
            .shards(shards)
            .build()
    };
    eprintln!("perf_smoke: busy scenario: {cores}-core 1024-bin histogram, {busy_iters} iters");
    let busy_single = Experiment::new(&busy_kernel, busy_cfg(1)?)
        .label("busy 1-shard")
        .x(cores)
        .run()?;
    report("busy 1-shard", &busy_single);
    let busy_sharded = Experiment::new(&busy_kernel, busy_cfg(SHARDS)?)
        .label("busy sharded")
        .x(cores)
        .run()?;
    report("busy sharded", &busy_sharded);
    check_claim(
        busy_single.cycles == busy_sharded.cycles && busy_single.stats == busy_sharded.stats,
        "busy sharded and single-sharded runs must be bit-identical",
    )?;
    let busy_sharded_speedup = speedup(&busy_single, &busy_sharded);
    println!(
        "perf_smoke: {SHARDS}-shard vs 1-shard on busy {cores} cores: \
         {busy_sharded_speedup:.2}x (host has {parallelism} CPUs)"
    );

    // 4. Phase-profiler overhead on the headline queue scenario: the
    // sampled profiler must keep throughput within 5% of the unprofiled
    // run (and, as always, leave the simulated results bit-identical).
    // Host wall clocks are noisy on shared runners, so the overhead
    // check takes the best of up to three profiled attempts before
    // judging — noise only ever makes the profiled run look *slower*.
    let mut queue_profiled = Experiment::new(&kernel, cfg)
        .label("queue profiled")
        .x(cores)
        .profiled()
        .run()?;
    for _ in 0..2 {
        if queue_profiled.host_seconds <= fast.host_seconds * 1.05 {
            break;
        }
        let retry = Experiment::new(&kernel, cfg)
            .label("queue profiled")
            .x(cores)
            .profiled()
            .run()?;
        if retry.host_seconds < queue_profiled.host_seconds {
            queue_profiled = retry;
        }
    }
    report("queue profiled", &queue_profiled);
    check_claim(
        fast.cycles == queue_profiled.cycles && fast.stats == queue_profiled.stats,
        "profiled and unprofiled queue runs must be bit-identical",
    )?;
    let profiler_overhead = if fast.host_seconds > 0.0 {
        queue_profiled.host_seconds / fast.host_seconds - 1.0
    } else {
        0.0
    };
    println!(
        "perf_smoke: profiler overhead on mostly-sleeping {cores} cores: \
         {:.1}% (bar: <= 5%)",
        profiler_overhead * 100.0
    );

    // 5. Profiled sharded busy run: the per-phase breakdown and worker
    // utilization that land in BENCH_sim.json (and, with --profile, in
    // perf_smoke.profile.json). Bit-identity against the unprofiled
    // single-shard run closes the loop: profiling a sharded machine
    // changes nothing either.
    let busy_profiled = Experiment::new(&busy_kernel, busy_cfg(SHARDS)?)
        .label("busy sharded profiled")
        .x(cores)
        .profiled()
        .run()?;
    report("busy sharded profiled", &busy_profiled);
    check_claim(
        busy_single.cycles == busy_profiled.cycles && busy_single.stats == busy_profiled.stats,
        "profiled sharded and unprofiled single-shard busy runs must be bit-identical",
    )?;
    let busy_profile = busy_profiled
        .profile
        .clone()
        .ok_or(BenchError::MissingMeasurement {
            label: "busy sharded profiled".to_string(),
            what: "phase profile",
        })?;
    eprintln!("{}", busy_profile.amdahl().render());

    // Decide the busy-speedup bar *before* writing the JSON, so the
    // decision itself is part of the uploaded artifact.
    let host_capable = parallelism >= SHARDS;
    let busy_bar = if args.enforce_sharded { 2.0 } else { 1.0 };
    let busy_bar_active = args.enforce_sharded || (!args.quick && host_capable);

    let mut summary = PerfSummary::from_measurements("perf_smoke", std::slice::from_ref(&fast))
        .with("reference_host_seconds", reference.host_seconds)
        .with(
            "reference_sim_cycles_per_sec",
            reference.sim_cycles_per_sec(),
        )
        .with("speedup_vs_reference", reference_speedup)
        .with("host_parallelism", parallelism as f64)
        .with("sharded_queue_speedup", queue_sharded_speedup)
        .with("sharded_busy_speedup", busy_sharded_speedup)
        .with(
            "sharded_busy_sim_cycles_per_sec",
            busy_sharded.sim_cycles_per_sec(),
        )
        .with("sharded_busy_bar", busy_bar)
        .with(
            "sharded_busy_bar_enforced",
            if busy_bar_active && host_capable {
                1.0
            } else {
                0.0
            },
        )
        .with("profiler_overhead", profiler_overhead)
        .with("profile_sampled_cycles", busy_profile.sampled_cycles as f64)
        .with_meta("shards", SHARDS.to_string())
        .with_meta("cores", cores.to_string())
        .with_meta("exec_modes", "translated, reference");
    // Per-phase breakdown and worker utilization from the profiled
    // sharded busy run, in the same artifact CI uploads.
    for stat in &busy_profile.phases {
        summary = summary.with(
            format!("phase_share_{}", stat.phase.name()),
            busy_profile.share(stat.phase),
        );
    }
    for w in &busy_profile.workers {
        summary = summary.with(format!("worker{}_busy_frac", w.shard), w.busy_frac());
        summary = summary.with(format!("worker{}_jobs", w.shard), w.jobs as f64);
    }
    summary.log();
    write_bench_json(&args.out, &summary)?;
    args.write_profile(
        "perf_smoke",
        &[queue_profiled.clone(), busy_profiled.clone()],
    )?;

    if !args.quick {
        // The acceptance bar: the production stepper must be at least 5x
        // faster than the reference on the mostly-sleeping
        // large-geometry scenario. (--quick skips this: tiny runs are
        // wall-clock-noise-dominated.)
        check_claim(
            reference_speedup >= 5.0,
            format!("speedup vs reference {reference_speedup:.1}x below the 5x acceptance bar"),
        )?;
        // And the sampled phase profiler must cost at most 5% of
        // wall-clock throughput on the same headline scenario.
        check_claim(
            profiler_overhead <= 0.05,
            format!(
                "profiler overhead {:.1}% above the 5% acceptance bar",
                profiler_overhead * 100.0
            ),
        )?;
    }

    // The busy sharded bar. Three outcomes, each spelled out in the log:
    // ENFORCED (the measurement gates the run), SKIPPED (the host cannot
    // demonstrate parallel speedup), or failure when --enforce-sharded
    // forbids skipping.
    if args.enforce_sharded && !host_capable {
        println!(
            "perf_smoke: sharded_busy_speedup bar (>= {busy_bar}x): would be SKIPPED \
             (host has {parallelism} CPUs < {SHARDS} shards) but --enforce-sharded forbids it"
        );
        return Err(BenchError::ClaimFailed(format!(
            "--enforce-sharded: host has {parallelism} CPUs but the {SHARDS}-shard \
             speedup bar needs >= {SHARDS}; run on a multi-core host"
        )));
    }
    if busy_bar_active {
        println!(
            "perf_smoke: sharded_busy_speedup bar (>= {busy_bar}x): ENFORCED \
             (host has {parallelism} CPUs >= {SHARDS} shards): measured \
             {busy_sharded_speedup:.2}x"
        );
        check_claim(
            busy_sharded_speedup >= busy_bar,
            format!(
                "sharded busy speedup {busy_sharded_speedup:.2}x below the {busy_bar}x bar \
                 on a {parallelism}-CPU host"
            ),
        )?;
    } else {
        let reason = if !host_capable {
            format!("host has {parallelism} CPUs < {SHARDS} shards")
        } else {
            "quick mode is wall-clock-noise dominated".to_string()
        };
        println!(
            "perf_smoke: sharded_busy_speedup bar (>= {busy_bar}x): SKIPPED ({reason}): \
             measured {busy_sharded_speedup:.2}x is informational"
        );
    }

    args.guard_baseline(&summary)
}
