//! `checkpoint_smoke` — CI smoke test for machine checkpoint/restore
//! through the bench harness (`Experiment::checkpoint` / `resume`).
//!
//! The round trip it proves, per architecture:
//!
//! 1. a run starved to half its natural cycle budget hits the watchdog
//!    **and still writes its snapshot** (that snapshot is exactly the one
//!    worth resuming with more budget);
//! 2. resuming that snapshot with the full budget completes, verifies,
//!    and lands on **bit-identical** cycles and per-component statistics
//!    to an uninterrupted run;
//! 3. a missing snapshot file fails with a typed I/O error, a malformed
//!    one with a typed load error — never a panic or a silent fresh run.
//!
//! The intermediate snapshots go to `<out>/checkpoint_smoke.<arch>.snap`.

use std::process::ExitCode;

use lrscwait_bench::{check_claim, BenchArgs, BenchError, Experiment};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("checkpoint_smoke", run)
}

const CORES: u32 = 4;

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let iters = if args.quick { 16 } else { 64 };
    let archs: [(&str, SyncArch); 2] = [
        ("lrsc", SyncArch::Lrsc),
        ("colibri", SyncArch::Colibri { queues: 2 }),
    ];

    let mut measurements = Vec::new();
    for (slug, arch) in archs {
        let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, iters, CORES);
        let full = args.configure(
            SimConfig::builder()
                .cores(CORES as usize)
                .arch(arch)
                .build()?,
        );
        let ckpt = args.out.join(format!("checkpoint_smoke.{slug}.snap"));

        // Uninterrupted reference run.
        let base = args
            .instrument(Experiment::new(&kernel, full))
            .x(iters)
            .run()?;

        // Starve the same run of cycles: the watchdog must fire, and the
        // snapshot must be written anyway.
        let starved = args.configure(
            SimConfig::builder()
                .cores(CORES as usize)
                .arch(arch)
                .max_cycles(base.cycles / 2)
                .build()?,
        );
        let outcome = Experiment::new(&kernel, starved)
            .x(iters)
            .checkpoint(&ckpt)
            .run();
        check_claim(
            matches!(outcome, Err(BenchError::Watchdog { .. })),
            format!("{slug}: the starved run must hit the watchdog"),
        )?;
        check_claim(
            ckpt.is_file(),
            format!(
                "{slug}: watchdogged run must still write {}",
                ckpt.display()
            ),
        )?;

        // Resume with the full budget: same final cycle count, same
        // statistics, verification green.
        let resumed = args
            .instrument(Experiment::new(&kernel, full))
            .x(iters)
            .resume(&ckpt)
            .run()?;
        check_claim(
            resumed.cycles == base.cycles && resumed.stats == base.stats,
            format!(
                "{slug}: resumed run must be bit-identical to the uninterrupted one \
                 ({} vs {} cycles)",
                resumed.cycles, base.cycles
            ),
        )?;
        println!(
            "checkpoint_smoke {slug}: watchdog at {} cycles, resumed to {} — \
             identical to the uninterrupted run",
            base.cycles / 2,
            resumed.cycles
        );

        // Typed failure modes: unreadable and malformed snapshots.
        let missing = Experiment::new(&kernel, full)
            .resume(args.out.join("no-such-checkpoint.snap"))
            .run();
        check_claim(
            matches!(missing, Err(BenchError::Io { .. })),
            format!("{slug}: a missing snapshot must fail with a typed I/O error"),
        )?;
        let garbage = ckpt.with_extension("garbage");
        std::fs::write(&garbage, b"LRSW but not really").map_err(|source| BenchError::Io {
            path: garbage.display().to_string(),
            source,
        })?;
        let malformed = Experiment::new(&kernel, full).resume(&garbage).run();
        check_claim(
            matches!(malformed, Err(BenchError::Load(_))),
            format!("{slug}: a malformed snapshot must fail with a typed load error"),
        )?;

        measurements.push(base);
        measurements.push(resumed);
    }

    args.finish("checkpoint_smoke", &measurements)
}
