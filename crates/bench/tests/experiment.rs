//! Integration tests of the experiment API: sweep determinism (two runs of
//! the same sweep produce byte-identical CSV), and failures surfacing as
//! typed [`BenchError`] variants rather than panics.

use std::path::{Path, PathBuf};

use lrscwait_asm::{Assembler, Program};
use lrscwait_bench::{fmt_tp, write_csv, BenchError, Experiment, Sweep};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel, VerifyError, Workload};
use lrscwait_sim::{ConfigError, Machine, SimConfig};

/// A scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrscwait-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_sweep_csv(dir: &Path, threads: usize) -> Vec<u8> {
    let points: Vec<(HistImpl, SyncArch, u32)> = vec![
        (HistImpl::AmoAdd, SyncArch::Lrsc, 4),
        (HistImpl::AmoAdd, SyncArch::Lrsc, 16),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }, 4),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }, 16),
        (HistImpl::Lrsc, SyncArch::Lrsc, 4),
        (HistImpl::Lrsc, SyncArch::Lrsc, 16),
    ];
    let measurements = Sweep::new("determinism")
        .threads(threads)
        .quiet()
        .run(points, |(impl_, arch, bins)| {
            let cfg = SimConfig::builder().cores(8).arch(arch).build()?;
            let kernel = HistogramKernel::new(impl_, bins, 8, 8);
            Experiment::new(&kernel, cfg).x(bins).run()
        })
        .expect("sweep completes");
    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                m.x.to_string(),
                fmt_tp(m.throughput),
                m.cycles.to_string(),
            ]
        })
        .collect();
    let path = write_csv(
        dir,
        "determinism",
        &["series", "bins", "tp", "cycles"],
        &rows,
    )
    .expect("csv written");
    std::fs::read(path).expect("csv readable")
}

#[test]
fn sweep_csv_is_byte_deterministic() {
    // Two runs of the same sweep — different thread counts, so completion
    // order definitely differs — must produce byte-identical CSV files.
    let dir_a = scratch_dir("a");
    let dir_b = scratch_dir("b");
    let a = small_sweep_csv(&dir_a, 4);
    let b = small_sweep_csv(&dir_b, 1);
    assert!(!a.is_empty());
    assert_eq!(a, b, "sweep output must not depend on scheduling");
    let _ = std::fs::remove_dir_all(dir_a);
    let _ = std::fs::remove_dir_all(dir_b);
}

#[test]
fn watchdog_surfaces_as_typed_error() {
    // Far too few cycles for 64 iterations: the watchdog must fire and
    // surface as BenchError::Watchdog, not a panic.
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::Lrsc)
        .max_cycles(100)
        .build()
        .unwrap();
    let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 64, 4);
    match Experiment::new(&kernel, cfg).run() {
        Err(BenchError::Watchdog { cycles, .. }) => assert_eq!(cycles, 100),
        other => panic!("expected Watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_records_dnf_reason() {
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::Lrsc)
        .max_cycles(100)
        .build()
        .unwrap();
    let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 64, 4);
    match Experiment::new(&kernel, cfg).run() {
        Err(BenchError::Watchdog { reason, .. }) => assert!(
            reason.contains("never halted"),
            "DNF reason must say which cores were still live: {reason}"
        ),
        other => panic!("expected Watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_error_through_sweep() {
    let err = Sweep::new("watchdog")
        .threads(2)
        .quiet()
        .run(vec![4u32, 8], |bins| {
            let cfg = SimConfig::builder().cores(4).max_cycles(50).build()?;
            let kernel = HistogramKernel::new(HistImpl::AmoAdd, bins, 64, 4);
            Experiment::new(&kernel, cfg).run()
        })
        .unwrap_err();
    assert!(matches!(err, BenchError::Watchdog { .. }), "{err}");
}

/// A workload whose verification always fails: checks that wrong results
/// surface as `BenchError::Verify` instead of a panic or a silent number.
struct AlwaysWrong;

impl Workload for AlwaysWrong {
    fn label(&self) -> String {
        "always-wrong".to_string()
    }

    fn program(&self) -> Program {
        Assembler::new()
            .assemble("_start: ecall\n")
            .expect("trivial program assembles")
    }

    fn verify(&self, _machine: &Machine) -> Result<(), VerifyError> {
        Err(VerifyError::Conservation {
            what: "synthetic check",
            expected: 1,
            actual: 0,
        })
    }
}

#[test]
fn verification_failure_surfaces_as_typed_error() {
    let cfg = SimConfig::builder().cores(2).build().unwrap();
    match Experiment::new(&AlwaysWrong, cfg).run() {
        Err(BenchError::Verify { label, source }) => {
            assert_eq!(label, "always-wrong");
            assert!(matches!(source, VerifyError::Conservation { .. }));
        }
        other => panic!("expected Verify error, got {other:?}"),
    }
}

/// A workload that claims more ops than its program counts: the runner's
/// op-counter cross-check must reject the run.
struct OverclaimsOps;

impl Workload for OverclaimsOps {
    fn label(&self) -> String {
        "overclaims".to_string()
    }

    fn program(&self) -> Program {
        Assembler::new()
            .assemble("_start: ecall\n")
            .expect("trivial program assembles")
    }

    fn verify(&self, _machine: &Machine) -> Result<(), VerifyError> {
        Ok(())
    }

    fn expected_ops(&self) -> Option<u64> {
        Some(1_000)
    }
}

#[test]
fn op_count_mismatch_surfaces_as_typed_error() {
    let cfg = SimConfig::builder().cores(2).build().unwrap();
    match Experiment::new(&OverclaimsOps, cfg).run() {
        Err(BenchError::Verify { source, .. }) => {
            assert!(matches!(
                source,
                VerifyError::Conservation {
                    what: "MMIO op counter",
                    expected: 1_000,
                    actual: 0
                }
            ));
        }
        other => panic!("expected Verify error, got {other:?}"),
    }
}

#[test]
fn invalid_config_surfaces_as_typed_error() {
    // Workload args outside the MMIO window are a config error, not a panic.
    struct BadArgs;
    impl Workload for BadArgs {
        fn label(&self) -> String {
            "bad-args".to_string()
        }
        fn program(&self) -> Program {
            Assembler::new()
                .assemble("_start: ecall\n")
                .expect("assembles")
        }
        fn args(&self) -> Vec<(usize, u32)> {
            vec![(99, 1)]
        }
        fn verify(&self, _machine: &Machine) -> Result<(), VerifyError> {
            Ok(())
        }
    }
    let cfg = SimConfig::builder().cores(2).build().unwrap();
    let err = Experiment::new(&BadArgs, cfg).run().unwrap_err();
    assert!(matches!(err, BenchError::Config(_)), "{err}");
}

#[test]
fn rejected_machine_config_surfaces_as_config_error() {
    // A configuration the machine rejects at construction is a config
    // error, not a failure to load the program.
    let cfg = SimConfig {
        max_cycles: 0,
        ..SimConfig::small(4, SyncArch::Lrsc)
    };
    let kernel = HistogramKernel::new(HistImpl::AmoAdd, 8, 4, 4);
    let err = Experiment::new(&kernel, cfg).run().unwrap_err();
    assert!(
        matches!(err, BenchError::Config(ConfigError::ZeroMaxCycles)),
        "{err}"
    );
}

#[test]
fn queue_workload_through_experiment() {
    // End-to-end over the trait object path: a queue kernel as &dyn Workload.
    let arch = SyncArch::Colibri { queues: 4 };
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(arch)
        .max_cycles(20_000_000)
        .build()
        .unwrap();
    let kernel = QueueKernel::new(QueueImpl::LrscWaitDirect, 8, 4);
    let workload: &dyn Workload = &kernel;
    let m = Experiment::new(workload, cfg).x(4).run().unwrap();
    assert_eq!(m.stats.total_ops(), kernel.expected_ops());
}

#[test]
fn heartbeat_chunking_leaves_results_unchanged() {
    // The heartbeat runs the machine in `run_until` chunks of 100 000
    // cycles and more; a run that needs several of them must end exactly
    // where one uninterrupted `run` does.
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::Lrsc)
        .build()
        .unwrap();
    let kernel = HistogramKernel::new(HistImpl::Lrsc, 1, 8000, 4);
    let plain = Experiment::new(&kernel, cfg).x(1).run().unwrap();
    assert!(plain.cycles > 100_000, "only {} cycles", plain.cycles);
    let dir = scratch_dir("heartbeat");
    let beating = Experiment::new(&kernel, cfg)
        .x(1)
        .heartbeat(1, Some(dir.join("hb.ndjson")))
        .run()
        .unwrap();
    assert_eq!(plain.cycles, beating.cycles);
    assert_eq!(plain.stats, beating.stats);
    assert_eq!(plain.csv_row(), beating.csv_row());
    let _ = std::fs::remove_dir_all(dir);
}
