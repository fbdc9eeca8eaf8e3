//! `trace` — run any kernel × architecture pair with tracing attached,
//! export a Perfetto/Chrome trace (open at <https://ui.perfetto.dev>)
//! and print the derived synchronization analysis: lock handoff latency
//! distribution, wait-queue occupancy, and retry/abort causes.
//!
//! One simulation feeds both artifacts: the Perfetto JSON streams to the
//! output file as the run produces it (constant host memory, however
//! long the run), the exported file is read back and validated before the
//! process exits, and the event counts are reconciled against the run's
//! `SimStats` aggregates — a mismatch is a hard error, so the trace
//! subsystem continuously proves itself against the counters the figures
//! are built from.
//!
//! ```sh
//! cargo run --release -p lrscwait-bench --bin trace -- \
//!     --kernel histogram --impl lrscwait --arch colibri:4 --cores 16
//! ```

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, write_profile_json, BenchError, Experiment, TraceArgs, TraceKernel, BARRIER_IMPLS,
    HIST_IMPLS, QUEUE_IMPLS, TRACE,
};
use lrscwait_kernels::{
    BarrierKernel, HistogramKernel, MatmulKernel, PollerKind, QueueKernel, Workload,
};
use lrscwait_sim::SimConfig;
use lrscwait_trace::{json, PerfettoSink, SharedSink};

/// Largest export (in trace-event objects) the JSON self-check reads
/// back: parsing holds the whole document in memory, which is exactly
/// what streaming the trace avoids. A longer trace is complete on disk
/// but reported as "not validated".
const VALIDATE_EVENT_LIMIT: u64 = 2_000_000;

/// Matrix dimension of `--kernel matmul`.
const MATMUL_N: u32 = 8;

fn main() -> ExitCode {
    lrscwait_bench::exit_code("trace", &TRACE.help(), run())
}

/// Builds the workload plus the canonical implementation name (the
/// default made explicit), used in the output filename.
fn build_kernel(args: &TraceArgs) -> Result<(Box<dyn Workload>, &'static str), BenchError> {
    let ((kernel, which), cores, iters) = (args.kernel, args.cores, args.iters);
    let bad_cores =
        |rule: &str| TRACE.usage(format!("--kernel {kernel} {rule} (got --cores {cores})"));
    let built: (Box<dyn Workload>, _) = match which {
        TraceKernel::Histogram => {
            let (name, impl_) = args.implementation(HIST_IMPLS)?;
            // Few bins on purpose: contention is what makes traces worth
            // looking at.
            let bins = (cores / 4).max(1);
            if !bins.is_power_of_two() {
                return Err(bad_cores(
                    "uses --cores / 4 bins, which must be a power of two",
                ));
            }
            (
                Box::new(HistogramKernel::new(impl_, bins, iters, cores)),
                name,
            )
        }
        TraceKernel::Queue => {
            let (name, impl_) = args.implementation(QUEUE_IMPLS)?;
            (Box::new(QueueKernel::new(impl_, iters, cores)), name)
        }
        TraceKernel::Barrier => {
            let (name, impl_) = args.implementation(BARRIER_IMPLS)?;
            if !cores.is_power_of_two() {
                return Err(bad_cores("needs a power-of-two --cores"));
            }
            (Box::new(BarrierKernel::new(impl_, iters, cores)), name)
        }
        TraceKernel::Matmul => {
            if let Some(impl_) = &args.impl_ {
                let msg = format!("--kernel {kernel} takes no --impl (got `{impl_}`)");
                return Err(TRACE.usage(msg));
            }
            let workers = (cores / 2).max(1);
            if workers > cores || MATMUL_N % workers != 0 {
                return Err(bad_cores(&format!(
                    "splits an {MATMUL_N}x{MATMUL_N} matrix over --cores / 2 workers, \
                     which must divide {MATMUL_N}"
                )));
            }
            let matmul = MatmulKernel::new(MATMUL_N, workers, cores, PollerKind::Idle);
            (Box::new(matmul), "idle-pollers")
        }
    };
    Ok(built)
}

fn run() -> Result<(), BenchError> {
    let args = TraceArgs::parse(std::env::args().skip(1))?;
    let (kernel, impl_name) = build_kernel(&args)?;
    let cfg = SimConfig::builder()
        .cores(args.cores as usize)
        .arch(args.arch)
        .max_cycles(args.max_cycles)
        .build()?;

    // Every flag that changes the simulation is in the filename, so runs
    // that differ only in impl/cores/iters never overwrite each other.
    let name = format!(
        "trace_{}_{}_{}_c{}_i{}",
        args.kernel.0,
        impl_name,
        args.arch.to_string().to_lowercase(),
        args.cores,
        args.iters
    );
    let path = args.out.join(format!("{name}.json"));

    // One simulation, two artifacts: the Perfetto exporter streams to the
    // file, the analysis rides on the measurement. The document is closed
    // before the run's outcome is looked at, so a watchdogged run still
    // leaves a loadable trace.
    let io_error = BenchError::io(&path);
    let perfetto = SharedSink::new(PerfettoSink::create(&path).map_err(io_error)?);
    let mut exp = Experiment::new(kernel.as_ref(), cfg)
        .traced()
        .sink(Box::new(perfetto.clone()));
    if args.profile {
        exp = exp.profiled();
    }
    let outcome = exp.run();
    let event_count = perfetto.with(PerfettoSink::finish).map_err(io_error)?;
    let measurement = outcome?;
    let report = measurement
        .analysis
        .as_ref()
        .ok_or(BenchError::MissingMeasurement {
            label: measurement.label.clone(),
            what: "synchronization analysis",
        })?;

    // Self-check 1: the exported document must be valid JSON with a
    // traceEvents array.
    let validated = event_count <= VALIDATE_EVENT_LIMIT;
    if validated {
        let text = std::fs::read_to_string(&path).map_err(io_error)?;
        let doc = json::parse(&text).map_err(|e| {
            BenchError::ClaimFailed(format!("exported trace is not valid JSON: {e}"))
        })?;
        doc.get("traceEvents")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| BenchError::ClaimFailed("trace has no traceEvents array".to_string()))?;
    }

    // Self-check 2: event counts must reconcile with the aggregate
    // statistics of the very same run.
    let adapters = &measurement.stats.adapters;
    let c = &report.counters;
    check_claim(
        c.wait_enqueued == adapters.wait_enqueued
            && c.wait_failfast == adapters.wait_failfast
            && c.sc_success == adapters.sc_success
            && c.sc_failure == adapters.sc_failure
            && c.scwait_success == adapters.scwait_success
            && c.scwait_failure == adapters.scwait_failure
            && c.successor_updates == adapters.successor_updates
            && c.wakeups == adapters.wakeups
            && c.reservations_broken == adapters.reservations_broken,
        format!("trace counters diverge from SimStats: {c:?} vs {adapters:?}"),
    )?;

    if let Some(profile) = &measurement.profile {
        write_profile_json(
            &args.out,
            &name,
            [(measurement.label.clone(), measurement.x, profile)],
        )?;
    }

    println!(
        "## trace — {} on {} ({} cores, {} cycles)\n",
        kernel.label(),
        args.arch,
        args.cores,
        measurement.cycles
    );
    print!("{}", report.summary());
    println!(
        "\nwrote {} ({event_count} trace events, {}) — open at https://ui.perfetto.dev",
        path.display(),
        if validated {
            "validated"
        } else {
            "not validated: above the read-back limit"
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Core counts a kernel's constructor would panic on are usage
    /// errors.
    #[test]
    fn build_kernel_rejects_core_counts_the_kernel_cannot_take() {
        let build = |kernel: &str, cores: &str| {
            let flags = ["--kernel", kernel, "--cores", cores].map(String::from);
            build_kernel(&TraceArgs::parse(flags).expect("flags parse")).map(|(_, name)| name)
        };
        for (kernel, cores) in [
            ("histogram", "12"),
            ("matmul", "0"),
            ("matmul", "6"),
            ("matmul", "32"),
        ] {
            match build(kernel, cores) {
                Err(BenchError::Usage(msg)) => {
                    assert!(msg.contains(&format!("(got --cores {cores})")), "{msg}");
                    assert!(msg.contains("usage: trace"), "{msg}");
                }
                other => panic!("{kernel} --cores {cores}: expected a usage error, got {other:?}"),
            }
        }
        for (kernel, cores) in [("histogram", "2"), ("histogram", "16"), ("matmul", "16")] {
            assert!(build(kernel, cores).is_ok(), "{kernel} --cores {cores}");
        }
    }

    /// Every kernel's loop runs at least once, so `--iters 0` is a usage
    /// error whatever the kernel.
    #[test]
    fn zero_iters_is_a_usage_error() {
        match TraceArgs::parse(["--kernel", "queue", "--iters", "0"].map(String::from)) {
            Err(BenchError::Usage(msg)) => {
                assert!(msg.contains("--iters must be at least 1"), "{msg}");
            }
            other => panic!("expected a usage error, got {:?}", other.map(|_| ())),
        }
    }
}
