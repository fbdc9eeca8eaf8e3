//! Fig. 3 — histogram throughput of the LRSCwait design points at varying
//! contention (1…1024 bins, 256 cores): Atomic Add roofline, LRSCwait_ideal,
//! LRSCwait128, LRSCwait1, Colibri, LRSC.

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, find_throughput, markdown_table, write_csv, BenchArgs, BenchError, Experiment,
    Measurement,
};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("fig3", run)
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let bins: Vec<u32> = if args.quick {
        vec![1, 8, 64, 1024]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    };
    let iters = if args.quick { 8 } else { 16 };

    let series: Vec<(&str, HistImpl, SyncArch)> = vec![
        ("Atomic Add", HistImpl::AmoAdd, SyncArch::Lrsc),
        (
            "LRSCwait_ideal",
            HistImpl::LrscWait,
            SyncArch::LrscWaitIdeal,
        ),
        (
            "LRSCwait128",
            HistImpl::LrscWait,
            SyncArch::LrscWait { slots: 128 },
        ),
        (
            "LRSCwait1",
            HistImpl::LrscWait,
            SyncArch::LrscWait { slots: 1 },
        ),
        (
            "Colibri",
            HistImpl::LrscWait,
            SyncArch::Colibri { queues: 4 },
        ),
        ("LRSC", HistImpl::Lrsc, SyncArch::Lrsc),
    ];

    // The full (series × bins) matrix, fanned across worker threads.
    let points: Vec<(String, HistImpl, SyncArch, u32)> = series
        .iter()
        .flat_map(|&(label, impl_, arch)| {
            bins.iter()
                .map(move |&b| (label.to_string(), impl_, arch, b))
        })
        .collect();
    let measurements = args.sweep("fig3").run(points, |(label, impl_, arch, b)| {
        let cfg = args.configure(SimConfig::builder().mempool().arch(arch).build()?);
        let num_cores = cfg.topology.num_cores as u32;
        let kernel = HistogramKernel::new(impl_, b, iters, num_cores);
        let m = args
            .instrument(Experiment::new(&kernel, cfg))
            .label(label)
            .x(b)
            .run()?;
        eprintln!(
            "fig3 {} bins={b}: {:.4} updates/cycle",
            m.label, m.throughput
        );
        Ok(m)
    })?;
    args.finish("fig3", &measurements)?;

    let rows: Vec<Vec<String>> = measurements.iter().map(Measurement::csv_row).collect();

    write_csv(
        &args.out,
        "fig3",
        &[
            "series",
            "bins",
            "updates_per_cycle",
            "slowest_core",
            "fastest_core",
            "cycles",
            "stall_cycles",
        ],
        &rows,
    )?;
    println!("\n## Fig. 3 — histogram updates/cycle vs bins\n");
    println!(
        "{}",
        markdown_table(
            &["series", "bins", "updates/cycle"],
            &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
        )
    );

    // Qualitative checks mirroring the paper's claims.
    let first_bin = bins[0];
    let last_bin = *bins.last().unwrap_or(&first_bin);
    let colibri_hi = find_throughput(&measurements, "Colibri", first_bin)?;
    let lrsc_hi = find_throughput(&measurements, "LRSC", first_bin)?;
    println!(
        "high contention (bins={first_bin}): Colibri/LRSC = {:.2}x (paper: 6.5x)",
        colibri_hi / lrsc_hi
    );
    println!(
        "low contention (bins={last_bin}): Colibri/LRSC = {:.2}x (paper: 1.13x)",
        find_throughput(&measurements, "Colibri", last_bin)?
            / find_throughput(&measurements, "LRSC", last_bin)?
    );
    println!(
        "Colibri vs ideal at bins={first_bin}: {:.2}x (paper: slightly below 1)",
        colibri_hi / find_throughput(&measurements, "LRSCwait_ideal", first_bin)?
    );
    check_claim(
        colibri_hi > lrsc_hi,
        "Colibri must beat LRSC under contention",
    )
}
