//! Fig. 4 — histogram throughput of lock-based implementations vs generic
//! RMW atomics at varying contention: Colibri, Colibri lock, Mwait lock
//! (MCS), LRSC, LRSC lock, Atomic Add lock. Spin locks use a 128-cycle
//! backoff, as in the paper.

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, find_throughput, markdown_table, write_csv, BenchArgs, BenchError, Experiment,
    Measurement,
};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("fig4", run)
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let bins: Vec<u32> = if args.quick {
        vec![1, 8, 64, 1024]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    };
    let iters = if args.quick { 8 } else { 16 };
    let colibri = SyncArch::Colibri { queues: 4 };

    let series: Vec<(&str, HistImpl, SyncArch)> = vec![
        ("Colibri", HistImpl::LrscWait, colibri),
        ("Colibri lock", HistImpl::ColibriLock, colibri),
        ("Mwait lock", HistImpl::McsMwaitLock, colibri),
        ("LRSC", HistImpl::Lrsc, SyncArch::Lrsc),
        ("LRSC lock", HistImpl::TasLock, SyncArch::Lrsc),
        ("Atomic Add lock", HistImpl::TicketLock, SyncArch::Lrsc),
    ];

    let points: Vec<(String, HistImpl, SyncArch, u32)> = series
        .iter()
        .flat_map(|&(label, impl_, arch)| {
            bins.iter()
                .map(move |&b| (label.to_string(), impl_, arch, b))
        })
        .collect();
    let measurements = args.sweep("fig4").run(points, |(label, impl_, arch, b)| {
        let cfg = args.configure(SimConfig::builder().mempool().arch(arch).build()?);
        let num_cores = cfg.topology.num_cores as u32;
        let kernel = HistogramKernel::new(impl_, b, iters, num_cores);
        let m = args
            .instrument(Experiment::new(&kernel, cfg))
            .label(label)
            .x(b)
            .run()?;
        eprintln!(
            "fig4 {} bins={b}: {:.4} updates/cycle",
            m.label, m.throughput
        );
        Ok(m)
    })?;

    args.finish("fig4", &measurements)?;

    let rows: Vec<Vec<String>> = measurements.iter().map(Measurement::csv_row).collect();

    write_csv(
        &args.out,
        "fig4",
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
    println!("\n## Fig. 4 — lock implementations vs generic RMW atomics\n");
    println!(
        "{}",
        markdown_table(
            &["series", "bins", "updates/cycle"],
            &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
        )
    );

    let first = bins[0];
    println!("paper claim — Colibri outperforms all lock approaches at any contention:");
    let colibri_first = find_throughput(&measurements, "Colibri", first)?;
    for other in [
        "Colibri lock",
        "Mwait lock",
        "LRSC",
        "LRSC lock",
        "Atomic Add lock",
    ] {
        let ratio = colibri_first / find_throughput(&measurements, other, first)?;
        println!("  Colibri vs {other} at bins={first}: {ratio:.2}x");
    }
    check_claim(
        colibri_first > find_throughput(&measurements, "LRSC lock", first)?,
        "Colibri must beat spin locks under contention",
    )
}
