//! Table II — power and energy per operation of the histogram benchmark at
//! maximum contention (1 bin, 256 cores), via the event-based energy model
//! applied to full-system simulations.

use std::process::ExitCode;

use lrscwait_bench::{check_claim, markdown_table, write_csv, BenchArgs, BenchError, Experiment};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_model::EnergyParams;
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("table2", run)
}

struct Row {
    label: String,
    pj_per_op: f64,
    power_mw: f64,
    paper_pj: f64,
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let iters = if args.quick { 8 } else { 16 };
    let energy = EnergyParams::default();

    // (label, impl, arch, backoff, paper pJ/op, paper mW)
    let configs: Vec<(&str, HistImpl, SyncArch, u32, f64, f64)> = vec![
        (
            "Atomic Add",
            HistImpl::AmoAdd,
            SyncArch::Lrsc,
            0,
            29.0,
            175.0,
        ),
        (
            "Colibri",
            HistImpl::LrscWait,
            SyncArch::Colibri { queues: 4 },
            0,
            124.0,
            169.0,
        ),
        ("LRSC", HistImpl::Lrsc, SyncArch::Lrsc, 128, 884.0, 186.0),
        (
            "Atomic Add lock",
            HistImpl::TicketLock,
            SyncArch::Lrsc,
            128,
            1092.0,
            188.0,
        ),
    ];

    let measured = args.sweep("table2").run(
        configs,
        |(label, impl_, arch, backoff, paper_pj, paper_mw)| {
            let cfg = args.configure(SimConfig::builder().mempool().arch(arch).build()?);
            let num_cores = cfg.topology.num_cores as u32;
            let mut kernel = HistogramKernel::new(impl_, 1, iters, num_cores);
            if backoff > 0 {
                kernel = kernel.with_backoff(backoff);
            }
            let m = args
                .instrument(Experiment::new(&kernel, cfg))
                .label(label)
                .x(1)
                .run()?;
            let report = energy.evaluate(&m.stats, m.cycles);
            eprintln!(
                "table2 {label}: {:.0} pJ/op, {:.1} mW (paper: {paper_pj} pJ/op, {paper_mw} mW)",
                report.pj_per_op, report.power_mw
            );
            Ok((
                Row {
                    label: label.to_string(),
                    pj_per_op: report.pj_per_op,
                    power_mw: report.power_mw,
                    paper_pj,
                },
                m,
            ))
        },
    )?;
    let (measured, measurements): (Vec<Row>, Vec<_>) = measured.into_iter().unzip();
    args.finish("table2", &measurements)?;

    let get = |label: &str| -> Result<f64, BenchError> {
        measured
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.pj_per_op)
            .ok_or_else(|| BenchError::MissingPoint {
                series: label.to_string(),
                x: 1,
            })
    };

    let colibri_pj = get("Colibri")?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in &measured {
        let delta = 100.0 * (r.pj_per_op - colibri_pj) / colibri_pj;
        let paper_delta = 100.0 * (r.paper_pj - 124.0) / 124.0;
        rows.push(vec![
            r.label.clone(),
            format!("{:.1}", r.power_mw),
            format!("{:.0}", r.pj_per_op),
            format!("{delta:+.0}%"),
            format!("{:.0}", r.paper_pj),
            format!("{paper_delta:+.0}%"),
        ]);
    }
    write_csv(
        &args.out,
        "table2",
        &[
            "config",
            "power_mw",
            "pj_per_op",
            "delta_vs_colibri",
            "paper_pj_per_op",
            "paper_delta",
        ],
        &rows,
    )?;
    println!("\n## Table II — energy per atomic access at maximum contention\n");
    println!(
        "{}",
        markdown_table(
            &[
                "Atomic access",
                "Power [mW]",
                "Energy [pJ/op]",
                "Δ",
                "Paper [pJ/op]",
                "Paper Δ"
            ],
            &rows,
        )
    );

    // Qualitative ordering of the paper: AmoAdd < Colibri << LRSC < lock.
    check_claim(
        get("Atomic Add")? < get("Colibri")?,
        "AmoAdd must undercut Colibri",
    )?;
    check_claim(get("Colibri")? < get("LRSC")?, "Colibri must undercut LRSC")?;
    check_claim(
        get("LRSC")? < get("Atomic Add lock")?,
        "LRSC must undercut the lock",
    )?;
    println!(
        "ordering reproduced: AmoAdd ({:.0}) < Colibri ({:.0}) < LRSC ({:.0}) < AA-lock ({:.0})",
        get("Atomic Add")?,
        get("Colibri")?,
        get("LRSC")?,
        get("Atomic Add lock")?
    );
    Ok(())
}
