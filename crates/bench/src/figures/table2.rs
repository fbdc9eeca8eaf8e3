//! Table II — power and energy per operation of the histogram benchmark at
//! maximum contention (1 bin, 256 cores), via the event-based energy model
//! applied to full-system simulations.

use lrscwait_core::SyncArch;
use lrscwait_kernels::HistImpl;

use super::histogram;
use crate::figure::{find, Figure};
use crate::model::energy_report;
use crate::report::print_table;
use crate::{check_claim, BenchError, Measurement};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    // (label, impl, arch, paper pJ/op, paper mW). The LR/SC loop backs
    // off in the histogram's exponential window: 8 delay-loop iterations,
    // doubled after each failure up to 1024 and reset after each success
    // (crates/kernels/src/backoff.rs). The ticket lock waits 32 iterations
    // per ticket ahead of its own.
    let configs = [
        ("Atomic Add", HistImpl::AmoAdd, SyncArch::Lrsc, 29.0, 175.0),
        (
            "Colibri",
            HistImpl::LrscWait,
            SyncArch::Colibri { queues: 4 },
            124.0,
            169.0,
        ),
        ("LRSC", HistImpl::Lrsc, SyncArch::Lrsc, 884.0, 186.0),
        (
            "Atomic Add lock",
            HistImpl::TicketLock,
            SyncArch::Lrsc,
            1092.0,
            188.0,
        ),
    ];
    let points = configs
        .iter()
        .map(|&(label, impl_, arch, _, _)| (label.to_string(), impl_, arch, 1))
        .collect();
    let measurements = histogram::sweep(fig, fig.pick(8, 16), points)?;

    let pj_per_op = |label: &str| -> Result<f64, BenchError> {
        let m = find(&measurements, Measurement::key, label, 1)?;
        Ok(energy_report(&m.stats, m.cycles).pj_per_op)
    };
    let colibri_pj = pj_per_op("Colibri")?;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (m, &(label, _, _, paper_pj, paper_mw)) in measurements.iter().zip(&configs) {
        let report = energy_report(&m.stats, m.cycles);
        eprintln!(
            "{} {label}: {:.0} pJ/op, {:.1} mW (paper: {paper_pj} pJ/op, {paper_mw} mW)",
            fig.name, report.pj_per_op, report.power_mw
        );
        let delta = 100.0 * (report.pj_per_op - colibri_pj) / colibri_pj;
        let paper_delta = 100.0 * (paper_pj - 124.0) / 124.0;
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", report.power_mw),
            format!("{:.0}", report.pj_per_op),
            format!("{delta:+.0}%"),
            format!("{paper_pj:.0}"),
            format!("{paper_delta:+.0}%"),
        ]);
    }
    fig.write_csv(
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
    print_table(
        "\n## Table II — energy per atomic access at maximum contention",
        &[
            "Atomic access",
            "Power [mW]",
            "Energy [pJ/op]",
            "Δ",
            "Paper [pJ/op]",
            "Paper Δ",
        ],
        &rows,
    );

    // Qualitative ordering of the paper: AmoAdd < Colibri << LRSC < lock.
    let (amoadd, lrsc, lock) = (
        pj_per_op("Atomic Add")?,
        pj_per_op("LRSC")?,
        pj_per_op("Atomic Add lock")?,
    );
    check_claim(amoadd < colibri_pj, "AmoAdd must undercut Colibri")?;
    check_claim(colibri_pj < lrsc, "Colibri must undercut LRSC")?;
    check_claim(lrsc < lock, "LRSC must undercut the lock")?;
    println!(
        "ordering reproduced: AmoAdd ({amoadd:.0}) < Colibri ({colibri_pj:.0}) < LRSC ({lrsc:.0}) < AA-lock ({lock:.0})"
    );
    Ok(())
}
