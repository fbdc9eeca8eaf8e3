//! Fig. 3 — histogram throughput of the LRSCwait design points at varying
//! contention (1…1024 bins, 256 cores): Atomic Add roofline, LRSCwait_ideal,
//! LRSCwait128, LRSCwait1, Colibri, LRSC.

use lrscwait_core::SyncArch;
use lrscwait_kernels::HistImpl;

use super::histogram::throughput_vs_bins;
use crate::figure::{find, Figure};
use crate::{check_claim, BenchError, Measurement};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let measurements = throughput_vs_bins(
        fig,
        "\n## Fig. 3 — histogram updates/cycle vs bins",
        &[
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
        ],
    )?;
    let tp =
        |series, bins| find(&measurements, Measurement::key, series, bins).map(|m| m.throughput);

    // Qualitative checks mirroring the paper's claims.
    let first_bin = measurements[0].x;
    let last_bin = measurements[measurements.len() - 1].x;
    let colibri_hi = tp("Colibri", first_bin)?;
    let lrsc_hi = tp("LRSC", first_bin)?;
    println!(
        "high contention (bins={first_bin}): Colibri/LRSC = {:.2}x (paper: 6.5x)",
        colibri_hi / lrsc_hi
    );
    println!(
        "low contention (bins={last_bin}): Colibri/LRSC = {:.2}x (paper: 1.13x)",
        tp("Colibri", last_bin)? / tp("LRSC", last_bin)?
    );
    println!(
        "Colibri vs ideal at bins={first_bin}: {:.2}x (paper: slightly below 1)",
        colibri_hi / tp("LRSCwait_ideal", first_bin)?
    );
    check_claim(
        colibri_hi > lrsc_hi,
        "Colibri must beat LRSC under contention",
    )
}
