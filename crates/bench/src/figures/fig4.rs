//! Fig. 4 — histogram throughput of lock-based implementations vs generic
//! RMW atomics at varying contention: Colibri, Colibri lock, Mwait lock
//! (MCS), LRSC, LRSC lock, Atomic Add lock. Spin locks use a 128-cycle
//! backoff, as in the paper.

use lrscwait_core::SyncArch;
use lrscwait_kernels::HistImpl;

use super::histogram::throughput_vs_bins;
use crate::figure::{find, Figure};
use crate::{check_claim, BenchError, Measurement};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let colibri = SyncArch::Colibri { queues: 4 };
    let measurements = throughput_vs_bins(
        fig,
        "\n## Fig. 4 — lock implementations vs generic RMW atomics",
        &[
            ("Colibri", HistImpl::LrscWait, colibri),
            ("Colibri lock", HistImpl::ColibriLock, colibri),
            ("Mwait lock", HistImpl::McsMwaitLock, colibri),
            ("LRSC", HistImpl::Lrsc, SyncArch::Lrsc),
            ("LRSC lock", HistImpl::TasLock, SyncArch::Lrsc),
            ("Atomic Add lock", HistImpl::TicketLock, SyncArch::Lrsc),
        ],
    )?;
    let tp =
        |series, bins| find(&measurements, Measurement::key, series, bins).map(|m| m.throughput);

    let first = measurements[0].x;
    println!("paper claim — Colibri outperforms all lock approaches at any contention:");
    let colibri_first = tp("Colibri", first)?;
    for other in [
        "Colibri lock",
        "Mwait lock",
        "LRSC",
        "LRSC lock",
        "Atomic Add lock",
    ] {
        let ratio = colibri_first / tp(other, first)?;
        println!("  Colibri vs {other} at bins={first}: {ratio:.2}x");
    }
    check_claim(
        colibri_first > tp("LRSC lock", first)?,
        "Colibri must beat spin locks under contention",
    )
}
