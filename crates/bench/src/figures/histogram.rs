//! The histogram sweep `fig3`, `fig4`, `table2` and `ablation` share: the
//! paper's 256-core MemPool updating a histogram of `bins` bins, one point
//! per (series, bins).

use lrscwait_core::SyncArch;
use lrscwait_kernels::{HistImpl, HistogramKernel};
use lrscwait_sim::SimConfig;

use crate::figure::{product, Figure};
use crate::report::{columns, print_table};
use crate::{BenchError, Measurement};

/// Cores of the machine `SimConfig::builder().mempool()` describes.
const MEMPOOL_CORES: u32 = 256;

/// Runs one histogram experiment per `(label, implementation,
/// architecture, bins)` point, `iters` updates per core, and finishes the
/// measurements.
pub(super) fn sweep(
    fig: &Figure,
    iters: u32,
    points: Vec<(String, HistImpl, SyncArch, u32)>,
) -> Result<Vec<Measurement>, BenchError> {
    let measurements = fig.sweep(points, |(label, impl_, arch, bins)| {
        let kernel = HistogramKernel::new(impl_, bins, iters, MEMPOOL_CORES);
        let m = fig
            .experiment(&kernel, SimConfig::builder().mempool().arch(arch))?
            .label(label)
            .x(bins)
            .run()?;
        eprintln!(
            "{} {} bins={bins}: {:.4} updates/cycle",
            fig.name, m.label, m.throughput
        );
        Ok(m)
    })?;
    fig.finish(&measurements)?;
    Ok(measurements)
}

/// `fig3` and `fig4` up to their claims: `series` × the contention sweep
/// (1…1024 bins), written as the standard CSV and printed under `heading`.
/// The measurements come back series-major, so the first one's `x` is the
/// highest contention and the last one's the lowest.
pub(super) fn throughput_vs_bins(
    fig: &Figure,
    heading: &str,
    series: &[(&str, HistImpl, SyncArch)],
) -> Result<Vec<Measurement>, BenchError> {
    let bins: &[u32] = fig.pick(
        &[1, 8, 64, 1024],
        &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
    );
    let points = product(series, bins)
        .into_iter()
        .map(|((label, impl_, arch), b)| (label.to_string(), impl_, arch, b))
        .collect();
    let measurements = sweep(fig, fig.pick(8, 16), points)?;

    let rows: Vec<Vec<String>> = measurements.iter().map(Measurement::csv_row).collect();
    fig.write_csv(
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
    print_table(
        heading,
        &["series", "bins", "updates/cycle"],
        &columns(&rows, &[0, 1, 2]),
    );
    Ok(measurements)
}
