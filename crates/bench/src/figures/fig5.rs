//! Fig. 5 — matrix-multiplication performance under interference from
//! concurrent atomics. 256 cores are split poller:worker (252:4, 248:8,
//! 192:64); pollers hammer a small histogram while the workers run a
//! matmul. Reported: worker throughput relative to an interference-free
//! baseline with the same worker count. Colibri pollers sleep in the
//! reservation queue and leave the workers untouched; LRSC pollers' retry
//! traffic congests the shared fabric and slows them severely.

use lrscwait_core::SyncArch;
use lrscwait_kernels::{MatmulKernel, PollerKind};
use lrscwait_sim::SimConfig;

use crate::figure::{find, product, Figure};
use crate::report::{columns, print_table};
use crate::{check_claim, BenchError};

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    // Matrix dimension: 64 keeps the slowest point (4 workers) tractable;
    // the paper's 128:128 ratio is therefore approximated by 192:64 — the
    // trend (more pollers → more interference for LRSC, none for Colibri)
    // is unaffected. Worker counts must divide N.
    let n: u32 = fig.pick(32, 64);
    let bins: &[u32] = fig.pick(&[1, 16], &[1, 4, 8, 12, 16]);
    let ratios: &[u32] = fig.pick(&[4, 8], &[4, 8, 64]);
    let num_cores = 256u32;

    // One flat matrix of (series, poller kind, architecture, cycle budget)
    // × (workers, bins): the idle-poller baselines plus both loaded
    // series, all fanned across the sweep workers together.
    let baseline = ("baseline", PollerKind::Idle, SyncArch::Lrsc, 200_000_000);
    let mut points = product(&[baseline], &product(ratios, &[1]));
    // Colibri pollers: the paper plots only the most extreme ratio (252:4).
    let queues = SyncArch::Colibri { queues: 4 };
    let colibri = ("Colibri", PollerKind::LrscWait, queues, 400_000_000);
    points.extend(product(&[colibri], &product(&[4], bins)));
    // LRSC pollers: every ratio.
    let lrsc = ("LRSC", PollerKind::Lrsc, SyncArch::Lrsc, 400_000_000);
    points.extend(product(&[lrsc], &product(ratios, bins)));

    let results = fig.sweep(points, |((label, kind, arch, budget), (workers, bins))| {
        let cfg = SimConfig::builder().mempool().arch(arch).max_cycles(budget);
        let kernel = MatmulKernel::new(n, workers, num_cores, kind).with_poll_bins(bins);
        let m = fig.experiment(&kernel, cfg)?.label(label).x(bins).run()?;
        let cycles =
            m.max_region_cycles(0..workers as usize)
                .ok_or(BenchError::MissingMeasurement {
                    label: label.to_string(),
                    what: "worker region cycles",
                })?;
        eprintln!(
            "{} {label} {}:{workers} bins={bins}: {cycles} worker cycles",
            fig.name,
            num_cores - workers,
        );
        Ok((label, workers, bins, cycles, m))
    })?;

    fig.finish(results.iter().map(|(.., m)| m))?;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut colibri_rel: Vec<f64> = Vec::new();
    let mut lrsc_extreme: Vec<f64> = Vec::new();
    for &(label, workers, bins, cycles, _) in &results {
        if label == "baseline" {
            continue;
        }
        // The baseline: idle pollers at the same worker count.
        let base = find(&results, |r| (r.0, r.1), "baseline", workers)?.3;
        let rel = base as f64 / cycles as f64;
        rows.push(vec![
            label.to_string(),
            format!("{}:{workers}", num_cores - workers),
            bins.to_string(),
            format!("{rel:.4}"),
            cycles.to_string(),
        ]);
        if label == "Colibri" {
            colibri_rel.push(rel);
        } else if workers == 4 {
            lrsc_extreme.push(rel);
        }
    }

    fig.write_csv(
        &[
            "series",
            "poller_to_worker",
            "bins",
            "relative_throughput",
            "worker_cycles",
        ],
        &rows,
    )?;
    print_table(
        "\n## Fig. 5 — matmul relative performance under interference",
        &["series", "poller:worker", "bins", "relative throughput"],
        &columns(&rows, &[0, 1, 2, 3]),
    );

    let colibri_min = colibri_rel.iter().copied().fold(f64::INFINITY, f64::min);
    let lrsc_min = lrsc_extreme.iter().copied().fold(f64::INFINITY, f64::min);
    println!("Colibri 252:4 worst-case relative throughput: {colibri_min:.3} (paper: ~1.0)");
    println!("LRSC    252:4 worst-case relative throughput: {lrsc_min:.3} (paper: ~0.26)");
    check_claim(
        colibri_min > lrsc_min,
        "Colibri pollers must interfere less than LRSC pollers",
    )
}
