//! Fig. 5 — matrix-multiplication performance under interference from
//! concurrent atomics. 256 cores are split poller:worker (252:4, 248:8,
//! 192:64); pollers hammer a small histogram while the workers run a
//! matmul. Reported: worker throughput relative to an interference-free
//! baseline with the same worker count. Colibri pollers sleep in the
//! reservation queue and leave the workers untouched; LRSC pollers' retry
//! traffic congests the shared fabric and slows them severely.

use std::collections::HashMap;
use std::process::ExitCode;

use lrscwait_bench::{check_claim, markdown_table, write_csv, BenchArgs, BenchError, Experiment};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{MatmulKernel, PollerKind};
use lrscwait_sim::SimConfig;

fn main() -> ExitCode {
    lrscwait_bench::run_main("fig5", run)
}

/// One sweep point: a poller kind against a worker split and bin count.
struct Point {
    label: &'static str,
    kind: PollerKind,
    arch: SyncArch,
    workers: u32,
    bins: u32,
    max_cycles: u64,
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    // Matrix dimension: 64 keeps the slowest point (4 workers) tractable;
    // the paper's 128:128 ratio is therefore approximated by 192:64 — the
    // trend (more pollers → more interference for LRSC, none for Colibri)
    // is unaffected. Worker counts must divide N.
    let n: u32 = if args.quick { 32 } else { 64 };
    let bins: Vec<u32> = if args.quick {
        vec![1, 16]
    } else {
        vec![1, 4, 8, 12, 16]
    };
    let ratios: Vec<u32> = if args.quick {
        vec![4, 8]
    } else {
        vec![4, 8, 64]
    };
    let num_cores = 256u32;

    // One flat matrix: the idle-poller baselines plus both loaded series,
    // all fanned across the sweep workers together.
    let mut points: Vec<Point> = ratios
        .iter()
        .map(|&workers| Point {
            label: "baseline",
            kind: PollerKind::Idle,
            arch: SyncArch::Lrsc,
            workers,
            bins: 1,
            max_cycles: 200_000_000,
        })
        .collect();
    // Colibri pollers: the paper plots only the most extreme ratio (252:4).
    for &b in &bins {
        points.push(Point {
            label: "Colibri",
            kind: PollerKind::LrscWait,
            arch: SyncArch::Colibri { queues: 4 },
            workers: 4,
            bins: b,
            max_cycles: 400_000_000,
        });
    }
    // LRSC pollers: every ratio.
    for &workers in &ratios {
        for &b in &bins {
            points.push(Point {
                label: "LRSC",
                kind: PollerKind::Lrsc,
                arch: SyncArch::Lrsc,
                workers,
                bins: b,
                max_cycles: 400_000_000,
            });
        }
    }

    let results = args.sweep("fig5").run(points, |p| {
        let cfg = args.configure(
            SimConfig::builder()
                .mempool()
                .arch(p.arch)
                .max_cycles(p.max_cycles)
                .build()?,
        );
        let kernel = MatmulKernel::new(n, p.workers, num_cores, p.kind).with_poll_bins(p.bins);
        let m = args
            .instrument(Experiment::new(&kernel, cfg))
            .label(p.label)
            .x(p.bins)
            .run()?;
        let cycles =
            m.max_region_cycles(0..p.workers as usize)
                .ok_or(BenchError::MissingMeasurement {
                    label: p.label.to_string(),
                    what: "worker region cycles",
                })?;
        eprintln!(
            "fig5 {} {}:{} bins={}: {cycles} worker cycles",
            p.label,
            num_cores - p.workers,
            p.workers,
            p.bins
        );
        Ok((p, cycles, m))
    })?;

    let measurements: Vec<_> = results.iter().map(|(_, _, m)| m.clone()).collect();
    args.finish("fig5", &measurements)?;

    // Baselines: idle pollers, one per worker count.
    let baseline: HashMap<u32, u64> = results
        .iter()
        .filter(|(p, _, _)| p.label == "baseline")
        .map(|(p, cycles, _)| (p.workers, *cycles))
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut colibri_rel: Vec<f64> = Vec::new();
    let mut lrsc_extreme: Vec<f64> = Vec::new();
    for (p, cycles, _) in results.iter().filter(|(p, _, _)| p.label != "baseline") {
        let base = *baseline.get(&p.workers).ok_or(BenchError::MissingPoint {
            series: "baseline".to_string(),
            x: p.workers,
        })?;
        let rel = base as f64 / *cycles as f64;
        rows.push(vec![
            p.label.to_string(),
            format!("{}:{}", num_cores - p.workers, p.workers),
            p.bins.to_string(),
            format!("{rel:.4}"),
            cycles.to_string(),
        ]);
        if p.label == "Colibri" {
            colibri_rel.push(rel);
        } else if p.workers == 4 {
            lrsc_extreme.push(rel);
        }
    }

    write_csv(
        &args.out,
        "fig5",
        &[
            "series",
            "poller_to_worker",
            "bins",
            "relative_throughput",
            "worker_cycles",
        ],
        &rows,
    )?;
    println!("\n## Fig. 5 — matmul relative performance under interference\n");
    println!(
        "{}",
        markdown_table(
            &["series", "poller:worker", "bins", "relative throughput"],
            &rows.iter().map(|r| r[..4].to_vec()).collect::<Vec<_>>(),
        )
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
