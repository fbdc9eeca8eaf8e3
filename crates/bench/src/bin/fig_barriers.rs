//! `fig_barriers` — the 1024-core multi-barrier kernel study (Bertuletti
//! et al., "Fast Shared-Memory Barrier Synchronization for a 1024-Cores
//! RISC-V Many-Core Cluster", on the LRSCwait substrate).
//!
//! Sweeps barrier algorithm × synchronization architecture × core count
//! (64 → 1024 on the scaled MemPool geometry; `--quick` caps at 256 for
//! CI) and reports **cycles per barrier episode** — the latency a kernel
//! pays every time it lines all cores up. Four algorithms:
//!
//! * central counter, LR/SC retry arrival + polling release;
//! * central counter, LRSCwait arrival + `mwait` parking (polling-free);
//! * radix-2 combining tree of `amoadd` counters, polling release;
//! * the hardware MMIO barrier (roofline).
//!
//! Every point also runs [`traced`](Experiment::traced) and with a
//! [`NocHeatmapSink`] attached (tracing never changes results): the study
//! emits, per point, the per-node delivered / HoL-blocked NoC traffic as
//! `fig_barriers.heatmap.<impl>_<arch>_c<cores>.csv` — the Fig. 5-style
//! interference mechanism made visible at scale. The main CSV and every
//! heatmap are self-validated (header + row count) before the process
//! exits, CI style.
//!
//! Runtime expectation: the full sweep is dominated by the retry-storm
//! points (central LR/SC and the degraded wait-on-LRSC path at 1024
//! cores — a kilocore machine *actively polling* is the most expensive
//! thing a cycle-accurate simulator can be asked to do, which is the
//! paper's argument in simulator-time form). Budget tens of CPU-minutes
//! for the full figure; `--quick` finishes in well under a minute. A
//! point whose barrier cannot complete within the 20 M-cycle watchdog
//! (20x the costliest completing point ever observed) is reported as
//! **DNF** and dropped from the CSV (fig6's CAS-livelock policy): a
//! retry barrier collapsing at kilocore scale is the finding, not a
//! harness failure. The headline claims compare at the largest core
//! count where every compared series completed.

use std::process::ExitCode;

use lrscwait_bench::{
    check_claim, markdown_table, write_csv, BenchArgs, BenchError, Experiment, Measurement,
};
use lrscwait_core::SyncArch;
use lrscwait_kernels::{BarrierImpl, BarrierKernel};
use lrscwait_sim::SimConfig;
use lrscwait_trace::{NocHeatmap, NocHeatmapSink, SharedSink, SyncAnalysis, HEATMAP_CSV_HEADER};

fn main() -> ExitCode {
    lrscwait_bench::run_main("fig_barriers", run)
}

const IMPLS: [BarrierImpl; 4] = [
    BarrierImpl::CentralLrsc,
    BarrierImpl::CentralLrscWait,
    BarrierImpl::TreeAmo,
    BarrierImpl::HwMmio,
];

fn impl_slug(impl_: BarrierImpl) -> &'static str {
    match impl_ {
        BarrierImpl::CentralLrsc => "central-lrsc",
        BarrierImpl::CentralLrscWait => "central-lrscwait",
        BarrierImpl::TreeAmo => "tree2",
        BarrierImpl::HwMmio => "hw",
    }
}

/// The header of the main figure CSV (also the self-check contract).
const CSV_HEADER: [&str; 8] = [
    "series",
    "arch",
    "cores",
    "episodes",
    "cycles_per_episode",
    "cycles",
    "stall_cycles",
    "hol_blocks",
];

struct Point {
    measurement: Measurement,
    impl_: BarrierImpl,
    arch: SyncArch,
    cores: u32,
    episodes: u32,
    analysis: SyncAnalysis,
    heatmap: NocHeatmap,
}

impl Point {
    fn cycles_per_episode(&self) -> f64 {
        let region = self
            .measurement
            .max_region_cycles(0..self.cores as usize)
            .unwrap_or(self.measurement.cycles);
        region as f64 / f64::from(self.episodes)
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::from_env()?;
    let cores: Vec<u32> = if args.quick {
        vec![64, 256]
    } else {
        vec![64, 256, 1024]
    };
    let episodes = if args.quick { 4 } else { 8 };
    let archs = [SyncArch::Lrsc, SyncArch::Colibri { queues: 4 }];

    let mut points: Vec<(BarrierImpl, SyncArch, u32)> = Vec::new();
    for &impl_ in &IMPLS {
        for &arch in &archs {
            for &c in &cores {
                points.push((impl_, arch, c));
            }
        }
    }

    // A watchdog at a point is the *finding*, not a harness failure: a
    // retry barrier that cannot line 1024 cores up within the (very
    // generous) cycle budget has collapsed, exactly the degenerate end
    // of the curve the paper describes. Such points are reported as DNF
    // and dropped from the CSV — the same policy fig6 applies to the
    // Michael–Scott CAS livelock — while every other error still aborts.
    let results: Vec<Point> = args
        .sweep("fig_barriers")
        .run(points, |(impl_, arch, cores)| {
            let cfg = args.configure(
                SimConfig::builder()
                    .mempool_cores(cores as usize)
                    .arch(arch)
                    .max_cycles(20_000_000)
                    .build()?,
            );
            let kernel = BarrierKernel::new(impl_, episodes, cores);
            let heatmap = SharedSink::new(NocHeatmapSink::new());
            let outcome = args
                .instrument(Experiment::new(&kernel, cfg))
                .label(format!("{} on {arch}", impl_.label()))
                .x(cores)
                .traced()
                .sink(Box::new(heatmap.clone()))
                .run();
            let measurement = match outcome {
                Ok(m) => m,
                Err(BenchError::Watchdog {
                    label,
                    cycles,
                    reason,
                    ..
                }) => {
                    eprintln!(
                        "fig_barriers {label} cores={cores}: DNF — watchdog after \
                         {cycles} cycles, {reason} (barrier collapse at this scale)"
                    );
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            let analysis = measurement
                .analysis
                .clone()
                .ok_or(BenchError::MissingMeasurement {
                    label: measurement.label.clone(),
                    what: "synchronization analysis",
                })?;
            let point = Point {
                measurement,
                impl_,
                arch,
                cores,
                episodes,
                analysis,
                heatmap: heatmap.take().finish(),
            };
            // A wait-hardware algorithm on the plain-LRSC adapter runs its
            // fail-fast fallback path — flag the point so the log reads as
            // the degradation it is.
            let degraded = if impl_.uses_wait_hardware() && arch == SyncArch::Lrsc {
                " [degraded: no wait hardware]"
            } else {
                ""
            };
            eprintln!(
                "fig_barriers {} on {arch} cores={cores}: {:.1} cycles/episode \
                 ({} HoL blocks, {} handoffs){degraded}",
                impl_.label(),
                point.cycles_per_episode(),
                point.heatmap.total_hol_blocks(),
                point.analysis.handoff.count,
            );
            Ok(Some(point))
        })?
        .into_iter()
        .flatten()
        .collect();
    let expected_rows = results.len();
    check_claim(
        !results.is_empty(),
        "every barrier point hit the watchdog — no figure to report",
    )?;

    let barrier_measurements: Vec<Measurement> =
        results.iter().map(|p| p.measurement.clone()).collect();
    args.finish("fig_barriers", &barrier_measurements)?;

    // Main figure CSV: one row per (algorithm, arch, cores) point.
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                p.impl_.label().to_string(),
                p.arch.to_string(),
                p.cores.to_string(),
                p.episodes.to_string(),
                format!("{:.1}", p.cycles_per_episode()),
                p.measurement.cycles.to_string(),
                p.measurement.stats.total_stall_cycles().to_string(),
                p.analysis.hol_blocks.to_string(),
            ]
        })
        .collect();
    let csv_path = write_csv(&args.out, "fig_barriers", &CSV_HEADER, &rows)?;

    // Per-point NoC heatmap CSVs: where the interference actually lands.
    for p in &results {
        let name = format!(
            "fig_barriers.heatmap.{}_{}_c{}",
            impl_slug(p.impl_),
            p.arch.to_string().to_lowercase(),
            p.cores
        );
        let heatmap_rows = p.heatmap.csv_rows();
        check_claim(
            !heatmap_rows.is_empty() && p.heatmap.total_delivered() > 0,
            format!("{name}: heatmap recorded no NoC traffic"),
        )?;
        let path = write_csv(&args.out, &name, &HEATMAP_CSV_HEADER, &heatmap_rows)?;
        // Self-check, CI style: the written artifact round-trips with the
        // declared header and exactly the rendered row count.
        let text = std::fs::read_to_string(&path).map_err(|source| BenchError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let mut lines = text.lines();
        check_claim(
            lines.next() == Some(HEATMAP_CSV_HEADER.join(",").as_str()),
            format!("{name}: heatmap CSV header mismatch"),
        )?;
        check_claim(
            lines.count() == heatmap_rows.len(),
            format!("{name}: heatmap CSV row count mismatch"),
        )?;
    }

    // Self-check of the main CSV: header and row count must match the
    // sweep that produced it.
    let text = std::fs::read_to_string(&csv_path).map_err(|source| BenchError::Io {
        path: csv_path.display().to_string(),
        source,
    })?;
    let mut lines = text.lines();
    check_claim(
        lines.next() == Some(CSV_HEADER.join(",").as_str()),
        "fig_barriers.csv header mismatch",
    )?;
    check_claim(
        lines.count() == expected_rows,
        format!("fig_barriers.csv must hold {expected_rows} data rows"),
    )?;

    println!("\n## Barrier study — cycles per episode vs cores\n");
    println!(
        "{}",
        markdown_table(
            &["series", "arch", "cores", "cycles/episode", "HoL blocks"],
            &rows
                .iter()
                .map(|r| vec![
                    r[0].clone(),
                    r[1].clone(),
                    r[2].clone(),
                    r[4].clone(),
                    r[7].clone()
                ])
                .collect::<Vec<_>>(),
        )
    );

    // Quantitative claims, checked at the largest core count where every
    // compared series completed (a DNF above that only strengthens the
    // conclusion — the collapsed series has no number to compare at all).
    let compared = [
        (BarrierImpl::HwMmio, SyncArch::Lrsc),
        (BarrierImpl::CentralLrsc, SyncArch::Lrsc),
        (BarrierImpl::TreeAmo, SyncArch::Lrsc),
        (
            BarrierImpl::CentralLrscWait,
            SyncArch::Colibri { queues: 4 },
        ),
    ];
    let top = *cores
        .iter()
        .rev()
        .find(|&&c| {
            compared.iter().all(|&(i, a)| {
                results
                    .iter()
                    .any(|p| p.impl_ == i && p.arch == a && p.cores == c)
            })
        })
        .ok_or(BenchError::MissingPoint {
            series: "barrier comparison".to_string(),
            x: 0,
        })?;
    let latency = |impl_: BarrierImpl, arch: SyncArch| -> Result<f64, BenchError> {
        results
            .iter()
            .find(|p| p.impl_ == impl_ && p.arch == arch && p.cores == top)
            .map(Point::cycles_per_episode)
            .ok_or(BenchError::MissingPoint {
                series: impl_.label().to_string(),
                x: top,
            })
    };
    let hw = latency(BarrierImpl::HwMmio, SyncArch::Lrsc)?;
    let central_lrsc = latency(BarrierImpl::CentralLrsc, SyncArch::Lrsc)?;
    let tree = latency(BarrierImpl::TreeAmo, SyncArch::Lrsc)?;
    let parking = latency(
        BarrierImpl::CentralLrscWait,
        SyncArch::Colibri { queues: 4 },
    )?;
    println!(
        "at {top} cores: HW {hw:.0} | tree {tree:.0} | central LRSC {central_lrsc:.0} | \
         central LRSCwait (Colibri) {parking:.0} cycles/episode"
    );
    check_claim(
        hw < tree && hw < central_lrsc && hw < parking,
        "the hardware barrier must be the roofline",
    )?;
    check_claim(
        tree < central_lrsc,
        format!(
            "the combining tree must beat the central LR/SC barrier at {top} cores \
             ({tree:.0} vs {central_lrsc:.0} cycles/episode)"
        ),
    )?;
    check_claim(
        parking < central_lrsc,
        format!(
            "LRSCwait parking must beat the LR/SC retry barrier at {top} cores \
             ({parking:.0} vs {central_lrsc:.0} cycles/episode)"
        ),
    )
}
