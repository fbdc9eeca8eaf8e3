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
//! The barrier module of `lrscwait_kernels` documents each algorithm's
//! code and the in-kernel check that fails a run in which any core is
//! released early.
//!
//! Every algorithm runs on LRSC. Only the one that issues a wait
//! instruction ([`BarrierImpl::uses_wait_hardware`], the central LRSCwait
//! barrier) also runs on Colibri4. The other three never reach the wait
//! unit, so a Colibri4 run of them would replay their LRSC run cycle for
//! cycle. `tests/differential.rs`,
//! `the_wait_unit_cannot_affect_a_program_without_wait_instructions`,
//! holds that equality on all four architectures instead.
//!
//! Every point also runs [`traced`](crate::Experiment::traced) for its
//! handoff count (tracing never changes results). No sink sees NoC
//! traffic: the networks count it per node themselves, and the study
//! reads those counters from `Machine::noc_traffic` through
//! [`inspect`](crate::Experiment::inspect). It writes, per point, the
//! per-node injected / refused / delivered / HoL-blocked traffic as
//! `fig_barriers.heatmap.<impl>_<arch>_c<cores>.csv` — the Fig. 5-style
//! interference mechanism made visible at scale. The `hol_blocks` column
//! of the figure CSV sums both networks' `NetworkStats::hol_blocks`.
//!
//! Runtime: the full sweep is 15 points and is dominated by its two
//! retry-storm points, central LR/SC and the degraded wait-on-LRSC path at
//! 1024 cores. A kilocore machine *actively polling* is the most expensive
//! thing a cycle-accurate simulator can be asked to do, which is the
//! paper's argument in simulator-time form. On a 2-vCPU x86-64 host at the
//! default `--threads`, the full figure took 60–72 s of wall time, the two
//! DNF points running side by side for 116–135 host seconds together, and
//! `--quick` (10 points) took 0.5–0.6 s. A point whose barrier cannot
//! complete within the 20 M-cycle watchdog (20x the costliest completing
//! point ever observed) is run to the watchdog, reported as **DNF** and
//! dropped from the CSV; the summary line counts its cycles and host
//! seconds apart. A retry barrier collapsing at kilocore scale is the
//! finding, not a harness failure. The headline claims compare at the
//! largest core count where every compared series completed.

use lrscwait_core::SyncArch;
use lrscwait_kernels::{BarrierImpl, BarrierKernel};
use lrscwait_noc::NodeTraffic;
use lrscwait_sim::SimConfig;
use lrscwait_trace::SyncAnalysis;

use crate::figure::{find, largest_common_x, product, Figure};
use crate::report::{columns, print_table};
use crate::{check_claim, write_csv, BenchError, Measurement};

/// The wait-unit architecture the wait-based barrier also runs on.
const COLIBRI4: SyncArch = SyncArch::Colibri { queues: 4 };

const IMPLS: [BarrierImpl; 4] = [
    BarrierImpl::CentralLrsc,
    BarrierImpl::CentralLrscWait,
    BarrierImpl::TreeAmo,
    BarrierImpl::HwMmio,
];

/// The series label of an algorithm on an architecture.
fn series(impl_: BarrierImpl, arch: SyncArch) -> String {
    format!("{} on {arch}", impl_.label())
}

fn impl_slug(impl_: BarrierImpl) -> &'static str {
    match impl_ {
        BarrierImpl::CentralLrsc => "central-lrsc",
        BarrierImpl::CentralLrscWait => "central-lrscwait",
        BarrierImpl::TreeAmo => "tree2",
        BarrierImpl::HwMmio => "hw",
    }
}

/// The header of the main figure CSV.
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

/// The header of a per-point heatmap CSV.
const HEATMAP_CSV_HEADER: [&str; 6] = [
    "net",
    "node",
    "injected",
    "inject_stalled",
    "delivered",
    "hol_blocked",
];

/// The heatmap CSV body of a point's request and response network traffic
/// (`Machine::noc_traffic`): one row per node with any traffic, request
/// nodes first, each network in node id order. Untouched nodes are
/// omitted, so a full-scale heatmap stays proportional to the active
/// fabric.
fn heatmap_rows([request, response]: &[Vec<NodeTraffic>; 2]) -> Vec<Vec<String>> {
    [("request", request), ("response", response)]
        .into_iter()
        .flat_map(|(net, nodes)| {
            nodes
                .iter()
                .enumerate()
                .filter(|(_, t)| **t != NodeTraffic::default())
                .map(move |(node, t)| {
                    vec![
                        net.to_string(),
                        node.to_string(),
                        t.injected.to_string(),
                        t.inject_stalled.to_string(),
                        t.delivered.to_string(),
                        t.hol_blocked.to_string(),
                    ]
                })
        })
        .collect()
}

struct Point {
    measurement: Measurement,
    impl_: BarrierImpl,
    arch: SyncArch,
    cores: u32,
    episodes: u32,
    analysis: SyncAnalysis,
    traffic: [Vec<NodeTraffic>; 2],
}

impl Point {
    /// `(series label, cores)`, the key claims look points up by.
    fn key(&self) -> (&str, u32) {
        self.measurement.key()
    }

    fn cycles_per_episode(&self) -> f64 {
        let region = self
            .measurement
            .max_region_cycles(0..self.cores as usize)
            .unwrap_or(self.measurement.cycles);
        region as f64 / f64::from(self.episodes)
    }

    /// Head-of-line blocking occurrences on both networks.
    fn hol_blocks(&self) -> u64 {
        let stats = &self.measurement.stats;
        stats.req_network.hol_blocks + stats.resp_network.hol_blocks
    }
}

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let cores: &[u32] = fig.pick(&[64, 256], &[64, 256, 1024]);
    let episodes = fig.pick(4, 8);
    // Every algorithm runs on LRSC; only the one that issues a wait
    // instruction also runs on Colibri4, since the others never reach the
    // wait unit (`tests/differential.rs` holds their schedules equal).
    let machines: Vec<(BarrierImpl, SyncArch)> = product(&IMPLS, &[SyncArch::Lrsc, COLIBRI4])
        .into_iter()
        .filter(|&(impl_, arch)| arch == SyncArch::Lrsc || impl_.uses_wait_hardware())
        .collect();

    // A point that hits the watchdog is reported as DNF and dropped from
    // the CSV (see `Figure::run_dnf`), while every other error aborts.
    let results: Vec<Point> = fig
        .sweep(product(&machines, cores), |((impl_, arch), cores)| {
            let cfg = SimConfig::builder()
                .mempool_cores(cores as usize)
                .arch(arch)
                .max_cycles(20_000_000);
            let kernel = BarrierKernel::new(impl_, episodes, cores);
            let mut traffic = None;
            let exp = fig
                .experiment(&kernel, cfg)?
                .label(series(impl_, arch))
                .x(cores)
                .traced()
                .inspect(|machine| traffic = Some(machine.noc_traffic()));
            let Some(measurement) = fig.run_dnf(exp, cores)? else {
                return Ok(None);
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
                traffic: traffic.expect("a completed run is inspected"),
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
                "{} {} cores={cores}: {:.1} cycles/episode \
                 ({} HoL blocks, {} handoffs){degraded}",
                fig.name,
                point.measurement.label,
                point.cycles_per_episode(),
                point.hol_blocks(),
                point.analysis.handoff.count,
            );
            Ok(Some(point))
        })?
        .into_iter()
        .flatten()
        .collect();
    check_claim(
        !results.is_empty(),
        "every barrier point hit the watchdog — no figure to report",
    )?;

    fig.finish(results.iter().map(|p| &p.measurement))?;

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
                p.hol_blocks().to_string(),
            ]
        })
        .collect();
    fig.write_csv(&CSV_HEADER, &rows)?;

    // Per-point NoC heatmap CSVs: where the interference actually lands.
    for p in &results {
        let name = format!(
            "fig_barriers.heatmap.{}_{}_c{}",
            impl_slug(p.impl_),
            p.arch.to_string().to_lowercase(),
            p.cores
        );
        let heatmap_rows = heatmap_rows(&p.traffic);
        check_claim(
            p.traffic.iter().flatten().any(|t| t.delivered > 0),
            format!("{name}: heatmap recorded no NoC traffic"),
        )?;
        write_csv(&fig.args.out, &name, &HEATMAP_CSV_HEADER, &heatmap_rows)?;
    }

    print_table(
        "\n## Barrier study — cycles per episode vs cores",
        &["series", "arch", "cores", "cycles/episode", "HoL blocks"],
        &columns(&rows, &[0, 1, 2, 4, 7]),
    );

    // Quantitative claims, checked at the largest core count where every
    // compared series completed (a DNF above that only strengthens the
    // conclusion — the collapsed series has no number to compare at all).
    let compared = [
        (BarrierImpl::HwMmio, SyncArch::Lrsc),
        (BarrierImpl::CentralLrsc, SyncArch::Lrsc),
        (BarrierImpl::TreeAmo, SyncArch::Lrsc),
        (BarrierImpl::CentralLrscWait, COLIBRI4),
    ]
    .map(|(impl_, arch)| series(impl_, arch));
    let top = largest_common_x(&results, Point::key, &compared, cores)?;
    let latency = |s: &str| find(&results, Point::key, s, top).map(Point::cycles_per_episode);
    let [hw, central_lrsc, tree, parking] = [
        latency(&compared[0])?,
        latency(&compared[1])?,
        latency(&compared[2])?,
        latency(&compared[3])?,
    ];
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
