//! `fig_latency` — open-loop tail latency vs offered load for a service
//! fleet on LRSC vs Colibri wait hardware.
//!
//! The paper's throughput figures drive closed loops, which hide latency:
//! a core that polls slower simply issues slower. This figure drives the
//! opposite regime — an **open-loop** arrival process ([`crate::traffic`])
//! injects items on its own schedule whether or not the fleet keeps up —
//! and reports the end-to-end latency distribution (p50/p99/p99.9) as the
//! offered load climbs toward and past saturation.
//!
//! Sweep: offered load ρ (percent of the fleet's *measured* capacity) ×
//! synchronization architecture × arrival model (Poisson, and a bursty
//! two-state MMPP in the full sweep). Per-item service time is fixed, so
//! the x-axis is calibrated first: a low-load run on wait hardware
//! measures the effective per-item service time (mailbox overhead
//! included), and the sweep's inter-arrival means are derived from it.
//! The same means are then used for both architectures, so the LRSC
//! series shows what the paper predicts: the polling doorbell path
//! saturates earlier and its tail grows faster.
//!
//! A deliberately unserviceable overload point (ρ = 800 %) is part of the
//! sweep: it must **DNF** (run out of cycle budget with items still
//! queued) on every architecture — fig_barriers' DNF policy applied to
//! open-loop saturation. DNF points stay in the CSV flagged `dnf=1`
//! (their percentiles cover the items that did complete) because the
//! saturation knee *is* the figure; claims only use completed points.

use std::time::Instant;

use lrscwait_core::SyncArch;
use lrscwait_sim::{PhaseProfile, ProfilerConfig, SimConfig};

use crate::figure::{find, largest_common_x, product, Figure};
use crate::report::{columns, print_table};
use crate::traffic::{ArrivalProcess, ServiceHarness, ServiceKernel, TrafficSummary, WARMUP};
use crate::{check_claim, log_throughput, write_profile_json, BenchError};

/// Servers in the fleet (active cores).
const SERVERS: u32 = 8;
/// Nominal per-item service loop parameter (see [`ServiceKernel`]).
const SERVICE: u32 = 100;
/// The guaranteed-saturated load point (percent of measured capacity).
const OVERLOAD: u32 = 800;

const CSV_HEADER: [&str; 16] = [
    "series",
    "model",
    "load_pct",
    "interarrival",
    "items",
    "completed",
    "dnf",
    "p50",
    "p99",
    "p999",
    "max_latency",
    "mean_latency",
    "throughput_kcycle",
    "qdepth_mean",
    "qdepth_max",
    "cycles",
];

struct Point {
    series: &'static str,
    model: &'static str,
    load_pct: u32,
    summary: TrafficSummary,
    host_seconds: f64,
    profile: Option<PhaseProfile>,
}

impl Point {
    /// `(series, load)`, the key claims look points up by.
    fn key(&self) -> (&str, u32) {
        (self.series, self.load_pct)
    }
}

/// One traffic run: fleet of [`SERVERS`] on `arch`, open-loop arrivals
/// with the given mean inter-arrival time, `items` items, cycle budget
/// sized so saturated points run out (DNF) instead of running forever.
/// The traffic harness drives the machine itself, so of the flags only
/// `--exec` and `--profile` apply.
fn drive(
    fig: &Figure,
    arch: SyncArch,
    label: &str,
    mean: f64,
    items: u64,
    seed: u64,
    bursty: bool,
) -> Result<(TrafficSummary, Option<PhaseProfile>), BenchError> {
    let budget = WARMUP + (items as f64 * mean * 1.25) as u64 + 4 * u64::from(SERVICE);
    let cfg = fig.config(
        SimConfig::builder()
            .cores(SERVERS as usize)
            .arch(arch)
            .max_cycles(budget),
    )?;
    let arrivals = if bursty {
        // Two-state MMPP with the same long-run mean as the Poisson
        // series: dwell alternates between 2x and 2/3x the mean rate.
        ArrivalProcess::mmpp(seed, 2.0 * mean, 2.0 * mean / 3.0, 40.0 * mean)
    } else {
        ArrivalProcess::poisson(seed, mean)
    };
    let kernel = ServiceKernel::new(SERVERS, SERVICE);
    let mut harness = ServiceHarness::new(cfg, kernel, items, arrivals)?;
    if fig.args.profile {
        harness.enable_profiler(ProfilerConfig::default());
    }
    let summary = harness.run(label)?;
    Ok((summary, harness.profile()))
}

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let loads: &[u32] = fig.pick(
        &[25, 70, 100, OVERLOAD],
        &[10, 25, 40, 55, 70, 85, 100, 120, 140, OVERLOAD],
    );
    let items: u64 = fig.pick(150, 1500);
    // (series, architecture, seed salt)
    let archs = [
        ("LRSC", SyncArch::Lrsc, 0),
        ("Colibri", SyncArch::Colibri { queues: 4 }, 7919),
    ];
    let models: &[&'static str] = fig.pick(&["poisson"], &["poisson", "bursty"]);

    // Calibrate the fleet's effective per-item service time (service loop
    // + mailbox/dispatch overhead) with a near-idle run on wait hardware,
    // then express every sweep point as a fraction of that capacity. The
    // nominal SERVICE constant alone would put the knee at an unknown
    // multiple of ρ = 1.
    let (cal, _) = drive(
        fig,
        SyncArch::Colibri { queues: 4 },
        "calibration",
        f64::from(SERVICE) * 8.0,
        128,
        0x5EED,
        false,
    )?;
    check_claim(
        !cal.dnf && cal.latency.p50 >= u64::from(SERVICE),
        "calibration run must complete with at least the nominal service time",
    )?;
    let service_eff = cal.latency.p50 as f64;
    eprintln!(
        "{} calibration: effective service time {service_eff:.0} cycles \
         (nominal {SERVICE}); fleet capacity 1 item per {:.1} cycles",
        fig.name,
        service_eff / f64::from(SERVERS)
    );

    let points = product(&product(&archs, models), loads);
    let results: Vec<Point> = fig.sweep(points, |(((series, arch, salt), model), load)| {
        let label = format!("{series}/{model} load={load}%");
        let mean = service_eff / (f64::from(SERVERS) * f64::from(load) / 100.0);
        let bursty = model == "bursty";
        let seed = 0xACE1 + u64::from(load) * 31 + salt + if bursty { 104_729 } else { 0 };
        let started = Instant::now();
        let (summary, profile) = drive(fig, arch, &label, mean, items, seed, bursty)?;
        let host_seconds = started.elapsed().as_secs_f64();
        if summary.dnf {
            eprintln!(
                "{} {label}: DNF — {}/{} items within {} cycles \
                     (saturated, queue peaked at {})",
                fig.name, summary.completed, summary.items, summary.cycles, summary.queue_depth_max
            );
        } else {
            eprintln!(
                "{} {label}: p50 {} p99 {} p99.9 {} cycles \
                     (mean inter-arrival {:.1})",
                fig.name, summary.latency.p50, summary.latency.p99, summary.latency.p999, mean
            );
        }
        Ok(Point {
            series,
            model,
            load_pct: load,
            summary,
            host_seconds,
            profile,
        })
    })?;

    log_throughput(
        fig.name,
        results.iter().map(|p| (p.summary.cycles, p.host_seconds)),
    );
    if fig.args.profile {
        let points = results.iter().filter_map(|p| {
            let profile = p.profile.as_ref()?;
            Some((format!("{}/{}", p.series, p.model), p.load_pct, profile))
        });
        write_profile_json(&fig.args.out, fig.name, points)?;
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            let s = &p.summary;
            vec![
                p.series.to_string(),
                p.model.to_string(),
                p.load_pct.to_string(),
                format!("{:.2}", s.mean_interarrival),
                s.items.to_string(),
                s.completed.to_string(),
                u32::from(s.dnf).to_string(),
                s.latency.p50.to_string(),
                s.latency.p99.to_string(),
                s.latency.p999.to_string(),
                s.latency.max.to_string(),
                format!("{:.1}", s.latency.mean),
                format!("{:.3}", s.throughput_per_kcycle),
                format!("{:.2}", s.queue_depth_mean),
                s.queue_depth_max.to_string(),
                s.cycles.to_string(),
            ]
        })
        .collect();
    fig.write_csv(&CSV_HEADER, &rows)?;

    print_table(
        "\n## Open-loop tail latency vs offered load",
        &[
            "series", "model", "load %", "p50", "p99", "p99.9", "q max", "dnf",
        ],
        &columns(&rows, &[0, 1, 2, 7, 8, 9, 14, 6]),
    );

    // Quantitative claims, on the Poisson series only (the bursty series
    // is reported, not claimed — its tails depend on dwell phasing).
    let poisson = results.iter().filter(|p| p.model == "poisson");
    let completed = poisson.clone().filter(|p| !p.summary.dnf);
    let point = |series: &str, load: u32| {
        find(poisson.clone(), Point::key, series, load).map(|p| &p.summary)
    };
    let low = loads[0];
    for (series, _, _) in archs {
        let base = point(series, low)?;
        check_claim(
            !base.dnf,
            format!("{series}: the {low}% load point must complete"),
        )?;
        check_claim(
            base.latency.p50 >= u64::from(SERVICE),
            format!(
                "{series}: p50 at {low}% load must include the {SERVICE}-cycle service floor \
                 (got {})",
                base.latency.p50
            ),
        )?;
        // The saturation knee: the highest load this series still
        // completed must show clear queueing delay over the idle fleet.
        let knee_load = largest_common_x(completed.clone(), Point::key, &[series], loads)?;
        let knee = point(series, knee_load)?;
        eprintln!(
            "{} {series}: knee at {}% load — p99 {} vs {} at {low}%",
            fig.name, knee_load, knee.latency.p99, base.latency.p99
        );
        check_claim(
            knee_load > low && knee.latency.p99 >= base.latency.p99 * 3 / 2,
            format!(
                "{series}: p99 must grow at least 1.5x toward saturation \
                 ({} at {}% vs {} at {low}%)",
                knee.latency.p99, knee_load, base.latency.p99
            ),
        )?;
        // The unserviceable point must DNF — the budget is sized so that
        // 8x the fleet's measured capacity cannot drain in time.
        let over = point(series, OVERLOAD)?;
        check_claim(
            over.dnf && over.completed < over.items,
            format!("{series}: the {OVERLOAD}% overload point must DNF"),
        )?;
    }

    // The paper's headline for this figure: at the highest load both
    // architectures still complete, the parked (Colibri) fleet's tail is
    // shorter than the polling (LRSC) fleet's — doorbell polling burns
    // bank bandwidth the service path needs.
    let common = largest_common_x(completed, Point::key, &["LRSC", "Colibri"], loads)?;
    let lrsc = point("LRSC", common)?.latency.p99;
    let colibri = point("Colibri", common)?.latency.p99;
    println!("at {common}% load: p99 LRSC {lrsc} vs Colibri {colibri} cycles");
    check_claim(
        colibri < lrsc,
        format!(
            "wait-hardware parking must shorten the p99 tail at {common}% load \
             (Colibri {colibri} vs LRSC {lrsc} cycles)"
        ),
    )
}
