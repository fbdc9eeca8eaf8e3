//! `fig_rcu` — the RCU epoch-reclamation study: grace-period latency vs
//! reader throughput as the reader count scales (64 → 1024 cores on the
//! scaled MemPool geometry), across the three synchronization substrates.
//!
//! Epoch-based RCU is the paper's thesis in miniature: readers must stay
//! wait-free and cheap, while writers mostly *wait*. [`RcuKernel`] is one
//! guest program for every substrate. Every reader core hammers
//! read-side sections: one `amoadd.w` on its own cache-line-private
//! counter pair (indexed by the epoch flag), a copy of the live data
//! checked for torn reads against the poison pattern, a second
//! `amoadd.w`; no reader ever blocks. A handful of writers run publish →
//! grace period → reclaim rounds under a ticket-lock writer mutex. A
//! grace period is a double flip-and-wait: flip the epoch flag, wait for
//! every old-epoch reader counter to drain to zero, twice, with a
//! version-checksum re-scan against in-flight readers; only then is the
//! retired buffer poisoned and reclaimed. The mutex handoff and the
//! drain are where the substrates part ways:
//!
//! * plain LR/SC — the wait primitives fail fast, so writers dispense
//!   their ticket through an lr/sc retry loop with exponential
//!   backoff, then *poll* the owner word (each handoff overshoots by up
//!   to a backoff interval, and the overshoot accumulates along the
//!   ticket queue) and poll each straggling reader's counter in a
//!   bounded loop;
//! * LRSCwait (ideal) — the same ticket dispense runs retry-free and FIFO
//!   through the word's reservation queue (`lrwait.w`/`scwait.w`), and
//!   writers *park* with `mwait.w` on the owner word and on each
//!   straggler's own counter word, so the holder's plain release store
//!   is an exact wakeup;
//! * Colibri — the same parking through the bounded Qnode/monitor-queue
//!   hardware the paper costs at 6% area.
//!
//! Per point the sweep records the guest-stamped per-sync latency
//! distribution (p50/p99/max via [`RcuKernel::grace_cycles`] — mutex
//! wait included, the latency a `synchronize_rcu` caller actually
//! feels — read through the experiment's `inspect` hook) and the
//! aggregate reader throughput. A streaming trace sink folds the park/wake/request
//! stream into the paper's physics check: **a parked writer issues zero
//! polling requests while it waits** (Qnode `WakeUp` bounces excepted —
//! one message per handoff is the mechanism that replaces polling). The
//! claims are that zero, that the wait path engages, and that LRSCwait's
//! grace-period p99 beats retry-LRSC at the largest core count where
//! every series completed (~2× at 1024 cores: the polling-overshoot tax,
//! not a fairness artifact, since both run the same FIFO ticket
//! algorithm). A point that cannot finish within the 40 M-cycle watchdog
//! is reported as **DNF** and dropped from the CSV (the fig_barriers
//! policy).
//!
//! Writer arrivals are staggered at start-up and spaced by seeded
//! think-time draws sized to keep the mutex below saturation, so the
//! per-sync latency distribution measures handoff queueing — where
//! exact wakeups and backoff polling genuinely part ways — rather
//! than a work-conserving makespan that every substrate shares.
//!
//! The write side marks its critical section with MMIO region markers,
//! so the `rcu-grace` litmus scenario arms the chaos engine's
//! `InvariantChecker::check_mutual_exclusion`, under eviction storms on
//! every architecture and with a `lose-sc:0` mutation self-test.
//!
//! # CSV schema
//!
//! `fig_rcu.csv` has one row per series × core count:
//!
//! | column | meaning |
//! |---|---|
//! | `series` | `LRSC`, `LRSCwait_ideal` or `Colibri4` |
//! | `cores`, `readers`, `syncs` | geometry: total cores, reader cores, completed grace periods |
//! | `grace_p50`, `grace_p99`, `grace_max` | grace-period latency percentiles in cycles (nearest-rank, over per-writer MMIO stamps) |
//! | `reader_ops_per_cycle` | aggregate read-side section throughput |
//! | `cycles`, `stall_cycles` | run length and total core-stall cycles |
//! | `parks` | all `Park` trace events (any blocking memory operation) |
//! | `wait_parks` | parks whose cause is `lrwait`/`scwait`/`mwait` — the wait path engaging |
//! | `polls_while_parked` | memory requests issued by cores between their own park and wake — **identically 0** on wait substrates; that zero *is* the paper's polling-free claim, and the figure fails if it is ever nonzero |

use std::collections::HashMap;

use lrscwait_core::SyncArch;
use lrscwait_kernels::RcuKernel;
use lrscwait_sim::SimConfig;
use lrscwait_trace::{OpKind, SharedSink, TraceEvent, TraceSink};

use crate::figure::{find, largest_common_x, product, Figure};
use crate::report::{columns, print_table};
use crate::{check_claim, BenchError, Measurement};

const ARCHES: [SyncArch; 3] = [
    SyncArch::Lrsc,
    SyncArch::LrscWaitIdeal,
    SyncArch::Colibri { queues: 4 },
];

/// The header of the figure CSV.
const CSV_HEADER: [&str; 13] = [
    "series",
    "cores",
    "readers",
    "syncs",
    "grace_p50",
    "grace_p99",
    "grace_max",
    "reader_ops_per_cycle",
    "cycles",
    "stall_cycles",
    "parks",
    "wait_parks",
    "polls_while_parked",
];

/// Streaming fold of the zero-polling physics over the event stream: no
/// `ReqSent` may carry a parked core's id strictly after its `Park` and
/// before its `Wake` — except `WakeUp` messages, which the core's Qnode
/// (a hardware unit that stays awake) bounces on the sleeper's behalf.
/// Folding online keeps host memory flat at kilocore scale, where a
/// recorded stream would not.
#[derive(Debug, Default)]
struct ParkedTraffic {
    parked_at: HashMap<u32, u64>,
    parks: u64,
    wait_parks: u64,
    polls_while_parked: u64,
}

impl TraceSink for ParkedTraffic {
    fn record(&mut self, cycle: u64, event: TraceEvent) {
        match event {
            TraceEvent::Park { core, cause } => {
                self.parked_at.insert(core, cycle);
                self.parks += 1;
                // Any blocking access parks a core; only these causes
                // prove the *wait primitives* put it to sleep.
                if matches!(cause, OpKind::LrWait | OpKind::ScWait | OpKind::MWait) {
                    self.wait_parks += 1;
                }
            }
            TraceEvent::Wake { core, .. } => {
                self.parked_at.remove(&core);
            }
            TraceEvent::ReqSent { core, kind, .. } => {
                if kind == OpKind::WakeUp {
                    return; // Qnode hardware handoff, not core traffic
                }
                if let Some(&since) = self.parked_at.get(&core) {
                    if cycle > since {
                        self.polls_while_parked += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

struct Point {
    measurement: Measurement,
    arch: SyncArch,
    cores: u32,
    readers: u32,
    syncs: u32,
    grace: Vec<u64>,
    traffic: ParkedTraffic,
}

impl Point {
    /// `(series label, cores)`, the key claims look points up by.
    fn key(&self) -> (&str, u32) {
        self.measurement.key()
    }
}

/// The series label of the RCU kernel on an architecture.
fn series(arch: SyncArch) -> String {
    format!("rcu on {arch}")
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub(super) fn run(fig: &Figure) -> Result<(), BenchError> {
    let cores: &[u32] = fig.pick(&[64, 256], &[64, 256, 1024]);
    // Several contending writers: the retry-vs-parking contrast lives in
    // the writer-mutex handoff, and `synchronize_rcu` latency as a caller
    // feels it includes that wait. Readers are everyone else, so the
    // x-axis still sweeps the reader count.
    let writers = 16;
    let syncs = fig.pick(6, 12);
    let iters = fig.pick(48, 128);

    let results: Vec<Point> = fig
        .sweep(product(&ARCHES, cores), |(arch, cores)| {
            let cfg = SimConfig::builder()
                .mempool_cores(cores as usize)
                .arch(arch)
                .max_cycles(40_000_000);
            let kernel = RcuKernel::new(cores, writers, syncs, iters);
            let parked = SharedSink::new(ParkedTraffic::default());
            let mut grace = Vec::new();
            let exp = fig
                .experiment(&kernel, cfg)?
                .label(series(arch))
                .x(cores)
                .sink(Box::new(parked.clone()))
                .inspect(|machine| grace = kernel.grace_cycles(machine));
            let Some(measurement) = fig.run_dnf(exp, cores)? else {
                return Ok(None);
            };
            grace.sort_unstable();
            let point = Point {
                measurement,
                arch,
                cores,
                readers: kernel.readers(),
                syncs: kernel.total_syncs(),
                grace,
                traffic: parked.take(),
            };
            eprintln!(
                "{} {} cores={cores}: grace p50 {} p99 {} max {} cycles, \
                 {:.4} reader ops/cycle ({} parks, {} wait-parks, {} polls-while-parked)",
                fig.name,
                point.measurement.label,
                percentile(&point.grace, 0.50),
                percentile(&point.grace, 0.99),
                point.grace.last().copied().unwrap_or(0),
                point.measurement.throughput,
                point.traffic.parks,
                point.traffic.wait_parks,
                point.traffic.polls_while_parked,
            );
            Ok(Some(point))
        })?
        .into_iter()
        .flatten()
        .collect();
    check_claim(
        !results.is_empty(),
        "every RCU point hit the watchdog — no figure to report",
    )?;

    fig.finish(results.iter().map(|p| &p.measurement))?;

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                p.arch.to_string(),
                p.cores.to_string(),
                p.readers.to_string(),
                p.syncs.to_string(),
                percentile(&p.grace, 0.50).to_string(),
                percentile(&p.grace, 0.99).to_string(),
                p.grace.last().copied().unwrap_or(0).to_string(),
                format!("{:.4}", p.measurement.throughput),
                p.measurement.cycles.to_string(),
                p.measurement.stats.total_stall_cycles().to_string(),
                p.traffic.parks.to_string(),
                p.traffic.wait_parks.to_string(),
                p.traffic.polls_while_parked.to_string(),
            ]
        })
        .collect();
    fig.write_csv(&CSV_HEADER, &rows)?;

    print_table(
        "\n## RCU study — grace-period latency vs reader count",
        &[
            "series",
            "cores",
            "grace p50",
            "grace p99",
            "grace max",
            "reader ops/cycle",
        ],
        &columns(&rows, &[0, 1, 4, 5, 6, 7]),
    );

    // Physics: a parked writer issues zero polling requests while it
    // waits, at every completing point of every wait-capable series —
    // and on those series the writer must actually have parked.
    for p in &results {
        if p.arch == SyncArch::Lrsc {
            continue;
        }
        check_claim(
            p.traffic.polls_while_parked == 0,
            format!(
                "rcu on {} cores={}: a parked core issued {} memory requests",
                p.arch, p.cores, p.traffic.polls_while_parked
            ),
        )?;
        check_claim(
            p.traffic.wait_parks > 0,
            format!(
                "rcu on {} cores={}: no core ever slept on a wait primitive — \
                 the wait path did not engage",
                p.arch, p.cores
            ),
        )?;
    }

    // Headline: polling-free grace periods beat retry-LRSC ones at the
    // largest core count where every series completed (a DNF above that
    // only strengthens the conclusion).
    let top = largest_common_x(&results, Point::key, &ARCHES.map(series), cores)?;
    let p99 = |arch: SyncArch| {
        find(&results, Point::key, &series(arch), top).map(|p| percentile(&p.grace, 0.99))
    };
    let lrsc = p99(SyncArch::Lrsc)?;
    let lrscwait = p99(SyncArch::LrscWaitIdeal)?;
    let colibri = p99(SyncArch::Colibri { queues: 4 })?;
    println!(
        "at {top} cores: grace p99 — LRSC {lrsc} | LRSCwait {lrscwait} | Colibri {colibri} cycles"
    );
    check_claim(
        lrscwait < lrsc,
        format!(
            "LRSCwait grace-period p99 must beat retry-LRSC at {top} cores \
             ({lrscwait} vs {lrsc} cycles)"
        ),
    )
}
