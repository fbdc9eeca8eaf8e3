//! Exact host work of the benchmark's three gated workloads at the
//! ledger's `--smoke` size (iterations / 64): core visits, interpreted
//! steps, superblock entries, ready-queue deferrals, NoC node visits per
//! network and loop iterations retired by superblocks' loop step, as
//! `Machine::work` counts them.
//!
//! The counts are a pure function of the run, so they pin where host time
//! can go: a change that claims to remove work must move exactly the
//! counts it names, and one that claims to move no work must move none.
//! Re-pin an intended change by pasting the table the failure prints.
//! The test prints the fresh table on success too (`-- --nocapture`), so
//! a CI log shows the exact counts of every change.

use lrscwait::core::SyncArch;
use lrscwait::kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel, Workload};
use lrscwait::sim::{SimConfig, WorkStats};
use lrscwait_bench::Experiment;

/// `(workload, core visits, interpreted steps, superblock entries,
/// deferrals, request-network node visits, response-network node visits,
/// loop iterations)`.
#[rustfmt::skip]
const WORK: &[(&str, [u64; 7])] = &[
    ("busy_loop_256", [6400, 3584, 2816, 2816, 7349, 6791, 129024]),
    ("hist_spread_256", [67840, 34304, 33536, 33536, 130398, 123586, 0]),
    ("queue_sleep_256", [122823, 109510, 13313, 7937, 167020, 165203, 0]),
];

fn row(work: WorkStats) -> [u64; 7] {
    [
        work.core_visits,
        work.interpreted_steps,
        work.superblock_entries,
        work.deferrals,
        work.noc_node_visits[0],
        work.noc_node_visits[1],
        work.loop_iterations,
    ]
}

#[test]
fn gated_workloads_do_the_pinned_host_work() {
    // The ledger's kernels and configurations, divided by its smoke divisor.
    let busy_loop = HistogramKernel::new(HistImpl::AmoAdd, 1024, 8, 256).with_compute(64);
    let hist_spread = HistogramKernel::new(HistImpl::AmoAdd, 1024, 128, 256);
    let queue_sleep = QueueKernel::new(QueueImpl::LrscWaitDirect, 10, 256);
    let runs: [(&str, &dyn Workload, SyncArch); 3] = [
        ("busy_loop_256", &busy_loop, SyncArch::Lrsc),
        ("hist_spread_256", &hist_spread, SyncArch::Lrsc),
        (
            "queue_sleep_256",
            &queue_sleep,
            SyncArch::Colibri { queues: 4 },
        ),
    ];
    let mut fresh = Vec::new();
    for (name, kernel, arch) in runs {
        let cfg = SimConfig::builder()
            .mempool_cores(256)
            .arch(arch)
            .max_cycles(200_000_000)
            .build()
            .unwrap();
        let mut work = WorkStats::default();
        Experiment::new(kernel, cfg)
            .inspect(|machine| work = machine.work())
            .run()
            .expect(name);
        fresh.push((name, row(work)));
    }
    let table: String = fresh
        .iter()
        .map(|(name, counts)| format!("    ({name:?}, {counts:?}),\n"))
        .collect();
    println!("host work of the gated workloads at --smoke size:\n{table}");
    assert!(
        fresh.iter().map(|(n, c)| (*n, *c)).eq(WORK.iter().copied()),
        "host work moved; the fresh table:\n{table}"
    );
}
