//! One table pins every artifact whose bytes must not move: the kernel
//! images the quick figures and the ledger's workloads build, the
//! `(cycles, SimStats)` of runs whose schedule is pinned, the machine state
//! of four mid-run machines, and every file a `--quick` figure writes. A `<name>.csv` is pinned by its committed
//! baseline, `crates/bench/baseline/<name>.quick.csv`, byte for byte; every
//! other artifact is one `(label, byte length, FNV-1a)` row of [`PINS`].
//!
//! A mismatch prints the whole fresh table and names each CSV that moved.
//! An intended change is re-blessed in a commit of its own: paste the table
//! over `PINS` and copy each named fresh CSV over its baseline. An
//! unoptimized build skips the four slowest figure runs and carries their
//! rows over unchecked, so bless with `cargo test --release --test pins`.

use std::path::Path;

use lrscwait::asm::Program;
use lrscwait::core::SyncArch;
use lrscwait::kernels::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, LitmusKernel, LitmusScenario,
    MatmulKernel, PollerKind, QueueImpl, QueueKernel, RcuKernel, Workload,
};
use lrscwait::sim::{ExecMode, ExitReason, FaultPlan, Machine, SimConfig, SimStats};
use lrscwait_bench::{run_figure, Experiment};

/// FNV-1a-64 of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(label, byte length, FNV-1a)` per artifact, in the order the test
/// builds them: kernel images, schedules, machine states, then figure
/// files.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64)] = &[
    ("hist AmoAdd bins=1", 504, 0x02928a9249526bba),
    ("hist AmoAdd bins=1024", 504, 0xb9555d9c7717f279),
    ("hist AmoAdd compute=64", 589, 0x2e2973c477a9fc2c),
    ("hist Lrsc bins=1", 636, 0xcbf8246c0abcbc1d),
    ("hist Lrsc bins=1024", 636, 0x1931dec4426b9886),
    ("hist Lrsc compute=64", 721, 0xdbb3b363e4a39a35),
    ("hist LrscWait bins=1", 601, 0x92e82392dac909c4),
    ("hist LrscWait bins=1024", 601, 0x74a645f9844f8565),
    ("hist LrscWait compute=64", 686, 0xbe76056edc545128),
    ("hist TicketLock bins=1", 656, 0x665b24b079adf214),
    ("hist TicketLock bins=1024", 656, 0x8c3fc95f8345e187),
    ("hist TicketLock compute=64", 741, 0xd319075f09b6a90e),
    ("hist TasLock bins=1", 702, 0x5a76fb93d5217851),
    ("hist TasLock bins=1024", 702, 0x8eba374afd63e862),
    ("hist TasLock compute=64", 787, 0x3d2d457a2850c6df),
    ("hist ColibriLock bins=1", 686, 0x9b4e93c2847ecc21),
    ("hist ColibriLock bins=1024", 686, 0x7ec8f5ea912ba552),
    ("hist ColibriLock compute=64", 771, 0x185c7d526f0746b1),
    ("hist McsMwaitLock bins=1", 773, 0x651a793075fbd182),
    ("hist McsMwaitLock bins=1024", 773, 0xe5649fb3afa016db),
    ("hist McsMwaitLock compute=64", 858, 0x7622c89d47344408),
    ("ledger hist_spread_256", 512, 0x765dc66ebf4d1f1b),
    ("ledger hist_retry_256", 636, 0x0ec380e6065567e3),
    ("queue LrscWaitDirect cores=1", 932, 0xcd3c003b4a55909a),
    ("queue LrscWaitDirect cores=8", 932, 0x802c705d01d7cd8f),
    ("queue LrscWaitDirect cores=64", 932, 0x3b493b26b6005b5a),
    ("queue LrscMs cores=1", 1300, 0xa976a430611e01b2),
    ("queue LrscMs cores=8", 1300, 0x9293bf77e595cd37),
    ("queue LrscMs cores=64", 1300, 0xc7b41603111f4d8a),
    ("queue TicketRing cores=1", 1172, 0x728c058110aab3a9),
    ("queue TicketRing cores=8", 1172, 0x12fd89c625822b58),
    ("queue TicketRing cores=64", 1172, 0xee7e12852accf20f),
    ("ledger queue_sleep_256", 932, 0x82d6ea1ac2d4abe0),
    ("barrier CentralLrsc cores=64", 888, 0x13863df9acb8fc45),
    ("barrier CentralLrsc cores=256", 888, 0x5c7721e2fc20bfe9),
    ("barrier CentralLrscWait cores=64", 939, 0x22c3f772cb3b8d46),
    ("barrier CentralLrscWait cores=256", 939, 0xecc9e6018a31f7ca),
    ("barrier TreeAmo cores=64", 967, 0x81adc8e9685fec15),
    ("barrier TreeAmo cores=256", 967, 0xe6a4a9de3cbed2a5),
    ("barrier HwMmio cores=64", 638, 0xf81890309e761f0c),
    ("barrier HwMmio cores=256", 638, 0xb74c595348171b5c),
    ("ledger barrier_wait_1024", 947, 0x54a43152b596d02f),
    ("matmul Idle bins=1", 873, 0x8f9e85056b56f53d),
    ("matmul Idle bins=16", 873, 0x2382c199c9df75a9),
    ("matmul Lrsc bins=1", 949, 0x255b3e4587c6452f),
    ("matmul Lrsc bins=16", 949, 0x7904aab78e3e897f),
    ("matmul LrscWait bins=1", 889, 0xe921527e469d6093),
    ("matmul LrscWait bins=16", 889, 0x1a02fabcb7b11497),
    ("matmul AmoAdd bins=1", 873, 0x52b770c9782f577e),
    ("matmul AmoAdd bins=16", 873, 0xa4b47d489c8387be),
    ("litmus aba wait=false", 1030, 0x07c87752f8c83c28),
    ("litmus aba wait=true", 1030, 0x788ce0d6fea09788),
    ("litmus spurious-retry wait=false", 973, 0xb1e76a047dd076b5),
    ("litmus spurious-retry wait=true", 973, 0xe30e635bcff8661d),
    ("litmus lost-wakeup wait=false", 1009, 0x40ef5d57e1bef808),
    ("litmus lost-wakeup wait=true", 1009, 0x40ef5d57e1bef808),
    ("litmus wakeup-race wait=false", 1231, 0x9b0a78119a281831),
    ("litmus wakeup-race wait=true", 1231, 0x9b0a78119a281831),
    ("litmus eviction-storm wait=false", 973, 0x3ebc81e574b74162),
    ("litmus eviction-storm wait=true", 973, 0x3ebc81e574b74162),
    ("litmus rcu-grace wait=false", 2495, 0x0ed9655500a6042a),
    ("litmus rcu-grace wait=true", 2495, 0x0ed9655500a6042a),
    ("rcu cores=64", 2519, 0xd8da2ed1fdd0c5f6),
    ("rcu cores=256", 2519, 0x3f746cd668969dfe),
    ("schedule lrsc 1-bin histogram, 77813 cycles", 4288, 0x9baddbf29aa3c0de),
    ("schedule colibri queue, 1809 cycles", 1216, 0x3313b3d0bdfe6af4),
    ("schedule 1024-core central barrier, 24640 cycles", 65728, 0xee0114fb55f9676b),
    ("schedule ideal-queue 1-bin histogram, 2063 cycles", 4288, 0x11a540c163e6b7a8),
    ("schedule one-slot-queue 1-bin histogram, 8330 cycles", 4288, 0x2884b271d3df5990),
    ("schedule colibri queue, chaos jitter, 2447 cycles", 1216, 0x8795a7fd1093630f),
    ("schedule busy_loop_256 / 64, 4839 cycles", 16576, 0xc6cae19ab90d3917),
    ("schedule hist_spread_256 / 64, 3145 cycles", 16576, 0x41c2a28d1639ed79),
    ("schedule queue_sleep_256 / 64, 108661 cycles", 16576, 0xd329e040e328a28f),
    ("state bytes LRSC, cycle 400", 70969, 0x0e39d3284584b24b),
    ("state bytes LRSCwait_ideal, cycle 400", 71526, 0xaf5b9061297ca9b6),
    ("state bytes LRSCwait2, cycle 400", 71515, 0x08d615a4ece6e996),
    ("state bytes Colibri2, cycle 400", 72274, 0x5a70fb6e4e9fb49f),
    ("fig_barriers.heatmap.central-lrsc_lrsc_c256.csv", 9262, 0x9642fcc4668a2ad5),
    ("fig_barriers.heatmap.central-lrsc_lrsc_c64.csv", 2477, 0x9e789b7416137b3a),
    ("fig_barriers.heatmap.central-lrscwait_colibri4_c256.csv", 8948, 0xd9e2dc2c9d3cbbd5),
    ("fig_barriers.heatmap.central-lrscwait_colibri4_c64.csv", 2410, 0xbfe481285330ce89),
    ("fig_barriers.heatmap.central-lrscwait_lrsc_c256.csv", 9247, 0x9a088c40809e7ca0),
    ("fig_barriers.heatmap.central-lrscwait_lrsc_c64.csv", 2481, 0xd0f3e9c8b9776aed),
    ("fig_barriers.heatmap.hw_lrsc_c256.csv", 8735, 0x4dfe604f0ac1de89),
    ("fig_barriers.heatmap.hw_lrsc_c64.csv", 2243, 0xf7875a938f70a5fb),
    ("fig_barriers.heatmap.tree2_lrsc_c256.csv", 14215, 0x2da28a26b8e801bf),
    ("fig_barriers.heatmap.tree2_lrsc_c64.csv", 3549, 0xe5480d47e14cde1c),
];

const HIST_IMPLS: [HistImpl; 7] = [
    HistImpl::AmoAdd,
    HistImpl::Lrsc,
    HistImpl::LrscWait,
    HistImpl::TicketLock,
    HistImpl::TasLock,
    HistImpl::ColibriLock,
    HistImpl::McsMwaitLock,
];

const QUEUE_IMPLS: [QueueImpl; 3] = [
    QueueImpl::LrscWaitDirect,
    QueueImpl::LrscMs,
    QueueImpl::TicketRing,
];

const BARRIER_IMPLS: [BarrierImpl; 4] = [
    BarrierImpl::CentralLrsc,
    BarrierImpl::CentralLrscWait,
    BarrierImpl::TreeAmo,
    BarrierImpl::HwMmio,
];

const POLLERS: [PollerKind; 4] = [
    PollerKind::Idle,
    PollerKind::Lrsc,
    PollerKind::LrscWait,
    PollerKind::AmoAdd,
];

/// Every pinned image, labelled with the parameters that built it.
fn images() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for impl_ in HIST_IMPLS {
        // The quick fig3/fig4 sweep's ends, and the ledger's busy loop.
        for bins in [1, 1024] {
            let kernel = HistogramKernel::new(impl_, bins, 8, 256);
            out.push((format!("hist {impl_:?} bins={bins}"), kernel.program()));
        }
        let kernel = HistogramKernel::new(impl_, 1024, 512, 256).with_compute(64);
        out.push((format!("hist {impl_:?} compute=64"), kernel.program()));
    }
    // The ledger's histogram workloads at benchmark size.
    out.push((
        "ledger hist_spread_256".to_string(),
        HistogramKernel::new(HistImpl::AmoAdd, 1024, 8192, 256).program(),
    ));
    out.push((
        "ledger hist_retry_256".to_string(),
        HistogramKernel::new(HistImpl::Lrsc, 1, 96, 256).program(),
    ));
    for impl_ in QUEUE_IMPLS {
        for cores in [1, 8, 64] {
            let kernel = QueueKernel::new(impl_, 8, cores);
            out.push((format!("queue {impl_:?} cores={cores}"), kernel.program()));
        }
    }
    out.push((
        "ledger queue_sleep_256".to_string(),
        QueueKernel::new(QueueImpl::LrscWaitDirect, 640, 256).program(),
    ));
    for impl_ in BARRIER_IMPLS {
        for cores in [64, 256] {
            let kernel = BarrierKernel::new(impl_, 4, cores);
            out.push((format!("barrier {impl_:?} cores={cores}"), kernel.program()));
        }
    }
    out.push((
        "ledger barrier_wait_1024".to_string(),
        BarrierKernel::new(BarrierImpl::CentralLrscWait, 256, 1024).program(),
    ));
    for pollers in POLLERS {
        for bins in [1, 16] {
            let kernel = MatmulKernel::new(32, 4, 256, pollers).with_poll_bins(bins);
            out.push((format!("matmul {pollers:?} bins={bins}"), kernel.program()));
        }
    }
    for scenario in LitmusScenario::all() {
        for wait in [false, true] {
            let kernel = LitmusKernel::new(scenario, 4, 8).with_wait_primitives(wait);
            out.push((
                format!("litmus {} wait={wait}", scenario.name()),
                kernel.program(),
            ));
        }
    }
    for cores in [64, 256] {
        let kernel = RcuKernel::new(cores, 16, 6, 48);
        out.push((format!("rcu cores={cores}"), kernel.program()));
    }
    out
}

/// The byte stream an image's pin digests: its text, `source_lines`,
/// data, `bss_base`, `bss_size`, entry point and its symbols sorted by
/// name.
fn image_bytes(p: &Program) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, word: u32) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let mut out = Vec::new();
    for words in [&p.text, &p.source_lines] {
        put(&mut out, words.len() as u32);
        words.iter().for_each(|&w| put(&mut out, w));
    }
    put(&mut out, p.data.len() as u32);
    out.extend_from_slice(&p.data);
    for word in [p.bss_base, p.bss_size, p.entry] {
        put(&mut out, word);
    }
    let mut symbols: Vec<(&String, &u32)> = p.symbols.iter().collect();
    symbols.sort();
    for (name, &value) in symbols {
        out.extend_from_slice(name.as_bytes());
        out.push(0);
        put(&mut out, value);
    }
    out
}

/// The byte stream a schedule's pin digests: the cycle count and every
/// counter of a [`SimStats`], in declaration order, as little-endian
/// words.
fn schedule_bytes(cycles: u64, stats: &SimStats) -> Vec<u8> {
    let mut words = vec![cycles];
    for c in &stats.cores {
        words.extend([
            c.instret,
            c.active_cycles,
            c.stall_cycles,
            c.sleep_cycles,
            c.barrier_cycles,
            c.ops,
            c.region_start.unwrap_or(u64::MAX),
            c.region_end.unwrap_or(u64::MAX),
        ]);
    }
    for n in [&stats.req_network, &stats.resp_network] {
        words.extend([
            n.injected,
            n.inject_stalls,
            n.hops,
            n.delivered,
            n.hol_blocks,
        ]);
    }
    let a = &stats.adapters;
    words.extend([
        a.requests,
        a.loads,
        a.stores,
        a.amos,
        a.sc_success,
        a.sc_failure,
        a.wait_enqueued,
        a.wait_failfast,
        a.scwait_success,
        a.scwait_failure,
        a.successor_updates,
        a.wakeups,
        a.reservations_broken,
    ]);
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// `(what, kernel, cores, arch, chaos plan)` of one run whose schedule is
/// pinned.
type PinnedRun<'k> = (
    &'k str,
    &'k dyn Workload,
    usize,
    SyncArch,
    Option<FaultPlan>,
);

/// The pinned schedules, labelled with their cycle counts.
///
/// Both steppers share one `Network`, so a changed NoC arbitration order
/// moves the production stepper and `Reference` together and no
/// equivalence test would notice; these rows would. The first six were
/// recorded before the NoC storage rebuild, the bank front end with a wait
/// unit per architecture, and the networks counting their own traffic. The
/// last three are the benchmark's gated workloads at the ledger's
/// `--smoke` size (iterations / 64) on the 256-core MemPool geometry.
fn schedules() -> Vec<(String, Vec<u8>)> {
    let hist = HistogramKernel::new(HistImpl::Lrsc, 1, 4, 64);
    let queue = QueueKernel::new(QueueImpl::LrscWaitDirect, 4, 16);
    let barrier = BarrierKernel::new(BarrierImpl::CentralLrscWait, 1, 1024);
    let wait_hist = HistogramKernel::new(HistImpl::LrscWait, 1, 4, 64);
    // Request jitter and response (wakeup and flit) delay only, so every
    // injection of both networks may carry extra latency.
    let jitter = FaultPlan {
        wake_delay_per_mille: 150,
        wake_delay_max: 24,
        jitter_per_mille: 200,
        jitter_max: 6,
        ..FaultPlan::quiet(7)
    };
    let busy_loop = HistogramKernel::new(HistImpl::AmoAdd, 1024, 8, 256).with_compute(64);
    let hist_spread = HistogramKernel::new(HistImpl::AmoAdd, 1024, 128, 256);
    let queue_sleep = QueueKernel::new(QueueImpl::LrscWaitDirect, 10, 256);
    let colibri = SyncArch::Colibri { queues: 4 };
    let runs: [PinnedRun; 9] = [
        ("lrsc 1-bin histogram", &hist, 64, SyncArch::Lrsc, None),
        ("colibri queue", &queue, 16, colibri, None),
        ("1024-core central barrier", &barrier, 1024, colibri, None),
        (
            "ideal-queue 1-bin histogram",
            &wait_hist,
            64,
            SyncArch::LrscWaitIdeal,
            None,
        ),
        (
            "one-slot-queue 1-bin histogram",
            &wait_hist,
            64,
            SyncArch::LrscWait { slots: 1 },
            None,
        ),
        (
            "colibri queue, chaos jitter",
            &queue,
            16,
            colibri,
            Some(jitter),
        ),
        ("busy_loop_256 / 64", &busy_loop, 256, SyncArch::Lrsc, None),
        (
            "hist_spread_256 / 64",
            &hist_spread,
            256,
            SyncArch::Lrsc,
            None,
        ),
        ("queue_sleep_256 / 64", &queue_sleep, 256, colibri, None),
    ];
    let mut out = Vec::new();
    for (what, kernel, cores, arch, chaos) in runs {
        let [translated, reference] = [ExecMode::Translated, ExecMode::Reference].map(|mode| {
            let geometry = if cores >= 256 {
                SimConfig::builder().mempool_cores(cores)
            } else {
                SimConfig::builder().cores(cores)
            };
            let mut cfg = geometry
                .arch(arch)
                .exec_mode(mode)
                .max_cycles(50_000_000)
                .build()
                .unwrap();
            cfg.chaos = chaos;
            let m = Experiment::new(kernel, cfg).x(1).run().expect(what);
            assert!(
                m.stats.req_network.hol_blocks > 0,
                "{what}: must exercise head-of-line blocking"
            );
            if let SyncArch::LrscWait { .. } = arch {
                assert!(
                    m.stats.adapters.wait_failfast > 0,
                    "{what}: must exercise the full queue's fail-fast answer"
                );
            }
            (
                format!("schedule {what}, {} cycles", m.cycles),
                schedule_bytes(m.cycles, &m.stats),
            )
        });
        assert!(
            translated == reference,
            "{what}: the exec modes disagree ({} vs {})",
            translated.0,
            reference.0
        );
        out.push(translated);
    }
    out
}

/// Contended `lrwait`/`scwait` increments with a final barrier: parks
/// cores in wait queues, keeps both networks busy, and prints a per-core
/// result.
const CONTENDED_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        li   t0, 12
    again:
        lrwait.w t1, (a0)
        addi t1, t1, 1
        scwait.w t2, t1, (a0)
        bnez t2, again
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// The same counter with `lr.w`/`sc.w` retry and hartid-seeded
/// exponential backoff, for plain LR/SC.
const LRSC_COUNTER: &str = r#"
    .equ MMIO, 0xFFFF0000
    _start:
        li   s0, MMIO
        la   a0, counter
        rdhartid t6
        andi s10, t6, 7
        addi s10, s10, 4         # per-core initial backoff window
        li   t0, 12
    again:
        lr.w t1, (a0)
        addi t1, t1, 1
        sc.w t2, t1, (a0)
        beqz t2, ok
        mv   t5, s10
    bk:
        addi t5, t5, -1
        bnez t5, bk
        slli s10, s10, 1         # exponential growth, capped
        li   t5, 2048
        bltu s10, t5, again
        mv   s10, t5
        j    again
    ok:
        addi t0, t0, -1
        bnez t0, again
        sw   zero, 0x0C(s0)      # barrier
        lw   t3, (a0)
        sw   t3, 0x38(s0)        # print the final count
        ecall
    .data
    counter: .word 0
"#;

/// The machine state of an 8-core `small` machine at cycle 400 of a
/// contended counter, one per architecture: wait queues populated,
/// reservations held and flits in flight. The schedules pin only what
/// the statistics count; these rows pin the state itself.
fn states() -> Vec<(String, Vec<u8>)> {
    [
        (SyncArch::Lrsc, LRSC_COUNTER),
        (SyncArch::LrscWaitIdeal, CONTENDED_COUNTER),
        (SyncArch::LrscWait { slots: 2 }, CONTENDED_COUNTER),
        (SyncArch::Colibri { queues: 2 }, CONTENDED_COUNTER),
    ]
    .into_iter()
    .map(|(arch, src)| {
        let program = lrscwait::asm::assemble(src).expect("assembles");
        let mut m = Machine::new(SimConfig::small(8, arch), &program).expect("loads");
        let stop = m.run_until(400).expect("runs to cycle 400");
        assert_eq!(stop.exit, ExitReason::TargetReached, "{arch}: mid-run");
        (format!("state bytes {arch}, cycle 400"), m.state_bytes())
    })
    .collect()
}

/// Every `--quick` figure run: its output directory, its `fig` arguments,
/// and whether an unoptimized build runs it. The other four take 3-16 s
/// each unoptimized; CI's `cargo test --workspace --release` runs them.
const FIGURE_RUNS: [(&str, &[&str], bool); 11] = [
    ("table1", &["table1"], true),
    ("fig3", &["fig3"], true),
    ("fig4", &["fig4"], true),
    ("fig5", &["fig5"], false),
    ("fig6", &["fig6"], true),
    ("table2", &["table2"], true),
    ("ablation", &["ablation"], true),
    ("fig_barriers", &["fig_barriers"], false),
    ("fig_latency", &["fig_latency"], true),
    ("fig_rcu", &["fig_rcu"], false),
    // The oracle stepper reproduces the figure byte for byte.
    ("fig3-reference", &["fig3", "--exec", "reference"], false),
];

/// Runs every figure of [`FIGURE_RUNS`] into its own directory under
/// `dir`. Each `<name>.csv` is compared with its baseline, and each other
/// file becomes a fresh row. A figure this build skips carries its rows
/// over from [`PINS`]. Returns the rows and the problems found.
fn figures(dir: &Path) -> (Vec<(String, usize, u64)>, Vec<String>) {
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/baseline");
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for (run, args, unoptimized) in FIGURE_RUNS {
        let name = args[0];
        let pinned = PINS
            .iter()
            .filter(|(label, ..)| label.starts_with(&format!("{name}.")));
        if cfg!(debug_assertions) && !unoptimized {
            rows.extend(pinned.map(|&(label, len, hash)| (label.to_string(), len, hash)));
            continue;
        }
        let out = dir.join(run);
        let argv = args
            .iter()
            .copied()
            .chain(["--quick", "--out", out.to_str().unwrap()]);
        if let Err(e) = run_figure(argv.map(String::from)) {
            problems.push(format!("{run}: {e}"));
            continue;
        }

        let mut written: Vec<String> = std::fs::read_dir(&out)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        let csv = format!("{name}.csv");
        let mut named: Vec<String> = pinned.map(|(label, ..)| label.to_string()).collect();
        named.push(csv.clone());
        named.sort();
        if written != named {
            problems.push(format!(
                "{run} wrote {written:?}, but the table and baselines name {named:?}"
            ));
        }
        let baseline = baselines.join(format!("{name}.quick.csv"));
        if std::fs::read(out.join(&csv)).ok() != std::fs::read(&baseline).ok() {
            problems.push(format!(
                "{} differs from {}",
                out.join(&csv).display(),
                baseline.display()
            ));
        }
        for file in written.into_iter().filter(|file| *file != csv) {
            let bytes = std::fs::read(out.join(&file)).unwrap();
            rows.push((file, bytes.len(), fnv1a(&bytes)));
        }
    }
    (rows, problems)
}

#[test]
fn every_artifact_matches_its_pin() {
    let dir = std::env::temp_dir().join(format!("lrscwait-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let digest = |(label, bytes): (String, Vec<u8>)| (label, bytes.len(), fnv1a(&bytes));
    // The schedules and the figures each take seconds; run them side by
    // side.
    let (schedules, (figure_rows, mut problems)) = std::thread::scope(|s| {
        let schedules = s.spawn(schedules);
        let figures = figures(&dir);
        (schedules.join().unwrap(), figures)
    });
    let fresh: Vec<(String, usize, u64)> = images()
        .iter()
        .map(|(label, program)| (label.clone(), image_bytes(program)))
        .chain(schedules)
        .chain(states())
        .map(digest)
        .chain(figure_rows)
        .collect();
    for (label, len, hash) in &fresh {
        if !PINS.contains(&(label.as_str(), *len, *hash)) {
            problems.push(format!("{label}: moved or unpinned"));
        }
    }
    for (label, ..) in PINS {
        if !fresh.iter().any(|(l, ..)| l == label) {
            problems.push(format!("{label}: no longer built"));
        }
    }
    let in_order = fresh
        .iter()
        .map(|(l, n, h)| (l.as_str(), *n, *h))
        .eq(PINS.iter().copied());
    if !in_order || !problems.is_empty() {
        let table: String = fresh
            .iter()
            .map(|(l, n, h)| format!("    ({l:?}, {n}, {h:#018x}),\n"))
            .collect();
        panic!(
            "pinned artifacts moved:\n{}\nthe fresh table is:\n{table}",
            problems.join("\n")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
