//! Kernel-level differential equivalence: the production stepper and
//! the naive reference stepper must produce byte-identical benchmark
//! results — cycle counts, full
//! statistics, and the rendered sweep CSV — across the kernel ×
//! architecture matrix. The machine-level suite with targeted assembly
//! lives in `crates/sim/tests/differential.rs`; the pinned schedules, in
//! `tests/pins.rs`.

use lrscwait::asm::Program;
use lrscwait::core::SyncArch;
use lrscwait::isa::{decode, AmoOp, Instr};
use lrscwait::kernels::{
    BarrierImpl, BarrierKernel, HistImpl, HistogramKernel, MatmulKernel, PollerKind, QueueImpl,
    QueueKernel, RcuKernel, Workload,
};
use lrscwait::noc::NodeTraffic;
use lrscwait::sim::{ExecMode, SimConfig};
use lrscwait::trace::{RecordingSink, SharedSink};
use lrscwait_bench::{Experiment, Measurement, Sweep};

fn assert_equivalent(kernel: &dyn Workload, cfg: SimConfig, what: &str) -> Measurement {
    let fast = Experiment::new(kernel, cfg).x(1).run().expect(what);
    let mut reference_cfg = cfg;
    reference_cfg.exec_mode = ExecMode::Reference;
    let reference = Experiment::new(kernel, reference_cfg)
        .x(1)
        .run()
        .expect(what);
    assert_eq!(fast.cycles, reference.cycles, "{what}: cycle count");
    assert_eq!(fast.stats, reference.stats, "{what}: statistics");
    assert_eq!(
        fast.csv_row(),
        reference.csv_row(),
        "{what}: rendered CSV row"
    );
    fast
}

#[test]
fn histogram_matrix_is_equivalent() {
    for (impl_, arch) in [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::Lrsc, SyncArch::Lrsc),
        (HistImpl::TicketLock, SyncArch::Lrsc),
        (HistImpl::LrscWait, SyncArch::LrscWaitIdeal),
        (HistImpl::LrscWait, SyncArch::LrscWait { slots: 2 }),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
        (HistImpl::ColibriLock, SyncArch::Colibri { queues: 4 }),
    ] {
        let kernel = HistogramKernel::new(impl_, 2, 8, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&kernel, cfg, &format!("histogram {impl_:?} on {arch}"));
    }
}

#[test]
fn compute_histogram_is_equivalent_on_every_architecture() {
    // The benchmark's busy-loop shape: pure-ALU compute loops, which
    // superblocks retire whole iterations at a time, between the updates.
    for (impl_, arch) in [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::AmoAdd, SyncArch::LrscWaitIdeal),
        (HistImpl::LrscWait, SyncArch::LrscWait { slots: 2 }),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
    ] {
        let kernel = HistogramKernel::new(impl_, 2, 8, 8).with_compute(16);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(
            &kernel,
            cfg,
            &format!("compute histogram {impl_:?} on {arch}"),
        );
    }
}

#[test]
fn queue_matrix_is_equivalent() {
    let small = || SimConfig::builder().cores(8).max_cycles(50_000_000);
    let colibri = SyncArch::Colibri { queues: 4 };
    for (impl_, arch, iters, cores, geometry) in [
        (QueueImpl::LrscWaitDirect, colibri, 6, 8, small()),
        (QueueImpl::LrscMs, SyncArch::Lrsc, 6, 8, small()),
        (QueueImpl::TicketRing, SyncArch::Lrsc, 6, 8, small()),
        // The paper's 256-core MemPool geometry: every core contends on
        // one Colibri-owned queue, so at any instant almost the whole
        // machine is asleep in hardware wait queues — the fast-forward and
        // wake-chain paths at a scale no 8-core row reaches.
        (
            QueueImpl::LrscWaitDirect,
            colibri,
            4,
            256,
            SimConfig::builder().mempool(),
        ),
    ] {
        let kernel = QueueKernel::new(impl_, iters, cores);
        let cfg = geometry.arch(arch).build().unwrap();
        assert_equivalent(
            &kernel,
            cfg,
            &format!("queue {impl_:?} on {arch}, {cores} cores"),
        );
    }
}

#[test]
fn matmul_interference_is_equivalent() {
    for (kind, arch) in [
        (PollerKind::Idle, SyncArch::Lrsc),
        (PollerKind::Lrsc, SyncArch::Lrsc),
        (PollerKind::LrscWait, SyncArch::Colibri { queues: 4 }),
    ] {
        let kernel = MatmulKernel::new(8, 2, 4, kind);
        let cfg = SimConfig::builder()
            .cores(4)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let m = assert_equivalent(&kernel, cfg, &format!("matmul {kind:?} on {arch}"));
        assert!(m.max_region_cycles(0..2).is_some());
    }
}

/// The (barrier algorithm, architecture) pairs the differential and
/// tracing suites cover: every algorithm on its native architecture plus
/// the degenerate fail-fast path of the wait-based barrier on plain LRSC.
const BARRIER_MATRIX: [(BarrierImpl, SyncArch); 6] = [
    (BarrierImpl::CentralLrsc, SyncArch::Lrsc),
    (
        BarrierImpl::CentralLrscWait,
        SyncArch::Colibri { queues: 4 },
    ),
    (BarrierImpl::CentralLrscWait, SyncArch::Lrsc),
    (BarrierImpl::TreeAmo, SyncArch::Lrsc),
    (BarrierImpl::TreeAmo, SyncArch::LrscWaitIdeal),
    (BarrierImpl::HwMmio, SyncArch::Lrsc),
];

#[test]
fn barrier_matrix_is_equivalent() {
    for (impl_, arch) in BARRIER_MATRIX {
        let kernel = BarrierKernel::new(impl_, 3, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&kernel, cfg, &format!("barrier {impl_:?} on {arch}"));
    }
}

#[test]
fn barrier_trace_streams_are_identical_across_modes() {
    // Not just the aggregates: the full structured event stream of a
    // barrier run — park/wake, barrier arrive/release, adapter and NoC
    // events, cycle-stamped — must be identical in both exec modes.
    let record = |impl_: BarrierImpl, arch: SyncArch, mode: ExecMode| {
        let kernel = BarrierKernel::new(impl_, 3, 8);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .exec_mode(mode)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let sink = SharedSink::new(RecordingSink::new());
        let m = Experiment::new(&kernel, cfg)
            .x(1)
            .sink(Box::new(sink.clone()))
            .run()
            .expect("traced barrier run");
        (sink.take().events, m)
    };
    for (impl_, arch) in [
        (
            BarrierImpl::CentralLrscWait,
            SyncArch::Colibri { queues: 4 },
        ),
        (BarrierImpl::TreeAmo, SyncArch::Lrsc),
        (BarrierImpl::HwMmio, SyncArch::Lrsc),
    ] {
        let (base_events, base_m) = record(impl_, arch, ExecMode::Translated);
        assert!(
            !base_events.is_empty(),
            "{impl_:?}: stream must be non-empty"
        );
        let (events, m) = record(impl_, arch, ExecMode::Reference);
        assert_eq!(base_m.cycles, m.cycles, "{impl_:?} reference");
        assert_eq!(
            base_events, events,
            "{impl_:?} on {arch}: reference trace stream diverges"
        );
    }
}

/// The architectures the RCU differential and tracing suites cover: the
/// parking path on both wait architectures, the bounded-slot fail-fast
/// hybrid, and the pure software-backoff degradation on plain LRSC.
const RCU_ARCHES: [SyncArch; 4] = [
    SyncArch::Lrsc,
    SyncArch::LrscWaitIdeal,
    SyncArch::LrscWait { slots: 2 },
    SyncArch::Colibri { queues: 4 },
];

fn rcu_kernel() -> RcuKernel {
    RcuKernel::new(8, 2, 2, 8)
}

#[test]
fn rcu_matrix_is_equivalent() {
    for arch in RCU_ARCHES {
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        assert_equivalent(&rcu_kernel(), cfg, &format!("rcu on {arch}"));
    }
}

#[test]
fn rcu_trace_streams_are_identical_across_modes() {
    // The full structured event stream of an RCU run — the writer's
    // park/wake on straggling reader counters, region markers around each
    // grace period, adapter and NoC events — must be identical in both
    // exec modes.
    let record = |arch: SyncArch, mode: ExecMode| {
        let kernel = rcu_kernel();
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .exec_mode(mode)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let sink = SharedSink::new(RecordingSink::new());
        let m = Experiment::new(&kernel, cfg)
            .x(1)
            .sink(Box::new(sink.clone()))
            .run()
            .expect("traced rcu run");
        (sink.take().events, m)
    };
    for arch in [SyncArch::Lrsc, SyncArch::Colibri { queues: 4 }] {
        let (base_events, base_m) = record(arch, ExecMode::Translated);
        assert!(!base_events.is_empty(), "rcu on {arch}: stream non-empty");
        let (events, m) = record(arch, ExecMode::Reference);
        assert_eq!(base_m.cycles, m.cycles, "rcu reference");
        assert_eq!(
            base_events, events,
            "rcu on {arch}: reference trace stream diverges"
        );
    }
}

#[test]
fn sweep_csv_bytes_are_identical_across_modes() {
    // A whole (impl × bins) sweep rendered to CSV text must come out
    // byte-for-byte the same from both schedulers.
    let points: Vec<(HistImpl, SyncArch, u32)> = [
        (HistImpl::AmoAdd, SyncArch::Lrsc),
        (HistImpl::LrscWait, SyncArch::Colibri { queues: 4 }),
        (HistImpl::Lrsc, SyncArch::Lrsc),
    ]
    .into_iter()
    .flat_map(|(impl_, arch)| [1u32, 4, 16].map(move |bins| (impl_, arch, bins)))
    .collect();

    let render = |mode: ExecMode| -> String {
        let measurements = Sweep::new("diff-csv")
            .threads(4)
            .quiet()
            .run(points.clone(), |(impl_, arch, bins)| {
                let cfg = SimConfig::builder()
                    .cores(8)
                    .arch(arch)
                    .exec_mode(mode)
                    .max_cycles(50_000_000)
                    .build()?;
                let kernel = HistogramKernel::new(impl_, bins, 8, 8);
                Experiment::new(&kernel, cfg).x(bins).run()
            })
            .expect("sweep completes");
        let mut text = String::from("series,bins,updates_per_cycle,lo,hi,cycles,stalls\n");
        for m in &measurements {
            text.push_str(&m.csv_row().join(","));
            text.push('\n');
        }
        text
    };

    assert_eq!(
        render(ExecMode::Translated),
        render(ExecMode::Reference),
        "reference CSV bytes diverge"
    );
}

#[test]
fn per_node_noc_traffic_sums_to_the_network_stats_in_every_mode() {
    // Each network counts its own traffic per node. The counters must add
    // up to the network's aggregate statistics and, like them, must not
    // depend on the exec mode or on an attached trace sink.
    let hist = HistogramKernel::new(HistImpl::Lrsc, 1, 4, 64);
    let queue = QueueKernel::new(QueueImpl::LrscWaitDirect, 4, 16);
    let runs: [(&str, &dyn Workload, usize, SyncArch); 2] = [
        ("lrsc 1-bin histogram", &hist, 64, SyncArch::Lrsc),
        ("colibri queue", &queue, 16, SyncArch::Colibri { queues: 4 }),
    ];
    for (what, kernel, cores, arch) in runs {
        let mut first: Option<[Vec<NodeTraffic>; 2]> = None;
        for mode in [ExecMode::Translated, ExecMode::Reference] {
            for traced in [false, true] {
                let cfg = SimConfig::builder()
                    .cores(cores)
                    .arch(arch)
                    .exec_mode(mode)
                    .max_cycles(50_000_000)
                    .build()
                    .unwrap();
                let mut traffic = None;
                let mut exp = Experiment::new(kernel, cfg)
                    .x(1)
                    .inspect(|machine| traffic = Some(machine.noc_traffic()));
                if traced {
                    exp = exp.traced();
                }
                let m = exp.run().expect(what);
                let traffic = traffic.expect("a completed run is inspected");
                let run = format!("{what} {mode:?} traced={traced}");
                for (nodes, stats) in traffic
                    .iter()
                    .zip([m.stats.req_network, m.stats.resp_network])
                {
                    let sum = |count: fn(&NodeTraffic) -> u32| -> u64 {
                        nodes.iter().map(|t| u64::from(count(t))).sum()
                    };
                    assert_eq!(
                        [
                            sum(|t| t.injected),
                            sum(|t| t.inject_stalled),
                            sum(|t| t.delivered),
                            sum(|t| t.hol_blocked),
                        ],
                        [
                            stats.injected,
                            stats.inject_stalls,
                            stats.delivered,
                            stats.hol_blocks,
                        ],
                        "{run}: per-node counters vs NetworkStats"
                    );
                }
                assert!(
                    m.stats.req_network.hol_blocks > 0 && m.stats.req_network.inject_stalls > 0,
                    "{run}: must exercise head-of-line blocking and backpressure"
                );
                match &first {
                    None => first = Some(traffic),
                    Some(first) => assert!(traffic == *first, "{run}: per-node counters moved"),
                }
            }
        }
    }
}

/// Whether `program` issues `lrwait`, `scwait` or `mwait` — the only
/// instructions the wait unit acts on.
fn issues_wait_instruction(program: &Program) -> bool {
    program.text.iter().any(|&word| {
        matches!(
            decode(word).expect("kernel text decodes"),
            Instr::Amo {
                op: AmoOp::LrWait | AmoOp::ScWait | AmoOp::MWait,
                ..
            }
        )
    })
}

#[test]
fn the_wait_unit_cannot_affect_a_program_without_wait_instructions() {
    // A kernel that never issues a wait instruction never reaches the wait
    // unit, so every architecture must replay the plain LR/SC bank path
    // cycle for cycle. `fig_barriers` relies on this to run such barriers
    // on LRSC only.
    let barriers = [
        BarrierImpl::CentralLrsc,
        BarrierImpl::CentralLrscWait,
        BarrierImpl::TreeAmo,
        BarrierImpl::HwMmio,
    ]
    .map(|impl_| (impl_, BarrierKernel::new(impl_, 3, 8)));
    for (impl_, kernel) in &barriers {
        assert_eq!(
            issues_wait_instruction(&kernel.program()),
            impl_.uses_wait_hardware(),
            "barrier {impl_:?}: uses_wait_hardware() disagrees with the kernel text"
        );
    }
    let hists = [
        HistImpl::AmoAdd,
        HistImpl::Lrsc,
        HistImpl::LrscWait,
        HistImpl::TicketLock,
        HistImpl::TasLock,
        HistImpl::ColibriLock,
        HistImpl::McsMwaitLock,
    ]
    .map(|impl_| (impl_, HistogramKernel::new(impl_, 2, 8, 8)));
    let queues = [
        QueueImpl::LrscWaitDirect,
        QueueImpl::LrscMs,
        QueueImpl::TicketRing,
    ]
    .map(|impl_| (impl_, QueueKernel::new(impl_, 6, 8)));
    let kernels = (barriers
        .iter()
        .map(|(i, k)| (format!("barrier {i:?}"), k as &dyn Workload)))
    .chain(
        hists
            .iter()
            .map(|(i, k)| (format!("histogram {i:?}"), k as &dyn Workload)),
    )
    .chain(
        queues
            .iter()
            .map(|(i, k)| (format!("queue {i:?}"), k as &dyn Workload)),
    );

    let archs = [
        SyncArch::Lrsc,
        SyncArch::LrscWait { slots: 1 },
        SyncArch::LrscWaitIdeal,
        SyncArch::Colibri { queues: 4 },
    ];
    let schedule = |kernel: &dyn Workload, arch: SyncArch, mode: ExecMode| {
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(arch)
            .exec_mode(mode)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        let m = Experiment::new(kernel, cfg)
            .x(1)
            .run()
            .expect("kernel runs");
        (m.cycles, m.stats)
    };
    let mut checked = Vec::new();
    for (what, kernel) in kernels {
        // A wait kernel is not run across archs: on plain LRSC some of
        // them only spin until the watchdog.
        if issues_wait_instruction(&kernel.program()) {
            continue;
        }
        for mode in [ExecMode::Translated, ExecMode::Reference] {
            let lrsc = schedule(kernel, SyncArch::Lrsc, mode);
            for arch in &archs[1..] {
                assert_eq!(
                    schedule(kernel, *arch, mode),
                    lrsc,
                    "{what} {mode:?}: the schedule on {arch} differs from LRSC"
                );
            }
        }
        checked.push(what);
    }
    assert_eq!(
        checked,
        [
            "barrier CentralLrsc",
            "barrier TreeAmo",
            "barrier HwMmio",
            "histogram AmoAdd",
            "histogram Lrsc",
            "histogram TicketLock",
            "histogram TasLock",
            "queue LrscMs",
            "queue TicketRing",
        ]
    );

    // The comparison does see the wait unit: the wait barrier's schedule moves.
    let wait_barrier = &barriers[1].1;
    assert_ne!(
        schedule(wait_barrier, SyncArch::Lrsc, ExecMode::Translated),
        schedule(
            wait_barrier,
            SyncArch::Colibri { queues: 4 },
            ExecMode::Translated
        ),
        "the wait barrier must schedule differently with a wait unit"
    );
}
