//! Cross-crate integration tests: full systems built through the facade,
//! exercising assembler → simulator → protocol → statistics together.

use lrscwait::asm::Assembler;
use lrscwait::core::SyncArch;
use lrscwait::kernels::{HistImpl, HistogramKernel, QueueImpl, QueueKernel};
use lrscwait::sim::{ExitReason, Machine, SimConfig};
use lrscwait_bench::Experiment;

const ALL_ARCHES: [SyncArch; 4] = [
    SyncArch::Lrsc,
    SyncArch::LrscWait { slots: 4 },
    SyncArch::LrscWaitIdeal,
    SyncArch::Colibri { queues: 4 },
];

#[test]
fn histogram_conserves_on_every_architecture() {
    for arch in ALL_ARCHES {
        let impl_ = if arch.supports_wait() {
            HistImpl::LrscWait
        } else {
            HistImpl::Lrsc
        };
        // The Experiment runner enforces the watchdog, verifies bin
        // conservation, and cross-checks the MMIO op counter.
        let kernel = HistogramKernel::new(impl_, 4, 12, 8);
        let cfg = SimConfig::builder().cores(8).arch(arch).build().unwrap();
        let m = Experiment::new(&kernel, cfg)
            .run()
            .unwrap_or_else(|e| panic!("{arch}: {e}"));
        assert_eq!(m.stats.total_ops(), kernel.expected_total(), "{arch}");
    }
}

#[test]
fn queue_conserves_on_wait_architectures() {
    for (impl_, arch) in [
        (QueueImpl::LrscWaitDirect, SyncArch::Colibri { queues: 4 }),
        (QueueImpl::LrscWaitDirect, SyncArch::LrscWaitIdeal),
        (QueueImpl::LrscMs, SyncArch::Lrsc),
        (QueueImpl::TicketRing, SyncArch::Lrsc),
    ] {
        let kernel = QueueKernel::new(impl_, 10, 6);
        let cfg = SimConfig::builder()
            .cores(6)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        // Checksum conservation is part of Experiment::run's verification.
        Experiment::new(&kernel, cfg)
            .run()
            .unwrap_or_else(|e| panic!("{impl_:?} on {arch}: {e}"));
    }
}

#[test]
fn colibri_eliminates_retries_where_lrsc_cannot() {
    // The same contended RMW workload: LRSC must fail SCs, Colibri must not
    // fail a single scwait (its linearization point is the lrwait).
    let src = r#"
        _start:
            la   a0, ctr
            li   t0, 25
        loop:
            lrwait.w t1, (a0)
            addi     t1, t1, 1
            scwait.w t2, t1, (a0)
            bnez     t2, loop
            addi t0, t0, -1
            bnez t0, loop
            ecall
        .data
        ctr: .word 0
    "#;
    let program = Assembler::new().assemble(src).unwrap();
    let arch = SyncArch::Colibri { queues: 1 };
    let mut machine = Machine::new(SimConfig::small(8, arch), &program).unwrap();
    machine.run().unwrap();
    assert_eq!(machine.read_word(program.symbol("ctr")), 200);
    assert_eq!(machine.stats().adapters.scwait_failure, 0);

    // The LRSC equivalent needs a (staggered) backoff or the deterministic
    // retry loops lock step into a livelock — itself a nice demonstration
    // of what the paper is fixing.
    let lrsc_src = r#"
        _start:
            rdhartid t3
            slli t3, t3, 2
            addi t3, t3, 8          # per-core backoff stagger
            la   a0, ctr
            li   t0, 25
        loop:
            lr.w t1, (a0)
            addi t1, t1, 1
            sc.w t2, t1, (a0)
            beqz t2, ok
            mv   t4, t3
        bk: addi t4, t4, -1
            bnez t4, bk
            j    loop
        ok:
            addi t0, t0, -1
            bnez t0, loop
            ecall
        .data
        ctr: .word 0
    "#;
    let program = Assembler::new().assemble(lrsc_src).unwrap();
    let mut machine = Machine::new(SimConfig::small(8, SyncArch::Lrsc), &program).unwrap();
    let summary = machine.run().unwrap();
    assert_eq!(summary.exit, ExitReason::AllHalted);
    assert_eq!(machine.read_word(program.symbol("ctr")), 200);
    assert!(machine.stats().adapters.sc_failure > 0, "LRSC must retry");
}

#[test]
fn sleeping_vs_polling_traffic() {
    // Waiters on a held location: Colibri cores park silently, while an
    // LRSC spin would keep the banks busy. Measured via adapter requests
    // per completed op.
    let kernel = HistogramKernel::new(HistImpl::LrscWait, 1, 8, 32);
    let arch = SyncArch::Colibri { queues: 1 };
    let mut machine = Machine::new(SimConfig::small(32, arch), &kernel.program()).unwrap();
    machine.run().unwrap();
    let colibri_reqs =
        machine.stats().adapters.requests as f64 / machine.stats().total_ops() as f64;

    let kernel = HistogramKernel::new(HistImpl::Lrsc, 1, 8, 32);
    let mut machine =
        Machine::new(SimConfig::small(32, SyncArch::Lrsc), &kernel.program()).unwrap();
    machine.run().unwrap();
    let lrsc_reqs = machine.stats().adapters.requests as f64 / machine.stats().total_ops() as f64;

    assert!(
        lrsc_reqs > 1.5 * colibri_reqs,
        "retry traffic must dominate: LRSC {lrsc_reqs:.1} vs Colibri {colibri_reqs:.1} requests/op"
    );
}

#[test]
fn mwait_monitor_chain() {
    // A chain of monitors: every waiter observes the final write.
    let src = r#"
        _start:
            rdhartid t0
            la   a0, flag
            beqz t0, writer
        waiter:
            mwait.w t1, zero, (a0)
            la   t2, seen
            slli t3, t0, 2
            add  t2, t2, t3
            sw   t1, (t2)
            fence
            ecall
        writer:
            li   t1, 30000
        delay:
            addi t1, t1, -1
            bnez t1, delay
            li   t2, 55
            sw   t2, (a0)
            fence
            ecall
        .data
        flag: .word 0
        .bss
        seen: .space 32
    "#;
    let program = Assembler::new().assemble(src).unwrap();
    let arch = SyncArch::Colibri { queues: 1 };
    let mut machine = Machine::new(SimConfig::small(8, arch), &program).unwrap();
    machine.run().unwrap();
    for c in 1..8 {
        assert_eq!(
            machine.read_word(program.symbol("seen") + 4 * c),
            55,
            "waiter {c} must observe the write"
        );
    }
}

#[test]
fn fairness_band_tighter_on_colibri() {
    let arch = SyncArch::Colibri { queues: 1 };
    let kernel = HistogramKernel::new(HistImpl::LrscWait, 1, 16, 16);
    let mut machine = Machine::new(SimConfig::small(16, arch), &kernel.program()).unwrap();
    machine.run().unwrap();
    let (lo, hi) = machine.stats().throughput_range().unwrap();
    let colibri_spread = hi / lo;

    let kernel = HistogramKernel::new(HistImpl::Lrsc, 1, 16, 16);
    let mut machine =
        Machine::new(SimConfig::small(16, SyncArch::Lrsc), &kernel.program()).unwrap();
    machine.run().unwrap();
    let (lo, hi) = machine.stats().throughput_range().unwrap();
    let lrsc_spread = hi / lo;

    assert!(
        colibri_spread < lrsc_spread,
        "FIFO service must be fairer: Colibri {colibri_spread:.2} vs LRSC {lrsc_spread:.2}"
    );
}

#[test]
fn facade_reexports_compose() {
    // Types from different facade modules interoperate.
    let arch: lrscwait::core::SyncArch = SyncArch::Colibri { queues: 2 };
    let cfg: lrscwait::sim::SimConfig = SimConfig::small(2, arch);
    assert_eq!(cfg.topology.num_cores, 2);
    let kernel = lrscwait::kernels::HistogramKernel::new(HistImpl::AmoAdd, 4, 2, 2);
    let program: lrscwait::asm::Program = lrscwait::kernels::Workload::program(&kernel);
    let mut machine = Machine::new(cfg, &program).unwrap();
    machine.run().unwrap();
    assert_eq!(machine.stats().total_ops(), kernel.expected_total());
    let word = lrscwait::isa::encode(&lrscwait::isa::Instr::nop());
    assert!(lrscwait::isa::decode(word).is_ok());
}
