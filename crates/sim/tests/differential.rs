//! Differential equivalence suite: the production stepper (runnable set,
//! ready queue, superblocks) must match the naive reference stepper
//! bit-for-bit — cycle counts, exit reasons, every statistic, and the
//! debug log — on every synchronization architecture. The
//! kernel-level matrix (histogram/queue/matmul through the bench
//! `Experiment`) lives in the workspace-level `tests/differential.rs`;
//! this file exercises the machine directly with targeted assembly.

mod common;

use common::{branch_penalty_rows, COUNTDOWN_FOREVER, STALL_MIX};
use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{CoreTiming, ExecMode, ExitReason, Machine, RunSummary, SimConfig, SimStats};

/// Runs `src` under both execution modes and asserts bit-identical
/// observable results, returning the (identical) summary and stats.
fn assert_equivalent(src: &str, cfg: SimConfig, what: &str) -> (RunSummary, SimStats) {
    let program = Assembler::new().assemble(src).expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");

    let mut fast = Machine::with_decoded(cfg, decoded.clone()).expect("loads");
    assert_eq!(fast.mode(), ExecMode::Translated, "translated default");
    let fast_summary = fast.run().expect("fast run");

    let mut reference_cfg = cfg;
    reference_cfg.exec_mode = ExecMode::Reference;
    let mut reference = Machine::with_decoded(reference_cfg, decoded).expect("loads");
    let reference_summary = reference.run().expect("reference run");
    assert_eq!(fast_summary, reference_summary, "{what}: run summary");
    assert_eq!(fast.stats(), reference.stats(), "{what}: statistics");
    assert_eq!(fast.debug_log(), reference.debug_log(), "{what}: debug log");
    (fast_summary, fast.stats())
}

fn all_archs() -> [SyncArch; 4] {
    [
        SyncArch::Lrsc,
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 2 },
    ]
}

#[test]
fn amoadd_contention_is_equivalent() {
    let src = r#"
        _start:
            la   a0, counter
            li   a1, 1
            li   t0, 12
        loop:
            amoadd.w a2, a1, (a0)
            addi t0, t0, -1
            bnez t0, loop
            ecall
        .data
        counter: .word 0
    "#;
    for arch in all_archs() {
        assert_equivalent(src, SimConfig::small(8, arch), "amoadd");
    }
}

#[test]
fn lrsc_retry_contention_is_equivalent() {
    let src = r#"
        _start:
            la   a0, counter
            li   t0, 16
        retry:
            lr.w t1, (a0)
            addi t1, t1, 1
            sc.w t2, t1, (a0)
            bnez t2, retry
            addi t0, t0, -1
            bnez t0, retry
            ecall
        .data
        counter: .word 0
    "#;
    let (_, stats) = assert_equivalent(src, SimConfig::small(4, SyncArch::Lrsc), "lr/sc");
    assert!(stats.adapters.sc_failure > 0, "contention must retry");
}

#[test]
fn lrscwait_sleepers_are_equivalent() {
    let src = r#"
        _start:
            la   a0, counter
            li   t0, 16
        again:
            lrwait.w t1, (a0)
            addi t1, t1, 1
            scwait.w t2, t1, (a0)
            bnez t2, again
            addi t0, t0, -1
            bnez t0, again
            ecall
        .data
        counter: .word 0
    "#;
    for arch in [
        SyncArch::LrscWaitIdeal,
        SyncArch::LrscWait { slots: 2 },
        SyncArch::Colibri { queues: 4 },
        SyncArch::Colibri { queues: 1 },
    ] {
        let (_, stats) = assert_equivalent(src, SimConfig::small(8, arch), "lrwait");
        assert!(
            stats.total_sleep_cycles() > 0,
            "{arch}: waiters must have slept"
        );
    }
}

#[test]
fn barrier_phases_are_equivalent() {
    // Repeated barriers with skewed arrival (core-id-dependent delay
    // loops) exercise the positional release accounting: within the
    // releasing cycle the reference charges barrier cycles to cores
    // visited before the releaser and stall cycles to those after it.
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            rdhartid s1
            li   s2, 3              # three barrier rounds
        round:
            addi t0, s1, 1
            slli t0, t0, 4          # delay proportional to hart id
        spin:
            addi t0, t0, -1
            bnez t0, spin
            sw   zero, 0x0C(s0)     # barrier
            addi s2, s2, -1
            bnez s2, round
            ecall
    "#;
    for cores in [2usize, 4, 8] {
        let (_, stats) = assert_equivalent(
            src,
            SimConfig::small(cores, SyncArch::Lrsc),
            "skewed barrier",
        );
        assert!(
            stats.cores.iter().any(|c| c.barrier_cycles > 0),
            "someone must have waited"
        );
    }
}

#[test]
fn barrier_with_early_halts_is_equivalent() {
    // Half the cores halt immediately; a halting core is the barrier
    // releaser for the rest.
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            rdhartid t0
            andi t1, t0, 1
            bnez t1, quit           # odd cores halt without joining
            sw   zero, 0x0C(s0)     # even cores wait at the barrier
            sw   zero, 0x0C(s0)
        quit:
            ecall
    "#;
    assert_equivalent(src, SimConfig::small(8, SyncArch::Lrsc), "halting barrier");
}

#[test]
fn mwait_producer_consumer_is_equivalent() {
    let src = r#"
        _start:
            rdhartid t0
            la   a0, mailbox
            bnez t0, consumer
        producer:
            li   t1, 3000
        work:
            addi t1, t1, -1
            bnez t1, work
            li   t2, 42
            sw   t2, (a0)
            fence
            ecall
        consumer:
            mwait.w t3, zero, (a0)
            la   t4, got
            sw   t3, (t4)
            fence
            ecall
        .data
        mailbox: .word 0
        got:     .word 0
    "#;
    for arch in [SyncArch::LrscWaitIdeal, SyncArch::Colibri { queues: 2 }] {
        let (_, stats) = assert_equivalent(src, SimConfig::small(4, arch), "mwait");
        assert!(stats.cores[1].sleep_cycles > 1000, "{arch}: consumer slept");
    }
}

#[test]
fn debug_prints_interleave_identically() {
    // Two cores print every iteration; the per-cycle interleaving of the
    // MMIO log is visit-order-sensitive and must match exactly.
    let src = r#"
        .equ MMIO, 0xFFFF0000
        _start:
            li   s0, MMIO
            rdhartid s1
            li   t0, 50
        loop:
            slli t1, t0, 8
            or   t1, t1, s1
            sw   t1, 0x38(s0)      # print (iter << 8) | hartid
            addi t0, t0, -1
            bnez t0, loop
            ecall
    "#;
    assert_equivalent(src, SimConfig::small(4, SyncArch::Lrsc), "debug prints");
}

#[test]
fn spinning_watchdog_is_equivalent() {
    // A pure spin loop never sleeps: fast-forward must not fire, and the
    // watchdog exit must be identical.
    let src = "_start: j _start\n";
    let cfg = SimConfig::builder()
        .cores(2)
        .max_cycles(2000)
        .build()
        .unwrap();
    let (summary, _) = assert_equivalent(src, cfg, "spin watchdog");
    assert_eq!(summary.exit, ExitReason::Watchdog);
    assert_eq!(summary.cycles, 2000);
}

#[test]
fn all_asleep_watchdog_is_equivalent_and_fast() {
    // Every core parks on a monitor nobody ever writes: the fast
    // run must fast-forward straight to the watchdog while reporting the
    // exact same statistics as the reference grinding through every cycle.
    let src = r#"
        _start:
            la   a0, mailbox
            mwait.w t0, zero, (a0)
            ecall
        .data
        mailbox: .word 0
    "#;
    let cfg = SimConfig::builder()
        .cores(4)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(100_000)
        .build()
        .unwrap();
    let (summary, stats) = assert_equivalent(src, cfg, "all-asleep watchdog");
    assert_eq!(summary.exit, ExitReason::Watchdog);
    assert_eq!(summary.cycles, 100_000);
    // Nearly every cycle of every core was spent asleep — and the lazy
    // accounting must say so even though the sleep never ended.
    assert!(
        stats.total_sleep_cycles() > 4 * 99_000,
        "sleep cycles: {}",
        stats.total_sleep_cycles()
    );
}

#[test]
fn fast_forward_jumps_to_watchdog_instantly() {
    // The acceptance scenario for fast-forwarding: a deadlocked (all
    // parked) machine exits at the watchdog limit after O(events) work —
    // a huge limit would take minutes on the reference stepper but is
    // instant here.
    let src = r#"
        _start:
            la   a0, mailbox
            mwait.w t0, zero, (a0)
            ecall
        .data
        mailbox: .word 0
    "#;
    let program = Assembler::new().assemble(src).unwrap();
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(5_000_000_000)
        .build()
        .unwrap();
    let started = std::time::Instant::now();
    let mut m = Machine::new(cfg, &program).unwrap();
    let summary = m.run().unwrap();
    assert_eq!(summary.exit, ExitReason::Watchdog);
    assert_eq!(summary.cycles, 5_000_000_000, "watchdog honored exactly");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "5G all-asleep cycles must be skipped, took {:?}",
        started.elapsed()
    );
}

#[test]
fn store_backpressure_is_equivalent() {
    // Hammer one bank with posted stores from every core to exercise
    // outbox backpressure, injection stalls and head-of-line blocking.
    let src = r#"
        _start:
            la   a0, slot
            li   t0, 64
        loop:
            sw   t0, (a0)
            addi t0, t0, -1
            bnez t0, loop
            fence
            ecall
        .data
        slot: .word 0
    "#;
    let (_, stats) = assert_equivalent(src, SimConfig::small(8, SyncArch::Lrsc), "store storm");
    assert!(
        stats.cores.iter().any(|c| c.stall_cycles > 0),
        "backpressure must stall someone"
    );
}

#[test]
fn stall_mix_is_equivalent() {
    for arch in all_archs() {
        for cfg in branch_penalty_rows(SimConfig::small(8, arch)) {
            let (summary, stats) = assert_equivalent(STALL_MIX, cfg, "stall mix");
            assert_eq!(summary.exit, ExitReason::AllHalted);
            assert!(
                stats.req_network.inject_stalls > 0,
                "{arch}: the store burst must backpressure the outboxes"
            );
        }
    }
}

#[test]
fn deferred_only_watchdog_is_equivalent() {
    // Every core sits out one enormous divide: nothing is runnable, asleep
    // or in flight, so the ready queue alone must carry the fast run to the
    // watchdog — and settle the stall cycles of cores that never re-enter.
    let cfg = SimConfig::builder()
        .cores(4)
        .timing(CoreTiming {
            div_latency: 1_000_000,
            ..CoreTiming::default()
        })
        .max_cycles(50_000)
        .build()
        .unwrap();
    let src = "_start: li t0, 7\n div t1, t0, t0\n ecall\n";
    let (summary, stats) = assert_equivalent(src, cfg, "deferred-only watchdog");
    assert_eq!(summary.exit, ExitReason::Watchdog);
    assert_eq!(summary.cycles, 50_000);
    for core in &stats.cores {
        assert_eq!(core.active_cycles, 2, "li and div issued");
        assert_eq!(core.active_cycles + core.stall_cycles, 50_000);
    }

    // The same with every core inside a delay loop that never counts
    // down: one superblock visit retires the whole countdown up to the
    // watchdog, then the core waits in the ready queue for a cycle that
    // never comes.
    let base = SimConfig::builder()
        .cores(4)
        .max_cycles(50_000)
        .build()
        .unwrap();
    for cfg in branch_penalty_rows(base) {
        let period = 2 + u64::from(cfg.timing.branch_penalty);
        let (summary, stats) = assert_equivalent(COUNTDOWN_FOREVER, cfg, "countdown watchdog");
        assert_eq!(summary.exit, ExitReason::Watchdog);
        assert_eq!(summary.cycles, 50_000);
        for core in &stats.cores {
            // `li` at cycle 0, then one `addi` + `bnez` per period.
            assert_eq!(
                core.instret,
                1 + 2 * (49_999 / period) + (49_999 % period).min(2)
            );
            assert_eq!(core.active_cycles + core.stall_cycles, 50_000);
        }
    }
}

#[test]
fn step_cycle_equivalence_without_run_loop() {
    // Drive both machines manually through step_cycle (no fast-forward
    // and no superblock run-ahead: the horizon collapses to one
    // instruction per visit) and compare statistics, the debug log and
    // the state bytes at every cycle boundary — including the
    // boundaries where cores sit in the ready queue with their stall
    // cycles still unsettled.
    let amoadd = r#"
        _start:
            la   a0, counter
            li   a1, 1
            li   t0, 4
        loop:
            amoadd.w a2, a1, (a0)
            addi t0, t0, -1
            bnez t0, loop
            ecall
        .data
        counter: .word 0
    "#;
    let base = SimConfig::small(4, SyncArch::Colibri { queues: 2 });
    let [default, no_penalty, long_penalty] = branch_penalty_rows(base);
    for (src, cfg, what) in [
        (amoadd, default, "amoadd"),
        (STALL_MIX, default, "stall mix"),
        (STALL_MIX, no_penalty, "stall mix, branch penalty 0"),
        (STALL_MIX, long_penalty, "stall mix, branch penalty 3"),
    ] {
        let program = Assembler::new().assemble(src).unwrap();
        let decoded = Machine::decode(&program).unwrap();
        let mut fast = Machine::with_decoded(cfg, decoded.clone()).unwrap();
        let mut ref_cfg = cfg;
        ref_cfg.exec_mode = ExecMode::Reference;
        let mut reference = Machine::with_decoded(ref_cfg, decoded).unwrap();
        for cycle in 0..1200 {
            fast.step_cycle().unwrap();
            reference.step_cycle().unwrap();
            assert_eq!(fast.cycles(), reference.cycles());
            assert_eq!(
                fast.stats(),
                reference.stats(),
                "{what}: divergence at {cycle}"
            );
            assert_eq!(
                fast.debug_log(),
                reference.debug_log(),
                "{what}: at {cycle}"
            );
            assert_eq!(
                fast.state_bytes(),
                reference.state_bytes(),
                "{what}: state bytes at {cycle}"
            );
        }
        assert_eq!(fast.halted_cores(), 4, "{what}: ran to completion");
    }
}
