//! Proof that steady-state simulation performs zero heap allocations per
//! cycle: a counting global allocator wraps the system allocator, the
//! machine is warmed up until every scratch buffer and queue has reached
//! its high-water capacity, and a long measured window must then allocate
//! nothing at all — in `step_cycle`, `Network::advance`, the adapters and
//! the outbox bookkeeping alike, and in host store injection between
//! cycles. The same allocator pins how many allocations building a
//! 256-core machine takes, and how large the largest one is.
//!
//! This binary holds a single test so no concurrent test thread can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lrscwait_asm::Assembler;
use lrscwait_core::SyncArch;
use lrscwait_sim::{Machine, SimConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn construction_is_bounded_and_steady_state_cycles_do_not_allocate() {
    mempool_construction();
    contended_steady_state();
    busy_loop_steady_state();
}

/// Building the paper's 256-core, 1024-bank machine. Most of the count
/// is the one adapter per bank; the SPM itself is a handful of pages.
fn mempool_construction() {
    let program = Assembler::new()
        .assemble("_start: ecall\n")
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    let cfg = SimConfig::mempool(SyncArch::Lrsc);

    LARGEST.store(0, Ordering::SeqCst);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let machine = Machine::with_decoded(cfg, decoded).expect("builds");
    let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let largest = LARGEST.load(Ordering::SeqCst);
    drop(machine);

    assert!(
        count <= BUILD_ALLOCATIONS,
        "building a 256-core machine took {count} allocations (pinned: {BUILD_ALLOCATIONS})"
    );
    // glibc serves requests of 128 KiB and more with a fresh mmap, whose
    // pages stay untouched zeros: the resident set would not grow by the
    // memory the machine holds, and the ledger's
    // `sim.machine.rss_mib.c1024` probe would read 0.
    assert!(
        largest < 128 << 10,
        "largest construction allocation is {largest} B, at or above glibc's 128 KiB mmap threshold"
    );
}

/// Allocations of one 256-core `Machine::with_decoded`, as measured with
/// the SPM in 64 KiB pages.
const BUILD_ALLOCATIONS: u64 = 1073;

fn contended_steady_state() {
    // High-contention mix: AMO traffic, lrwait/scwait sleep-wake churn and
    // posted stores, running forever (the harness steps manually).
    let src = r#"
        _start:
            la   a0, counter
            la   a1, wait_slot
            la   a2, scratch
            li   a3, 1
        loop:
            amoadd.w t0, a3, (a0)
            sw   t0, (a2)
            lrwait.w t1, (a1)
            addi t1, t1, 1
            scwait.w t2, t1, (a1)
            j    loop
        .data
        counter:   .word 0
        wait_slot: .word 0
        scratch:   .word 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(u64::MAX)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");
    // The host injects a store every 64 cycles, as the traffic harness
    // does, through the same bank service path as the cores.
    let injected = program.symbol("scratch");
    let cycle = |machine: &mut Machine, i: u32| {
        if i % 64 == 0 {
            machine.inject_store(injected, i);
        }
        machine.step_cycle()
    };

    // Warm up: let every queue, scratch vector and stat buffer reach its
    // steady-state capacity.
    for i in 0..20_000 {
        cycle(&mut machine, i).expect("warmup cycle");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000 {
        cycle(&mut machine, i).expect("measured cycle");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state cycles must not touch the heap"
    );

    // The machine is genuinely still doing work, not quiesced.
    let stats = machine.stats();
    assert!(stats.adapters.amos > 1000, "workload kept running");
    assert!(stats.total_sleep_cycles() > 0, "waiters slept");
}

/// A branchy compute loop must be just as allocation-free: the micro-op
/// image is built once at machine construction, `run_block` threads
/// through it with no heap traffic, and the ready queue — every taken
/// branch defers its core past the penalty cycle — never outgrows the
/// capacity it was built with.
fn busy_loop_steady_state() {
    let src = r#"
        _start:
            la   a0, counter
            la   a2, scratch
            li   a3, 1
        loop:
            li   t1, 32
        busy:
            addi t1, t1, -1
            bnez t1, busy
            amoadd.w t0, a3, (a0)
            sw   t0, (a2)
            j    loop
        .data
        counter: .word 0
        scratch: .word 0
    "#;
    let program = Assembler::new().assemble(src).expect("assembles");
    let cfg = SimConfig::builder()
        .cores(8)
        .arch(SyncArch::Colibri { queues: 2 })
        .max_cycles(u64::MAX)
        .build()
        .expect("valid config");
    let mut machine = Machine::new(cfg, &program).expect("loads");

    for _ in 0..20_000 {
        machine.step_cycle().expect("warmup cycle");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        machine.step_cycle().expect("measured cycle");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "busy-loop steady-state cycles must not touch the heap"
    );

    let stats = machine.stats();
    assert!(
        stats.adapters.amos > 1000,
        "busy-loop workload kept running"
    );
}
