//! Proof that steady-state simulation performs zero heap allocations per
//! cycle: a counting global allocator wraps the system allocator, the
//! machine is warmed up until every scratch buffer and queue has reached
//! its high-water capacity, and a long measured window must then allocate
//! nothing at all — in `step_cycle`, `Network::advance`, the adapters and
//! the outbox bookkeeping alike, and in host store injection between
//! cycles. The same allocator pins how many allocations building a
//! 256-core machine takes, how many bytes they add up to, and how large
//! the largest one is, and how many allocations assembling a kernel-sized
//! program takes.
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
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn construction_is_bounded_and_steady_state_cycles_do_not_allocate() {
    mempool_construction();
    kernel_sized_assembly();
    contended_steady_state();
    busy_loop_steady_state();
}

/// Building the paper's 256-core, 1024-bank machine. Most of the count
/// is the one adapter per bank. No SPM page is allocated: the program has
/// no data, and a page is allocated on its first nonzero write. Nor is a
/// wait queue entry or a Colibri register pair: a bank allocates those on
/// its first wait.
fn mempool_construction() {
    let program = Assembler::new()
        .assemble("_start: ecall\n")
        .expect("assembles");
    let decoded = Machine::decode(&program).expect("decodes");
    for arch in [
        SyncArch::Lrsc,
        SyncArch::LrscWaitIdeal,
        SyncArch::Colibri { queues: 4 },
    ] {
        let cfg = SimConfig::mempool(arch);
        LARGEST.store(0, Ordering::SeqCst);
        let (count_before, bytes_before) = (
            ALLOCATIONS.load(Ordering::SeqCst),
            BYTES.load(Ordering::SeqCst),
        );
        let machine = Machine::with_decoded(cfg, decoded.clone()).expect("builds");
        let count = ALLOCATIONS.load(Ordering::SeqCst) - count_before;
        let bytes = BYTES.load(Ordering::SeqCst) - bytes_before;
        let largest = LARGEST.load(Ordering::SeqCst);
        drop(machine);
        if arch != SyncArch::LrscWaitIdeal {
            assert!(
                count <= BUILD_ALLOCATIONS,
                "building a 256-core {arch:?} machine took {count} allocations (pinned: {BUILD_ALLOCATIONS})"
            );
        }
        assert!(
            bytes <= BUILD_BYTES,
            "building a 256-core {arch:?} machine allocated {bytes} B (bound: {BUILD_BYTES} B)"
        );
        // glibc serves requests of 128 KiB and more with a fresh mmap, whose
        // pages stay untouched zeros: the resident set would not grow by the
        // memory the machine holds, and the ledger's
        // `sim.machine.rss_mib.c1024` probe would read 0.
        assert!(
            largest < 128 << 10,
            "largest {arch:?} construction allocation is {largest} B, at or above glibc's 128 KiB mmap threshold"
        );
    }
}

/// Allocations of one 256-core `Lrsc` or `Colibri { queues: 4 }`
/// `Machine::with_decoded`, as measured with SPM pages allocated on first
/// write. Allocating every bank's Colibri pairs up front breaks it (2081).
const BUILD_ALLOCATIONS: u64 = 1057;
/// Bytes one 256-core build allocates, whatever the architecture (about
/// 480 KiB). Allocating the 1 MiB SPM up front, or reserving a
/// reservation-queue entry per core in every bank (4 MiB), breaks it.
const BUILD_BYTES: u64 = 512 << 10;

/// Allocations of one `assemble` call on [`kernel_sized_source`]: the
/// parser borrows the source, so what remains is a few tables and the
/// finished `Program` with one `String` per symbol. An allocation per
/// token or per instruction (hundreds) breaks it.
const ASSEMBLE_ALLOCATIONS: u64 = 100;

/// A program the size of a benchmark kernel: 98 text words, 8 injected
/// constants, 19 labels, comments and a bss segment.
fn kernel_sized_source() -> (Assembler, String) {
    let mut asm = Assembler::new();
    for (i, name) in ["ITERS", "NACTIVE", "POOL", "BACKOFF", "RMASK", "RING_BYTES"]
        .iter()
        .enumerate()
    {
        asm = asm.define(name, 64 << i);
    }
    asm = asm.define("NODE_BYTES", 4096).define("CHECK_BYTES", 1024);
    let mut src = String::from(
        ".equ MMIO, 0xFFFF0000\n\
         _start:\n    li   s0, MMIO\n    rdhartid s1\n    li   t0, NACTIVE\n\
         \x20   bltu s1, t0, participate\n    ecall      # idle cores leave\n\
         participate:\n    la   s2, qhead\n    la   s3, qtail\n    li   s4, ITERS\n",
    );
    for block in 0..12 {
        src.push_str(&format!(
            "step{block}:\n\
             \x20   lrwait.w t0, (s2)          // wait for the head\n\
             \x20   addi t1, t0, {block}\n\
             \x20   scwait.w t2, t1, (s2)\n\
             \x20   bnez t2, step{block}\n\
             \x20   sw   t1, 8(s3); li t3, RMASK\n\
             \x20   and  t1, t1, t3\n"
        ));
    }
    src.push_str(
        "    addi s4, s4, -1\n    bnez s4, step0\n    ecall\n\
         .bss\n.align 6\nqhead: .space 4\n.align 6\nqtail: .space 4\n\
         ring: .space RING_BYTES\nnodes: .space NODE_BYTES\nchecks: .space CHECK_BYTES\n",
    );
    (asm, src)
}

fn kernel_sized_assembly() {
    let (asm, src) = kernel_sized_source();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let program = asm.assemble(&src).expect("assembles");
    let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(program.text.len(), 98, "the source keeps its size");
    assert!(
        count <= ASSEMBLE_ALLOCATIONS,
        "assembling {} instructions took {count} allocations (bound: {ASSEMBLE_ALLOCATIONS})",
        program.text.len()
    );
}

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
