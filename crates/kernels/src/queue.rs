//! Concurrent FIFO queue workload (paper Fig. 6).
//!
//! Every core repeatedly enqueues one element and dequeues one element.
//! Three implementations, matching the paper's comparison:
//!
//! * [`QueueImpl::LrscWaitDirect`] — linked queue whose head and tail
//!   pointers are *owned* through `lrwait`/`scwait`. Because the wait pair
//!   serializes access per location, the enqueuer can safely link
//!   `old_tail.next` before committing — no CAS retry loops at all.
//! * [`QueueImpl::LrscMs`] — a Michael–Scott non-blocking queue built from
//!   `lr.w`/`sc.w` (the classic retry-loop formulation).
//! * [`QueueImpl::TicketRing`] — a ring buffer guarded by an `amoadd`
//!   ticket lock ("lock-based queue using atomic adds").
//!
//! Elements migrate between per-core node pools exactly as in a real
//! Michael–Scott queue (the dequeuer frees the retired dummy).

use lrscwait_asm::{Assembler, Program};
use lrscwait_sim::Machine;

use crate::backoff::{Backoff, FIXED_WINDOW};
use crate::workload::{VerifyError, Workload};

/// The retry window of the Michael–Scott queue's CAS loops. It restarts
/// at the start of every enqueue and every dequeue.
const WINDOW: Backoff = Backoff("a5", "a4", "8", "1024");

/// Queue implementation selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueImpl {
    /// `lrwait`/`scwait`-owned head and tail (run on Colibri or the ideal
    /// queue; requires wait hardware with at least two tracked addresses).
    LrscWaitDirect,
    /// Michael–Scott queue with `lr.w`/`sc.w` retry loops.
    LrscMs,
    /// Ticket-lock-protected ring buffer.
    TicketRing,
}

impl QueueImpl {
    /// Legend label (paper Fig. 6).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueueImpl::LrscWaitDirect => "Colibri",
            QueueImpl::LrscMs => "LRSC",
            QueueImpl::TicketRing => "Atomic Add lock",
        }
    }

    /// Whether this implementation requires wait-extension hardware.
    #[must_use]
    pub fn needs_wait_hardware(self) -> bool {
        matches!(self, QueueImpl::LrscWaitDirect)
    }

    fn enqueue_snippet(self) -> String {
        match self {
            QueueImpl::LrscWaitDirect => r#"    mv   s8, s5
    lw   s5, 0(s8)             # pop a node from my freelist
    sw   zero, 0(s8)
    sw   s10, 4(s8)
    fence
d_enq:
    lrwait.w t4, (s3)          # own the tail pointer
    sw   s8, 0(t4)             # old_tail.next = node (safe: we own tail)
    fence
    scwait.w t5, s8, (s3)      # tail = node
    bnez t5, d_enq
"#
            .to_string(),
            QueueImpl::LrscMs => format!(
                r#"{}    mv   s8, s5
    lw   s5, 0(s8)
    sw   zero, 0(s8)
    sw   s10, 4(s8)
    fence
m_enq:
    lw   t4, (s3)              # t = tail
    lr.w t5, (t4)              # t5 = t.next (reserved)
    lw   t6, (s3)
    bne  t4, t6, m_enq_bko     # tail moved under us
    bnez t5, m_enq_help
    sc.w t6, s8, (t4)          # link: t.next = node
    bnez t6, m_enq_bko
    fence
    lr.w t5, (s3)              # best-effort tail swing
    bne  t5, t4, m_enq_end
    sc.w t6, s8, (s3)
    j    m_enq_end
m_enq_help:
    lr.w t6, (s3)              # help a lagging tail forward
    bne  t6, t4, m_enq_bko
    sc.w a2, t5, (s3)
    j    m_enq
m_enq_bko:
{}m_enq_end:
"#,
                WINDOW.reset(),
                WINDOW.retry("m_enq_bk", "m_enq")
            ),
            QueueImpl::TicketRing => r#"    amoadd.w t4, s6, (s11)     # take a ticket
r_enq_wait:
    lw   t5, 4(s11)
    beq  t5, t4, r_enq_cs
    sub  t6, t4, t5
    slli t6, t6, 5             # proportional backoff: 32 cycles per ticket
r_enq_bk:
    addi t6, t6, -1
    bnez t6, r_enq_bk
    j    r_enq_wait
r_enq_cs:
    lw   t0, 12(s11)           # tail index
    andi t1, t0, RMASK
    slli t1, t1, 2
    add  t1, t1, s9
    sw   s10, (t1)
    addi t0, t0, 1
    sw   t0, 12(s11)
    fence
    addi t4, t4, 1
    sw   t4, 4(s11)            # serving++
"#
            .to_string(),
        }
    }

    fn dequeue_snippet(self) -> String {
        match self {
            QueueImpl::LrscWaitDirect => r#"d_deq:
    lrwait.w t4, (s2)          # own the head pointer; t4 = dummy
    lw   t5, (s3)
    beq  t4, t5, d_deq_empty
    lw   t6, 0(t4)             # next (linked before tail moved)
    lw   a2, 4(t6)             # value
    scwait.w t5, t6, (s2)      # head = next
    bnez t5, d_deq
    sw   s5, 0(t4)             # recycle the old dummy
    mv   s5, t4
    add  s7, s7, a2
    j    d_deq_done
d_deq_empty:
    scwait.w t5, t4, (s2)      # yield the head unchanged and retry
    j    d_deq
d_deq_done:
"#
            .to_string(),
            QueueImpl::LrscMs => format!(
                r#"{}m_deq:
    lw   t4, (s2)              # h
    lw   t5, (s3)              # t
    lw   t6, 0(t4)             # next
    lw   a2, (s2)
    bne  a2, t4, m_deq_bko     # inconsistent snapshot
    beq  t4, t5, m_deq_ht
    lw   a3, 4(t6)             # value (validated by the CAS below)
    lr.w a2, (s2)
    bne  a2, t4, m_deq_bko
    sc.w a2, t6, (s2)          # head = next
    bnez a2, m_deq_bko
    sw   s5, 0(t4)             # recycle h
    mv   s5, t4
    add  s7, s7, a3
    j    m_deq_done
m_deq_ht:
    beqz t6, m_deq_bko         # empty: back off and retry
    lr.w a2, (s3)              # help swing the lagging tail
    bne  a2, t5, m_deq_bko
    sc.w a2, t6, (s3)
    j    m_deq
m_deq_bko:
{}m_deq_done:
"#,
                WINDOW.reset(),
                WINDOW.retry("m_deq_bk", "m_deq")
            ),
            QueueImpl::TicketRing => r#"r_deq:
    amoadd.w t4, s6, (s11)
r_deq_wait:
    lw   t5, 4(s11)
    beq  t5, t4, r_deq_cs
    sub  t6, t4, t5
    slli t6, t6, 5             # proportional backoff: 32 cycles per ticket
r_deq_bk:
    addi t6, t6, -1
    bnez t6, r_deq_bk
    j    r_deq_wait
r_deq_cs:
    lw   t0, 8(s11)            # head index
    lw   t1, 12(s11)           # tail index
    beq  t0, t1, r_deq_empty
    andi t2, t0, RMASK
    slli t2, t2, 2
    add  t2, t2, s9
    lw   a2, (t2)
    addi t0, t0, 1
    sw   t0, 8(s11)
    fence
    addi t4, t4, 1
    sw   t4, 4(s11)
    add  s7, s7, a2
    j    r_deq_done
r_deq_empty:
    fence
    addi t4, t4, 1
    sw   t4, 4(s11)            # release and take a fresh ticket
    j    r_deq
r_deq_done:
"#
            .to_string(),
        }
    }
}

/// A queue benchmark description.
#[derive(Clone, Copy, Debug)]
pub struct QueueKernel {
    /// Implementation under test.
    pub impl_: QueueImpl,
    /// Enqueue+dequeue pairs per core.
    pub iters: u32,
    /// Number of participating cores.
    pub num_cores: u32,
}

impl QueueKernel {
    /// Nodes preallocated per core.
    const POOL: u32 = 8;

    /// Creates a queue benchmark.
    #[must_use]
    pub fn new(impl_: QueueImpl, iters: u32, num_cores: u32) -> QueueKernel {
        QueueKernel {
            impl_,
            iters,
            num_cores,
        }
    }

    /// Expected sum of all dequeued values (wrapping 32-bit, matching the
    /// kernel's accumulator) — every enqueued value is dequeued exactly once.
    #[must_use]
    pub fn expected_checksum(&self) -> u32 {
        let mut sum = 0u32;
        for c in 0..self.num_cores {
            let seed = (c << 16) | 1;
            for i in 0..self.iters {
                sum = sum.wrapping_add(seed.wrapping_add(i));
            }
        }
        sum
    }

    /// Total operations counted (one per enqueue, one per dequeue).
    #[must_use]
    pub fn expected_ops(&self) -> u64 {
        2 * u64::from(self.iters) * u64::from(self.num_cores)
    }

    /// Assembles the program.
    ///
    /// # Panics
    ///
    /// Panics when `iters` is 0 (the pair loop counts down to zero after
    /// its first pass, so 0 would wrap to 2^32 pairs), or if the generated
    /// assembly fails to assemble (kernel bug).
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("queue kernel must assemble")
    }

    /// The assembler, with this kernel's constants defined, and the
    /// source [`program`](Self::program) assembles.
    pub(crate) fn assembly(&self) -> (Assembler, String) {
        assert!(self.iters > 0, "each core needs at least one pair");
        let ring_entries = (2 * self.num_cores).next_power_of_two().max(8);
        let src = format!(
            r#"
.equ MMIO, 0xFFFF0000

_start:
    li   s0, MMIO
    rdhartid s1
    li   t0, NACTIVE
    bltu s1, t0, participate
    ecall                      # non-participating cores leave immediately
participate:
    li   s6, 1
    la   s2, qhead
    la   s3, qtail
    la   s9, ring
    la   s11, meta
    # Build my private freelist out of my node-pool slice.
    la   t0, nodes
    li   t1, POOL*8
    mul  t2, s1, t1
    add  t2, t2, t0
    addi t2, t2, 8             # slot 0 is the shared dummy
    li   s5, 0
    li   t3, POOL
pool_init:
    sw   s5, 0(t2)
    mv   s5, t2
    addi t2, t2, 8
    addi t3, t3, -1
    bnez t3, pool_init
    bnez s1, init_done
    la   t0, nodes             # core 0 publishes the dummy
    sw   zero, 0(t0)
    sw   t0, (s2)
    sw   t0, (s3)
    fence
init_done:
    slli s10, s1, 16
    ori  s10, s10, 1           # first value = hartid<<16 | 1
    li   s4, ITERS
    li   s7, 0                 # checksum accumulator
    sw   zero, 0x0C(s0)        # barrier: queue initialized everywhere
    sw   s6, 0x08(s0)          # region start
q_loop:
{enqueue}    sw   s6, 0x04(s0)          # count the enqueue
{dequeue}    sw   s6, 0x04(s0)          # count the dequeue
    addi s10, s10, 1
    addi s4, s4, -1
    bnez s4, q_loop
    sw   zero, 0x08(s0)        # region end
    la   t0, checks
    slli t1, s1, 2
    add  t0, t0, t1
    sw   s7, (t0)
    fence
    sw   zero, 0x0C(s0)        # barrier: all checksums written
    ecall

.bss
.align 6
qhead:  .space 4
.align 6
qtail:  .space 4
.align 6
meta:   .space 16              # ticket next, serving, head idx, tail idx
.align 6
ring:   .space RING_BYTES
.align 6
nodes:  .space NODE_BYTES
.align 6
checks: .space CHECK_BYTES
"#,
            enqueue = self.impl_.enqueue_snippet(),
            dequeue = self.impl_.dequeue_snippet(),
        );
        let asm = Assembler::new()
            .define("ITERS", self.iters)
            .define("NACTIVE", self.num_cores)
            .define("POOL", QueueKernel::POOL)
            // Unread, but in the symbol table the image pins cover.
            .define("BACKOFF", FIXED_WINDOW)
            .define("RMASK", ring_entries - 1)
            .define("RING_BYTES", 4 * ring_entries)
            .define("NODE_BYTES", 8 * (1 + self.num_cores * QueueKernel::POOL))
            .define("CHECK_BYTES", 4 * self.num_cores);
        (asm, src)
    }
}

impl Workload for QueueKernel {
    fn label(&self) -> String {
        self.impl_.label().to_string()
    }

    fn program(&self) -> Program {
        QueueKernel::program(self)
    }

    fn args(&self) -> Vec<(usize, u32)> {
        // Arg 0 mirrors the participating-core count for harness consumers;
        // the kernel itself bakes it in as the NACTIVE constant.
        vec![(0, self.num_cores)]
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let checks = QueueKernel::program(self).symbol("checks");
        let mut sum = 0u32;
        for c in 0..self.num_cores {
            sum = sum.wrapping_add(machine.read_word(checks + 4 * c));
        }
        if sum != self.expected_checksum() {
            return Err(VerifyError::Conservation {
                what: "queue dequeue checksum",
                expected: u64::from(self.expected_checksum()),
                actual: u64::from(sum),
            });
        }
        Ok(())
    }

    fn expected_ops(&self) -> Option<u64> {
        Some(QueueKernel::expected_ops(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_sim::{ExitReason, SimConfig};

    fn run(impl_: QueueImpl, arch: SyncArch, cores: u32, iters: u32) -> (Machine, QueueKernel) {
        let kernel = QueueKernel::new(impl_, iters, cores);
        let program = kernel.program();
        let cfg = SimConfig::builder()
            .cores(cores as usize)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &program).unwrap();
        let summary = m.run().expect("queue kernel runs");
        assert_eq!(
            summary.exit,
            ExitReason::AllHalted,
            "{impl_:?} hit watchdog"
        );
        // Verify conservation: every enqueued value dequeued exactly once.
        let checks = program.symbol("checks");
        let mut sum = 0u32;
        for c in 0..cores {
            sum = sum.wrapping_add(m.read_word(checks + 4 * c));
        }
        assert_eq!(sum, kernel.expected_checksum(), "{impl_:?} lost values");
        (m, kernel)
    }

    #[test]
    fn direct_wait_queue_on_colibri() {
        let (m, k) = run(
            QueueImpl::LrscWaitDirect,
            SyncArch::Colibri { queues: 4 },
            4,
            16,
        );
        assert_eq!(m.stats().total_ops(), k.expected_ops());
        assert_eq!(
            m.stats().adapters.wait_failfast,
            0,
            "direct queue requires no fail-fast responses"
        );
    }

    #[test]
    fn direct_wait_queue_on_ideal() {
        run(QueueImpl::LrscWaitDirect, SyncArch::LrscWaitIdeal, 4, 16);
    }

    #[test]
    fn ms_queue_on_lrsc() {
        let (m, k) = run(QueueImpl::LrscMs, SyncArch::Lrsc, 4, 16);
        assert_eq!(m.stats().total_ops(), k.expected_ops());
    }

    #[test]
    fn ticket_ring_on_lrsc() {
        run(QueueImpl::TicketRing, SyncArch::Lrsc, 4, 16);
    }

    #[test]
    fn single_core_all_variants() {
        run(
            QueueImpl::LrscWaitDirect,
            SyncArch::Colibri { queues: 4 },
            1,
            8,
        );
        run(QueueImpl::LrscMs, SyncArch::Lrsc, 1, 8);
        run(QueueImpl::TicketRing, SyncArch::Lrsc, 1, 8);
    }

    #[test]
    fn eight_cores_contended() {
        run(
            QueueImpl::LrscWaitDirect,
            SyncArch::Colibri { queues: 4 },
            8,
            8,
        );
        run(QueueImpl::LrscMs, SyncArch::Lrsc, 8, 8);
    }

    /// Fig. 6's 256-core LR/SC point on the MemPool geometry completes
    /// (in about 0.54 M cycles). A retry window that wraps back to its
    /// minimum instead of saturating livelocks here.
    #[test]
    fn ms_queue_completes_at_256_cores() {
        let kernel = QueueKernel::new(QueueImpl::LrscMs, 16, 256);
        let cfg = SimConfig::builder()
            .mempool()
            .arch(SyncArch::Lrsc)
            .max_cycles(5_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &kernel.program()).unwrap();
        let summary = m.run().expect("queue kernel runs");
        assert_eq!(summary.exit, ExitReason::AllHalted, "livelock");
        kernel.verify(&m).unwrap();
        assert_eq!(m.stats().total_ops(), kernel.expected_ops());
    }

    #[test]
    fn checksum_formula() {
        let k = QueueKernel::new(QueueImpl::LrscMs, 2, 2);
        // core0: 1+2, core1: 0x10001 + 0x10002
        assert_eq!(k.expected_checksum(), 3 + 0x10001 + 0x10002);
        assert_eq!(k.expected_ops(), 8);
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(QueueImpl::LrscWaitDirect.label(), "Colibri");
        assert_eq!(QueueImpl::LrscMs.label(), "LRSC");
        assert_eq!(QueueImpl::TicketRing.label(), "Atomic Add lock");
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn zero_iters_rejected() {
        let _ = QueueKernel::new(QueueImpl::LrscWaitDirect, 0, 1).program();
    }
}
