//! RCU epoch-reclamation kernel: the Quicksand `RCULock` idiom on the
//! LRSCwait substrate, with a polling-free grace period.
//!
//! The read side is the cheap path: every reader owns a cache-line-aligned
//! `{val, ver}` counter pair *per epoch flag* and enters/exits a read-side
//! critical section with two `amoadd.w` bumps on its own line — no shared
//! write, no reservation, native on every architecture. The write side is
//! where the substrates differ:
//!
//! * the writer mutex is a ticket lock whose dispense is a
//!   fetch-and-increment owned through `lrwait.w`/`scwait.w` (the word's
//!   reservation queue serializes dispensers retry-free and FIFO on wait
//!   hardware), with each dispensed contender *parked* on the owner word
//!   via `mwait.w` — the release store is an exact wakeup, where a
//!   polling waiter overshoots each handoff by up to its backoff
//!   interval;
//! * the grace period is the classic double flip-and-wait — flip the epoch
//!   flag, then drain the retiring side's counters — but instead of the
//!   snippet's polling retry loop the writer parks with `mwait.w` *on each
//!   straggler's own counter word*, so a sleeping writer costs zero memory
//!   requests until the reader's exit store fires the monitor;
//! * on a plain-LRSC machine every wait primitive fails fast and the same
//!   binary degrades to classic `lr.w`/`sc.w` with exponential
//!   backoff plus bounded poll loops (the [`BarrierKernel`] pattern, also
//!   used by the bench crate's open-loop service fleet), so the
//!   cross-architecture sweep compares like against like.
//!
//! # What a grace period protects
//!
//! The writer maintains two 64-byte data buffers and a published index
//! `cur`. Each synchronization writes the next generation value into the
//! spare buffer, publishes it, runs the double flip-and-wait, and then
//! *reclaims* the retired buffer by poisoning it. Readers dereference
//! `data[cur]` inside their read-side section and record a per-core error
//! if they ever observe the poison value or a generation running
//! backwards — i.e. if reclamation ever overtook a live reader.
//! [`Workload::verify`] checks those error words, the per-core progress
//! counters, the generation sequence number, and the final buffer states.
//!
//! # Instrumentation
//!
//! Writers wrap each *locked* critical section (publish → grace period →
//! reclaim) in MMIO region markers, so the write side can opt into the
//! chaos [`InvariantChecker`]'s mutual-exclusion invariant, and stamp each
//! synchronization's cycle count — mutex wait included, since that is the
//! latency a `synchronize_rcu` caller actually feels — into a per-sync
//! `lat` slot (read back with [`RcuKernel::grace_cycles`]). Readers count
//! one MMIO op per completed read section, giving the figure its
//! reader-throughput axis.
//!
//! [`BarrierKernel`]: crate::BarrierKernel
//! [`InvariantChecker`]: ../lrscwait_trace/struct.InvariantChecker.html

use lrscwait_asm::{Assembler, Program};
use lrscwait_sim::Machine;

use crate::backoff::Backoff;
use crate::workload::{VerifyError, Workload};

/// A writer's retry window while it dispenses its ticket over plain LR/SC.
const DISPENSE: Backoff = Backoff("s10", "t4", "BEXP_MIN", "FB_MAX");
/// Its window while it polls the owner word; restarts after each handoff.
const POLL: Backoff = Backoff("s10", "t4", "BEXP_MIN", "BEXP_MAX");

/// Generation value planted in the live buffer before the first sync;
/// sync `i` publishes `GEN_BASE + i`.
const GEN_BASE: u32 = 0x4000_0000;
/// Value stored into a reclaimed buffer. A reader observing it inside a
/// read-side section proves a broken grace period.
const POISON: u32 = 0xDEAD_BEEF;

/// The RCU epoch-reclamation workload.
///
/// Harts `0..writers` are writers, each running `syncs` publish →
/// grace-period → reclaim rounds under a shared writer mutex; harts
/// `writers..active` are readers, each running `iters` read-side
/// sections. Remaining cores halt immediately.
#[derive(Clone, Copy, Debug)]
pub struct RcuKernel {
    /// Total participating cores (writers + readers).
    pub active: u32,
    /// Writer cores (harts `0..writers`).
    pub writers: u32,
    /// Grace-period synchronizations per writer.
    pub syncs: u32,
    /// Read-side critical sections per reader.
    pub iters: u32,
}

impl RcuKernel {
    /// Creates an RCU kernel description.
    ///
    /// # Panics
    ///
    /// Panics when there are no writers, no readers (`active <=
    /// writers`), or zero `syncs`/`iters`.
    #[must_use]
    pub fn new(active: u32, writers: u32, syncs: u32, iters: u32) -> RcuKernel {
        assert!(writers > 0, "RCU needs at least one writer");
        assert!(active > writers, "RCU needs at least one reader");
        assert!(syncs > 0, "RCU needs at least one grace period");
        assert!(iters > 0, "readers need at least one section");
        RcuKernel {
            active,
            writers,
            syncs,
            iters,
        }
    }

    /// Reader cores.
    #[must_use]
    pub fn readers(&self) -> u32 {
        self.active - self.writers
    }

    /// Total read-side sections across all readers (== MMIO op count).
    #[must_use]
    pub fn expected_total(&self) -> u64 {
        u64::from(self.readers()) * u64::from(self.iters)
    }

    /// Total grace-period synchronizations across all writers.
    #[must_use]
    pub fn total_syncs(&self) -> u32 {
        self.writers * self.syncs
    }

    /// Per-sync grace-period lengths in cycles (writer-major order),
    /// stamped by the guest from the `CYCLE` MMIO register. The span
    /// covers the whole synchronization as a caller would feel it:
    /// writer-mutex acquisition (where retry and parking substrates
    /// genuinely part ways under contention), publish, both
    /// flip-and-wait drains, and reclamation.
    #[must_use]
    pub fn grace_cycles(&self, machine: &Machine) -> Vec<u64> {
        let program = RcuKernel::program(self);
        let lat = program.symbol("lat");
        (0..self.total_syncs())
            .map(|i| u64::from(machine.read_word(lat + 4 * i)))
            .collect()
    }

    /// Assembles the program.
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to assemble (kernel bug).
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("rcu kernel must assemble")
    }

    /// The assembler, with this kernel's constants defined, and the
    /// source [`program`](Self::program) assembles.
    pub(crate) fn assembly(&self) -> (Assembler, String) {
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
    la   s2, flag
    la   s3, tix
    la   s4, cur
    la   s5, data
    la   a0, cnts
{reset}    la   s11, errs
    slli t0, s1, 2
    add  s11, s11, t0          # &errs[hart]
    bnez s1, seeded
    li   t0, GEN_BASE          # hart 0 plants generation 0 ...
    sw   t0, (s5)
    fence                      # ... visibly, before the starting gun
seeded:
    sw   zero, 0x0C(s0)        # hw barrier: aligned start
    li   t0, WRITERS
    bltu s1, t0, writer
    j    reader

# --------------------------- write side ---------------------------
writer:
    la   s9, lat
    li   t0, SYNC_BYTES
    mul  t0, t0, s1
    add  s9, s9, t0            # &lat[hart * SYNCS]
    la   a6, gseq
    la   a7, owner
    li   t0, 0x41C64E6D        # per-writer LCG for the think-time draw
    mul  s7, s1, t0
    addi s7, s7, 1013
    # Stagger the first synchronize across roughly two full-queue drain
    # times: a simultaneous burst at the gun would make every latency
    # tail a work-conserving drain (identical on all substrates), where
    # steady-state arrivals make it a queueing tail — the thing the
    # substrates actually disagree about.
    srli t0, s7, 9
    li   t1, STAGGER_MASK
    and  t0, t0, t1
    li   t1, NACTIVE
    mul  t0, t0, t1
    beqz t0, wr_go
wr_st:
    addi t0, t0, -1
    bnez t0, wr_st
wr_go:
    li   s8, SYNCS
wr_sync:
    lw   a1, 0x3C(s0)          # sync stamp: start (mutex wait included —
                               # synchronize latency is what callers feel)
    # Writer mutex: a ticket lock. The ticket dispense is a fetch-and-
    # increment owned through lrwait/scwait — on wait hardware the
    # word's reservation queue serializes dispensers retry-free and in
    # FIFO order; on plain LRSC it degrades to the classic lr/sc retry
    # loop with exponential backoff. A dispensed writer then
    # waits for `owner` to reach its ticket: parked on the owner word
    # with mwait (the release store is an exact wakeup), degrading to
    # exponential-backoff polling — where every handoff pays up
    # to a full backoff interval of overshoot, the polling-granularity
    # cost the wait primitives exist to delete.
wl_acq:
    lrwait.w t1, (s3)          # my ticket: queue-serialized RMW ...
    addi     t2, t1, 1
    scwait.w t3, t2, (s3)
    beqz     t3, wl_got
wl_fb:
    lr.w     t1, (s3)          # fail-fast: classic lr/sc retry takes over
    addi     t2, t1, 1
    sc.w     t3, t2, (s3)
    beqz     t3, wl_got
{dispense_retry}wl_got:
{reset}    lw       t3, (a7)          # owner ticket as last observed
wl_chk:
    beq      t3, t1, wl_ok     # my turn
    mwait.w  t4, t3, (a7)      # park until the owner ticket advances
    beq      t4, t3, wl_poll   # fail-fast: value unchanged, poll instead
    mv       t3, t4
    j        wl_chk
wl_poll:
{poll_wait}    lw       t4, (a7)
    beq      t4, t3, wl_poll   # back off while the owner word is quiet
{reset}    mv       t3, t4            # a handoff landed
    j        wl_chk
wl_ok:
{reset}    sw   s6, 0x08(s0)          # region enter: write-side critical section
    lw   a2, (s4)              # index of the live buffer
    lw   t3, (a6)
    addi t3, t3, 1
    sw   t3, (a6)              # gseq++ (serialized by the writer mutex)
    li   t4, GEN_BASE
    add  t4, t4, t3
    xori t1, a2, 1             # the spare buffer ...
    slli t2, t1, 6
    add  t2, t2, s5
    sw   t4, (t2)              # ... takes the next generation
    fence                      # fill visible before the publish
    sw   t1, (s4)              # publish: cur = spare
    fence                      # publish visible before the flip
    jal  ra, flip_wait         # drain readers on the retiring side
    jal  ra, flip_wait         # ... and stale entrants on the other side
    slli t2, a2, 6
    add  t2, t2, s5
    li   t3, POISON
    sw   t3, (t2)              # reclaim: poison the retired buffer
    lw   t4, 0x3C(s0)          # sync stamp: end
    sub  t4, t4, a1
    sw   t4, (s9)              # lat[sync] = whole-synchronize cycles
    addi s9, s9, 4
    sw   zero, 0x08(s0)        # region exit
    fence                      # drain poison + markers before unlock
    lw   t1, (a7)
    addi t1, t1, 1
    sw   t1, (a7)              # release: owner advances to the next ticket
    addi s8, s8, -1
    beqz s8, wr_done
    # Think time: a seeded, NACTIVE-scaled pause before the next
    # synchronize. Together with the start-up stagger it keeps the
    # mutex below saturation, so the latency tail measures handoff
    # queueing — where exact wakeups and backoff polling part ways —
    # instead of a work-conserving makespan that every substrate
    # shares.
    li   t0, 0x41C64E6D
    mul  s7, s7, t0
    addi s7, s7, 1013         # LCG step
    srli t0, s7, 7
    li   t1, THINK_MASK
    and  t0, t0, t1
    li   t1, THINK_MIN
    add  t0, t0, t1            # iterations in [THINK_MIN, THINK_MIN+MASK]
    li   t1, NACTIVE
    mul  t0, t0, t1            # ... scaled by machine size, like the drain
wr_tk:
    addi t0, t0, -1
    bnez t0, wr_tk
    j    wr_sync
wr_done:
    li   t2, SYNCS
    j    finish

# flip_wait: flip the epoch flag, then wait until the retiring side's
# per-core counters drain — parked on each straggler's own counter word
# (polling-free; the reader's exit store fires the monitor), with a
# bounded poll fallback when mwait fails fast. A second pass over the
# entry-version words catches readers that slipped onto the retiring
# side behind the scan (they read the flag before the flip landed);
# any movement restarts the drain. Clobbers t0-t6, a3-a5.
flip_wait:
    lw   t0, (s2)
    xori t1, t0, 1
    sw   t1, (s2)              # flip: new sections use the other side
    fence
fw_retry:
    beqz t0, fw_b0
    li   a3, FLAG_BYTES
    add  a3, a3, a0
    j    fw_scan
fw_b0:
    mv   a3, a0                # base of the retiring side's counters
fw_scan:
    li   a4, 0                 # entry-version checksum, pass 1
    mv   t2, a3
    li   a5, NACTIVE
fw_core:
    lw   t3, (t2)              # this core's reader nesting count
    beqz t3, fw_quiet
fw_park:
    mwait.w t4, t3, (t2)       # park on the straggler's counter word
    bne  t4, t3, fw_again
    li   t5, POLL              # fail-fast: bounded poll backoff
fw_pbk:
    addi t5, t5, -1
    bnez t5, fw_pbk
fw_again:
    lw   t3, (t2)
    bnez t3, fw_park
fw_quiet:
    addi t5, t2, 4
    lw   t5, (t5)
    add  a4, a4, t5            # fold in the entry version
    addi t2, t2, 64
    addi a5, a5, -1
    bnez a5, fw_core
    mv   t2, a3                # pass 2: did anyone slip in behind us?
    li   a5, NACTIVE
    li   t6, 0
fw_v2:
    addi t5, t2, 4
    lw   t5, (t5)
    add  t6, t6, t5
    addi t2, t2, 64
    addi a5, a5, -1
    bnez a5, fw_v2
    bne  t6, a4, fw_retry      # a version moved: redo the whole drain
    ret

# --------------------------- read side ----------------------------
reader:
    li   s8, ITERS
    li   s9, GEN_BASE          # generations must never run backwards
    slli a1, s1, 6             # my cache-line lane
rd_iter:
    lw   t0, (s2)              # epoch flag (one flip stale at worst)
    beqz t0, rd_b0
    li   t1, FLAG_BYTES
    add  t1, t1, a0
    j    rd_b1
rd_b0:
    mv   t1, a0
rd_b1:
    add  t1, t1, a1            # &cnt[flag][me]
    amoadd.w t2, s6, (t1)      # enter: val += 1 (round-trips the bank)
    addi t3, t1, 4
    amoadd.w t2, s6, (t3)      # ... and ver += 1
    lw   t4, (s4)              # cur
    slli t5, t4, 6
    add  t5, t5, s5
    lw   t5, (t5)              # protected load: data[cur]
    li   t6, POISON
    beq  t5, t6, rd_bad        # reclaimed buffer observed
    bltu t5, s9, rd_bad        # generation went backwards
    mv   s9, t5
    j    rd_exit
rd_bad:
    sw   s6, (s11)             # flag the violation for verify()
rd_exit:
    li   t6, -1
    amoadd.w t2, t6, (t1)      # exit: val -= 1 on the side I entered
    sw   s6, 0x04(s0)          # one completed read section
    addi s8, s8, -1
    bnez s8, rd_iter
    li   t2, ITERS
finish:
    la   t0, checks
    slli t1, s1, 2
    add  t0, t0, t1
    sw   t2, (t0)              # publish my progress count
    fence
    sw   zero, 0x0C(s0)        # hw barrier: all checks visible
    ecall

.bss
.align 6
flag:   .space 64
.align 6
tix:    .space 64
.align 6
owner:  .space 64
.align 6
cur:    .space 64
.align 6
gseq:   .space 64
.align 6
data:   .space 128
.align 6
cnts:   .space CNT_BYTES
.align 6
lat:    .space LAT_BYTES
.align 6
errs:   .space ERR_BYTES
.align 6
checks: .space CHECK_BYTES
"#,
            reset = DISPENSE.reset(),
            dispense_retry = DISPENSE.retry("wl_bk", "wl_fb"),
            poll_wait = POLL.wait("wl_pbk", "wl_re"),
        );
        let asm = Assembler::new()
            .define("NACTIVE", self.active)
            .define("WRITERS", self.writers)
            .define("SYNCS", self.syncs)
            .define("ITERS", self.iters)
            .define("GEN_BASE", GEN_BASE)
            .define("POISON", POISON)
            .define("BEXP_MIN", 8)
            // Dispense-retry backoff cap: just enough jitter to keep the
            // lr/sc fetch-and-increment livelock-free under a full
            // contender crowd (same sizing as the barrier kernel's
            // central counter).
            .define("FB_MAX", (4 * self.writers).max(256))
            // Owner-poll backoff cap: scales with the machine because a
            // grace period does (the drain walks every active core), so
            // the poll interval stays a bounded fraction of the service
            // time at every geometry.
            .define("BEXP_MAX", (32 * self.active).max(256))
            .define("POLL", 16)
            // Think-time draw (spin iterations per active core): keeps
            // writer-mutex utilization below saturation so per-sync
            // latency measures queueing, not the shared makespan.
            .define("THINK_MIN", 350)
            .define("THINK_MASK", 255)
            .define("STAGGER_MASK", 1023)
            // One {val, ver} cache line per hart per epoch flag.
            .define("FLAG_BYTES", 64 * self.active)
            .define("CNT_BYTES", 2 * 64 * self.active)
            .define("SYNC_BYTES", 4 * self.syncs)
            .define("LAT_BYTES", 4 * self.writers * self.syncs)
            .define("ERR_BYTES", 4 * self.active)
            .define("CHECK_BYTES", 4 * self.active);
        (asm, src)
    }
}

impl Workload for RcuKernel {
    fn label(&self) -> String {
        "RCU epoch reclamation".to_string()
    }

    fn program(&self) -> Program {
        RcuKernel::program(self)
    }

    fn args(&self) -> Vec<(usize, u32)> {
        // Arg 0 mirrors the participating-core count for harness
        // consumers; the kernel bakes it in as the NACTIVE constant.
        vec![(0, self.active)]
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let program = RcuKernel::program(self);
        let errs = program.symbol("errs");
        for c in 0..self.active {
            let flag = machine.read_word(errs + 4 * c);
            if flag != 0 {
                return Err(VerifyError::ResultMismatch {
                    what: "rcu grace period (reader observed a reclaimed epoch)",
                    index: c,
                    expected: 0,
                    actual: flag,
                });
            }
        }
        let checks = program.symbol("checks");
        for c in 0..self.active {
            let done = machine.read_word(checks + 4 * c);
            let expected = if c < self.writers {
                self.syncs
            } else {
                self.iters
            };
            if done != expected {
                return Err(VerifyError::ResultMismatch {
                    what: "rcu progress count",
                    index: c,
                    expected,
                    actual: done,
                });
            }
        }
        let gseq = machine.read_word(program.symbol("gseq"));
        if gseq != self.total_syncs() {
            return Err(VerifyError::Conservation {
                what: "rcu generation sequence",
                expected: u64::from(self.total_syncs()),
                actual: u64::from(gseq),
            });
        }
        // The live buffer holds the final generation; the retired one is
        // poisoned. cur alternates 0 -> 1 -> 0 ... once per sync.
        let data = program.symbol("data");
        let cur = machine.read_word(program.symbol("cur"));
        if cur != gseq % 2 {
            return Err(VerifyError::ResultMismatch {
                what: "rcu published buffer index",
                index: 0,
                expected: gseq % 2,
                actual: cur,
            });
        }
        let live = machine.read_word(data + 64 * cur);
        if live != GEN_BASE + gseq {
            return Err(VerifyError::ResultMismatch {
                what: "rcu live generation",
                index: cur,
                expected: GEN_BASE + gseq,
                actual: live,
            });
        }
        let retired = machine.read_word(data + 64 * (1 - cur));
        if retired != POISON {
            return Err(VerifyError::ResultMismatch {
                what: "rcu retired buffer poison",
                index: 1 - cur,
                expected: POISON,
                actual: retired,
            });
        }
        // Every grace period took time: a zero stamp means the writer
        // skipped a sync or the stamps landed in the wrong slot.
        for (i, cycles) in self.grace_cycles(machine).iter().enumerate() {
            if *cycles == 0 {
                return Err(VerifyError::ResultMismatch {
                    what: "rcu grace-period stamp",
                    index: u32::try_from(i).unwrap_or(u32::MAX),
                    expected: 1,
                    actual: 0,
                });
            }
        }
        Ok(())
    }

    fn expected_ops(&self) -> Option<u64> {
        Some(self.expected_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_sim::{ExitReason, SimConfig};

    fn run(arch: SyncArch, active: u32, writers: u32, syncs: u32, iters: u32) -> Machine {
        let kernel = RcuKernel::new(active, writers, syncs, iters);
        let cfg = SimConfig::builder()
            .cores(active as usize)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &kernel.program()).unwrap();
        let summary = m.run().expect("rcu kernel runs");
        assert_eq!(summary.exit, ExitReason::AllHalted, "{arch} watchdog");
        kernel.verify(&m).expect("rcu safety and conservation");
        assert_eq!(m.stats().total_ops(), kernel.expected_total());
        m
    }

    #[test]
    fn single_writer_on_wait_archs() {
        for arch in [
            SyncArch::Colibri { queues: 4 },
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 4 },
        ] {
            let m = run(arch, 8, 1, 4, 32);
            // The writer mutex is uncontended, so every acquisition
            // commits through scwait on wait hardware.
            assert!(m.stats().adapters.scwait_success > 0, "{arch}");
        }
    }

    #[test]
    fn degrades_gracefully_on_plain_lrsc() {
        // Plain LRSC fail-fasts every wait primitive; the same binary
        // must complete through the lr/sc + poll fallback paths.
        let m = run(SyncArch::Lrsc, 8, 1, 4, 32);
        assert!(
            m.stats().adapters.wait_failfast > 0,
            "plain LRSC must fail-fast wait requests"
        );
    }

    #[test]
    fn contended_writers_stay_serialized() {
        // Two writers fight over the mutex while readers stream; the
        // generation sequence and buffer states prove full serialization.
        for arch in [SyncArch::Colibri { queues: 2 }, SyncArch::Lrsc] {
            run(arch, 8, 2, 3, 24);
        }
    }

    #[test]
    fn grace_periods_cost_cycles_and_are_all_stamped() {
        let kernel = RcuKernel::new(8, 1, 4, 32);
        let m = run(SyncArch::LrscWaitIdeal, 8, 1, 4, 32);
        let stamps = kernel.grace_cycles(&m);
        assert_eq!(stamps.len(), 4);
        // A grace period drains 2 x 8 counter lines twice over; it
        // cannot be instantaneous.
        assert!(stamps.iter().all(|&c| c > 16), "{stamps:?}");
    }

    #[test]
    fn minimal_geometry() {
        // 1 writer + 1 reader is the smallest legal machine.
        run(SyncArch::Lrsc, 2, 1, 2, 8);
        run(SyncArch::LrscWaitIdeal, 2, 1, 2, 8);
    }

    #[test]
    fn readers_count_matches() {
        let k = RcuKernel::new(8, 2, 3, 10);
        assert_eq!(k.readers(), 6);
        assert_eq!(k.expected_total(), 60);
        assert_eq!(k.total_syncs(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn all_writers_rejected() {
        let _ = RcuKernel::new(4, 4, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one writer")]
    fn zero_writers_rejected() {
        let _ = RcuKernel::new(4, 0, 1, 1);
    }
}
