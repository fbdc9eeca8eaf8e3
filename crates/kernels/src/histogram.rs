//! Concurrent histogram kernel (paper Figs. 3 and 4, Table II).
//!
//! Every core repeatedly picks a pseudo-random bin (LCG, masked to a
//! power-of-two bin count) and increments it atomically. Fewer bins means
//! higher contention. The increment itself is swappable: plain `amoadd`,
//! LR/SC retry loop, LRwait/SCwait sequence, or one of four lock
//! implementations guarding the bin — exactly the configurations the paper
//! sweeps.

use lrscwait_asm::{Assembler, Program};
use lrscwait_sim::Machine;

use crate::backoff::{fixed_wait, Backoff, FIXED_WINDOW};
use crate::workload::{VerifyError, Workload};

/// The LR/SC retry window of [`HistImpl::Lrsc`] and [`HistImpl::TasLock`].
const WINDOW: Backoff = Backoff("s10", "t6", "BEXP_MIN", "BEXP_MAX");

/// How a histogram bin is incremented.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistImpl {
    /// `amoadd.w` — the single-purpose atomic, the plot's roofline.
    AmoAdd,
    /// `lr.w`/`sc.w` retry loop with backoff on failure.
    Lrsc,
    /// `lrwait.w`/`scwait.w` — retry only on fail-fast responses.
    LrscWait,
    /// Ticket lock built from `amoadd.w` ("Atomic Add lock").
    TicketLock,
    /// Test-and-set spin lock built from `lr.w`/`sc.w` ("LRSC lock").
    TasLock,
    /// Spin lock built from `lrwait.w`/`scwait.w` ("Colibri lock").
    ColibriLock,
    /// MCS queue lock whose waiters sleep with `mwait.w` ("Mwait lock").
    McsMwaitLock,
}

impl HistImpl {
    /// Label used in figures (matches the paper's legends).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HistImpl::AmoAdd => "Atomic Add",
            HistImpl::Lrsc => "LRSC",
            HistImpl::LrscWait => "LRSCwait",
            HistImpl::TicketLock => "Atomic Add lock",
            HistImpl::TasLock => "LRSC lock",
            HistImpl::ColibriLock => "Colibri lock",
            HistImpl::McsMwaitLock => "Mwait lock",
        }
    }

    /// Whether this implementation requires wait-extension hardware to make
    /// progress without retries.
    #[must_use]
    pub fn needs_wait_hardware(self) -> bool {
        matches!(
            self,
            HistImpl::LrscWait | HistImpl::ColibriLock | HistImpl::McsMwaitLock
        )
    }

    /// Bytes of lock state per bin.
    fn lock_bytes_per_bin(self) -> u32 {
        match self {
            HistImpl::AmoAdd | HistImpl::Lrsc | HistImpl::LrscWait => 0,
            HistImpl::TicketLock => 8, // next + serving
            HistImpl::TasLock | HistImpl::ColibriLock | HistImpl::McsMwaitLock => 4,
        }
    }

    /// Lock-address preparation snippet (`t2` holds the bin index).
    fn prep_snippet(self) -> &'static str {
        match self {
            HistImpl::AmoAdd | HistImpl::Lrsc | HistImpl::LrscWait => "",
            HistImpl::TicketLock => "    slli t3, t2, 3\n    add  a1, s7, t3\n",
            HistImpl::TasLock | HistImpl::ColibriLock | HistImpl::McsMwaitLock => {
                "    slli t3, t2, 2\n    add  a1, s7, t3\n"
            }
        }
    }

    /// The increment snippet. Register contract: `a0` = &bin, `a1` = &lock,
    /// `s6` = 1, `s8` = my MCS node, `s9` = &my MCS node's locked flag,
    /// `s10` = the [`WINDOW`]; `t3..t6` and `a2..a4` are scratch. Must
    /// fall through when done.
    fn increment_snippet(self) -> String {
        match self {
            HistImpl::AmoAdd => "    amoadd.w t4, s6, (a0)\n".to_string(),
            // LR/SC needs *exponential* backoff to stay livelock-free at
            // 256 cores on a single-slot-per-bank reservation — with a
            // fixed window the SC is always displaced before it lands
            // (Anderson's classic result; the paper's related-work section
            // discusses exactly this).
            HistImpl::Lrsc => format!(
                r#"h_rmw:
    lr.w   t4, (a0)
    addi   t4, t4, 1
    sc.w   t5, t4, (a0)
    beqz   t5, h_rmw_ok
{}h_rmw_ok:
{}"#,
                WINDOW.retry("h_rmw_bk", "h_rmw"),
                WINDOW.reset()
            ),
            HistImpl::LrscWait => format!(
                r#"h_wrmw:
    lrwait.w t4, (a0)
    addi     t4, t4, 1
    scwait.w t5, t4, (a0)
    beqz     t5, h_wrmw_done
{}    j        h_wrmw
h_wrmw_done:
"#,
                fixed_wait("h_wrmw_bk", "t6")
            ),
            // Test-and-set lock with exponential backoff (same substitution
            // as the raw LR/SC path: a fixed window livelocks on the
            // single-slot reservation at 256 cores).
            HistImpl::TasLock => format!(
                r#"tas_acq:
    lr.w   t4, (a1)
    bnez   t4, tas_bko
    sc.w   t5, s6, (a1)
    beqz   t5, tas_ok
tas_bko:
{}tas_ok:
{}    lw     t4, (a0)
    addi   t4, t4, 1
    sw     t4, (a0)
    fence
    sw     zero, (a1)
"#,
                WINDOW.retry("tas_bk", "tas_acq"),
                WINDOW.reset()
            ),
            // Ticket lock with *proportional* backoff (Mellor-Crummey &
            // Scott): waiting time scales with the number of tickets ahead,
            // which avoids the poll convoy that synchronized fixed windows
            // create at 256 cores.
            HistImpl::TicketLock => r#"    amoadd.w t4, s6, (a1)
tk_wait:
    lw     t5, 4(a1)
    beq    t5, t4, tk_cs
    sub    t6, t4, t5
    slli   t6, t6, 5           # 32 cycles per ticket ahead
tk_bk:
    addi   t6, t6, -1
    bnez   t6, tk_bk
    j      tk_wait
tk_cs:
    lw     t5, (a0)
    addi   t5, t5, 1
    sw     t5, (a0)
    fence
    addi   t4, t4, 1
    sw     t4, 4(a1)
"#
            .to_string(),
            HistImpl::ColibriLock => format!(
                r#"cl_acq:
    lrwait.w t4, (a1)
    bnez     t4, cl_held
    scwait.w t5, s6, (a1)
    beqz     t5, cl_cs
    j        cl_bko
cl_held:
    scwait.w t5, t4, (a1)
cl_bko:
{}    j        cl_acq
cl_cs:
    lw     t4, (a0)
    addi   t4, t4, 1
    sw     t4, (a0)
    fence
    sw     zero, (a1)
"#,
                fixed_wait("cl_bk", "t6")
            ),
            HistImpl::McsMwaitLock => r#"mcs_acq:
    sw     zero, 0(s8)
    sw     s6, 4(s8)
    fence
    amoswap.w t4, s8, (a1)
    beqz   t4, mcs_cs
    sw     s8, 0(t4)
    fence
mcs_wait:
    mwait.w t5, s6, (s9)
    bnez   t5, mcs_wait
mcs_cs:
    lw     t4, (a0)
    addi   t4, t4, 1
    sw     t4, (a0)
    fence
    lw     t5, 0(s8)
    bnez   t5, mcs_notify
    lr.w   t6, (a1)
    bne    t6, s8, mcs_spin
    sc.w   t6, zero, (a1)
    beqz   t6, mcs_done
mcs_spin:
    lw     t5, 0(s8)
    beqz   t5, mcs_spin
mcs_notify:
    sw     zero, 4(t5)
    fence
mcs_done:
"#
            .to_string(),
        }
    }
}

/// A parameterized histogram workload.
#[derive(Clone, Copy, Debug)]
pub struct HistogramKernel {
    /// Increment implementation.
    pub impl_: HistImpl,
    /// Number of bins (must be a power of two, as in the paper's sweep).
    pub bins: u32,
    /// Updates performed by each core.
    pub iters: u32,
    /// Extra LCG mixing rounds per update (straight-line multiply/add
    /// work between synchronization operations). `0` keeps the classic
    /// single-round kernel; larger values model workloads that compute
    /// between updates, sweeping the compute-to-synchronization ratio.
    pub compute: u32,
    /// Number of cores (sizes the MCS node array).
    pub num_cores: u32,
}

impl HistogramKernel {
    /// Creates a kernel description.
    ///
    /// # Panics
    ///
    /// Panics when `bins` is not a power of two.
    #[must_use]
    pub fn new(impl_: HistImpl, bins: u32, iters: u32, num_cores: u32) -> HistogramKernel {
        assert!(bins.is_power_of_two(), "bin count must be a power of two");
        HistogramKernel {
            impl_,
            bins,
            iters,
            compute: 0,
            num_cores,
        }
    }

    /// Adds `rounds` extra LCG mixing rounds of straight-line compute
    /// before each update (builder style). See
    /// [`compute`](HistogramKernel::compute).
    #[must_use]
    pub fn with_compute(mut self, rounds: u32) -> HistogramKernel {
        self.compute = rounds;
        self
    }

    /// Total increments across all cores (for conservation checks).
    #[must_use]
    pub fn expected_total(&self) -> u64 {
        u64::from(self.iters) * u64::from(self.num_cores)
    }

    /// Extra-compute snippet: `compute` additional LCG rounds folded into
    /// the per-update seed, all register-to-register work. Empty when
    /// `compute == 0`, keeping the classic kernel byte-identical.
    fn mix_snippet(&self) -> String {
        if self.compute == 0 {
            return String::new();
        }
        format!(
            "    li   t5, {rounds}\nmix_loop:\n    li   t0, 1664525\n    \
             mul  s4, s4, t0\n    li   t1, 1013904223\n    add  s4, s4, t1\n    \
             addi t5, t5, -1\n    bnez t5, mix_loop\n",
            rounds = self.compute
        )
    }

    /// Assembles the program.
    ///
    /// # Panics
    ///
    /// Panics when `iters` is 0 (the update loop counts down to zero
    /// after its first pass, so 0 would wrap to 2^32 updates), or if the
    /// generated assembly fails to assemble (kernel bug).
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("histogram kernel must assemble")
    }

    /// The assembler, with this kernel's constants defined, and the
    /// source [`program`](Self::program) assembles.
    pub(crate) fn assembly(&self) -> (Assembler, String) {
        assert!(self.iters > 0, "each core needs at least one update");
        let src = format!(
            r#"
.equ MMIO, 0xFFFF0000

_start:
    li   s0, MMIO
    rdhartid s1
    la   s2, bins
    li   s3, MASK
    li   s5, ITERS
    li   s6, 1
    la   s7, locks
    la   s8, mcs_nodes
    slli t0, s1, 3
    add  s8, s8, t0
    addi s9, s8, 4
{reset}    # LCG seed: golden-ratio hash of the hart id, forced odd.
    li   t0, 0x9E3779B1
    mul  s4, s1, t0
    ori  s4, s4, 1
    sw   zero, 0x0C(s0)        # barrier: aligned start
    sw   s6, 0x08(s0)          # region start
hist_loop:
{mix}    li   t0, 1664525
    mul  s4, s4, t0
    li   t1, 1013904223
    add  s4, s4, t1
    srli t2, s4, 10
    and  t2, t2, s3            # bin index
    slli t3, t2, 2
    add  a0, s2, t3            # &bins[bin]
{prep}{increment}    sw   s6, 0x04(s0)          # count one operation
    addi s5, s5, -1
    bnez s5, hist_loop
    sw   zero, 0x08(s0)        # region end
    sw   zero, 0x0C(s0)        # barrier: aligned end
    ecall

.bss
.align 6
bins:      .space BINS_BYTES
.align 6
locks:     .space LOCK_BYTES
.align 6
mcs_nodes: .space MCS_BYTES
"#,
            mix = self.mix_snippet(),
            prep = self.impl_.prep_snippet(),
            reset = WINDOW.reset(),
            increment = self.impl_.increment_snippet(),
        );
        let asm = Assembler::new()
            .define("MASK", self.bins - 1)
            .define("ITERS", self.iters)
            .define("BACKOFF", FIXED_WINDOW)
            .define("BEXP_MIN", 8)
            .define("BEXP_MAX", 1024)
            .define("BINS_BYTES", 4 * self.bins)
            .define(
                "LOCK_BYTES",
                (self.impl_.lock_bytes_per_bin() * self.bins).max(4),
            )
            .define(
                "MCS_BYTES",
                if self.impl_ == HistImpl::McsMwaitLock {
                    8 * self.num_cores
                } else {
                    4
                },
            );
        (asm, src)
    }
}

impl Workload for HistogramKernel {
    fn label(&self) -> String {
        self.impl_.label().to_string()
    }

    fn program(&self) -> Program {
        HistogramKernel::program(self)
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let base = HistogramKernel::program(self).symbol("bins");
        let total: u64 = (0..self.bins)
            .map(|b| u64::from(machine.read_word(base + 4 * b)))
            .sum();
        if total != self.expected_total() {
            return Err(VerifyError::Conservation {
                what: "histogram bin total",
                expected: self.expected_total(),
                actual: total,
            });
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

    fn run(impl_: HistImpl, bins: u32, arch: SyncArch, cores: u32) -> (Machine, Program) {
        let kernel = HistogramKernel::new(impl_, bins, 16, cores);
        let program = kernel.program();
        let mut m = Machine::new(SimConfig::small(cores as usize, arch), &program).unwrap();
        let summary = m.run().expect("kernel runs");
        assert_eq!(
            summary.exit,
            ExitReason::AllHalted,
            "{impl_:?} hit watchdog"
        );
        (m, program)
    }

    fn bin_total(m: &Machine, p: &Program, bins: u32) -> u64 {
        let base = p.symbol("bins");
        (0..bins)
            .map(|b| u64::from(m.read_word(base + 4 * b)))
            .sum()
    }

    #[test]
    fn amoadd_conserves_counts() {
        for bins in [1, 4, 64] {
            let (m, p) = run(HistImpl::AmoAdd, bins, SyncArch::Lrsc, 4);
            assert_eq!(bin_total(&m, &p, bins), 64, "{bins} bins");
        }
    }

    #[test]
    fn lrsc_conserves_counts() {
        let (m, p) = run(HistImpl::Lrsc, 2, SyncArch::Lrsc, 4);
        assert_eq!(bin_total(&m, &p, 2), 64);
        assert!(m.stats().adapters.sc_failure > 0, "contention must retry");
    }

    #[test]
    fn lrscwait_conserves_on_colibri_and_ideal() {
        for arch in [
            SyncArch::Colibri { queues: 4 },
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 2 },
        ] {
            let (m, p) = run(HistImpl::LrscWait, 1, arch, 4);
            assert_eq!(bin_total(&m, &p, 1), 64, "{arch}");
        }
    }

    #[test]
    fn all_lock_variants_conserve() {
        let cases = [
            (HistImpl::TicketLock, SyncArch::Lrsc),
            (HistImpl::TasLock, SyncArch::Lrsc),
            (HistImpl::ColibriLock, SyncArch::Colibri { queues: 4 }),
            (HistImpl::McsMwaitLock, SyncArch::Colibri { queues: 4 }),
        ];
        for (impl_, arch) in cases {
            let (m, p) = run(impl_, 2, arch, 4);
            assert_eq!(bin_total(&m, &p, 2), 64, "{impl_:?}");
        }
    }

    #[test]
    fn mcs_mwait_lock_on_ideal_queue_too() {
        let (m, p) = run(HistImpl::McsMwaitLock, 1, SyncArch::LrscWaitIdeal, 4);
        assert_eq!(bin_total(&m, &p, 1), 64);
    }

    #[test]
    fn ops_counted_match_iterations() {
        let (m, _) = run(HistImpl::AmoAdd, 4, SyncArch::Lrsc, 2);
        assert_eq!(m.stats().total_ops(), 32);
        assert!(m.stats().throughput().unwrap() > 0.0);
    }

    #[test]
    fn compute_rounds_conserve_and_add_instructions() {
        let plain = HistogramKernel::new(HistImpl::AmoAdd, 4, 16, 2);
        let mixed = plain.with_compute(8);
        assert_eq!(
            plain.program().text,
            HistogramKernel::new(HistImpl::AmoAdd, 4, 16, 2)
                .with_compute(0)
                .program()
                .text,
            "compute == 0 must keep the classic kernel byte-identical"
        );
        let program = mixed.program();
        let mut m = Machine::new(SimConfig::small(2, SyncArch::Lrsc), &program).unwrap();
        let summary = m.run().expect("compute kernel runs");
        assert_eq!(summary.exit, ExitReason::AllHalted);
        assert_eq!(
            bin_total(&m, &program, 4),
            32,
            "mixing rounds keep conservation"
        );

        let (plain_m, _) = run(HistImpl::AmoAdd, 4, SyncArch::Lrsc, 2);
        assert!(
            m.stats().cores.iter().map(|c| c.instret).sum::<u64>()
                > plain_m.stats().cores.iter().map(|c| c.instret).sum::<u64>(),
            "extra rounds must execute extra straight-line instructions"
        );
    }

    #[test]
    fn labels_are_paper_legends() {
        assert_eq!(HistImpl::AmoAdd.label(), "Atomic Add");
        assert_eq!(HistImpl::McsMwaitLock.label(), "Mwait lock");
        assert!(HistImpl::LrscWait.needs_wait_hardware());
        assert!(!HistImpl::Lrsc.needs_wait_hardware());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_bins_rejected() {
        let _ = HistogramKernel::new(HistImpl::AmoAdd, 3, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn zero_iters_rejected() {
        let _ = HistogramKernel::new(HistImpl::AmoAdd, 1, 0, 1).program();
    }
}
