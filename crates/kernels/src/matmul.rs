//! Matrix-multiplication interference workload (paper Fig. 5).
//!
//! The cores are partitioned: the first `workers` compute an integer
//! matmul (C = A×B, rows split among workers); the rest hammer a small
//! histogram with atomics ("pollers"). The paper measures how much the
//! pollers' retry/polling traffic slows the *unrelated* workers — LRSC
//! pollers degrade them severely, Colibri pollers leave them untouched
//! because waiting cores are parked in the reservation queue instead of
//! occupying the network.

use lrscwait_asm::{Assembler, Program};
use lrscwait_sim::Machine;

use crate::backoff::{fixed_wait, FIXED_WINDOW};
use crate::workload::{VerifyError, Workload};

/// What the non-worker cores do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PollerKind {
    /// Pollers halt immediately (the no-interference baseline).
    Idle,
    /// Pollers run an LR/SC increment loop with backoff.
    Lrsc,
    /// Pollers run an LRwait/SCwait increment loop.
    LrscWait,
    /// Pollers run plain `amoadd` increments.
    AmoAdd,
}

impl PollerKind {
    /// Legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PollerKind::Idle => "baseline",
            PollerKind::Lrsc => "LRSC",
            PollerKind::LrscWait => "Colibri",
            PollerKind::AmoAdd => "Atomic Add",
        }
    }

    fn increment_snippet(self) -> String {
        match self {
            PollerKind::Idle => String::new(),
            // One LR/SC attempt per outer-loop pass (so the done flag is
            // still checked while the lock-free update keeps failing), with
            // the paper's 128-cycle backoff after a failure.
            PollerKind::Lrsc => format!(
                r#"    lr.w   t4, (a0)
    addi   t4, t4, 1
    sc.w   t5, t4, (a0)
    beqz   t5, p_rmw_done
{}p_rmw_done:
"#,
                fixed_wait("p_rmw_bk", "t6")
            ),
            // Success or fail-fast, fall through so the done flag is
            // rechecked every pass.
            PollerKind::LrscWait => r#"    lrwait.w t4, (a0)
    addi     t4, t4, 1
    scwait.w t5, t4, (a0)
"#
            .to_string(),
            PollerKind::AmoAdd => "    amoadd.w t4, s6, (a0)\n".to_string(),
        }
    }
}

/// A matmul + pollers workload description.
#[derive(Clone, Copy, Debug)]
pub struct MatmulKernel {
    /// Matrix dimension N (N×N · N×N).
    pub n: u32,
    /// Number of worker cores (must divide N).
    pub workers: u32,
    /// Total cores.
    pub num_cores: u32,
    /// Poller behaviour.
    pub pollers: PollerKind,
    /// Histogram bins the pollers contend on (any count ≥ 1).
    pub poll_bins: u32,
}

impl MatmulKernel {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics when `workers` does not divide `n` or exceeds `num_cores`.
    #[must_use]
    pub fn new(n: u32, workers: u32, num_cores: u32, pollers: PollerKind) -> MatmulKernel {
        assert!(workers > 0 && workers <= num_cores);
        assert_eq!(n % workers, 0, "workers must divide the matrix dimension");
        MatmulKernel {
            n,
            workers,
            num_cores,
            pollers,
            poll_bins: 1,
        }
    }

    /// Sets the poller bin count (builder style).
    #[must_use]
    pub fn with_poll_bins(mut self, bins: u32) -> MatmulKernel {
        assert!(bins >= 1);
        self.poll_bins = bins;
        self
    }

    /// Assembles the program.
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("matmul kernel must assemble")
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
    li   t0, WORKERS
    bltu s1, t0, worker
    j    poller

worker:
    sw   zero, 0x0C(s0)        # barrier: aligned start
    li   t0, 1
    sw   t0, 0x08(s0)          # region start
    li   s10, N
    li   s9, N*4
    li   t1, ROWS
    mul  s2, s1, t1            # i = hartid * ROWS
    add  s3, s2, t1            # end row
    la   s4, mat_a
    la   s5, mat_b
    la   s6, mat_c
w_i:
    bge  s2, s3, w_done
    li   s7, 0                 # j
    mul  s11, s2, s9           # row byte offset
w_j:
    bge  s7, s10, w_i_next
    li   a0, 0                 # acc
    add  a1, s4, s11           # &A[i][0]
    slli t4, s7, 2
    add  a2, s5, t4            # &B[0][j]
    li   s8, 0                 # k
w_k:
    lw   t5, (a1)
    lw   t6, (a2)
    mul  t5, t5, t6
    add  a0, a0, t5
    addi a1, a1, 4
    add  a2, a2, s9
    addi s8, s8, 1
    blt  s8, s10, w_k
    add  t4, s6, s11
    slli t5, s7, 2
    add  t4, t4, t5
    sw   a0, (t4)              # C[i][j]
    addi s7, s7, 1
    j    w_j
w_i_next:
    addi s2, s2, 1
    j    w_i
w_done:
    fence
    sw   zero, 0x08(s0)        # region end
    la   t0, done_ctr
    li   t1, 1
    amoadd.w t2, t1, (t0)
    ecall

poller:
    la   s2, bins
    li   s3, POLL_BINS
    li   s6, 1
    la   s10, done_ctr
    li   s11, WORKERS
    li   t0, 0x9E3779B1
    mul  s4, s1, t0
    ori  s4, s4, 1
    sw   zero, 0x0C(s0)        # barrier: aligned start
{poller_exit_early}
p_loop:
    lw   t0, (s10)
    beq  t0, s11, p_done       # all workers finished
    li   t0, 1664525
    mul  s4, s4, t0
    li   t1, 1013904223
    add  s4, s4, t1
    srli t2, s4, 10
    remu t2, t2, s3            # bin (arbitrary count, as in the paper)
    slli t2, t2, 2
    add  a0, s2, t2
{increment}    j    p_loop
p_done:
    ecall

.bss
.align 6
mat_a: .space N*N*4
.align 6
mat_b: .space N*N*4
.align 6
mat_c: .space N*N*4
.align 6
bins:  .space POLL_BINS*4
.align 6
done_ctr: .space 4
"#,
            increment = self.pollers.increment_snippet(),
            poller_exit_early = if self.pollers == PollerKind::Idle {
                "    ecall"
            } else {
                ""
            },
        );
        let asm = Assembler::new()
            .define("N", self.n)
            .define("ROWS", self.n / self.workers)
            .define("WORKERS", self.workers)
            .define("POLL_BINS", self.poll_bins)
            .define("BACKOFF", FIXED_WINDOW);
        (asm, src)
    }
}

impl MatmulKernel {
    /// Expected output element: with `A[i][j] = i+1` and `B[i][j] = j+1`
    /// (as written by [`Workload::init`]),
    /// `C[i][j] = Σ_k (i+1)(j+1) = (i+1)(j+1)·n`.
    fn expected_c(&self, i: u32, j: u32) -> u32 {
        (i + 1).wrapping_mul(j + 1).wrapping_mul(self.n)
    }
}

impl Workload for MatmulKernel {
    fn label(&self) -> String {
        format!(
            "matmul {}w/{} pollers: {}",
            self.workers,
            self.num_cores - self.workers,
            self.pollers.label()
        )
    }

    fn program(&self) -> Program {
        MatmulKernel::program(self)
    }

    fn init(&self, machine: &mut Machine) {
        // Recognizable inputs so the result is checkable: A[i][j] = i+1,
        // B[i][j] = j+1. Integer multiply is constant-latency, so the
        // initialization does not perturb the timing being measured.
        let program = MatmulKernel::program(self);
        let a = program.symbol("mat_a");
        let b = program.symbol("mat_b");
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                machine.write_word(a + 4 * (i * n + j), i + 1);
                machine.write_word(b + 4 * (i * n + j), j + 1);
            }
        }
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let c = MatmulKernel::program(self).symbol("mat_c");
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let actual = machine.read_word(c + 4 * (i * n + j));
                let expected = self.expected_c(i, j);
                if actual != expected {
                    return Err(VerifyError::ResultMismatch {
                        what: "matmul C",
                        index: i * n + j,
                        expected,
                        actual,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_core::SyncArch;
    use lrscwait_sim::{ExitReason, SimConfig};

    fn run(kernel: &MatmulKernel, arch: SyncArch) -> (Machine, Program) {
        let program = kernel.program();
        let cfg = SimConfig::builder()
            .cores(kernel.num_cores as usize)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &program).unwrap();
        kernel.init(&mut m); // A[i][j] = i+1, B[i][j] = j+1
        let summary = m.run().expect("kernel runs");
        assert_eq!(summary.exit, ExitReason::AllHalted);
        (m, program)
    }

    fn check_result(m: &Machine, kernel: &MatmulKernel) {
        kernel.verify(m).expect("result matrix matches");
    }

    #[test]
    fn baseline_matmul_is_correct() {
        let kernel = MatmulKernel::new(8, 2, 4, PollerKind::Idle);
        let (m, _) = run(&kernel, SyncArch::Lrsc);
        check_result(&m, &kernel);
        // Workers measured a region.
        assert!(m.stats().cores[0].region_cycles().is_some());
        assert!(m.stats().cores[1].region_cycles().is_some());
    }

    #[test]
    fn lrsc_pollers_do_not_corrupt_result() {
        let kernel = MatmulKernel::new(8, 2, 4, PollerKind::Lrsc).with_poll_bins(1);
        let (m, p) = run(&kernel, SyncArch::Lrsc);
        check_result(&m, &kernel);
        // Pollers made progress too.
        let bins = p.symbol("bins");
        assert!(m.read_word(bins) > 0, "pollers must have incremented");
    }

    #[test]
    fn colibri_pollers_do_not_corrupt_result() {
        let kernel = MatmulKernel::new(8, 2, 4, PollerKind::LrscWait).with_poll_bins(3);
        let (m, _) = run(&kernel, SyncArch::Colibri { queues: 4 });
        check_result(&m, &kernel);
    }

    #[test]
    fn interference_slows_workers() {
        // Same worker count; LRSC pollers on one bin must slow the matmul
        // relative to idle pollers.
        let base = MatmulKernel::new(8, 2, 8, PollerKind::Idle);
        let (mb, _) = run(&base, SyncArch::Lrsc);
        let loaded = MatmulKernel::new(8, 2, 8, PollerKind::Lrsc).with_poll_bins(1);
        let (ml, _) = run(&loaded, SyncArch::Lrsc);
        let t_base: u64 = mb.stats().cores[..2]
            .iter()
            .map(|c| c.region_cycles().unwrap())
            .max()
            .unwrap();
        let t_loaded: u64 = ml.stats().cores[..2]
            .iter()
            .map(|c| c.region_cycles().unwrap())
            .max()
            .unwrap();
        assert!(
            t_loaded > t_base,
            "interference must cost cycles: base {t_base}, loaded {t_loaded}"
        );
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn workers_must_divide_n() {
        let _ = MatmulKernel::new(9, 2, 4, PollerKind::Idle);
    }
}
