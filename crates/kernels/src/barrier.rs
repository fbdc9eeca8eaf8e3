//! Multi-algorithm barrier kernel (Bertuletti et al.'s 1024-core barrier
//! study, re-cast onto the LRSCwait substrate).
//!
//! Every participating core runs `episodes` back-to-back barrier episodes;
//! the measured region covers the whole episode loop, so the figure metric
//! is *cycles per barrier episode*. Four arrival/release strategies,
//! spanning exactly the design space the paper argues about:
//!
//! * [`BarrierImpl::CentralLrsc`] — sense-reversal central counter
//!   incremented with an `lr.w`/`sc.w` retry loop (exponential backoff);
//!   waiters poll the sense word. The retry-and-poll baseline that
//!   collapses at scale.
//! * [`BarrierImpl::CentralLrscWait`] — the same central counter owned
//!   through `lrwait.w`/`scwait.w` (retry-free on wait hardware) with
//!   waiters *parked* on the sense word via `mwait.w` (polling-free). On a
//!   plain-LRSC machine both primitives fail fast and the kernel degrades
//!   to a software retry/poll loop — it still completes, which is what
//!   makes the cross-architecture sweep meaningful.
//! * [`BarrierImpl::TreeAmo`] — log₂-radix combining tree: `amoadd.w`
//!   arrival at a binary tree of per-node counters (each node in its own
//!   64-byte block, so nodes interleave across SPM banks) and a
//!   tournament-style release wave propagated down the tree through
//!   per-node sense-reversal release words — one poller per node, no
//!   shared hot spot, O(log n) release. Runs natively on every
//!   architecture.
//! * [`BarrierImpl::HwMmio`] — the simulator's hardware barrier (the MMIO
//!   `BARRIER` register): single posted store per episode, zero memory
//!   traffic. The hardware-assisted roofline.
//!
//! # Built-in safety check
//!
//! A barrier that *completes* can still be wrong (a core released early).
//! Each episode therefore also bumps a shared `amoadd` token before
//! arriving; after release every core checks `token >= active ×
//! episode` — i.e. *everyone* arrived before *anyone* proceeded — and
//! records a violation in a per-core error word that
//! [`Workload::verify`] inspects. The token total and per-core episode
//! counts are verified too.

use lrscwait_asm::{Assembler, Program};
use lrscwait_sim::Machine;

use crate::backoff::Backoff;
use crate::workload::{VerifyError, Workload};

/// The retry window of the central LR/SC arrival and of the LRSCwait
/// arrival's LR/SC fallback.
const WINDOW: Backoff = Backoff("s10", "t3", "BEXP_MIN", "BEXP_MAX");

/// Barrier arrival/release strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BarrierImpl {
    /// Central counter, `lr.w`/`sc.w` retry arrival, polling release.
    CentralLrsc,
    /// Central counter, `lrwait.w`/`scwait.w` arrival, `mwait.w` parking.
    CentralLrscWait,
    /// Radix-2 combining tree of `amoadd.w` counters, polling release.
    TreeAmo,
    /// Hardware MMIO barrier register.
    HwMmio,
}

impl BarrierImpl {
    /// Figure legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BarrierImpl::CentralLrsc => "Central LRSC",
            BarrierImpl::CentralLrscWait => "Central LRSCwait",
            BarrierImpl::TreeAmo => "Tree radix-2",
            BarrierImpl::HwMmio => "HW barrier",
        }
    }

    /// Whether the implementation benefits from wait-extension hardware
    /// (it still *runs* without it — the wait ops fail fast into software
    /// retry loops).
    #[must_use]
    pub fn uses_wait_hardware(self) -> bool {
        self == BarrierImpl::CentralLrscWait
    }

    /// The per-episode barrier body. Register contract (set up by the
    /// common frame): `s2` = &count, `s3` = &sense, `s5` = my sense this
    /// episode (already flipped), `s6` = 1, `s7` = NACTIVE, `s10` =
    /// the LR/SC retry [`WINDOW`]; `t0..t6`, `a0..a4` scratch. Falls
    /// through when the episode's barrier is complete.
    fn barrier_snippet(self) -> String {
        match self {
            // Sense-reversal central barrier: the last arriver (old count
            // == NACTIVE - 1) resets the counter and flips the sense; the
            // rest poll. The LR/SC arrival needs *exponential* backoff to
            // stay livelock-free at 256+ cores on a single-slot-per-bank
            // reservation (same result as the histogram kernel).
            BarrierImpl::CentralLrsc => format!(
                r#"cb_arr:
    lr.w   t1, (s2)
    addi   t1, t1, 1
    sc.w   t2, t1, (s2)
    beqz   t2, cb_ok
{}cb_ok:
{}    bne    t1, s7, cb_wait
    sw     zero, (s2)          # last core: reset for the next episode
    fence
    sw     s5, (s3)            # ... then flip the sense (release)
    j      cb_done
cb_wait:
    lw     t4, (s3)
    beq    t4, s5, cb_done
    li     t3, POLL
cb_pbk:
    addi   t3, t3, -1
    bnez   t3, cb_pbk
    j      cb_wait
cb_done:
"#,
                WINDOW.retry("cb_bk", "cb_arr"),
                WINDOW.reset()
            ),
            // Retry-free arrival: lrwait serializes counter owners, so the
            // scwait commits without contention on wait hardware. Waiters
            // park on the sense word with mwait (a store by the releaser
            // fires the monitor). On plain LRSC both fail fast: the beq
            // loops below turn into software retry/poll with backoff.
            BarrierImpl::CentralLrscWait => format!(
                r#"    lrwait.w t1, (s2)
    addi     t1, t1, 1
    scwait.w t2, t1, (s2)
    beqz     t2, wb_ok
wb_fb:
    lr.w     t1, (s2)          # fallback: a plain-LRSC adapter fails every
    addi     t1, t1, 1         # scwait, so retry with the classic pair
    sc.w     t2, t1, (s2)
    beqz     t2, wb_ok
{}wb_ok:
{}    bne      t1, s7, wb_wait
    sw       zero, (s2)
    fence
    sw       s5, (s3)
    j        wb_done
wb_wait:
    xori     t5, s5, 1         # the sense value I must *leave behind*
wb_park:
    mwait.w  t4, t5, (s3)      # sleep until sense != old (fires on store)
    bne      t4, t5, wb_done
    li       t3, POLL          # fail-fast: backoff, then re-arm
wb_pbk:
    addi     t3, t3, -1
    bnez     t3, wb_pbk
    j        wb_park
wb_done:
"#,
                WINDOW.retry("wb_bk", "wb_fb"),
                WINDOW.reset()
            ),
            // Combining tree with a tournament-style release wave: core i
            // arrives at node i/2 of level 0 with an amoadd; the *second*
            // arriver at each node resets the counter, records the node on
            // its private down-stack and climbs. The first arriver parks
            // polling the node's own release word — exactly one poller per
            // node, and node blocks are 64 B apart so they interleave
            // across SPM banks: no shared hot spot anywhere. The root
            // winner starts a release wave that every released core
            // propagates down through the nodes it won (sense-reversal per
            // release word), so release is O(log n) store hops instead of
            // an n-core polling storm on one location. NACTIVE == 1
            // short-circuits (no partner ever comes).
            BarrierImpl::TreeAmo => r#"    beq  s7, s6, tb_done
    mv   a0, s1                # index within the current level
    la   a1, tree              # current level's node array
    mv   a2, s7                # participants at the current level
    la   a3, downs
    slli t1, s1, 6
    add  a3, a3, t1            # my down-stack base ...
    mv   a4, a3                # ... and top
tb_up:
    srli a0, a0, 1
    slli t1, a0, 6
    add  t2, a1, t1            # &node (counter @ 0, release word @ 4)
    amoadd.w t3, s6, (t2)
    beqz t3, tb_wait           # first arriver parks at this node
    sw   zero, (t2)            # second arriver resets the counter,
    sw   t2, (a4)              # records the node for the release wave,
    addi a4, a4, 4
    fence
    slli t1, a2, 5             # level size in bytes = (a2/2) * 64
    add  a1, a1, t1
    srli a2, a2, 1             # ... and climbs with half the field
    bne  a2, s6, tb_up
    j    tb_down               # root winner: start the release wave
tb_wait:
    lw   t4, 4(t2)
    beq  t4, s5, tb_down       # my subtree is released: pass it on
    li   t3, POLL_NODE
tb_pbk:
    addi t3, t3, -1
    bnez t3, tb_pbk
    j    tb_wait
tb_down:
    beq  a4, a3, tb_done       # release every node I won, top-down
    addi a4, a4, -4
    lw   t2, (a4)
    sw   s5, 4(t2)
    j    tb_down
tb_done:
"#
            .to_string(),
            // One posted MMIO store; the simulator parks the core until
            // every running core has arrived.
            BarrierImpl::HwMmio => "    sw   zero, 0x0C(s0)\n".to_string(),
        }
    }
}

/// A parameterized barrier-study workload.
#[derive(Clone, Copy, Debug)]
pub struct BarrierKernel {
    /// Arrival/release strategy.
    pub impl_: BarrierImpl,
    /// Barrier episodes each participating core runs.
    pub episodes: u32,
    /// Participating cores (must be a power of two — the radix-2 tree
    /// requires it, and keeping the constraint uniform keeps the sweep
    /// comparable). Remaining cores halt immediately.
    pub active: u32,
}

impl BarrierKernel {
    /// Creates a barrier kernel description.
    ///
    /// # Panics
    ///
    /// Panics when `active` is zero or not a power of two, or when
    /// `episodes` is zero.
    #[must_use]
    pub fn new(impl_: BarrierImpl, episodes: u32, active: u32) -> BarrierKernel {
        assert!(
            active.is_power_of_two(),
            "participating core count must be a power of two"
        );
        assert!(episodes > 0, "barrier study needs at least one episode");
        BarrierKernel {
            impl_,
            episodes,
            active,
        }
    }

    /// Total barrier episodes across all cores (== MMIO op count).
    #[must_use]
    pub fn expected_total(&self) -> u64 {
        u64::from(self.episodes) * u64::from(self.active)
    }

    /// Assembles the program.
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to assemble (kernel bug).
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("barrier kernel must assemble")
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
    la   s2, count
    la   s3, sense
    la   s4, token
    li   s5, 0                 # local sense (flipped per episode)
    li   s7, NACTIVE
    li   s9, 0                 # safety floor: NACTIVE * episode
{reset}    la   s11, errs
    slli t0, s1, 2
    add  s11, s11, t0          # &errs[hart]
    li   s8, EPISODES
    sw   zero, 0x0C(s0)        # hw barrier: aligned start
    sw   s6, 0x08(s0)          # region start
episode:
    xori s5, s5, 1             # sense for this episode
    amoadd.w t0, s6, (s4)      # safety token: I arrived
    add  s9, s9, s7
{barrier}    lw   t0, (s4)              # everyone must have arrived by now
    bgeu t0, s9, tok_ok
    sw   s6, (s11)             # early release observed: flag it
tok_ok:
    sw   s6, 0x04(s0)          # count one completed episode
    addi s8, s8, -1
    bnez s8, episode
    sw   zero, 0x08(s0)        # region end
    la   t0, checks
    slli t1, s1, 2
    add  t0, t0, t1
    li   t2, EPISODES
    sw   t2, (t0)              # publish my episode count
    fence
    sw   zero, 0x0C(s0)        # hw barrier: all checks visible
    ecall

.bss
.align 6
count:  .space 64
.align 6
sense:  .space 64
.align 6
token:  .space 64
.align 6
tree:   .space TREE_BYTES
.align 6
downs:  .space DOWN_BYTES
.align 6
errs:   .space ERR_BYTES
.align 6
checks: .space CHECK_BYTES
"#,
            reset = WINDOW.reset(),
            barrier = self.impl_.barrier_snippet(),
        );
        let asm = Assembler::new()
            .define("NACTIVE", self.active)
            .define("EPISODES", self.episodes)
            .define("BEXP_MIN", 8)
            // The LR/SC arrival window must scale with the contender count
            // to stay livelock-free (Anderson's result; 4x leaves room for
            // the NoC round trip at 1024 cores).
            .define("BEXP_MAX", (4 * self.active).max(1024))
            .define("POLL", 64)
            // Tree nodes have exactly one poller each, so their poll loop
            // can spin much tighter without creating a storm.
            .define("POLL_NODE", 16)
            .define("TREE_BYTES", 64 * self.active.max(1))
            .define("DOWN_BYTES", 64 * self.active)
            .define("ERR_BYTES", 4 * self.active)
            .define("CHECK_BYTES", 4 * self.active);
        (asm, src)
    }
}

impl Workload for BarrierKernel {
    fn label(&self) -> String {
        self.impl_.label().to_string()
    }

    fn program(&self) -> Program {
        BarrierKernel::program(self)
    }

    fn args(&self) -> Vec<(usize, u32)> {
        // Arg 0 mirrors the participating-core count for harness
        // consumers; the kernel bakes it in as the NACTIVE constant.
        vec![(0, self.active)]
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        let program = BarrierKernel::program(self);
        let errs = program.symbol("errs");
        for c in 0..self.active {
            let flag = machine.read_word(errs + 4 * c);
            if flag != 0 {
                return Err(VerifyError::ResultMismatch {
                    what: "barrier safety (core released early)",
                    index: c,
                    expected: 0,
                    actual: flag,
                });
            }
        }
        let checks = program.symbol("checks");
        for c in 0..self.active {
            let done = machine.read_word(checks + 4 * c);
            if done != self.episodes {
                return Err(VerifyError::ResultMismatch {
                    what: "barrier episodes completed",
                    index: c,
                    expected: self.episodes,
                    actual: done,
                });
            }
        }
        let token = u64::from(machine.read_word(program.symbol("token")));
        if token != self.expected_total() {
            return Err(VerifyError::Conservation {
                what: "barrier arrival token",
                expected: self.expected_total(),
                actual: token,
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

    fn run(impl_: BarrierImpl, arch: SyncArch, active: u32, episodes: u32) -> Machine {
        let kernel = BarrierKernel::new(impl_, episodes, active);
        let cfg = SimConfig::builder()
            .cores(active as usize)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &kernel.program()).unwrap();
        let summary = m.run().expect("barrier kernel runs");
        assert_eq!(summary.exit, ExitReason::AllHalted, "{impl_:?} watchdog");
        kernel.verify(&m).expect("barrier safety and conservation");
        assert_eq!(m.stats().total_ops(), kernel.expected_total());
        m
    }

    #[test]
    fn central_lrsc_on_lrsc() {
        let m = run(BarrierImpl::CentralLrsc, SyncArch::Lrsc, 8, 4);
        assert!(m.stats().adapters.sc_success >= 32, "8 cores x 4 episodes");
    }

    #[test]
    fn central_lrscwait_on_wait_archs() {
        for arch in [
            SyncArch::Colibri { queues: 4 },
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 4 },
        ] {
            // A bounded queue (LrscWait{slots}) fail-fasts part of the
            // arrivals into the classic fallback, so only *some* arrivals
            // are required to commit through scwait.
            let m = run(BarrierImpl::CentralLrscWait, arch, 8, 4);
            assert!(m.stats().adapters.scwait_success > 0, "{arch}");
        }
    }

    #[test]
    fn wait_impls_degrade_gracefully_on_plain_lrsc() {
        // On plain LRSC the wait primitives fail fast and the kernel
        // degenerates to software retry/poll — it must still be correct.
        let m = run(BarrierImpl::CentralLrscWait, SyncArch::Lrsc, 4, 3);
        assert!(
            m.stats().adapters.wait_failfast > 0,
            "plain LRSC must fail-fast wait requests"
        );
    }

    #[test]
    fn tree_on_every_arch() {
        for arch in [
            SyncArch::Lrsc,
            SyncArch::Colibri { queues: 4 },
            SyncArch::LrscWaitIdeal,
        ] {
            run(BarrierImpl::TreeAmo, arch, 8, 4);
        }
    }

    #[test]
    fn tree_degenerate_sizes() {
        run(BarrierImpl::TreeAmo, SyncArch::Lrsc, 1, 3);
        run(BarrierImpl::TreeAmo, SyncArch::Lrsc, 2, 3);
    }

    #[test]
    fn hw_mmio_barrier_with_inactive_cores() {
        // 4 of 8 cores participate; the rest halt before the first episode.
        let kernel = BarrierKernel::new(BarrierImpl::HwMmio, 5, 4);
        let cfg = SimConfig::builder()
            .cores(8)
            .arch(SyncArch::Lrsc)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &kernel.program()).unwrap();
        let summary = m.run().unwrap();
        assert_eq!(summary.exit, ExitReason::AllHalted);
        kernel.verify(&m).unwrap();
        assert_eq!(m.stats().total_ops(), 20);
    }

    #[test]
    fn labels_are_distinct() {
        let impls = [
            BarrierImpl::CentralLrsc,
            BarrierImpl::CentralLrscWait,
            BarrierImpl::TreeAmo,
            BarrierImpl::HwMmio,
        ];
        for (i, a) in impls.iter().enumerate() {
            for b in &impls[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert!(BarrierImpl::CentralLrscWait.uses_wait_hardware());
        assert!(!BarrierImpl::TreeAmo.uses_wait_hardware());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_active_rejected() {
        let _ = BarrierKernel::new(BarrierImpl::TreeAmo, 1, 3);
    }

    #[test]
    #[should_panic(expected = "at least one episode")]
    fn zero_episodes_rejected() {
        let _ = BarrierKernel::new(BarrierImpl::HwMmio, 0, 4);
    }
}
