//! Adversarial LL/SC litmus scenarios for the chaos engine.
//!
//! Unlike the benchmark kernels (which measure throughput under realistic
//! workloads), these kernels are *correctness traps*: each one is the
//! smallest program that goes wrong if a specific synchronization guarantee
//! is violated. They are the guest-side half of the chaos harness — the
//! `lrscwait-bench` litmus runner executes them under seeded `FaultPlan`s
//! while an `InvariantChecker` audits the trace stream.
//!
//! | Scenario | Trap |
//! |---|---|
//! | [`LitmusScenario::Aba`] | A→B→A writeback must still fail the SC |
//! | [`LitmusScenario::SpuriousRetry`] | retry loops must absorb spurious SC failure |
//! | [`LitmusScenario::LostWakeup`] | every parked `lrwait` owner must be woken |
//! | [`LitmusScenario::WakeupTimeoutRace`] | `mwait` arm-vs-store race must not hang |
//! | [`LitmusScenario::EvictionStorm`] | progress under relentless reservation eviction |
//! | [`LitmusScenario::RcuGrace`] | RCU grace periods must outlive every reader |
//!
//! Scenarios come in two primitive flavors: *classic* (`lr.w`/`sc.w`,
//! runs on every adapter including the plain-LRSC baseline) and *wait*
//! (`lrwait.w`/`scwait.w`/`mwait.w`, requires wait hardware — on a
//! plain-LRSC adapter `scwait` fails unconditionally, so wait-flavor
//! retry loops would never terminate there; see
//! [`LitmusKernel::supports`]).

use lrscwait_asm::{Assembler, Program};
use lrscwait_core::SyncArch;
use lrscwait_sim::Machine;

use crate::rcu::RcuKernel;
use crate::workload::{VerifyError, Workload};

/// Which synchronization guarantee a litmus kernel traps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LitmusScenario {
    /// Core 0 reserves a cell holding A; core 1 writes B then A back;
    /// core 0's SC must *fail* (LL/SC is immune to ABA — a reservation
    /// tracks writes, not values). A recovery retry must then succeed.
    Aba,
    /// Every core pushes `iters` increments through a retry loop. Spurious
    /// SC/SCwait failures (chaos-injected or architectural) must only cost
    /// retries, never updates: the counter conserves exactly.
    SpuriousRetry,
    /// Heavily contended `lrwait`/`scwait` relay: cores hold the
    /// reservation briefly before releasing, so the wait queue stays deep
    /// and every waiter parks. If any wakeup is dropped the machine
    /// livelocks and the `lost-wakeup` invariant fires.
    LostWakeup,
    /// Pairs of cores ping-pong a token through two cells, sleeping with
    /// `mwait.w`. The partner's store races the monitor arming — whichever
    /// side wins, the waiter must either be woken or fail-fast into a
    /// re-arm; a hang means the race was lost.
    WakeupTimeoutRace,
    /// Pure `lrwait`/`scwait` increment mill, meant to run under
    /// `FaultPlan::eviction_storm`: forward progress and conservation must
    /// survive reservations being broken at hundreds of per-mille.
    EvictionStorm,
    /// The full [`RcuKernel`] (two writers fighting over the writer mutex,
    /// the rest reading) run under `FaultPlan::eviction_storm`: grace
    /// periods must never let reclamation overtake a live reader, and the
    /// region-marked writer critical sections opt into the checker's
    /// mutual-exclusion invariant.
    RcuGrace,
}

impl LitmusScenario {
    /// All scenarios, in documentation order.
    #[must_use]
    pub fn all() -> [LitmusScenario; 6] {
        [
            LitmusScenario::Aba,
            LitmusScenario::SpuriousRetry,
            LitmusScenario::LostWakeup,
            LitmusScenario::WakeupTimeoutRace,
            LitmusScenario::EvictionStorm,
            LitmusScenario::RcuGrace,
        ]
    }

    /// Stable CLI/label name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LitmusScenario::Aba => "aba",
            LitmusScenario::SpuriousRetry => "spurious-retry",
            LitmusScenario::LostWakeup => "lost-wakeup",
            LitmusScenario::WakeupTimeoutRace => "wakeup-race",
            LitmusScenario::EvictionStorm => "eviction-storm",
            LitmusScenario::RcuGrace => "rcu-grace",
        }
    }
}

/// A litmus workload description.
#[derive(Clone, Copy, Debug)]
pub struct LitmusKernel {
    /// Which trap to arm.
    pub scenario: LitmusScenario,
    /// Cores participating (ABA always uses exactly 2; the wakeup race
    /// rounds down to pairs). Non-participants halt immediately.
    pub num_cores: u32,
    /// Iterations per core (turns, increments — scenario-dependent).
    pub iters: u32,
    /// Use `lrwait`/`scwait` instead of `lr`/`sc` where the scenario has
    /// both flavors (`Aba`, `SpuriousRetry`). `LostWakeup` and
    /// `EvictionStorm` are wait-only; `WakeupTimeoutRace` always uses
    /// `mwait` (which degrades to polling on fail-fast hardware).
    pub wait_primitives: bool,
}

impl LitmusKernel {
    /// Ownership-hold spin inside the `LostWakeup` critical section,
    /// chosen to keep the wait queue deep without dominating runtime.
    const HOLD: u32 = 24;

    /// Creates a litmus kernel.
    #[must_use]
    pub fn new(scenario: LitmusScenario, num_cores: u32, iters: u32) -> LitmusKernel {
        LitmusKernel {
            scenario,
            num_cores,
            iters,
            wait_primitives: false,
        }
    }

    /// Selects the wait-primitive flavor (see [`LitmusKernel::wait_primitives`]).
    #[must_use]
    pub fn with_wait_primitives(mut self, wait: bool) -> LitmusKernel {
        self.wait_primitives = wait;
        self
    }

    /// Whether this kernel's primitives can make progress on `arch`.
    ///
    /// Wait-primitive retry loops rely on `scwait` eventually succeeding,
    /// which never happens on the fail-fast plain-LRSC adapter. The
    /// `mwait` ping-pong and the RCU kernel are the exceptions: both
    /// carry fallback paths that turn fail-fast into polling loops that
    /// still terminate.
    #[must_use]
    pub fn supports(&self, arch: SyncArch) -> bool {
        match self.scenario {
            LitmusScenario::WakeupTimeoutRace | LitmusScenario::RcuGrace => true,
            LitmusScenario::LostWakeup | LitmusScenario::EvictionStorm => {
                !matches!(arch, SyncArch::Lrsc)
            }
            LitmusScenario::Aba | LitmusScenario::SpuriousRetry => {
                !self.wait_primitives || !matches!(arch, SyncArch::Lrsc)
            }
        }
    }

    /// Whether the scenario's region markers delimit a *locked* critical
    /// section, so the litmus runner should arm the checker's opt-in
    /// mutual-exclusion invariant. The throughput scenarios mark their
    /// measured region on every core concurrently, which is not a mutex
    /// claim — only the RCU write side makes one.
    #[must_use]
    pub fn checks_mutual_exclusion(&self) -> bool {
        self.scenario == LitmusScenario::RcuGrace
    }

    /// Cores that actually run the scenario body.
    #[must_use]
    pub fn participants(&self) -> u32 {
        match self.scenario {
            LitmusScenario::Aba => 2,
            LitmusScenario::WakeupTimeoutRace => (self.num_cores / 2).max(1) * 2,
            LitmusScenario::RcuGrace => self.rcu().active,
            _ => self.num_cores,
        }
    }

    /// The [`RcuKernel`] an `RcuGrace` case delegates to: two writers
    /// (so the mutual-exclusion invariant audits real lock handoffs)
    /// whenever the machine has room for a reader besides, each running
    /// `iters` grace periods against readers doing 8 sections per sync.
    fn rcu(&self) -> RcuKernel {
        let active = self.num_cores.max(2);
        let writers = if active >= 3 { 2 } else { 1 };
        let syncs = self.iters.max(1);
        RcuKernel::new(active, writers, syncs, 8 * syncs)
    }

    /// Expected final value of the shared counter (conservation scenarios).
    #[must_use]
    pub fn expected_counter(&self) -> u32 {
        self.participants().wrapping_mul(self.iters)
    }

    fn wait_flavor(&self) -> bool {
        match self.scenario {
            LitmusScenario::LostWakeup
            | LitmusScenario::EvictionStorm
            | LitmusScenario::RcuGrace => true,
            LitmusScenario::WakeupTimeoutRace => false,
            LitmusScenario::Aba | LitmusScenario::SpuriousRetry => self.wait_primitives,
        }
    }

    fn body(&self) -> String {
        let (lr, sc) = if self.wait_flavor() {
            ("lrwait.w", "scwait.w")
        } else {
            ("lr.w    ", "sc.w    ")
        };
        match self.scenario {
            // Core 0 reserves `cell` (value A), publishes `held`, and only
            // attempts the SC after core 1 has written B then A back and
            // published `done`. The SC sees the original *value* but a
            // broken *reservation* — it must fail, and the recorded result
            // plus a clean recovery increment prove both halves.
            LitmusScenario::Aba => format!(
                r#"    la   s2, cell
    la   s3, held
    la   s4, done
    sw   zero, 0x0C(s0)        # barrier: everyone loaded
    bnez s1, aba_writer
    {lr} t0, (s2)              # reserve cell; t0 = A
    fence
    sw   s6, (s3)              # announce the reservation
aba_wait:
    lw   t1, (s4)
    beqz t1, aba_wait
    addi t0, t0, 1
    {sc} t2, t0, (s2)          # stale reservation: must fail
    la   t3, aba_sc
    sw   t2, (t3)
    fence
aba_fix:
    {lr} t0, (s2)              # recovery: a fresh pair must commit
    addi t0, t0, 1
    {sc} t2, t0, (s2)
    bnez t2, aba_fix
    j    aba_join
aba_writer:
    lw   t1, (s3)
    beqz t1, aba_writer
    li   t0, 0xB
    sw   t0, (s2)              # A -> B
    li   t0, 0xA
    sw   t0, (s2)              # B -> A: the ABA pattern
    fence
    sw   s6, (s4)
aba_join:
    sw   zero, 0x0C(s0)        # barrier: scenario complete
"#
            ),
            LitmusScenario::SpuriousRetry => format!(
                r#"    la   s2, counter
    li   s4, ITERS
    sw   zero, 0x0C(s0)        # barrier: everyone loaded
    sw   s6, 0x08(s0)          # region start
sr_loop:
    {lr} t0, (s2)
    addi t0, t0, 1
    {sc} t1, t0, (s2)
    bnez t1, sr_loop           # spurious failure costs a retry, never an update
    sw   s6, 0x04(s0)          # count the committed increment
    addi s4, s4, -1
    bnez s4, sr_loop
    sw   zero, 0x08(s0)        # region end
    sw   zero, 0x0C(s0)        # barrier: all increments committed
"#
            ),
            // The HOLD spin keeps each owner on the reservation long
            // enough that every other participant parks behind it — the
            // scenario only means something if the queue actually fills.
            LitmusScenario::LostWakeup => format!(
                r#"    la   s2, counter
    li   s4, ITERS
    sw   zero, 0x0C(s0)        # barrier: everyone loaded
    sw   s6, 0x08(s0)          # region start
lw_loop:
    {lr} t0, (s2)
    li   t2, HOLD
lw_hold:
    addi t2, t2, -1            # hold ownership: force the others to park
    bnez t2, lw_hold
    addi t0, t0, 1
    {sc} t1, t0, (s2)
    bnez t1, lw_loop
    sw   s6, 0x04(s0)
    addi s4, s4, -1
    bnez s4, lw_loop
    sw   zero, 0x08(s0)        # region end
    sw   zero, 0x0C(s0)        # barrier: all increments committed
"#
            ),
            // Pair (2k, 2k+1) ping-pongs iteration numbers through two
            // cells. The left core writes `pong` and sleeps on `ping`;
            // the right core sleeps on `pong` and echoes into `ping`.
            // `mwait.w rd, rs2, (addr)` parks until mem != rs2 — the
            // partner's store may land before the monitor arms, which is
            // exactly the race under test: the fail-fast/immediate-fire
            // path must hand back the fresh value instead of hanging.
            LitmusScenario::WakeupTimeoutRace => r#"    srli t0, s1, 1             # pair index
    li   t1, 128               # two 64-byte cells per pair
    mul  t0, t0, t1
    la   s2, cells
    add  s2, s2, t0            # ping (left sleeps here)
    addi s3, s2, 64            # pong (right sleeps here)
    andi s4, s1, 1             # side: 0 = left, 1 = right
    li   s5, 0                 # checksum of received tokens
    li   s7, 1                 # next token value
    li   s8, 0                 # last value seen on my cell
    sw   zero, 0x0C(s0)        # barrier: cells zeroed everywhere
    sw   s6, 0x08(s0)          # region start
wr_round:
    bnez s4, wr_right
    sw   s7, (s3)              # left serves the token...
    fence
    mv   t3, s2                # ...and sleeps on ping
    j    wr_sleep
wr_right:
    mv   t3, s3                # right sleeps on pong
wr_sleep:
    mwait.w t0, s8, (t3)       # park until the cell moves past `seen`
    beq  t0, s7, wr_got        # token arrived
    mv   s8, t0                # stale/fail-fast value: remember, re-arm
    j    wr_sleep
wr_got:
    mv   s8, t0
    add  s5, s5, t0            # fold the token into the checksum
    sw   s6, 0x04(s0)          # count the handoff
    beqz s4, wr_next
    sw   s7, (s2)              # right echoes the token back
    fence
wr_next:
    addi s7, s7, 1
    li   t4, ITERS
    bleu s7, t4, wr_round
    sw   zero, 0x08(s0)        # region end
    la   t0, checks
    slli t1, s1, 2
    add  t0, t0, t1
    sw   s5, (t0)
    fence
    sw   zero, 0x0C(s0)        # barrier: all checksums written
"#
            .to_string(),
            LitmusScenario::EvictionStorm => format!(
                r#"    la   s2, counter
    li   s4, ITERS
    sw   zero, 0x0C(s0)        # barrier: everyone loaded
    sw   s6, 0x08(s0)          # region start
es_loop:
    {lr} t0, (s2)
    addi t0, t0, 1
    {sc} t1, t0, (s2)
    bnez t1, es_loop           # evicted: retry until the commit lands
    sw   s6, 0x04(s0)
    addi s4, s4, -1
    bnez s4, es_loop
    sw   zero, 0x08(s0)        # region end
    sw   zero, 0x0C(s0)        # barrier: all increments committed
"#
            ),
            LitmusScenario::RcuGrace => {
                unreachable!("rcu-grace delegates whole-program to RcuKernel")
            }
        }
    }

    /// Assembles the program.
    #[must_use]
    pub fn program(&self) -> Program {
        let (asm, src) = self.assembly();
        asm.assemble(&src).expect("litmus kernel must assemble")
    }

    /// The assembler, with this kernel's constants defined, and the
    /// source [`program`](Self::program) assembles.
    pub(crate) fn assembly(&self) -> (Assembler, String) {
        if self.scenario == LitmusScenario::RcuGrace {
            return self.rcu().assembly();
        }
        let nactive = self.participants();
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
{body}    ecall

.data
.align 6
cell:    .word 0xA
.align 6
held:    .word 0
.align 6
done:    .word 0
.align 6
aba_sc:  .word 0x7FFFFFFF
.align 6
counter: .word 0
.align 6
cells:   .space CELL_BYTES
.align 6
checks:  .space CHECK_BYTES
"#,
            body = self.body(),
        );
        let asm = Assembler::new()
            .define("NACTIVE", nactive)
            .define("ITERS", self.iters.max(1))
            .define("HOLD", LitmusKernel::HOLD)
            .define("CELL_BYTES", 128 * (nactive / 2).max(1))
            .define("CHECK_BYTES", 4 * nactive.max(1));
        (asm, src)
    }
}

impl Workload for LitmusKernel {
    fn label(&self) -> String {
        let flavor = if self.wait_flavor() {
            "wait"
        } else {
            "classic"
        };
        format!("litmus/{}/{flavor}", self.scenario.name())
    }

    fn program(&self) -> Program {
        LitmusKernel::program(self)
    }

    fn args(&self) -> Vec<(usize, u32)> {
        vec![(0, self.participants())]
    }

    fn verify(&self, machine: &Machine) -> Result<(), VerifyError> {
        if self.scenario == LitmusScenario::RcuGrace {
            return self.rcu().verify(machine);
        }
        let program = LitmusKernel::program(self);
        match self.scenario {
            LitmusScenario::Aba => {
                let sc = machine.read_word(program.symbol("aba_sc"));
                if sc == 0 {
                    // The stale SC succeeded: the adapter let an A->B->A
                    // writeback slip past the reservation.
                    return Err(VerifyError::ResultMismatch {
                        what: "aba stale-sc result",
                        index: 0,
                        expected: 1,
                        actual: 0,
                    });
                }
                let cell = machine.read_word(program.symbol("cell"));
                if cell != 0xB {
                    return Err(VerifyError::ResultMismatch {
                        what: "aba cell",
                        index: 0,
                        expected: 0xB,
                        actual: cell,
                    });
                }
                Ok(())
            }
            LitmusScenario::SpuriousRetry
            | LitmusScenario::LostWakeup
            | LitmusScenario::EvictionStorm => {
                let counter = machine.read_word(program.symbol("counter"));
                if counter != self.expected_counter() {
                    return Err(VerifyError::Conservation {
                        what: "litmus counter",
                        expected: u64::from(self.expected_counter()),
                        actual: u64::from(counter),
                    });
                }
                Ok(())
            }
            LitmusScenario::WakeupTimeoutRace => {
                // Every participant folded tokens 1..=ITERS into its
                // checksum slot.
                let checks = program.symbol("checks");
                let expected = (self.iters * (self.iters + 1)) / 2;
                for c in 0..self.participants() {
                    let got = machine.read_word(checks + 4 * c);
                    if got != expected {
                        return Err(VerifyError::ResultMismatch {
                            what: "wakeup-race checksum",
                            index: c,
                            expected,
                            actual: got,
                        });
                    }
                }
                Ok(())
            }
            LitmusScenario::RcuGrace => unreachable!("handled by the early delegation"),
        }
    }

    fn expected_ops(&self) -> Option<u64> {
        match self.scenario {
            LitmusScenario::Aba => None,
            LitmusScenario::WakeupTimeoutRace => {
                Some(u64::from(self.participants()) * u64::from(self.iters))
            }
            LitmusScenario::RcuGrace => self.rcu().expected_ops(),
            _ => Some(u64::from(self.expected_counter())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_sim::{ExitReason, SimConfig};

    fn run(kernel: LitmusKernel, arch: SyncArch) -> Machine {
        assert!(
            kernel.supports(arch),
            "{:?} unsupported on {arch:?}",
            kernel
        );
        let program = kernel.program();
        let cfg = SimConfig::builder()
            .cores(kernel.num_cores as usize)
            .arch(arch)
            .max_cycles(20_000_000)
            .build()
            .unwrap();
        let mut m = Machine::new(cfg, &program).unwrap();
        let summary = m.run().expect("litmus kernel runs");
        assert_eq!(
            summary.exit,
            ExitReason::AllHalted,
            "{} hit the watchdog on {arch:?}",
            kernel.label()
        );
        kernel
            .verify(&m)
            .unwrap_or_else(|e| panic!("{} on {arch:?}: {e}", kernel.label()));
        m
    }

    #[test]
    fn aba_classic_fails_stale_sc_everywhere() {
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWait { slots: 2 },
            SyncArch::Colibri { queues: 2 },
        ] {
            run(LitmusKernel::new(LitmusScenario::Aba, 4, 1), arch);
        }
    }

    #[test]
    fn aba_wait_flavor_on_wait_hardware() {
        for arch in [
            SyncArch::LrscWaitIdeal,
            SyncArch::LrscWait { slots: 2 },
            SyncArch::Colibri { queues: 2 },
        ] {
            run(
                LitmusKernel::new(LitmusScenario::Aba, 2, 1).with_wait_primitives(true),
                arch,
            );
        }
    }

    #[test]
    fn spurious_retry_conserves() {
        run(
            LitmusKernel::new(LitmusScenario::SpuriousRetry, 4, 16),
            SyncArch::Lrsc,
        );
        run(
            LitmusKernel::new(LitmusScenario::SpuriousRetry, 4, 16).with_wait_primitives(true),
            SyncArch::Colibri { queues: 2 },
        );
    }

    #[test]
    fn lost_wakeup_relay_parks_and_completes() {
        let m = run(
            LitmusKernel::new(LitmusScenario::LostWakeup, 4, 8),
            SyncArch::Colibri { queues: 2 },
        );
        assert!(
            m.stats().adapters.wait_enqueued > 0,
            "relay never enqueued a waiter — the trap is not armed"
        );
        run(
            LitmusKernel::new(LitmusScenario::LostWakeup, 4, 8),
            SyncArch::LrscWait { slots: 2 },
        );
    }

    #[test]
    fn wakeup_race_ping_pong_all_arches() {
        for arch in [
            SyncArch::Lrsc,
            SyncArch::LrscWaitIdeal,
            SyncArch::Colibri { queues: 2 },
        ] {
            run(
                LitmusKernel::new(LitmusScenario::WakeupTimeoutRace, 4, 8),
                arch,
            );
        }
    }

    #[test]
    fn eviction_storm_kernel_runs_clean_without_chaos() {
        run(
            LitmusKernel::new(LitmusScenario::EvictionStorm, 4, 12),
            SyncArch::Colibri { queues: 2 },
        );
    }

    #[test]
    fn odd_core_count_rounds_down_to_pairs() {
        let k = LitmusKernel::new(LitmusScenario::WakeupTimeoutRace, 5, 4);
        assert_eq!(k.participants(), 4);
        run(k, SyncArch::Colibri { queues: 2 });
    }

    #[test]
    fn support_matrix() {
        let wait_only = LitmusKernel::new(LitmusScenario::LostWakeup, 4, 4);
        assert!(!wait_only.supports(SyncArch::Lrsc));
        assert!(wait_only.supports(SyncArch::Colibri { queues: 2 }));
        let race = LitmusKernel::new(LitmusScenario::WakeupTimeoutRace, 4, 4);
        assert!(race.supports(SyncArch::Lrsc));
        let classic = LitmusKernel::new(LitmusScenario::SpuriousRetry, 4, 4);
        assert!(classic.supports(SyncArch::Lrsc));
        assert!(!classic.with_wait_primitives(true).supports(SyncArch::Lrsc));
    }

    #[test]
    fn rcu_grace_delegates_to_the_rcu_kernel() {
        // Supported everywhere (the RCU kernel degrades on plain LRSC),
        // and the whole verification stack rides along.
        for arch in [SyncArch::Lrsc, SyncArch::Colibri { queues: 2 }] {
            run(LitmusKernel::new(LitmusScenario::RcuGrace, 4, 3), arch);
        }
        let k = LitmusKernel::new(LitmusScenario::RcuGrace, 4, 3);
        assert!(k.checks_mutual_exclusion());
        assert!(!LitmusKernel::new(LitmusScenario::EvictionStorm, 4, 3).checks_mutual_exclusion());
        // 2 writers + 2 readers at 8 sections per sync.
        assert_eq!(k.expected_ops(), Some(2 * 3 * 8));
    }
}
