//! Superblock translation and execution — the production stepper's
//! (`ExecMode::Translated`) fast path.
//!
//! A [`Translation`] lowers every instruction of a
//! [`DecodedProgram`](crate::cpu::DecodedProgram) into a flat
//! [`MicroOp`] (see the `lrscwait_isa::uop` module docs for the format
//! and the boundary rules) and records, per index, how long the *run* of
//! single-cycle fall-through micro-ops starting there is. Micro-ops are
//! 1:1 with instructions, so execution can enter at any non-boundary
//! index; [`run_block`] then *threads* through the image — whole runs at
//! a time, following jumps and taken branches in between — until it
//! reaches a boundary, leaves the text image, or runs past the machine's
//! cycle horizon.
//!
//! # Determinism contract
//!
//! `run_block` charges exactly the interpreter's per-instruction cycle
//! accounting: one `active_cycles` and one `instret` per issued
//! instruction, the same `ready_at` latencies (`+1` base, the divide
//! latency for `div`/`rem`, the branch penalty on every jump and taken
//! branch), and one `stall_cycles` per cycle the pipeline waits between
//! in-block issues. An instruction issues only at a cycle `<= horizon`.
//! Two shortcuts reach that state without visiting every instruction;
//! both are exact because, inside them, timing does not depend on data:
//!
//! * **Run.** At index `i` and issue cycle `t` with `runs[i] = r > 0`,
//!   the next `n = min(r, horizon − t + 1)` micro-ops issue at `t, t+1,
//!   …, t+n−1` with no stall in between. They execute in an inner loop
//!   that only touches registers; afterwards `instret += n`, the last
//!   issue cycle is `t + n − 1` and the next instruction is ready at
//!   `t + n`.
//! * **Countdown.** When the `bne` of `addi r, r, -1 ; bne r, x0, .-4`
//!   is taken with `r = v` and `p = branch_penalty`, the `addi` is ready
//!   at `T = t + 1 + p`, and the next `v − 1` iterations are all taken
//!   too, each `2 + p` cycles long. So `k = min(v − 1, (horizon − T) /
//!   (2 + p))` whole iterations (`0` if `T > horizon`) retire as
//!   `instret += 2k`, `stall += k·p`, `r −= k`; the `addi` is then ready
//!   at `T + k·(2 + p) <= horizon` and the last issue — the `k`-th
//!   `bne` — was `p + 1` cycles before that. The final, not-taken
//!   iteration (or the one the horizon cuts) runs the ordinary way. A
//!   counter that starts at `0` wraps, so it enters this as `v = 2³² − 1`
//!   after one ordinary iteration.
//!
//! Either count may come out short — `runs` saturates at 255, `k`
//! rounds down — and the remainder simply takes another step of the
//! loop; only an overcount would be wrong.
//!
//! `run_block` runs *ahead* of the machine clock; on exit
//! `Core::charged_until` is the last issue cycle (as defined above for
//! either shortcut), i.e. the last cycle already accounted, so the
//! per-cycle scheduler and the ready queue's lazy stall credit never
//! double-charge. Internal micro-ops touch no memory and emit no trace
//! events — in both modes those instructions are trace-silent — so
//! statistics, trace streams, and snapshots stay bit-identical with the
//! reference interpreter.
//!
//! The one exception is the op-counter store: a `sw` (`UopKind::StoreWord`)
//! whose address, computed from the registers when it is next, is
//! `MMIO_BASE + mmio_reg::OP_COUNT`. The interpreter's MMIO write does
//! nothing else with it — one cycle, `ops += value`, no memory access, no
//! trace event, no store buffer — so the block does the same, charging
//! `ops` at the store's issue cycle, which like every in-block issue is at
//! or before the horizon. Any other store ends the block before it, and a
//! block entered at one returns without progress, so the interpreter
//! executes it at its own cycle.

use lrscwait_isa::{AluOp, MicroOp, Reg, UopKind};

use crate::config::{mmio_reg, CoreTiming, MMIO_BASE};
use crate::cpu::{Core, DecodedProgram};

/// A fully lowered program image: one [`MicroOp`] per instruction.
///
/// Built once per translated [`Machine`](crate::Machine), at
/// construction; a snapshot restore keeps it.
#[derive(Debug)]
pub struct Translation {
    /// Text base address (micro-op `i` covers `base + 4*i`).
    base: u32,
    /// Lowered micro-ops, index-aligned with `DecodedProgram::instrs`,
    /// plus one trailing `Boundary`: falling off the end of the text
    /// exits like any other boundary and the fetch faults in the
    /// interpreter.
    uops: Vec<MicroOp>,
    /// `runs[i]`: how many consecutive micro-ops starting at `i` are run
    /// kinds (`UopKind::is_run`), saturating at 255; `0` for every other
    /// kind. Same length as `uops`.
    runs: Vec<u8>,
}

impl Translation {
    /// Lowers a decoded program into its micro-op image.
    #[must_use]
    pub fn new(program: &DecodedProgram) -> Translation {
        let base = program.base;
        let len = program.instrs.len() as u32;
        let mut uops: Vec<MicroOp> = program
            .instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| MicroOp::lower(instr, base + 4 * i as u32, base, len))
            .chain([MicroOp::BOUNDARY])
            .collect();
        MicroOp::mark_countdowns(&mut uops);
        MicroOp::mark_word_stores(&program.instrs, &mut uops);
        let mut runs = vec![0u8; uops.len()];
        for i in (0..len as usize).rev() {
            if uops[i].kind.is_run() {
                runs[i] = runs[i + 1].saturating_add(1);
            }
        }
        Translation { base, uops, runs }
    }

    /// Number of micro-ops (== instructions) in the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len() - 1
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Superblock entry index for `pc`: `Some` only when `pc` lands on
    /// an in-text, aligned, *non-boundary* micro-op. Boundary
    /// instructions and out-of-text pcs return `None` — the caller runs
    /// one interpreter step instead, which performs the architectural
    /// action (or raises the fault) at the correct cycle. A word store is
    /// an entry, but a superblock runs it only when it writes the op
    /// counter.
    #[must_use]
    pub fn entry(&self, pc: u32) -> Option<usize> {
        let rel = pc.wrapping_sub(self.base);
        let idx = (rel / 4) as usize;
        let enterable = rel % 4 == 0 && self.uops.get(idx).is_some_and(|u| !u.is_boundary());
        enterable.then_some(idx)
    }
}

/// The address of the MMIO op counter, the one store a superblock runs.
const OP_COUNTER: u32 = MMIO_BASE + mmio_reg::OP_COUNT;

/// Whether `u` ends a superblock when it is next, given the registers it
/// would read: a boundary always, a word store unless it writes the op
/// counter.
fn stops(u: MicroOp, regs: &[u32; 32]) -> bool {
    match u.kind {
        UopKind::Boundary => true,
        UopKind::StoreWord => {
            regs[usize::from(u.rs1.index() & 31)].wrapping_add(u.imm) != OP_COUNTER
        }
        _ => false,
    }
}

/// Executes one superblock: issues micro-ops starting at `entry` until
/// the next instruction is a boundary (or a store the block does not
/// run), control flow leaves the text image, or the next issue cycle
/// would pass `horizon`. Returns whether anything issued: a block entered
/// at a store other than the op counter's returns `false` untouched, and
/// the caller interprets the store.
///
/// Entry invariants (checked by the caller): `now >= core.ready_at`, the
/// request outbox has room, and `uops[entry]` is not a boundary.
/// `now <= horizon` always holds (the horizon is clamped up to `now`).
///
/// On exit `core.pc` points at the next instruction to execute,
/// `core.ready_at` at its earliest issue cycle, and `core.charged_until`
/// at the last cycle already accounted into `core.stats` — later
/// per-cycle visits and the deferred-stall credit must only charge
/// cycles beyond it.
#[must_use]
pub(crate) fn run_block(
    core: &mut Core,
    trans: &Translation,
    entry: usize,
    now: u64,
    horizon: u64,
    timing: &CoreTiming,
) -> bool {
    use UopKind as K;
    // `Reg` is an index below 32; the mask lets the compiler see it.
    let x = |r: Reg| usize::from(r.index() & 31);
    let base = trans.base;
    let uops = &trans.uops[..];
    if stops(uops[entry], &core.regs) {
        return false;
    }
    let penalty = u64::from(timing.branch_penalty);
    let mut idx = entry;
    // Issue cycle of `uops[idx]`; `t <= horizon` at the top of the loop.
    let mut t = now;
    // Doubles as `active_cycles`: both are charged once per issue.
    let mut instret = 0u64;
    let mut stall = 0u64;
    let (exit_pc, ready, issued) = loop {
        // One step — a run, or one micro-op of any other kind — yields
        // the index control continues at, the cycle the step's last
        // instruction issued at, and the cycle the next one may issue.
        let (next, issued, ready) = match trans.runs[idx] {
            0 => {
                let u = uops[idx];
                let (a, b) = (core.regs[x(u.rs1)], core.regs[x(u.rs2)]);
                let link = base.wrapping_add(4 * (idx as u32 + 1));
                let fall_through = (idx + 1, t, t + 1);
                let taken_at = t + 1 + penalty;
                // A conditional branch to an in-text index …
                macro_rules! branch {
                    ($taken:expr) => {
                        if $taken {
                            (u.imm as usize, t, taken_at)
                        } else {
                            fall_through
                        }
                    };
                }
                // … and to a pc the interpreter will fault on.
                macro_rules! branch_out {
                    ($taken:expr) => {
                        if $taken {
                            break (u.imm, taken_at, t);
                        } else {
                            fall_through
                        }
                    };
                }
                instret += 1;
                macro_rules! divide {
                    ($op:expr) => {{
                        core.set_reg(u.rd, $op.eval(a, b));
                        (idx + 1, t, t + u64::from(timing.div_latency.max(1)))
                    }};
                }
                match u.kind {
                    K::Div => divide!(AluOp::Div),
                    K::Divu => divide!(AluOp::Divu),
                    K::Rem => divide!(AluOp::Rem),
                    K::Remu => divide!(AluOp::Remu),
                    K::Jal => {
                        core.set_reg(u.rd, link);
                        (u.imm as usize, t, taken_at)
                    }
                    K::JalOut => {
                        core.set_reg(u.rd, link);
                        break (u.imm, taken_at, t);
                    }
                    K::Jalr => {
                        let target = a.wrapping_add(u.imm) & !1;
                        core.set_reg(u.rd, link);
                        let rel = target.wrapping_sub(base);
                        if rel % 4 != 0 || (rel / 4) as usize >= trans.len() {
                            break (target, taken_at, t);
                        }
                        ((rel / 4) as usize, t, taken_at)
                    }
                    K::Beq => branch!(a == b),
                    K::Bne => branch!(a != b),
                    K::Blt => branch!((a as i32) < (b as i32)),
                    K::Bge => branch!((a as i32) >= (b as i32)),
                    K::Bltu => branch!(a < b),
                    K::Bgeu => branch!(a >= b),
                    K::BeqOut => branch_out!(a == b),
                    K::BneOut => branch_out!(a != b),
                    K::BltOut => branch_out!((a as i32) < (b as i32)),
                    K::BgeOut => branch_out!((a as i32) >= (b as i32)),
                    K::BltuOut => branch_out!(a < b),
                    K::BgeuOut => branch_out!(a >= b),
                    // The op counter: one cycle, no memory access, no
                    // trace event — what the interpreter's MMIO write does.
                    K::StoreWord => {
                        core.stats.ops += u64::from(b);
                        fall_through
                    }
                    K::Countdown => match core.regs[x(u.rd)] {
                        0 => fall_through,
                        // Taken, and so are the next `v - 1`: retire as
                        // many whole iterations as the horizon allows
                        // (module docs, "Countdown").
                        v => {
                            let period = 2 + penalty;
                            let k = horizon
                                .checked_sub(taken_at)
                                .map_or(0, |room| (room / period).min(u64::from(v - 1)));
                            core.regs[x(u.rd)] = v - k as u32;
                            instret += 2 * k;
                            stall += k * penalty;
                            (idx - 1, t + k * period, taken_at + k * period)
                        }
                    },
                    // `runs[idx] == 0` rules out the run kinds; the
                    // caller never enters at a boundary and the loop
                    // exits *before* stepping onto one.
                    _ => unreachable!("superblock stepped onto {:?}", u.kind),
                }
            }
            run => {
                let n = (u64::from(run) - 1).min(horizon - t) as usize + 1;
                let regs = &mut core.regs;
                for u in &uops[idx..idx + n] {
                    let (a, b) = (regs[x(u.rs1)], regs[x(u.rs2)]);
                    // Lowering turned every `rd = x0` form into `Nop`,
                    // so the write below is unconditional.
                    regs[x(u.rd)] = match u.kind {
                        K::Nop => continue,
                        K::Const => u.imm,
                        K::AddRR => a.wrapping_add(b),
                        K::SubRR => a.wrapping_sub(b),
                        K::SllRR => a.wrapping_shl(b),
                        K::SltRR => u32::from((a as i32) < (b as i32)),
                        K::SltuRR => u32::from(a < b),
                        K::XorRR => a ^ b,
                        K::SrlRR => a.wrapping_shr(b),
                        K::SraRR => (a as i32).wrapping_shr(b) as u32,
                        K::OrRR => a | b,
                        K::AndRR => a & b,
                        K::MulRR => a.wrapping_mul(b),
                        K::MulhRR => ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
                        K::MulhsuRR => ((i64::from(a as i32) * i64::from(b)) >> 32) as u32,
                        K::MulhuRR => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                        K::AddRI => a.wrapping_add(u.imm),
                        K::SllRI => a.wrapping_shl(u.imm),
                        K::SltRI => u32::from((a as i32) < (u.imm as i32)),
                        K::SltuRI => u32::from(a < u.imm),
                        K::XorRI => a ^ u.imm,
                        K::SrlRI => a.wrapping_shr(u.imm),
                        K::SraRI => (a as i32).wrapping_shr(u.imm) as u32,
                        K::OrRI => a | u.imm,
                        K::AndRI => a & u.imm,
                        _ => unreachable!("{:?} in a run", u.kind),
                    };
                }
                instret += n as u64;
                (idx + n, t + n as u64 - 1, t + n as u64)
            }
        };
        if stops(uops[next], &core.regs) || ready > horizon {
            break (base.wrapping_add(4 * next as u32), ready, issued);
        }
        // In-block pipeline gap (branch penalty, divide latency): the
        // per-cycle schedulers charge one stall per waited cycle.
        stall += ready - issued - 1;
        t = ready;
        idx = next;
    };
    core.pc = exit_pc;
    core.ready_at = ready;
    core.charged_until = issued;
    core.stats.instret += instret;
    core.stats.active_cycles += instret;
    core.stats.stall_cycles += stall;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Action;
    use lrscwait_asm::Assembler;
    use lrscwait_isa::{BranchOp, Instr};

    fn decoded(src: &str) -> DecodedProgram {
        let p = Assembler::new()
            .assemble(src)
            .expect("test program assembles");
        DecodedProgram::from_program(&p).expect("test program decodes")
    }

    #[test]
    fn straight_line_block_runs_to_boundary() {
        let prog = decoded("li a0, 5\nli a1, 7\nadd a2, a0, a1\necall\n");
        let trans = Translation::new(&prog);
        assert_eq!(trans.len(), 4);
        assert_eq!(trans.entry(prog.base), Some(0));
        assert_eq!(trans.entry(prog.base + 12), None, "ecall is a boundary");
        assert_eq!(trans.entry(prog.base + 2), None, "misaligned");

        let mut core = Core::new(0, prog.base);
        assert!(run_block(
            &mut core,
            &trans,
            0,
            0,
            u64::MAX,
            &CoreTiming::default()
        ));
        assert_eq!(core.reg(lrscwait_isa::Reg::A2), 12);
        assert_eq!(core.pc, prog.base + 12, "stopped at the ecall");
        assert_eq!(core.ready_at, 3);
        assert_eq!(core.charged_until, 2);
        assert_eq!(core.stats.instret, 3);
        assert_eq!(core.stats.active_cycles, 3);
        assert_eq!(core.stats.stall_cycles, 0);
    }

    #[test]
    fn taken_branch_charges_penalty_as_in_block_stall() {
        // Loop: 4 iterations of (addi; bnez), then falls through to ecall.
        let prog = decoded("li t0, 4\nloop: addi t0, t0, -1\nbnez t0, loop\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        let mut core = Core::new(0, prog.base);
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &timing));
        assert_eq!(core.reg(lrscwait_isa::Reg::T0), 0);
        assert_eq!(core.pc, prog.base + 12);
        // 9 instructions issue (li + 4×(addi, bnez)); each of the 3
        // taken branches inserts `branch_penalty` stall cycles.
        assert_eq!(core.stats.instret, 9);
        assert_eq!(core.stats.active_cycles, 9);
        assert_eq!(
            core.stats.stall_cycles,
            3 * u64::from(timing.branch_penalty)
        );
    }

    #[test]
    fn horizon_splits_block_without_losing_cycles() {
        let prog = decoded("li a0, 1\nli a1, 2\nli a2, 3\nli a3, 4\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        fn run(core: &mut Core, trans: &Translation, now: u64, horizon: u64, timing: &CoreTiming) {
            let entry = trans.entry(core.pc).expect("re-enterable");
            assert!(run_block(core, trans, entry, now, horizon, timing));
        }
        // Horizon 1 → issues at cycles 0 and 1, then must stop.
        let mut split = Core::new(0, prog.base);
        run(&mut split, &trans, 0, 1, &timing);
        assert_eq!(split.stats.active_cycles, 2);
        assert_eq!(split.pc, prog.base + 8, "re-entry point is exact");
        run(&mut split, &trans, 2, u64::MAX, &timing);

        let mut whole = Core::new(0, prog.base);
        run(&mut whole, &trans, 0, u64::MAX, &timing);
        assert_eq!(split.pc, whole.pc);
        assert_eq!(split.ready_at, whole.ready_at);
        assert_eq!(split.stats.instret, whole.stats.instret);
        assert_eq!(split.stats.active_cycles, whole.stats.active_cycles);
        assert_eq!(split.stats.stall_cycles, whole.stats.stall_cycles);
        assert_eq!(split.regs, whole.regs);
    }

    #[test]
    fn divide_latency_matches_interpreter() {
        let prog = decoded("li a0, 100\nli a1, 7\ndiv a2, a0, a1\nrem a3, a0, a1\necall\n");
        let trans = Translation::new(&prog);
        let timing = CoreTiming::default();
        let mut core = Core::new(0, prog.base);
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &timing));
        assert_eq!(core.reg(lrscwait_isa::Reg::A2), 14);
        assert_eq!(core.reg(lrscwait_isa::Reg::A3), 2);
        // Issues at 0, 1, 2 (div → ready 2 + div_latency), then the rem
        // at that cycle (ready + div_latency again); exits at the ecall.
        // Only the div→rem gap is an *in-block* stall — the rem's own
        // latency trails the block and is charged per-visit by the
        // scheduler, exactly like the interpreter.
        assert_eq!(core.ready_at, 2 + 2 * u64::from(timing.div_latency));
        assert_eq!(core.charged_until, 2 + u64::from(timing.div_latency));
        assert_eq!(core.stats.active_cycles, 4);
        assert_eq!(core.stats.stall_cycles, u64::from(timing.div_latency) - 1);
    }

    #[test]
    fn jalr_out_of_text_exits_with_runtime_pc() {
        let prog = decoded("li t0, 0x9000\njalr ra, 0(t0)\necall\n");
        let trans = Translation::new(&prog);
        let mut core = Core::new(0, prog.base);
        assert!(run_block(
            &mut core,
            &trans,
            0,
            0,
            u64::MAX,
            &CoreTiming::default()
        ));
        assert_eq!(core.pc, 0x9000, "interpreter will raise IllegalPc here");
        // `li t0, 0x9000` expands to lui+addi, so the jalr sits at
        // base + 8 and links base + 12.
        assert_eq!(core.reg(lrscwait_isa::Reg::RA), prog.base + 12);
    }

    /// An image of exactly `instrs`, through the binary encoding.
    fn image(instrs: &[Instr]) -> DecodedProgram {
        let mut p = Assembler::new().assemble("nop\n").expect("assembles");
        p.text = instrs.iter().map(lrscwait_isa::encode).collect();
        p.source_lines = vec![1; instrs.len()];
        let prog = DecodedProgram::from_program(&p).expect("decodes");
        assert_eq!(prog.instrs, instrs, "encodable forms only");
        prog
    }

    /// The oracle `run_block` answers to: a lone core stepped the way the
    /// reference scheduler steps it — one `Core::execute` per issue cycle,
    /// one active cycle per issue, one stall per waited cycle — from
    /// `now` until the next instruction is a boundary, out of the text,
    /// or not ready by `horizon`.
    fn interpret(
        core: &mut Core,
        prog: &DecodedProgram,
        now: u64,
        horizon: u64,
        timing: &CoreTiming,
    ) {
        let len = prog.instrs.len() as u32;
        let mut t = now;
        loop {
            core.stats.active_cycles += 1;
            core.charged_until = t;
            assert_eq!(core.execute(prog, t, timing), Ok(Action::Done));
            let internal = prog.index_of(core.pc).is_some_and(|i| {
                !MicroOp::lower(&prog.instrs[i], core.pc, prog.base, len).is_boundary()
            });
            if !internal || core.ready_at > horizon {
                return;
            }
            core.stats.stall_cycles += core.ready_at - t - 1;
            t = core.ready_at;
        }
    }

    /// Runs superblocks back to back, one per horizon, charging the gap
    /// between two calls as a stall like the per-cycle scheduler does.
    fn drive(core: &mut Core, trans: &Translation, horizons: &[u64], timing: &CoreTiming) {
        for &horizon in horizons {
            let now = core.ready_at;
            if let Some(entry) = trans.entry(core.pc).filter(|_| now <= horizon) {
                core.stats.stall_cycles += (now - core.charged_until).saturating_sub(1);
                assert!(run_block(core, trans, entry, now, horizon, timing));
            }
        }
    }

    #[track_caller]
    fn assert_same_core(block: &Core, oracle: &Core, what: &dyn std::fmt::Debug) {
        assert_eq!(block.regs, oracle.regs, "{what:?}: registers");
        assert_eq!(block.pc, oracle.pc, "{what:?}: pc");
        assert_eq!(block.ready_at, oracle.ready_at, "{what:?}: ready_at");
        assert_eq!(
            block.charged_until, oracle.charged_until,
            "{what:?}: charged_until"
        );
        assert_eq!(block.stats, oracle.stats, "{what:?}: statistics");
    }

    fn timings(penalties: &[u32]) -> Vec<CoreTiming> {
        let default = CoreTiming::default();
        std::iter::once(default)
            .chain(penalties.iter().map(|&cycles| CoreTiming {
                branch_penalty: cycles,
                div_latency: cycles,
                ..default
            }))
            .collect()
    }

    #[test]
    fn every_internal_instruction_matches_the_interpreter() {
        use lrscwait_isa::AluOp::*;
        // The instruction under test sits in the middle of nine, so that
        // pc-relative targets exist on both sides and past both ends.
        const AT: u32 = 4;
        const LEN: usize = 9;
        let base = crate::config::ROM_BASE;
        let values = [
            0,
            1,
            2,
            31,
            32,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            // `jalr` bases: in text, odd, misaligned, one past the end.
            base + 8,
            base + 0x11,
            base + 0x22,
            base + 4 * LEN as u32,
        ];
        let (d, a, b, z) = (Reg::A0, Reg::A1, Reg::A2, Reg::ZERO);
        let mut forms = Vec::new();
        for (rd, rs1, rs2) in [
            (d, a, b),
            (z, a, b),
            (d, z, b),
            (d, a, z),
            (d, d, b),
            (d, a, d),
            (d, d, d),
        ] {
            for op in [
                Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Mul, Mulh, Mulhsu, Mulhu, Div,
                Divu, Rem, Remu,
            ] {
                forms.push(Instr::Op { op, rd, rs1, rs2 });
            }
            for op in [Add, Slt, Sltu, Xor, Or, And] {
                for imm in [0, 1, -1, 2047, -2048] {
                    forms.push(Instr::OpImm { op, rd, rs1, imm });
                }
            }
            for op in [Sll, Srl, Sra] {
                for imm in [0, 1, 31] {
                    forms.push(Instr::OpImm { op, rd, rs1, imm });
                }
            }
            for imm in [0, 0x1000, 0x7fff_f000, 0x8000_0000, 0xffff_f000] {
                forms.push(Instr::Lui { rd, imm });
                forms.push(Instr::Auipc { rd, imm });
            }
            // To the first and last instruction, one past either end, far
            // away, and onto a half-word.
            let offsets = [8, -8, -16, 16, 20, -20, 0x800, 6];
            for offset in offsets {
                forms.push(Instr::Jal { rd, offset });
            }
            for offset in [0, 4, -4, 2, 1, 2047, -2048] {
                forms.push(Instr::Jalr { rd, rs1, offset });
            }
            for op in [
                BranchOp::Eq,
                BranchOp::Ne,
                BranchOp::Lt,
                BranchOp::Ge,
                BranchOp::Ltu,
                BranchOp::Geu,
            ] {
                for offset in offsets {
                    forms.push(Instr::Branch {
                        op,
                        rs1,
                        rs2,
                        offset,
                    });
                }
            }
        }
        let timings = timings(&[0, 3]);
        let now = 1000;
        for form in forms {
            let mut instrs = [Instr::nop(); LEN];
            instrs[AT as usize] = form;
            let prog = image(&instrs);
            let trans = Translation::new(&prog);
            let pc = prog.base + 4 * AT;
            let entry = trans.entry(pc).expect("an internal instruction");
            let (rs1, rs2) = match form {
                Instr::Op { rs1, rs2, .. } | Instr::Branch { rs1, rs2, .. } => (rs1, rs2),
                Instr::OpImm { rs1, .. } | Instr::Jalr { rs1, .. } => (rs1, z),
                _ => (z, z),
            };
            for timing in &timings {
                for v1 in values {
                    for v2 in values {
                        let mut oracle = Core::new(3, pc);
                        for (i, reg) in oracle.regs.iter_mut().enumerate() {
                            *reg = 0x0101_0101 * i as u32;
                        }
                        oracle.set_reg(rs1, v1);
                        oracle.set_reg(rs2, v2);
                        oracle.stats.instret = 17;
                        let mut block = oracle.clone();
                        // Horizon `now`: exactly one instruction issues.
                        assert!(run_block(&mut block, &trans, entry, now, now, timing));
                        oracle.stats.active_cycles += 1;
                        oracle.charged_until = now;
                        assert_eq!(oracle.execute(&prog, now, timing), Ok(Action::Done));
                        assert_same_core(&block, &oracle, &(form, v1, v2, timing));
                    }
                }
            }
        }
    }

    #[test]
    fn countdowns_cut_at_every_cycle_match_the_interpreter() {
        // The delay-loop idiom reached every way control can reach it; the
        // `li a0` after each loop shows where the loop let go.
        let fall_in = |n: u32, branch: &str| {
            format!("li t0, {n}\nloop: addi t0, t0, -1\n{branch}\nli a0, 7\necall\n")
        };
        let mut sources: Vec<String> = [0, 1, 2, 3, 9]
            .iter()
            .flat_map(|&n| {
                [
                    fall_in(n, "bnez t0, loop"),
                    fall_in(n, "bne zero, t0, loop"),
                ]
            })
            .collect();
        // Entered at the branch, with a counter that is and is not zero.
        for n in [0, 5] {
            sources.push(format!(
                "li t0, {n}\nj enter\nloop: addi t0, t0, -1\nenter: bnez t0, loop\nli a0, 7\necall\n"
            ));
        }
        // A `jalr` lands on the `addi`.
        sources.push(
            "la t1, loop\nli t0, 6\njr t1\nebreak\nloop: addi t0, t0, -1\nbnez t0, loop\n\
             li a0, 7\necall\n"
                .into(),
        );
        // Look-alikes that are not the idiom: another step, another
        // register, another target.
        sources.push("li t0, 8\nloop: addi t0, t0, -2\nbnez t0, loop\necall\n".into());
        sources
            .push("li t0, 3\nli t1, 5\nloop: addi t0, t0, -1\nbnez t1, out\nout: ecall\n".into());
        sources.push("li t0, 4\nloop: nop\naddi t0, t0, -1\nbnez t0, loop\necall\n".into());
        // The "watchdog": a zero counter wraps and never gets there.
        const END: u64 = 90;
        for src in &sources {
            let prog = decoded(src);
            let trans = Translation::new(&prog);
            for timing in timings(&[0, 2, 3]) {
                let mut oracle = Core::new(0, prog.base);
                interpret(&mut oracle, &prog, 0, END, &timing);
                for cut in 0..=END {
                    let mut block = Core::new(0, prog.base);
                    drive(&mut block, &trans, &[cut, END], &timing);
                    assert_same_core(&block, &oracle, &(src, cut, timing));
                }
            }
        }
    }

    #[test]
    fn countdown_is_marked_only_on_the_idiom() {
        let kinds = |src: &str| -> Vec<UopKind> {
            let trans = Translation::new(&decoded(src));
            trans.uops[..trans.len()].iter().map(|u| u.kind).collect()
        };
        use UopKind::{AddRI, Bne, Boundary, Countdown};
        assert_eq!(
            kinds("loop: addi t0, t0, -1\nbnez t0, loop\necall\n"),
            [AddRI, Countdown, Boundary]
        );
        assert_eq!(
            kinds("loop: addi t0, t0, -1\nbne zero, t0, loop\necall\n"),
            [AddRI, Countdown, Boundary]
        );
        for not_the_idiom in [
            "loop: addi t0, t0, -2\nbnez t0, loop\necall\n",
            "loop: addi t0, t1, -1\nbnez t0, loop\necall\n",
            "loop: addi t0, t0, -1\nbnez t1, loop\necall\n",
            "loop: addi t0, t0, -1\nbne t0, t1, loop\necall\n",
            "loop: addi t0, t0, -1\nhere: bnez t0, here\necall\n",
        ] {
            assert_eq!(
                kinds(not_the_idiom),
                [AddRI, Bne, Boundary],
                "{not_the_idiom}"
            );
        }
    }

    #[test]
    fn runs_longer_than_the_table_saturates_split_exactly() {
        // 600 single-cycle instructions: `runs` saturates at 255, so the
        // block is retired as several runs; cut it around every seam.
        let prog = decoded(&format!("{}ecall\n", "addi a0, a0, 3\n".repeat(600)));
        let trans = Translation::new(&prog);
        assert_eq!(trans.runs[0], 255);
        assert_eq!(trans.runs[600 - 255], 255);
        assert_eq!(trans.runs[600 - 254], 254);
        assert_eq!(trans.runs[599], 1);
        assert_eq!(trans.runs[600], 0, "the ecall");
        assert_eq!(trans.runs[601], 0, "the end-of-text sentinel");
        let timing = CoreTiming::default();
        let mut oracle = Core::new(0, prog.base);
        interpret(&mut oracle, &prog, 0, u64::MAX, &timing);
        assert_eq!(oracle.reg(Reg::A0), 1800);
        for cut in [0, 1, 253, 254, 255, 256, 509, 510, 511, 598, 599, 600, 601] {
            let mut block = Core::new(0, prog.base);
            drive(&mut block, &trans, &[cut, u64::MAX], &timing);
            assert_same_core(&block, &oracle, &cut);
        }
    }

    #[test]
    fn op_counter_stores_run_in_block_and_other_stores_stop_it() {
        let prog = decoded(
            "li s0, 0xFFFF0000\nli t0, 3\nsw t0, 4(s0)\naddi a0, a0, 1\nsw t0, 4(s0)\n\
             sw t0, 8(s0)\necall\n",
        );
        let trans = Translation::new(&prog);
        let region = 4 * (prog.instrs.len() as u32 - 2);
        let issued = u64::from(region / 4);
        let mut core = Core::new(0, prog.base);
        assert!(run_block(
            &mut core,
            &trans,
            0,
            0,
            u64::MAX,
            &CoreTiming::default()
        ));
        assert_eq!(core.stats.ops, 6, "both op-counter stores ran");
        assert_eq!(core.pc, prog.base + region, "stopped at the region marker");
        assert_eq!((core.ready_at, core.charged_until), (issued, issued - 1));
        assert_eq!(core.stats.instret, issued);
        assert_eq!(core.stats.active_cycles, issued);
        assert_eq!(core.stats.stall_cycles, 0);

        // Entered at a store the block does not run: no progress at all.
        let entry = trans.entry(core.pc).expect("a store is an entry");
        let before = core.clone();
        assert!(!run_block(
            &mut core,
            &trans,
            entry,
            issued,
            u64::MAX,
            &CoreTiming::default()
        ));
        assert_same_core(&core, &before, &"entered at the region marker");

        // Entered at an op-counter store, with the horizon at its issue.
        let mut core = Core::new(0, prog.base + region - 4);
        core.regs = before.regs;
        let entry = trans.entry(core.pc).expect("a store is an entry");
        assert!(run_block(
            &mut core,
            &trans,
            entry,
            10,
            10,
            &CoreTiming::default()
        ));
        assert_eq!(core.stats.ops, 3);
        assert_eq!((core.pc, core.ready_at), (prog.base + region, 11));
    }

    #[test]
    fn falling_off_the_text_exits_at_the_end_pc() {
        let prog = decoded("li a0, 1\nli a1, 2\n");
        let trans = Translation::new(&prog);
        assert_eq!(trans.len(), 2);
        assert!(!trans.is_empty());
        assert_eq!(trans.entry(prog.base + 8), None, "one past the end");
        let mut core = Core::new(0, prog.base);
        assert!(run_block(
            &mut core,
            &trans,
            0,
            0,
            u64::MAX,
            &CoreTiming::default()
        ));
        assert_eq!(core.pc, prog.base + 8, "the interpreter faults here");
        assert_eq!((core.ready_at, core.charged_until), (2, 1));
        assert_eq!(core.stats.instret, 2);
    }
}
