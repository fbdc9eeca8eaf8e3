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
//! Three shortcuts reach that state without visiting every instruction;
//! all are exact because, inside them, timing does not depend on data:
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
//! * **Loop.** A conditional branch at index `i` (`Beq` … `Bgeu`: not an
//!   `Out` form, not a `Countdown`) whose target is a head `h < i` with
//!   `runs[h] == i − h` closes a loop whose body is all run kinds. When
//!   it is taken at `t` with `k = i − h` and `p = branch_penalty`, the
//!   next iteration issues its body at `T … T+k−1` and its branch at
//!   `T+k`, where `T = t + 1 + p`, whatever the registers hold — only
//!   whether that branch is taken again depends on data. So while `T + k
//!   <= horizon` a whole iteration retires as `instret += k + 1`, `stall
//!   += p`, one pass over the body and one test of the branch; a taken
//!   branch moves `T` on by `k + 1 + p`. A branch that falls through
//!   leaves the loop at `i + 1`, issued at `T + k` and ready at `T + k +
//!   1`; an iteration the horizon would cut is left to the run step at
//!   `h`, ready at `T`, as if the loop step had not been there. Because
//!   only whole bodies execute here, they execute *compacted*, built once
//!   per image: `Nop`s dropped, and each `Const rd` directly followed by
//!   `AddRI rd, rd, imm` (a `li`) folded into one `Const` — its first
//!   value is overwritten before anything reads it. A `Const` whose
//!   register no other micro-op of the body writes, and none before it
//!   reads, holds the same value wherever the body reads it, so it is
//!   *hoisted*: written once before the first iteration the loop step
//!   runs (not at all when none fits), not once per iteration. Runs that
//!   stop part-way through a body execute the original micro-ops.
//!
//! Either count may come out short — `runs` saturates at 255, `k`
//! rounds down — and the remainder simply takes another step of the
//! loop; only an overcount would be wrong. (A loop body longer than 255
//! is never a loop: its head's `runs` entry cannot equal its length.)
//!
//! `run_block` runs *ahead* of the machine clock; on exit
//! `Core::charged_until` is the last issue cycle (as defined above for
//! every shortcut), i.e. the last cycle already accounted, so the
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
    /// The compacted bodies of the image's loops (module docs, "Loop"),
    /// back to back. Empty, and so unallocated, in an image without one.
    bodies: Vec<MicroOp>,
    /// Where each loop's body is in `bodies`, in branch index order.
    loops: Vec<Loop>,
}

/// One loop of a [`Translation`]: the branch that closes it, and its
/// compacted body `bodies[start..end]`, whose first `hoisted` micro-ops are
/// the constants written once before the first iteration.
#[derive(Debug)]
struct Loop {
    branch: usize,
    start: usize,
    hoisted: usize,
    end: usize,
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
        let (mut bodies, mut loops) = (Vec::<MicroOp>::new(), Vec::new());
        for (i, u) in uops.iter().enumerate() {
            let h = u.imm as usize;
            if is_in_text_branch(u.kind) && h < i && usize::from(runs[h]) == i - h {
                let start = bodies.len();
                for &op in &uops[h..i] {
                    match (op.kind, bodies[start..].last_mut()) {
                        (UopKind::Nop, _) => {}
                        (UopKind::AddRI, Some(li))
                            if li.kind == UopKind::Const && li.rd == op.rd && op.rs1 == op.rd =>
                        {
                            li.imm = li.imm.wrapping_add(op.imm);
                        }
                        _ => bodies.push(op),
                    }
                }
                loops.push(Loop {
                    branch: i,
                    start,
                    hoisted: hoist(&mut bodies[start..]),
                    end: bodies.len(),
                });
            }
        }
        Translation {
            base,
            uops,
            runs,
            bodies,
            loops,
        }
    }

    /// The hoisted constants and the rest of the compacted body of the
    /// loop the branch at index `branch` closes, if it closes one (module
    /// docs, "Loop").
    fn loop_body(&self, branch: usize) -> Option<(&[MicroOp], &[MicroOp])> {
        let at = self
            .loops
            .binary_search_by_key(&branch, |l| l.branch)
            .ok()?;
        let Loop {
            start,
            hoisted,
            end,
            ..
        } = self.loops[at];
        Some(self.bodies[start..end].split_at(hoisted))
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
        UopKind::StoreWord => regs[x(u.rs1)].wrapping_add(u.imm) != OP_COUNTER,
        _ => false,
    }
}

/// Moves each `Const` of a compacted loop body that no other micro-op of
/// the body writes, and none before it reads, to the front, keeping the
/// order of the rest, and returns how many it moved. Every iteration
/// writes such a register with the same value before reading it, so
/// writing it once before the first iteration leaves every later state
/// the same.
fn hoist(body: &mut [MicroOp]) -> usize {
    let mut hoisted = 0;
    for j in 0..body.len() {
        let op = body[j];
        // Moving earlier constants to the front keeps the set of micro-ops
        // before `j`, so the test holds as on the original order. Fields a
        // kind does not use are `x0`, which no run kind writes.
        let (before, after) = body.split_at(j);
        let invariant = op.kind == UopKind::Const
            && before.iter().chain(&after[1..]).all(|o| o.rd != op.rd)
            && before.iter().all(|o| o.rs1 != op.rd && o.rs2 != op.rd);
        if invariant {
            body[hoisted..=j].rotate_right(1);
            hoisted += 1;
        }
    }
    hoisted
}

/// Whether `kind` is a conditional branch to an in-text index, the one
/// kind that can close a loop.
fn is_in_text_branch(kind: UopKind) -> bool {
    use UopKind as K;
    matches!(kind, K::Beq | K::Bne | K::Blt | K::Bge | K::Bltu | K::Bgeu)
}

/// The register file index of `r`: `Reg` is an index below 32, and the
/// mask lets the compiler see it.
fn x(r: Reg) -> usize {
    usize::from(r.index() & 31)
}

/// Executes one run-kind micro-op.
#[inline(always)]
fn exec(u: MicroOp, regs: &mut [u32; 32]) {
    use UopKind as K;
    let (a, b) = (regs[x(u.rs1)], regs[x(u.rs2)]);
    // Lowering turned every `rd = x0` form into `Nop`, so the write
    // below is unconditional.
    regs[x(u.rd)] = match u.kind {
        K::Nop => return,
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

/// Whether a conditional branch of `kind` (in-text or `Out`) is taken on
/// operands `a` and `b`.
fn taken(kind: UopKind, a: u32, b: u32) -> bool {
    use UopKind as K;
    match kind {
        K::Beq | K::BeqOut => a == b,
        K::Bne | K::BneOut => a != b,
        K::Blt | K::BltOut => (a as i32) < (b as i32),
        K::Bge | K::BgeOut => (a as i32) >= (b as i32),
        K::Bltu | K::BltuOut => a < b,
        K::Bgeu | K::BgeuOut => a >= b,
        _ => unreachable!("{kind:?} is not a conditional branch"),
    }
}

/// The loop step (module docs, "Loop"): the branch `branch` at index
/// `idx`, closing a loop of compacted body `(hoisted, body)`, was taken,
/// so the next iteration issues from `first`. Unless none fits, writes
/// the hoisted constants, then runs the body and tests the branch while
/// the iteration fits under `horizon` and the branch stays taken. Returns
/// the iterations it retired and, like every step of [`run_block`], the
/// index control continues at, the last issue cycle and the next ready
/// cycle. Kept out of line, so that `run_block`, which every superblock
/// runs, grows by little more than the call.
#[inline(never)]
fn loop_step(
    regs: &mut [u32; 32],
    (hoisted, body): (&[MicroOp], &[MicroOp]),
    branch: MicroOp,
    idx: usize,
    first: u64,
    penalty: u64,
    horizon: u64,
) -> (u64, (usize, u64, u64)) {
    let head = branch.imm as usize;
    let k = (idx - head) as u64;
    let period = k + 1 + penalty;
    // Iteration `j` (from 0) issues its branch at `first + j·period + k`.
    let fits = horizon
        .checked_sub(first + k)
        .map_or(0, |room| room / period + 1);
    if fits == 0 {
        return (0, (head, first - 1 - penalty, first));
    }
    for &u in hoisted {
        exec(u, regs);
    }
    let (rs1, rs2) = (x(branch.rs1), x(branch.rs2));
    let mut n = 0;
    loop {
        for &u in body {
            exec(u, regs);
        }
        n += 1;
        let at = first + (n - 1) * period + k;
        if !taken(branch.kind, regs[rs1], regs[rs2]) {
            return (n, (idx + 1, at, at + 1));
        }
        if n == fits {
            return (n, (head, at, at + 1 + penalty));
        }
    }
}

/// Executes one superblock: issues micro-ops starting at `entry` until
/// the next instruction is a boundary (or a store the block does not
/// run), control flow leaves the text image, or the next issue cycle
/// would pass `horizon`. Returns `None` when nothing issued — a block
/// entered at a store other than the op counter's returns untouched, and
/// the caller interprets the store — and otherwise the number of loop
/// iterations the loop step retired (module docs, "Loop").
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
) -> Option<u64> {
    use UopKind as K;
    let base = trans.base;
    let uops = &trans.uops[..];
    if stops(uops[entry], &core.regs) {
        return None;
    }
    let penalty = u64::from(timing.branch_penalty);
    let mut idx = entry;
    // Issue cycle of `uops[idx]`; `t <= horizon` at the top of the loop.
    let mut t = now;
    // Doubles as `active_cycles`: both are charged once per issue.
    let mut instret = 0u64;
    let mut stall = 0u64;
    let mut iterations = 0u64;
    let (exit_pc, ready, issued) = loop {
        // One step — a run, a loop, or one micro-op of any other kind —
        // yields the index control continues at, the cycle the step's
        // last instruction issued at, and the cycle the next one may issue.
        let (next, issued, ready) = match trans.runs[idx] {
            0 => {
                let u = uops[idx];
                let (a, b) = (core.regs[x(u.rs1)], core.regs[x(u.rs2)]);
                let link = base.wrapping_add(4 * (idx as u32 + 1));
                let fall_through = (idx + 1, t, t + 1);
                let taken_at = t + 1 + penalty;
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
                    // A conditional branch to an in-text index; a taken
                    // one that closes a loop goes on into the loop step …
                    K::Beq | K::Bne | K::Blt | K::Bge | K::Bltu | K::Bgeu => {
                        if !taken(u.kind, a, b) {
                            fall_through
                        } else if let Some(body) = trans.loop_body(idx) {
                            let (n, step) =
                                loop_step(&mut core.regs, body, u, idx, taken_at, penalty, horizon);
                            let k = idx as u64 - u64::from(u.imm);
                            iterations += n;
                            instret += n * (k + 1);
                            stall += n * penalty;
                            step
                        } else {
                            (u.imm as usize, t, taken_at)
                        }
                    }
                    // … and to a pc the interpreter will fault on.
                    K::BeqOut | K::BneOut | K::BltOut | K::BgeOut | K::BltuOut | K::BgeuOut => {
                        if taken(u.kind, a, b) {
                            break (u.imm, taken_at, t);
                        }
                        fall_through
                    }
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
                for &u in &uops[idx..idx + n] {
                    exec(u, &mut core.regs);
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
    Some(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Action;
    use lrscwait_asm::Assembler;
    use lrscwait_core::harness::SplitMix64;
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default()).is_some());
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &timing).is_some());
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
            assert!(run_block(core, trans, entry, now, horizon, timing).is_some());
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &timing).is_some());
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default()).is_some());
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
    /// Returns the loop iterations they retired.
    fn drive(core: &mut Core, trans: &Translation, horizons: &[u64], timing: &CoreTiming) -> u64 {
        let mut iterations = 0;
        for &horizon in horizons {
            let now = core.ready_at;
            if let Some(entry) = trans.entry(core.pc).filter(|_| now <= horizon) {
                core.stats.stall_cycles += (now - core.charged_until).saturating_sub(1);
                iterations += run_block(core, trans, entry, now, horizon, timing).expect("issued");
            }
        }
        iterations
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
                        assert!(run_block(&mut block, &trans, entry, now, now, timing).is_some());
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default()).is_some());
        assert_eq!(core.stats.ops, 6, "both op-counter stores ran");
        assert_eq!(core.pc, prog.base + region, "stopped at the region marker");
        assert_eq!((core.ready_at, core.charged_until), (issued, issued - 1));
        assert_eq!(core.stats.instret, issued);
        assert_eq!(core.stats.active_cycles, issued);
        assert_eq!(core.stats.stall_cycles, 0);

        // Entered at a store the block does not run: no progress at all.
        let entry = trans.entry(core.pc).expect("a store is an entry");
        let before = core.clone();
        assert!(run_block(
            &mut core,
            &trans,
            entry,
            issued,
            u64::MAX,
            &CoreTiming::default()
        )
        .is_none());
        assert_same_core(&core, &before, &"entered at the region marker");

        // Entered at an op-counter store, with the horizon at its issue.
        let mut core = Core::new(0, prog.base + region - 4);
        core.regs = before.regs;
        let entry = trans.entry(core.pc).expect("a store is an entry");
        assert!(run_block(&mut core, &trans, entry, 10, 10, &CoreTiming::default()).is_some());
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
        assert!(run_block(&mut core, &trans, 0, 0, u64::MAX, &CoreTiming::default()).is_some());
        assert_eq!(core.pc, prog.base + 8, "the interpreter faults here");
        assert_eq!((core.ready_at, core.charged_until), (2, 1));
        assert_eq!(core.stats.instret, 2);
    }

    /// Checks a program against the interpreter from cycle 0: stopped at
    /// every horizon up to `end`, and split at every such cycle and then
    /// resumed to `end`. Returns the loop iterations of the whole run to
    /// `end`.
    fn loop_matches_the_interpreter(src: &str, end: u64, timing: &CoreTiming) -> u64 {
        let prog = decoded(src);
        let trans = Translation::new(&prog);
        let mut whole = Core::new(0, prog.base);
        interpret(&mut whole, &prog, 0, end, timing);
        for cut in 0..=end {
            let mut oracle = Core::new(0, prog.base);
            interpret(&mut oracle, &prog, 0, cut, timing);
            let mut block = Core::new(0, prog.base);
            drive(&mut block, &trans, &[cut], timing);
            assert_same_core(&block, &oracle, &(src, "stopped at", cut, timing));
            drive(&mut block, &trans, &[end], timing);
            assert_same_core(&block, &whole, &(src, "split at", cut, timing));
        }
        let mut block = Core::new(0, prog.base);
        drive(&mut block, &trans, &[end], timing)
    }

    /// One seeded run-kind instruction writing one of `dests`, reading the
    /// loop's registers; a large `li` is two micro-ops. Returns the line
    /// and how many micro-ops it lowers to.
    fn random_run_instr(rng: &mut SplitMix64, dests: &[&str]) -> (String, usize) {
        const SOURCES: [&str; 6] = ["a0", "a1", "a2", "t2", "t4", "zero"];
        const RR: [&str; 14] = [
            "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul", "mulh",
            "mulhsu", "mulhu",
        ];
        const RI: [&str; 6] = ["addi", "slti", "sltiu", "xori", "ori", "andi"];
        const SHIFTS: [&str; 3] = ["slli", "srli", "srai"];
        let rd = dests[rng.below(dests.len())];
        let rs1 = SOURCES[rng.below(SOURCES.len())];
        let rs2 = SOURCES[rng.below(SOURCES.len())];
        match rng.below(7) {
            0 => (format!("li {rd}, {}", rng.next_u64() as u32 | 0x1000), 2),
            1 => (format!("lui {rd}, {}", rng.below(1 << 20)), 1),
            2 => ("nop".into(), 1),
            3 => (
                format!(
                    "{} {rd}, {rs1}, {}",
                    RI[rng.below(RI.len())],
                    rng.below(4096) as i32 - 2048
                ),
                1,
            ),
            4 => (
                format!("{} {rd}, {rs1}, {}", SHIFTS[rng.below(3)], rng.below(32)),
                1,
            ),
            _ => (format!("{} {rd}, {rs1}, {rs2}", RR[rng.below(RR.len())]), 1),
        }
    }

    /// A seeded loop body of at most `uops` micro-ops (at least one).
    fn random_body(rng: &mut SplitMix64, uops: usize, dests: &[&str]) -> Vec<String> {
        let mut body = Vec::new();
        let mut len = 0;
        while len < uops {
            let (line, n) = random_run_instr(rng, dests);
            if len + n > uops {
                continue;
            }
            body.push(line);
            len += n;
        }
        body
    }

    /// `t2` counts down from `n` (up to `n` where the exit is `blt t2,
    /// t4`), and each of the six in-text branch kinds closes the loop on
    /// it; the seeded rest of the body writes neither `t2` nor `t4`.
    /// Returns the loop's lines after the body, and whether the counter
    /// counts up.
    fn counter_exit(kind: usize) -> (&'static str, bool) {
        [
            ("seqz t3, t2\nbeq t3, zero, loop", false),
            ("bne t2, zero, loop", false),
            ("blt zero, t2, loop", false),
            ("bge t2, t4, loop", false),
            ("bltu zero, t2, loop", false),
            ("bgeu t2, t4, loop", false),
            ("blt t2, t4, loop", true),
            ("bltu t2, t4, loop", true),
        ][kind]
    }

    #[test]
    fn loops_cut_at_every_cycle_match_the_interpreter() {
        const END: u64 = 150;
        let mut rng = SplitMix64::new(0x100b);
        let timings = timings(&[0, 3]);
        let mut fired = 0;
        // Counters that exit (or wrap from 0 and run to the horizon), for
        // every branch kind, with the counter step anywhere in the body.
        for kind in 0..8 {
            for n in [0u32, 1, 2, 3, 5] {
                let (exit, up) = counter_exit(kind);
                let len = 1 + rng.below(9);
                let mut body = random_body(&mut rng, len, &["a0", "a1", "zero"]);
                let step = if up {
                    "addi t2, t2, 1"
                } else {
                    "addi t2, t2, -1"
                };
                body.insert(rng.below(body.len() + 1), step.into());
                let (start, bound) = if up { (0, n) } else { (n, 1) };
                let src = format!(
                    "li t2, {start}\nli t4, {bound}\nloop:\n{}\n{exit}\nli a0, 7\necall\n",
                    body.join("\n")
                );
                let timing = &timings[rng.below(timings.len())];
                let iterations = loop_matches_the_interpreter(&src, END, timing);
                // Entered from the top, the loop step takes over after the
                // first taken back-edge and retires every later iteration.
                // A down-counter from 0 wraps past every exit but `blt` and
                // `bge`, and runs to the horizon.
                let wraps = !up && n == 0 && ![2, 3].contains(&kind);
                if !wraps {
                    assert_eq!(u64::from(n.max(1) - 1), iterations, "{src}");
                }
                fired += iterations;
            }
        }
        // Exits that depend on data, with bodies that write the branch's
        // own operands, entered from the top and in the middle.
        let branches = ["beq", "bne", "blt", "bge", "bltu", "bgeu"];
        let operands = ["a0", "a1", "t2", "t4", "zero"];
        for round in 0..48 {
            let dests = ["a0", "a1", "a2", "t2", "t4", "zero"];
            let mut body = random_body(&mut rng, 1 + round % 12, &dests);
            let enter = if round % 3 == 0 {
                let at = rng.below(body.len() + 1);
                body.insert(at, "enter:".into());
                "j enter\n"
            } else {
                ""
            };
            let branch = format!(
                "{} {}, {}, loop",
                branches[round % 6],
                operands[rng.below(operands.len())],
                operands[rng.below(operands.len())]
            );
            let inits: String = ["a0", "a1", "a2", "t2", "t4"]
                .iter()
                .map(|r| {
                    format!(
                        "li {r}, {}\n",
                        [0, 1, 5, rng.next_u64() as u32][rng.below(4)]
                    )
                })
                .collect();
            let src = format!(
                "{inits}{enter}loop:\n{}\n{branch}\nli a0, 7\necall\n",
                body.join("\n")
            );
            let timing = &timings[round % timings.len()];
            fired += loop_matches_the_interpreter(&src, END, timing);
        }
        // The compaction's edge cases: a constant read before its write,
        // entered past the write; a `lui` whose `addi` reads another
        // register; a constant written twice.
        for src in [
            "li a1, 5\nli t2, 4\nj enter\nloop: add a0, a0, a1\nli a1, 0x12345\n\
             enter: addi t2, t2, -1\nbnez t2, loop\necall\n",
            "li t1, 9\nli t2, 4\nloop: lui t5, 1\naddi t5, t1, 1\nadd a0, a0, t5\n\
             addi t2, t2, -1\nbnez t2, loop\necall\n",
            "li t2, 4\nloop: li a1, 0x5000\nadd a0, a0, a1\nli a1, 3\naddi t2, t2, -1\n\
             bnez t2, loop\necall\n",
        ] {
            for timing in &timings {
                fired += loop_matches_the_interpreter(src, END, timing);
            }
        }
        assert!(fired > 0, "the loop step never fired");
    }

    #[test]
    fn the_loop_step_takes_only_pure_run_back_edges() {
        for (src, what) in [
            (
                "li t2, 6\nli t4, 3\nloop: div a0, a1, t4\naddi t2, t2, -1\nbnez t2, loop\n\
                 li a0, 7\necall\n",
                "a divide in the body",
            ),
            (
                "li t2, 6\nloop: addi a0, a0, 1\naddi t2, t2, -1\nbnez t2, back\nj out\n\
                 back: j loop\nout: li a0, 7\necall\n",
                "a forward branch",
            ),
            (
                "li t2, 6\nloop: addi a0, a0, 1\nj next\nnext: addi t2, t2, -1\nbnez t2, loop\n\
                 li a0, 7\necall\n",
                "a head whose run ends inside the body",
            ),
            (
                "li t2, 9\nloop: addi t2, t2, -1\nbnez t2, loop\nli a0, 7\necall\n",
                "a countdown",
            ),
        ] {
            for timing in timings(&[0, 3]) {
                assert_eq!(loop_matches_the_interpreter(src, 90, &timing), 0, "{what}");
            }
        }
        // An op-counter store (which the interpreter oracle cannot take).
        let prog = decoded(
            "li s0, 0xFFFF0000\nli t2, 6\nloop: sw t2, 4(s0)\naddi t2, t2, -1\nbnez t2, loop\n\
             li a0, 7\necall\n",
        );
        let trans = Translation::new(&prog);
        assert!(trans.loops.is_empty());
        let mut block = Core::new(0, prog.base);
        let timing = CoreTiming::default();
        assert_eq!(drive(&mut block, &trans, &[u64::MAX], &timing), 0);
        assert_eq!((block.stats.ops, block.reg(Reg::A0)), (21, 7));
        // A body longer than `runs` counts: the head's entry saturates.
        let src = format!(
            "li t2, 3\nloop:\n{}addi t2, t2, -1\nbnez t2, loop\nli a0, 7\necall\n",
            "addi a0, a0, 1\n".repeat(300)
        );
        let prog = decoded(&src);
        let trans = Translation::new(&prog);
        assert!(trans.loops.is_empty());
        let mut oracle = Core::new(0, prog.base);
        interpret(&mut oracle, &prog, 0, u64::MAX, &timing);
        let mut block = Core::new(0, prog.base);
        assert_eq!(drive(&mut block, &trans, &[u64::MAX], &timing), 0);
        assert_same_core(&block, &oracle, &"a body of 301");
    }

    #[test]
    fn loop_bodies_are_compacted() {
        let body = |src: &str| -> (Vec<MicroOp>, Vec<MicroOp>) {
            let trans = Translation::new(&decoded(src));
            assert_eq!(trans.loops.len(), 1, "{src}");
            let (hoisted, rest) = trans.loop_body(trans.loops[0].branch).expect("a loop");
            (hoisted.to_vec(), rest.to_vec())
        };
        let uop = |kind, rd, rs1, rs2, imm| MicroOp {
            kind,
            rd,
            rs1,
            rs2,
            imm,
        };
        use UopKind::{AddRI, AddRR, Const, MulRR};
        let (t0, t1, t5, s4, z) = (Reg::T0, Reg::T1, Reg::T5, Reg::S4, Reg::ZERO);
        // The busy-loop kernel's compute loop: both `li`s fold and hoist.
        assert_eq!(
            body(
                "li t5, 64\nloop: li t0, 1664525\nmul s4, s4, t0\nli t1, 1013904223\n\
                 add s4, s4, t1\naddi t5, t5, -1\nbnez t5, loop\necall\n"
            ),
            (
                vec![
                    uop(Const, t0, z, z, 1_664_525),
                    uop(Const, t1, z, z, 1_013_904_223)
                ],
                vec![
                    uop(MulRR, s4, s4, t0, 0),
                    uop(AddRR, s4, s4, t1, 0),
                    uop(AddRI, t5, t5, z, u32::MAX),
                ]
            )
        );
        // Nops go; a constant read before its write, or written twice,
        // stays in place; an `addi` from another register does not fold.
        assert_eq!(
            body(
                "loop: nop\nadd s4, s4, t0\nli t0, 0x12345\naddi t1, t1, 1\nli t1, 0x5000\n\
                 lui t5, 1\naddi t5, t1, 1\nbnez t0, loop\necall\n"
            ),
            (
                vec![],
                vec![
                    uop(AddRR, s4, s4, t0, 0),
                    uop(Const, t0, z, z, 0x12345),
                    uop(AddRI, t1, t1, z, 1),
                    uop(Const, t1, z, z, 0x5000),
                    uop(Const, t5, z, z, 0x1000),
                    uop(AddRI, t5, t1, z, 1),
                ]
            )
        );
    }
}
