//! The flat micro-op format of the translated fast path.
//!
//! `lrscwait-sim`'s production stepper pre-lowers each decoded
//! instruction into one 8-byte [`MicroOp`] `{kind, rd, rs1, rs2, imm}`.
//! The [`UopKind`] names the *whole* operation — one kind per (class,
//! [`AluOp`]) pair, per branch condition, per target flavour — so the
//! executor dispatches exactly once per micro-op and finds the operation
//! inlined in the arm it lands on. PC-relative arithmetic is folded at
//! lowering time (`auipc` becomes a constant, in-text targets become
//! *instruction indices*); link values are not stored at all, the
//! executor derives them from the index (`base + 4 * (index + 1)`).
//!
//! # The kind table
//!
//! Fields a kind does not list are `x0` / `0`.
//!
//! | kinds | `rd` | `rs1` | `rs2` | `imm` | class |
//! |---|---|---|---|---|---|
//! | `Boundary` | | | | | exit to the interpreter |
//! | `Nop` | | | | | run |
//! | `Const` (`lui`, `auipc`) | dest ≠ `x0` | | | the value | run |
//! | `AddRR` … `MulhuRR` (14) | dest ≠ `x0` | lhs | rhs | | run |
//! | `AddRI` … `AndRI` (9) | dest ≠ `x0` | lhs | | sign-extended immediate | run |
//! | `Div`, `Divu`, `Rem`, `Remu` | dest (may be `x0`) | lhs | rhs | | one at a time: divide latency |
//! | `Jal` / `JalOut` | link (may be `x0`) | | | target index / target pc | one at a time: branch penalty |
//! | `Jalr` | link (may be `x0`) | base | | offset | one at a time: run-time target |
//! | `Beq` … `Bgeu` / `BeqOut` … `BgeuOut` | | lhs | rhs | taken-target index / pc | one at a time: penalty when taken |
//! | `Countdown` | the counter `r` | lhs | rhs | own index − 1 | a `Bne`, see below |
//! | `StoreWord` | | base | value | offset | a `sw`, see below |
//!
//! *Run* kinds take one cycle and fall through, so everything about
//! their timing is known when the image is translated: the executor
//! retires a whole run of them in an inner loop and does the accounting
//! once (see `lrscwait_sim::translate`). Because `rd = x0` forms are
//! lowered to `Nop`, a run kind's register write is unconditional.
//! An `Out` kind's taken-target is outside the text image or misaligned:
//! the executor leaves the superblock with that pc and the interpreter
//! raises the architectural fault at the right cycle.
//!
//! # Boundary rules
//!
//! An instruction lowers to [`UopKind::Boundary`] — forcing an exit back
//! to the cycle-accurate interpreter — exactly when the memory system,
//! the NoC, the synchronization adapters, or the timing model must
//! observe the core executing it:
//!
//! | Instruction class | Why it is a boundary |
//! |---|---|
//! | `lw`/`lb`/`lh`/… loads | NoC request/response, bank arbitration |
//! | `sw`/`sb`/`sh` stores | store buffer occupancy, backpressure |
//! | `amo*`, `lr`/`sc`, `lrwait`/`scwait`/`mwait` | adapter state machines, parking |
//! | `csrr*` | reads the live cycle counter |
//! | `fence` | drains the store buffer |
//! | `ecall`, `ebreak` | halt / trap, observed by the run loop |
//!
//! (An `OpImm` whose operation has no immediate encoding — the decoder
//! never produces one — is a boundary too: the interpreter executes any
//! [`Instr`].) Everything else executes inside a superblock with cycle
//! charging identical to the interpreter, so statistics and traces stay
//! bit-identical.
//!
//! The one store the timing model need not observe is a word store to a
//! device register that only counts, such as the simulator's MMIO op
//! counter: it takes one cycle, falls through, and touches neither the
//! store buffer nor the NoC. Which address that is, only the executor
//! knows, so [`MicroOp::lower`] keeps every store a boundary and
//! [`MicroOp::mark_word_stores`] rewrites a lowered image's `sw`s into
//! [`UopKind::StoreWord`], which the executor runs in-block for that one
//! address and treats as a boundary for every other.
//!
//! # Enterable at any index
//!
//! Micro-ops are 1:1 with instructions (index `i` covers `base + 4*i`)
//! and execution may *enter* at any non-boundary index: after a wake, a
//! snapshot restore, a horizon cut or a `jalr`, a core resumes wherever
//! its pc points. So no lowering may assume how control reached an
//! index — fusing an instruction with its predecessor, say, would be
//! wrong for a core that arrives at the second one. The one
//! cross-instruction kind, [`UopKind::Countdown`], is not such a
//! peephole: it marks a `bne` whose own target is the `addi r, r, -1`
//! right before it and whose operands are `r` and `x0`. Text is ROM, so
//! that is a static fact about the two instructions, and the shortcut it
//! licenses starts from the branch itself *being taken* — whichever way
//! control got there.

use crate::{AluOp, BranchOp, Instr, MemWidth, Reg};

/// What a [`MicroOp`] does; see the module docs for the field table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum UopKind {
    /// Any instruction the timing model must observe: exit to the
    /// interpreter.
    Boundary,
    /// An ALU or constant form with `rd = x0`: one cycle, no effect.
    Nop,
    /// `rd = imm` — `lui`, and `auipc` with the pc folded in.
    Const,
    /// `rd = rs1 + rs2`.
    AddRR,
    /// `rd = rs1 - rs2`.
    SubRR,
    /// `rd = rs1 << (rs2 & 31)`.
    SllRR,
    /// `rd = (rs1 <ₛ rs2)`.
    SltRR,
    /// `rd = (rs1 <ᵤ rs2)`.
    SltuRR,
    /// `rd = rs1 ^ rs2`.
    XorRR,
    /// `rd = rs1 >>ᵤ (rs2 & 31)`.
    SrlRR,
    /// `rd = rs1 >>ₛ (rs2 & 31)`.
    SraRR,
    /// `rd = rs1 | rs2`.
    OrRR,
    /// `rd = rs1 & rs2`.
    AndRR,
    /// `rd = low32(rs1 × rs2)`.
    MulRR,
    /// `rd = high32(rs1 ×ₛₛ rs2)`.
    MulhRR,
    /// `rd = high32(rs1 ×ₛᵤ rs2)`.
    MulhsuRR,
    /// `rd = high32(rs1 ×ᵤᵤ rs2)`.
    MulhuRR,
    /// `rd = rs1 + imm`.
    AddRI,
    /// `rd = rs1 << (imm & 31)`.
    SllRI,
    /// `rd = (rs1 <ₛ imm)`.
    SltRI,
    /// `rd = (rs1 <ᵤ imm)`.
    SltuRI,
    /// `rd = rs1 ^ imm`.
    XorRI,
    /// `rd = rs1 >>ᵤ (imm & 31)`.
    SrlRI,
    /// `rd = rs1 >>ₛ (imm & 31)`.
    SraRI,
    /// `rd = rs1 | imm`.
    OrRI,
    /// `rd = rs1 & imm` — the last *run* kind (see [`UopKind::is_run`]).
    AndRI,
    /// `div`: multi-cycle, executed one at a time.
    Div,
    /// `divu`.
    Divu,
    /// `rem`.
    Rem,
    /// `remu`.
    Remu,
    /// `jal` to the instruction at index `imm`.
    Jal,
    /// `jal` whose target pc `imm` is outside the text or misaligned.
    JalOut,
    /// `jalr`: target `(rs1 + imm) & !1`, resolved at run time; `rs1` is
    /// read *before* the link write, so `jalr ra, 0(ra)` behaves.
    Jalr,
    /// `beq` whose taken-target is index `imm`.
    Beq,
    /// `bne`, likewise.
    Bne,
    /// `blt`, likewise.
    Blt,
    /// `bge`, likewise.
    Bge,
    /// `bltu`, likewise.
    Bltu,
    /// `bgeu`, likewise.
    Bgeu,
    /// `beq` whose taken-target pc `imm` is outside the text or misaligned.
    BeqOut,
    /// `bne`, likewise.
    BneOut,
    /// `blt`, likewise.
    BltOut,
    /// `bge`, likewise.
    BgeOut,
    /// `bltu`, likewise.
    BltuOut,
    /// `bgeu`, likewise.
    BgeuOut,
    /// A [`UopKind::Bne`] of `r` against `x0` that targets the
    /// `addi r, r, -1` right before it — the delay-loop idiom; `rd`
    /// names `r`. Never produced by [`MicroOp::lower`], which sees one
    /// instruction; [`MicroOp::mark_countdowns`] rewrites a lowered image.
    Countdown,
    /// `sw rs2, imm(rs1)`: a boundary unless the executor runs it in-block
    /// (see the module docs). Never produced by [`MicroOp::lower`];
    /// [`MicroOp::mark_word_stores`] rewrites a lowered image.
    StoreWord,
}

impl UopKind {
    /// Whether this kind takes exactly one cycle and falls through to the
    /// next index, whatever the register values: the executor retires a
    /// run of such micro-ops with one round of accounting.
    #[must_use]
    pub fn is_run(self) -> bool {
        (UopKind::Nop..=UopKind::AndRI).contains(&self)
    }

    /// The register–register kind of `op`.
    fn alu_rr(op: AluOp) -> UopKind {
        match op {
            AluOp::Add => UopKind::AddRR,
            AluOp::Sub => UopKind::SubRR,
            AluOp::Sll => UopKind::SllRR,
            AluOp::Slt => UopKind::SltRR,
            AluOp::Sltu => UopKind::SltuRR,
            AluOp::Xor => UopKind::XorRR,
            AluOp::Srl => UopKind::SrlRR,
            AluOp::Sra => UopKind::SraRR,
            AluOp::Or => UopKind::OrRR,
            AluOp::And => UopKind::AndRR,
            AluOp::Mul => UopKind::MulRR,
            AluOp::Mulh => UopKind::MulhRR,
            AluOp::Mulhsu => UopKind::MulhsuRR,
            AluOp::Mulhu => UopKind::MulhuRR,
            AluOp::Div => UopKind::Div,
            AluOp::Divu => UopKind::Divu,
            AluOp::Rem => UopKind::Rem,
            AluOp::Remu => UopKind::Remu,
        }
    }

    /// The register–immediate kind of `op`, for the operations RV32 can
    /// encode with an immediate.
    fn alu_ri(op: AluOp) -> Option<UopKind> {
        Some(match op {
            AluOp::Add => UopKind::AddRI,
            AluOp::Sll => UopKind::SllRI,
            AluOp::Slt => UopKind::SltRI,
            AluOp::Sltu => UopKind::SltuRI,
            AluOp::Xor => UopKind::XorRI,
            AluOp::Srl => UopKind::SrlRI,
            AluOp::Sra => UopKind::SraRI,
            AluOp::Or => UopKind::OrRI,
            AluOp::And => UopKind::AndRI,
            _ => return None,
        })
    }

    /// The (in-text, out-of-text) kinds of a conditional branch.
    fn branch(op: BranchOp) -> (UopKind, UopKind) {
        match op {
            BranchOp::Eq => (UopKind::Beq, UopKind::BeqOut),
            BranchOp::Ne => (UopKind::Bne, UopKind::BneOut),
            BranchOp::Lt => (UopKind::Blt, UopKind::BltOut),
            BranchOp::Ge => (UopKind::Bge, UopKind::BgeOut),
            BranchOp::Ltu => (UopKind::Bltu, UopKind::BltuOut),
            BranchOp::Geu => (UopKind::Bgeu, UopKind::BgeuOut),
        }
    }
}

/// One lowered instruction of the translated fast path: 8 bytes, one
/// dispatch. See the module docs for what each field means per kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MicroOp {
    /// The operation, fully resolved.
    pub kind: UopKind,
    /// Destination (or link) register.
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate, constant, offset, target index or target pc.
    pub imm: u32,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 8);

impl MicroOp {
    /// The micro-op every observable instruction lowers to.
    pub const BOUNDARY: MicroOp =
        MicroOp::new(UopKind::Boundary, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);

    const fn new(kind: UopKind, rd: Reg, rs1: Reg, rs2: Reg, imm: u32) -> MicroOp {
        MicroOp {
            kind,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    /// A single-cycle register write, or `Nop` when it targets `x0`.
    fn write(kind: UopKind, rd: Reg, rs1: Reg, rs2: Reg, imm: u32) -> MicroOp {
        if rd == Reg::ZERO {
            MicroOp::new(UopKind::Nop, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
        } else {
            MicroOp::new(kind, rd, rs1, rs2, imm)
        }
    }

    /// Lowers one decoded instruction at `pc` into its micro-op, given
    /// the text image geometry (`base` address, `len` instructions).
    #[must_use]
    pub fn lower(instr: &Instr, pc: u32, base: u32, len: u32) -> MicroOp {
        // (in-text?, index or pc) of a pc-relative target.
        let resolve = |offset: i32| {
            let target_pc = pc.wrapping_add(offset as u32);
            let rel = target_pc.wrapping_sub(base);
            if rel % 4 == 0 && rel / 4 < len {
                (true, rel / 4)
            } else {
                (false, target_pc)
            }
        };
        let zero = Reg::ZERO;
        match *instr {
            Instr::Lui { rd, imm } => MicroOp::write(UopKind::Const, rd, zero, zero, imm),
            Instr::Auipc { rd, imm } => {
                MicroOp::write(UopKind::Const, rd, zero, zero, pc.wrapping_add(imm))
            }
            Instr::OpImm { op, rd, rs1, imm } => match UopKind::alu_ri(op) {
                Some(kind) => MicroOp::write(kind, rd, rs1, zero, imm as u32),
                None => MicroOp::BOUNDARY,
            },
            Instr::Op { op, rd, rs1, rs2 } => match UopKind::alu_rr(op) {
                kind if kind.is_run() => MicroOp::write(kind, rd, rs1, rs2, 0),
                // The divide latency is paid even when the result is dropped.
                kind => MicroOp::new(kind, rd, rs1, rs2, 0),
            },
            Instr::Jal { rd, offset } => {
                let (in_text, target) = resolve(offset);
                let kind = if in_text {
                    UopKind::Jal
                } else {
                    UopKind::JalOut
                };
                MicroOp::new(kind, rd, zero, zero, target)
            }
            Instr::Jalr { rd, rs1, offset } => {
                MicroOp::new(UopKind::Jalr, rd, rs1, zero, offset as u32)
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (in_text, target) = resolve(offset);
                let (inside, outside) = UopKind::branch(op);
                MicroOp::new(
                    if in_text { inside } else { outside },
                    zero,
                    rs1,
                    rs2,
                    target,
                )
            }
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Amo { .. }
            | Instr::Fence
            | Instr::Ecall
            | Instr::Ebreak
            | Instr::Csr { .. } => MicroOp::BOUNDARY,
        }
    }

    /// Whether this micro-op ends a superblock (the executor must hand
    /// the instruction back to the interpreter).
    #[must_use]
    pub fn is_boundary(self) -> bool {
        self.kind == UopKind::Boundary
    }

    /// Turns every micro-op of a lowered image (`uops[i]` lowered from
    /// `instrs[i]`) whose instruction is a word store into a
    /// [`UopKind::StoreWord`] with the store's base, value register and
    /// offset.
    pub fn mark_word_stores(instrs: &[Instr], uops: &mut [MicroOp]) {
        for (instr, uop) in instrs.iter().zip(uops) {
            if let Instr::Store {
                width: MemWidth::Word,
                rs2,
                rs1,
                offset,
            } = *instr
            {
                *uop = MicroOp::new(UopKind::StoreWord, Reg::ZERO, rs1, rs2, offset as u32);
            }
        }
    }

    /// Turns every `Bne` of a lowered image (`uops[i]` lowered from the
    /// instruction at index `i`) that closes the delay loop
    /// `addi r, r, -1 ; bne r, x0, .-4` — either operand order — into a
    /// [`UopKind::Countdown`] whose `rd` names `r`.
    pub fn mark_countdowns(uops: &mut [MicroOp]) {
        for at in 1..uops.len() {
            let branch = uops[at];
            if branch.kind != UopKind::Bne || branch.imm as usize != at - 1 {
                continue;
            }
            // `AddRI` implies `r != x0`.
            let dec = uops[at - 1];
            let r = dec.rd;
            if dec.kind == UopKind::AddRI
                && dec.rs1 == r
                && dec.imm == u32::MAX
                && [(r, Reg::ZERO), (Reg::ZERO, r)].contains(&(branch.rs1, branch.rs2))
            {
                uops[at] = MicroOp {
                    kind: UopKind::Countdown,
                    rd: r,
                    ..branch
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmoOp, CsrOp, MemWidth};

    const BASE: u32 = 0x1000;
    const LEN: u32 = 8;

    fn uop(kind: UopKind, rd: Reg, rs1: Reg, rs2: Reg, imm: u32) -> MicroOp {
        MicroOp {
            kind,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    #[test]
    fn auipc_folds_pc() {
        let instr = Instr::Auipc {
            rd: Reg::A0,
            imm: 0x2000,
        };
        assert_eq!(
            MicroOp::lower(&instr, 0x1004, BASE, LEN),
            uop(UopKind::Const, Reg::A0, Reg::ZERO, Reg::ZERO, 0x3004)
        );
    }

    #[test]
    fn jal_resolves_in_text_target_to_index() {
        let instr = Instr::Jal {
            rd: Reg::RA,
            offset: -8,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE + 12, BASE, LEN),
            uop(UopKind::Jal, Reg::RA, Reg::ZERO, Reg::ZERO, 1)
        );
    }

    #[test]
    fn jal_out_of_text_target_keeps_pc() {
        let instr = Instr::Jal {
            rd: Reg::ZERO,
            offset: 0x8000,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE, BASE, LEN),
            uop(
                UopKind::JalOut,
                Reg::ZERO,
                Reg::ZERO,
                Reg::ZERO,
                BASE + 0x8000
            )
        );
    }

    #[test]
    fn branch_past_end_or_misaligned_is_out_of_text() {
        let branch = |offset| Instr::Branch {
            op: BranchOp::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset,
        };
        assert_eq!(
            MicroOp::lower(&branch((LEN * 4) as i32), BASE, BASE, LEN),
            uop(UopKind::BeqOut, Reg::ZERO, Reg::A0, Reg::A1, BASE + LEN * 4)
        );
        assert_eq!(
            MicroOp::lower(&branch(6), BASE, BASE, LEN),
            uop(UopKind::BeqOut, Reg::ZERO, Reg::A0, Reg::A1, BASE + 6)
        );
        assert_eq!(
            MicroOp::lower(&branch(8), BASE, BASE, LEN),
            uop(UopKind::Beq, Reg::ZERO, Reg::A0, Reg::A1, 2)
        );
    }

    #[test]
    fn memory_and_system_instructions_are_boundaries() {
        let boundaries = [
            Instr::Load {
                width: MemWidth::Word,
                signed: false,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Instr::Store {
                width: MemWidth::Word,
                rs2: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Instr::Amo {
                op: AmoOp::LrWait,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::ZERO,
            },
            Instr::Fence,
            Instr::Ecall,
            Instr::Ebreak,
            Instr::Csr {
                op: CsrOp::ReadSet,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                csr: crate::CSR_CYCLE,
                imm_form: false,
            },
            // Not encodable, so the decoder never produces it; the
            // interpreter still executes it.
            Instr::OpImm {
                op: AluOp::Mul,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 3,
            },
        ];
        for instr in &boundaries {
            assert!(
                MicroOp::lower(instr, BASE, BASE, LEN).is_boundary(),
                "{instr:?} must be a superblock boundary"
            );
        }
        assert!(!MicroOp::lower(&Instr::nop(), BASE, BASE, LEN).is_boundary());
    }

    #[test]
    fn only_word_stores_are_marked() {
        let store = |width| Instr::Store {
            width,
            rs2: Reg::A0,
            rs1: Reg::S0,
            offset: -4,
        };
        let instrs = [
            store(MemWidth::Word),
            store(MemWidth::Half),
            store(MemWidth::Byte),
            Instr::nop(),
        ];
        let mut uops: Vec<MicroOp> = instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| MicroOp::lower(instr, BASE + 4 * i as u32, BASE, LEN))
            .collect();
        MicroOp::mark_word_stores(&instrs, &mut uops);
        assert_eq!(
            uops[0],
            uop(
                UopKind::StoreWord,
                Reg::ZERO,
                Reg::S0,
                Reg::A0,
                -4i32 as u32
            )
        );
        assert!(!uops[0].is_boundary() && !uops[0].kind.is_run());
        assert!(uops[1].is_boundary() && uops[2].is_boundary());
        assert_eq!(uops[3].kind, UopKind::Nop);
    }

    #[test]
    fn negative_opimm_immediate_sign_extends() {
        let instr = Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: -1,
        };
        assert_eq!(
            MicroOp::lower(&instr, BASE, BASE, LEN),
            uop(UopKind::AddRI, Reg::A0, Reg::A0, Reg::ZERO, u32::MAX)
        );
    }

    #[test]
    fn writes_to_x0_are_nops_except_the_divide_class() {
        let op = |op| Instr::Op {
            op,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        let nop = uop(UopKind::Nop, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0);
        assert_eq!(MicroOp::lower(&op(AluOp::Mulhu), BASE, BASE, LEN), nop);
        assert_eq!(MicroOp::lower(&Instr::nop(), BASE, BASE, LEN), nop);
        let lui = Instr::Lui {
            rd: Reg::ZERO,
            imm: 0x5000,
        };
        assert_eq!(MicroOp::lower(&lui, BASE, BASE, LEN), nop);
        // A dropped quotient still occupies the divider.
        assert_eq!(
            MicroOp::lower(&op(AluOp::Rem), BASE, BASE, LEN),
            uop(UopKind::Rem, Reg::ZERO, Reg::A0, Reg::A1, 0)
        );
    }

    #[test]
    fn run_kinds_are_exactly_the_single_cycle_fall_through_ones() {
        for kind in [
            UopKind::Nop,
            UopKind::Const,
            UopKind::MulhuRR,
            UopKind::AndRI,
        ] {
            assert!(kind.is_run(), "{kind:?}");
        }
        for kind in [
            UopKind::Boundary,
            UopKind::Div,
            UopKind::Remu,
            UopKind::Jal,
            UopKind::Jalr,
            UopKind::Bne,
            UopKind::BgeuOut,
            UopKind::Countdown,
            UopKind::StoreWord,
        ] {
            assert!(!kind.is_run(), "{kind:?}");
        }
    }
}
