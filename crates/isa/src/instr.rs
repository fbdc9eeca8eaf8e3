//! Decoded instruction representation.

use crate::Reg;

/// Integer ALU operation (shared by register–register and immediate forms;
/// the `M` extension operations only occur in register–register form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`).
    Sub,
    /// Logical shift left (`sll`/`slli`).
    Sll,
    /// Signed set-less-than (`slt`/`slti`).
    Slt,
    /// Unsigned set-less-than (`sltu`/`sltiu`).
    Sltu,
    /// Bitwise exclusive or (`xor`/`xori`).
    Xor,
    /// Logical shift right (`srl`/`srli`).
    Srl,
    /// Arithmetic shift right (`sra`/`srai`).
    Sra,
    /// Bitwise or (`or`/`ori`).
    Or,
    /// Bitwise and (`and`/`andi`).
    And,
    /// Low 32 bits of product (`mul`).
    Mul,
    /// High 32 bits of signed×signed product (`mulh`).
    Mulh,
    /// High 32 bits of signed×unsigned product (`mulhsu`).
    Mulhsu,
    /// High 32 bits of unsigned×unsigned product (`mulhu`).
    Mulhu,
    /// Signed division (`div`).
    Div,
    /// Unsigned division (`divu`).
    Divu,
    /// Signed remainder (`rem`).
    Rem,
    /// Unsigned remainder (`remu`).
    Remu,
}

impl AluOp {
    /// Evaluates the operation on two 32-bit operands with RV32 semantics
    /// (including division-by-zero and overflow conventions).
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            AluOp::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
            AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32).wrapping_div(b as i32)) as u32
                }
            }
            // RISC-V: division by zero yields all-ones, not a trap.
            AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32).wrapping_rem(b as i32)) as u32
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

/// Conditional branch comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Eq,
    /// `bne` — branch if not equal.
    Ne,
    /// `blt` — branch if signed less-than.
    Lt,
    /// `bge` — branch if signed greater-or-equal.
    Ge,
    /// `bltu` — branch if unsigned less-than.
    Ltu,
    /// `bgeu` — branch if unsigned greater-or-equal.
    Geu,
}

impl BranchOp {
    /// Evaluates the branch condition.
    #[must_use]
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Eq => a == b,
            BranchOp::Ne => a != b,
            BranchOp::Lt => (a as i32) < (b as i32),
            BranchOp::Ge => (a as i32) >= (b as i32),
            BranchOp::Ltu => a < b,
            BranchOp::Geu => a >= b,
        }
    }
}

/// Memory access width for loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Atomic memory operation — RV32A plus the Xlrscwait extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// `lr.w` — load-reserved.
    Lr,
    /// `sc.w` — store-conditional.
    Sc,
    /// `amoswap.w`.
    Swap,
    /// `amoadd.w`.
    Add,
    /// `amoxor.w`.
    Xor,
    /// `amoand.w`.
    And,
    /// `amoor.w`.
    Or,
    /// `amomin.w` (signed).
    Min,
    /// `amomax.w` (signed).
    Max,
    /// `amominu.w`.
    Minu,
    /// `amomaxu.w`.
    Maxu,
    /// `lrwait.w` — queue-ordered load-reserved (Xlrscwait).
    LrWait,
    /// `scwait.w` — store-conditional releasing the queue head (Xlrscwait).
    ScWait,
    /// `mwait.w` — sleep until the location changes (Xlrscwait).
    MWait,
}

impl AmoOp {
    /// Applies a read–modify–write AMO ALU function; returns the new memory
    /// value. Only valid for the `amo*` operations (not LR/SC/wait forms).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-RMW operation such as [`AmoOp::Lr`].
    #[must_use]
    pub fn apply(self, mem: u32, operand: u32) -> u32 {
        match self {
            AmoOp::Swap => operand,
            AmoOp::Add => mem.wrapping_add(operand),
            AmoOp::Xor => mem ^ operand,
            AmoOp::And => mem & operand,
            AmoOp::Or => mem | operand,
            AmoOp::Min => {
                if (mem as i32) <= (operand as i32) {
                    mem
                } else {
                    operand
                }
            }
            AmoOp::Max => {
                if (mem as i32) >= (operand as i32) {
                    mem
                } else {
                    operand
                }
            }
            AmoOp::Minu => mem.min(operand),
            AmoOp::Maxu => mem.max(operand),
            _ => panic!("AmoOp::apply called on non-RMW operation {self:?}"),
        }
    }
}

/// CSR access operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// `csrrw` — read/write.
    ReadWrite,
    /// `csrrs` — read/set bits.
    ReadSet,
    /// `csrrc` — read/clear bits.
    ReadClear,
}

/// A decoded RV32IMA + Xlrscwait instruction.
///
/// This is the execution-ready form used by the simulator; [`crate::encode`]
/// and [`crate::decode`] convert to and from the 32-bit binary encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm` — load upper immediate (`imm` is the final value, low 12 bits zero).
    Lui { rd: Reg, imm: u32 },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc { rd: Reg, imm: u32 },
    /// `jal rd, offset` — jump and link (offset relative to this instruction).
    Jal { rd: Reg, offset: i32 },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch, PC-relative.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Memory load. `signed` selects sign- vs zero-extension for sub-word widths.
    Load {
        width: MemWidth,
        signed: bool,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Memory store.
    Store {
        width: MemWidth,
        rs2: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Register–immediate ALU operation.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register–register ALU operation (RV32I + M).
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fence` — drain the store buffer / order memory operations.
    Fence,
    /// `ecall` — terminate the current hart (bare-metal exit convention).
    Ecall,
    /// `ebreak` — simulator breakpoint (treated as an error in batch runs).
    Ebreak,
    /// CSR access; `imm_form` selects the `csrr*i` zimm variants where the
    /// `rs1` field index is used as a 5-bit immediate.
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
        imm_form: bool,
    },
    /// Atomic memory operation (RV32A + Xlrscwait). `rs2` is unused (x0) for
    /// `lr.w` and `lrwait.w`; for `mwait.w` it carries the expected value.
    Amo {
        op: AmoOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

impl Instr {
    /// A canonical `nop` (`addi x0, x0, 0`).
    #[must_use]
    pub fn nop() -> Instr {
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_div_conventions() {
        assert_eq!(AluOp::Div.eval(10, 0), u32::MAX);
        assert_eq!(AluOp::Divu.eval(10, 0), u32::MAX);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Remu.eval(10, 0), 10);
        // Signed overflow: i32::MIN / -1 == i32::MIN, rem == 0.
        assert_eq!(AluOp::Div.eval(0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(AluOp::Rem.eval(0x8000_0000, u32::MAX), 0);
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 33), 2);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), u32::MAX);
    }

    #[test]
    fn alu_mul_high_parts() {
        assert_eq!(AluOp::Mulhu.eval(u32::MAX, u32::MAX), 0xFFFF_FFFE);
        assert_eq!(AluOp::Mulh.eval(u32::MAX, u32::MAX), 0); // (-1)*(-1) = 1
        assert_eq!(AluOp::Mulhsu.eval(u32::MAX, 2), u32::MAX); // -1 * 2 = -2
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Lt.taken(u32::MAX, 0)); // -1 < 0 signed
        assert!(!BranchOp::Ltu.taken(u32::MAX, 0));
        assert!(BranchOp::Geu.taken(u32::MAX, 0));
        assert!(BranchOp::Eq.taken(7, 7));
        assert!(BranchOp::Ne.taken(7, 8));
        assert!(BranchOp::Ge.taken(0, u32::MAX));
    }

    #[test]
    fn amo_apply_semantics() {
        assert_eq!(AmoOp::Add.apply(5, 3), 8);
        assert_eq!(AmoOp::Swap.apply(5, 3), 3);
        assert_eq!(AmoOp::Min.apply(u32::MAX, 1), u32::MAX); // -1 < 1 signed
        assert_eq!(AmoOp::Minu.apply(u32::MAX, 1), 1);
        assert_eq!(AmoOp::Max.apply(u32::MAX, 1), 1);
        assert_eq!(AmoOp::Maxu.apply(u32::MAX, 1), u32::MAX);
        assert_eq!(AmoOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AmoOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AmoOp::Or.apply(0b1100, 0b1010), 0b1110);
    }

    #[test]
    #[should_panic(expected = "non-RMW")]
    fn amo_apply_rejects_lr() {
        let _ = AmoOp::Lr.apply(0, 0);
    }
}
