//! RISC-V assembler for the LRSCwait simulator.
//!
//! Assembles the RV32IMA + Xlrscwait subset defined by
//! [`lrscwait-isa`](../lrscwait_isa/index.html) into a loadable [`Program`]
//! image. All benchmark kernels in this repository are real assembly run
//! through this assembler, so the instruction-level granularity of the
//! paper's bare-metal benchmarks is preserved.
//!
//! # Supported syntax
//!
//! * Sections: `.text`, `.data`, `.bss` (bss is laid out after data).
//! * Data directives: `.word e1, e2, …`, `.space n` / `.zero n`,
//!   `.align p2` (power-of-two byte alignment), `.equ name, expr` /
//!   `.set name, expr`, `.global` (accepted, ignored).
//! * Labels (`name:`), multiple per line, `#`/`//` comments, `;` separators
//!   (none of which counts inside a character literal: `li t0, '#'`).
//! * Full RV32IMA mnemonics plus `lrwait.w`, `scwait.w`, `mwait.w`.
//! * Pseudo-instructions: `nop`, `li`, `la`, `mv`, `not`, `neg`, `seqz`,
//!   `snez`, `sltz`, `sgtz`, `beqz`, `bnez`, `blez`, `bgez`, `bltz`, `bgtz`,
//!   `bgt`, `ble`, `bgtu`, `bleu`, `j`, `jr`, `call`, `ret`, `csrr`, `csrw`,
//!   `rdcycle`, `rdhartid`.
//! * Constant expressions everywhere an immediate is expected: integer
//!   literals (decimal, `0x`, `0b`, `0o`, `_` separators), character
//!   literals (`'c'`, `'\n'`), symbols, `.` for the current location,
//!   parentheses, and `| ^ & << >> + - * / %` with C-like precedence plus
//!   unary `-` and `~`. A shift by 32 or more is an error, not a wrap.
//!
//! The source is read once, as slices of it: no token, operand or
//! mnemonic is copied. Every instruction is encoded at the end, with the
//! symbols' final values, and the program's symbol table is built once,
//! at the end.
//!
//! # Example
//!
//! ```
//! use lrscwait_asm::Assembler;
//!
//! # fn main() -> Result<(), lrscwait_asm::AsmError> {
//! let program = Assembler::new()
//!     .define("ITERS", 16)
//!     .assemble(
//!         r#"
//!         .text
//!         _start:
//!             li   t0, ITERS
//!             la   a0, counter
//!         loop:
//!             amoadd.w t1, t0, (a0)
//!             addi t0, t0, -1
//!             bnez t0, loop
//!             ecall
//!         .data
//!         counter: .word 0
//!         "#,
//!     )?;
//! assert!(program.text.len() >= 6);
//! assert!(program.symbols.contains_key("counter"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod assemble;
mod expr;

pub use assemble::{AsmError, Assembler, Program};

/// Default base address of the instruction ROM (outside the SPM).
pub const DEFAULT_TEXT_BASE: u32 = 0x0040_0000;
/// Default base address of the data segment (inside the SPM).
pub const DEFAULT_DATA_BASE: u32 = 0x0000_0100;

/// Assembles `source` with default options.
///
/// Equivalent to `Assembler::new().assemble(source)`.
///
/// # Errors
///
/// Returns [`AsmError`] (with a line number) on any syntax or semantic error.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    Assembler::new().assemble(source)
}
