//! The one software backoff every LR/SC retry loop in this crate uses.
//!
//! The convention: a kernel keeps its current window in a register. It
//! sets the window to the minimum before its first attempt and again after
//! each success ([`Backoff::reset`]). After each failure it waits the
//! window out, doubles it (`slli s10, s10, 1`), saturates it at the cap and
//! tries again ([`Backoff::retry`], or [`Backoff::wait`] to fall through).
//! A saturated window stays at the cap until the next success; it never
//! wraps back to the minimum mid-operation.
//!
//! Every wait is the `addi r, r, -1 ; bnez r, .-4` pair, which the
//! translated stepper retires as one `Countdown` micro-op instead of
//! instruction by instruction.

/// The fixed window, in delay-loop iterations, after a fail-fast wait
/// instruction and after a Fig. 5 poller's failed attempt (the paper's 128
/// cycles). A kernel defines it as the constant `BACKOFF` for [`fixed_wait`].
pub(crate) const FIXED_WINDOW: u32 = 128;

/// An exponential retry window `Backoff(window, scratch, min, cap)`: the
/// register holding it, a scratch register to count it down in, and its
/// minimum and cap as assembler expressions (a literal or a constant the
/// kernel defines).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Backoff(
    pub(crate) &'static str,
    pub(crate) &'static str,
    pub(crate) &'static str,
    pub(crate) &'static str,
);

impl Backoff {
    /// Sets the window to the minimum.
    pub(crate) fn reset(&self) -> String {
        let Backoff(w, _, min, _) = *self;
        format!("    li   {w}, {min}\n")
    }

    /// Waits the window out in the loop `wait`, grows it, and jumps to
    /// `retry`.
    pub(crate) fn retry(&self, wait: &str, retry: &str) -> String {
        format!("{}    j    {retry}\n", self.grow(wait, retry))
    }

    /// Waits the window out in the loop `wait`, grows it, and falls
    /// through to the label `next`, which it defines.
    pub(crate) fn wait(&self, wait: &str, next: &str) -> String {
        format!("{}{next}:\n", self.grow(wait, next))
    }

    /// The wait and the doubling; a window still below the cap branches
    /// to `below` instead of saturating.
    fn grow(&self, wait: &str, below: &str) -> String {
        let Backoff(w, s, _, cap) = *self;
        format!(
            "    mv   {s}, {w}\n{}    slli {w}, {w}, 1\n    li   {s}, {cap}\n    \
             bltu {w}, {s}, {below}\n    mv   {w}, {s}\n",
            countdown(wait, s)
        )
    }
}

/// Waits `BACKOFF` ([`FIXED_WINDOW`]) iterations in the loop `wait`,
/// counting down in `scratch`.
pub(crate) fn fixed_wait(wait: &str, scratch: &str) -> String {
    format!("    li   {scratch}, BACKOFF\n{}", countdown(wait, scratch))
}

/// The delay loop `wait`: counts `scratch` down to zero.
fn countdown(wait: &str, scratch: &str) -> String {
    format!("{wait}:\n    addi {scratch}, {scratch}, -1\n    bnez {scratch}, {wait}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrscwait_asm::Assembler;
    use lrscwait_core::SyncArch;
    use lrscwait_isa::{MicroOp, UopKind};
    use lrscwait_sim::{DecodedProgram, ExitReason, Machine, SimConfig};

    const ATTEMPTS: u32 = 12;

    const WINDOW: Backoff = Backoff("s10", "t6", "8", "1024");

    /// The window before each of [`ATTEMPTS`] attempts that all fail,
    /// read back from a one-core run of the emitted code. `fall_through`
    /// picks [`Backoff::wait`] over [`Backoff::retry`].
    fn windows(backoff: Backoff, fall_through: bool) -> Vec<u32> {
        let failed = if fall_through {
            format!("{}    j    attempt\n", backoff.wait("bk", "next"))
        } else {
            backoff.retry("bk", "attempt")
        };
        let src = format!(
            "_start:\n    la   a0, log\n    li   a1, {ATTEMPTS}\n{}attempt:\n    \
             sw   {w}, (a0)\n    addi a0, a0, 4\n    addi a1, a1, -1\n    \
             beqz a1, done\n{failed}done:\n    ecall\n.bss\nlog: .space {}\n",
            backoff.reset(),
            4 * ATTEMPTS,
            w = backoff.0,
        );
        let program = Assembler::new().assemble(&src).unwrap();
        let mut m = Machine::new(SimConfig::small(1, SyncArch::Lrsc), &program).unwrap();
        assert_eq!(m.run().unwrap().exit, ExitReason::AllHalted);
        let log = program.symbol("log");
        (0..ATTEMPTS).map(|i| m.read_word(log + 4 * i)).collect()
    }

    #[test]
    fn window_doubles_from_min_and_saturates_at_the_cap() {
        let expected = [8, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 1024, 1024];
        assert_eq!(windows(WINDOW, false), expected);
        assert_eq!(windows(WINDOW, true), expected);
        // A cap off the doubling ladder is still where the window stops,
        // and a cap that needs a two-word `li` changes nothing.
        let odd = Backoff("s10", "t6", "8", "100");
        assert_eq!(windows(odd, false)[3..7], [64, 100, 100, 100]);
        let wide = Backoff("s10", "t6", "8", "4096");
        assert_eq!(windows(wide, true)[8..], [2048, 4096, 4096, 4096]);
    }

    #[test]
    fn every_wait_lowers_to_one_countdown() {
        let wide = Backoff("a5", "a4", "8", "4096");
        let src = format!(
            "_start:\n{}top:\n{}{}{}    ecall\n",
            wide.reset(),
            wide.wait("w_bk", "w_next"),
            fixed_wait("f_bk", "t5"),
            wide.retry("r_bk", "top"),
        );
        let program = Assembler::new()
            .define("BACKOFF", FIXED_WINDOW)
            .assemble(&src)
            .unwrap();
        let decoded = DecodedProgram::from_program(&program).unwrap();
        let (base, len) = (decoded.base, decoded.instrs.len() as u32);
        let mut uops: Vec<MicroOp> = decoded
            .instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| MicroOp::lower(instr, base + 4 * i as u32, base, len))
            .collect();
        MicroOp::mark_countdowns(&mut uops);
        let countdowns = uops.iter().filter(|u| u.kind == UopKind::Countdown);
        assert_eq!(countdowns.count(), 3, "one countdown per wait: {uops:?}");
        assert!(
            !uops.iter().any(|u| u.kind == UopKind::Bne),
            "a wait is stepped instruction by instruction: {uops:?}"
        );
    }
}
