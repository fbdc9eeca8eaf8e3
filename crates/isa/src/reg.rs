//! Integer register file names (x0–x31 plus ABI aliases).

use std::fmt;

/// One of the 32 RV32 integer registers.
///
/// Stored as the architectural index (0–31). Construct with [`Reg::new`] or
/// the ABI-named constants ([`Reg::A0`], [`Reg::SP`], …).
///
/// ```
/// use lrscwait_isa::Reg;
/// assert_eq!(Reg::A0.index(), 10);
/// assert_eq!(Reg::A0.to_string(), "a0");
/// assert_eq!(Reg::parse("t0"), Some(Reg::T0));
/// assert_eq!(Reg::parse("x5"), Some(Reg::T0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address `x1`.
    pub const RA: Reg = Reg(1);
    /// Stack pointer `x2`.
    pub const SP: Reg = Reg(2);
    /// Global pointer `x3`.
    pub const GP: Reg = Reg(3);
    /// Thread pointer `x4`.
    pub const TP: Reg = Reg(4);
    /// Temporary `x5`.
    pub const T0: Reg = Reg(5);
    /// Temporary `x6`.
    pub const T1: Reg = Reg(6);
    /// Temporary `x7`.
    pub const T2: Reg = Reg(7);
    /// Saved register / frame pointer `x8`.
    pub const S0: Reg = Reg(8);
    /// Saved register `x9`.
    pub const S1: Reg = Reg(9);
    /// Argument / return value `x10`.
    pub const A0: Reg = Reg(10);
    /// Argument / return value `x11`.
    pub const A1: Reg = Reg(11);
    /// Argument `x12`.
    pub const A2: Reg = Reg(12);
    /// Argument `x13`.
    pub const A3: Reg = Reg(13);
    /// Argument `x14`.
    pub const A4: Reg = Reg(14);
    /// Argument `x15`.
    pub const A5: Reg = Reg(15);
    /// Argument `x16`.
    pub const A6: Reg = Reg(16);
    /// Argument `x17`.
    pub const A7: Reg = Reg(17);
    /// Saved register `x18`.
    pub const S2: Reg = Reg(18);
    /// Saved register `x19`.
    pub const S3: Reg = Reg(19);
    /// Saved register `x20`.
    pub const S4: Reg = Reg(20);
    /// Saved register `x21`.
    pub const S5: Reg = Reg(21);
    /// Saved register `x22`.
    pub const S6: Reg = Reg(22);
    /// Saved register `x23`.
    pub const S7: Reg = Reg(23);
    /// Saved register `x24`.
    pub const S8: Reg = Reg(24);
    /// Saved register `x25`.
    pub const S9: Reg = Reg(25);
    /// Saved register `x26`.
    pub const S10: Reg = Reg(26);
    /// Saved register `x27`.
    pub const S11: Reg = Reg(27);
    /// Temporary `x28`.
    pub const T3: Reg = Reg(28);
    /// Temporary `x29`.
    pub const T4: Reg = Reg(29);
    /// Temporary `x30`.
    pub const T5: Reg = Reg(30);
    /// Temporary `x31`.
    pub const T6: Reg = Reg(31);

    /// Creates a register from an architectural index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 31`.
    #[must_use]
    pub fn new(index: u8) -> Reg {
        assert!(index < 32, "register index {index} out of range");
        Reg(index)
    }

    /// Creates a register from an architectural index, returning `None` when
    /// out of range.
    #[must_use]
    pub fn try_new(index: u32) -> Option<Reg> {
        (index < 32).then_some(Reg(index as u8))
    }

    /// The architectural index (0–31).
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Parses either an `xN` name or an ABI name (`a0`, `sp`, `fp`, …).
    #[must_use]
    pub fn parse(name: &str) -> Option<Reg> {
        if let Some(num) = name.strip_prefix('x') {
            if let Ok(idx) = num.parse::<u32>() {
                return Reg::try_new(idx);
            }
        }
        let idx = match name {
            "zero" => 0,
            "ra" => 1,
            "sp" => 2,
            "gp" => 3,
            "tp" => 4,
            "t0" => 5,
            "t1" => 6,
            "t2" => 7,
            "s0" | "fp" => 8,
            "s1" => 9,
            "a0" => 10,
            "a1" => 11,
            "a2" => 12,
            "a3" => 13,
            "a4" => 14,
            "a5" => 15,
            "a6" => 16,
            "a7" => 17,
            "s2" => 18,
            "s3" => 19,
            "s4" => 20,
            "s5" => 21,
            "s6" => 22,
            "s7" => 23,
            "s8" => 24,
            "s9" => 25,
            "s10" => 26,
            "s11" => 27,
            "t3" => 28,
            "t4" => 29,
            "t5" => 30,
            "t6" => 31,
            _ => return None,
        };
        Some(Reg(idx))
    }

    /// The canonical ABI name (`zero`, `ra`, `a0`, …).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self.0 as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({})", self.abi_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_round_trip() {
        for i in 0..32 {
            let r = Reg::new(i);
            assert_eq!(Reg::parse(r.abi_name()), Some(r));
            assert_eq!(Reg::parse(&format!("x{i}")), Some(r));
        }
    }

    #[test]
    fn fp_is_s0() {
        assert_eq!(Reg::parse("fp"), Some(Reg::S0));
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(Reg::try_new(32), None);
        assert_eq!(Reg::parse("x32"), None);
        assert_eq!(Reg::parse("q7"), None);
        for name in ["a8", "a9", "t7", "t9", "b0", "z0", "X5"] {
            assert_eq!(Reg::parse(name), None, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::T6.to_string(), "t6");
        assert_eq!(format!("{:?}", Reg::A0), "Reg(a0)");
    }
}
