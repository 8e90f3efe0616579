//! Integer and floating-point register names.

use std::fmt;

/// An integer (X) register, `x0`–`x31`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XReg(u8);

/// A floating-point (F) register, `f0`–`f31`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(u8);

pub(crate) const X_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

pub(crate) const F_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

macro_rules! reg_common {
    ($name:ident, $abi:ident, $prefix:literal) => {
        impl $name {
            /// Construct from a register number.
            ///
            /// # Panics
            ///
            /// Panics if `n > 31`.
            #[inline]
            pub const fn new(n: u8) -> $name {
                assert!(n < 32, "register number out of range");
                $name(n)
            }

            /// The register number, 0–31.
            #[inline]
            pub const fn num(self) -> u8 {
                self.0
            }

            /// The ABI register name (e.g. `a0` / `fa0`).
            pub fn abi_name(self) -> &'static str {
                $abi[self.0 as usize]
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.abi_name())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(r: $name) -> usize {
                r.0 as usize
            }
        }
    };
}

reg_common!(XReg, X_ABI_NAMES, "x");
reg_common!(FReg, F_ABI_NAMES, "f");

impl XReg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: XReg = XReg(0);
    /// Return address `x1`.
    pub const RA: XReg = XReg(1);
    /// Stack pointer `x2`.
    pub const SP: XReg = XReg(2);

    /// Argument registers `a0`–`a7` (`x10`–`x17`).
    pub const fn a(n: u8) -> XReg {
        assert!(n < 8, "argument register out of range");
        XReg(10 + n)
    }

    /// Temporary registers `t0`–`t6`.
    pub const fn t(n: u8) -> XReg {
        assert!(n < 7, "temporary register out of range");
        XReg(if n < 3 { 5 + n } else { 28 + n - 3 })
    }

    /// Saved registers `s0`–`s11`.
    pub const fn s(n: u8) -> XReg {
        assert!(n < 12, "saved register out of range");
        XReg(if n < 2 { 8 + n } else { 18 + n - 2 })
    }
}

impl FReg {
    /// FP argument registers `fa0`–`fa7` (`f10`–`f17`).
    pub const fn a(n: u8) -> FReg {
        assert!(n < 8, "argument register out of range");
        FReg(10 + n)
    }

    /// FP temporaries `ft0`–`ft11`.
    pub const fn t(n: u8) -> FReg {
        assert!(n < 12, "temporary register out of range");
        FReg(if n < 8 { n } else { 28 + n - 8 })
    }

    /// FP saved registers `fs0`–`fs11`.
    pub const fn s(n: u8) -> FReg {
        assert!(n < 12, "saved register out of range");
        FReg(if n < 2 { 8 + n } else { 18 + n - 2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names() {
        assert_eq!(XReg::ZERO.to_string(), "zero");
        assert_eq!(XReg::new(10).to_string(), "a0");
        assert_eq!(XReg::t(0).to_string(), "t0");
        assert_eq!(XReg::t(3).to_string(), "t3");
        assert_eq!(XReg::t(6).to_string(), "t6");
        assert_eq!(XReg::s(0).to_string(), "s0");
        assert_eq!(XReg::s(11).to_string(), "s11");
        assert_eq!(FReg::a(0).to_string(), "fa0");
        assert_eq!(FReg::t(8).to_string(), "ft8");
        assert_eq!(FReg::s(2).to_string(), "fs2");
    }

    #[test]
    fn debug_uses_numbers() {
        assert_eq!(format!("{:?}", XReg::new(5)), "x5");
        assert_eq!(format!("{:?}", FReg::new(5)), "f5");
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn out_of_range_panics() {
        XReg::new(32);
    }
}
