//! Generic transprecision soft-float arithmetic with RISC-V semantics.
//!
//! This crate is the software model of the transprecision FPU ("FPnew") that
//! backs the smallFloat ISA extensions of Tagliavini et al., *"Design and
//! Evaluation of SmallFloat SIMD extensions to the RISC-V ISA"* (DATE 2019).
//! It implements IEEE-754-style binary floating point for **arbitrary**
//! exponent/mantissa layouts up to 64 bits wide, including the paper's three
//! smallFloat formats:
//!
//! * [`Format::BINARY8`] — 1s + 5e + 2m ("minifloat" E5M2),
//! * [`Format::BINARY16`] — IEEE 754 binary16 (half precision),
//! * [`Format::BINARY16ALT`] — 1s + 8e + 7m (bfloat16 layout),
//!
//! alongside standard [`Format::BINARY32`] and [`Format::BINARY64`].
//!
//! All operations follow RISC-V FP semantics: the five rounding modes of the
//! `fcsr.frm` field, the five accrued exception flags of `fcsr.fflags`,
//! canonical quiet-NaN results, IEEE 754-2008 `minNum`/`maxNum` min/max, and
//! the `fclass` classification mask.
//!
//! Values are carried as raw bit patterns (`u64`, right-aligned); operations
//! take the [`Format`] and an [`Env`] that holds the rounding mode and
//! accumulates exception [`Flags`]:
//!
//! ```
//! use smallfloat_softfp::{ops, Env, Format, Rounding};
//!
//! let fmt = Format::BINARY16;
//! let mut env = Env::new(Rounding::Rne);
//! let a = ops::from_f64(fmt, 1.5, &mut env);
//! let b = ops::from_f64(fmt, 2.25, &mut env);
//! let sum = ops::add(fmt, a, b, &mut env);
//! assert_eq!(ops::to_f64(fmt, sum), 3.75);
//! assert!(env.flags.is_empty());
//! ```
//!
//! For ergonomic scalar use, the typed wrappers [`F8`], [`F16`] and [`Bf16`]
//! provide arithmetic operators (round-to-nearest-even, flags discarded):
//!
//! ```
//! use smallfloat_softfp::F16;
//!
//! let x = F16::from_f32(0.1) * F16::from_f32(10.0);
//! assert!((x.to_f32() - 1.0).abs() < 1e-2);
//! ```
//!
//! The entry points in [`ops`] are the *reference* implementation, generic
//! over arbitrary layouts, and the crate's only integer implementation of
//! rounded arithmetic. [`fast`] provides bit- and flag-identical
//! counterparts for the concrete paper formats: exhaustive binary8 lookup
//! tables, the round-to-nearest-even host-FPU leaves of [`host`] (which the
//! simulator's FP handlers also call directly), and [`ops`] for every case
//! those two leave. [`batch`] builds whole-register SIMD lane helpers on
//! top of them for the simulator's packed vector unit.

mod env;
mod format;
mod kernels;
mod round;
mod tables;
mod unpack;

pub mod batch;
pub mod fast;
pub mod host;
pub mod ops;
pub mod wrappers;

pub use env::{Env, Flags, Rounding};
pub use format::{Format, FormatError};
pub use wrappers::{Bf16, F16, F8};

/// NaN-boxing helpers used by FP register files that are wider than the
/// value they hold (RISC-V requires narrower values to be *NaN-boxed* in
/// wider FP registers: all upper bits set to 1).
pub mod nanbox {
    use crate::Format;

    /// NaN-box `bits` of format `fmt` into a register of `reg_bits` bits.
    ///
    /// All bits above the format width are set to 1. If the register is not
    /// wider than the format, the value is returned unchanged (masked).
    ///
    /// # Panics
    ///
    /// Panics if `reg_bits` is 0 or greater than 64.
    pub fn boxed(fmt: Format, bits: u64, reg_bits: u32) -> u64 {
        assert!((1..=64).contains(&reg_bits), "register width out of range");
        let v = bits & fmt.mask();
        if fmt.width() >= reg_bits {
            return v;
        }
        let upper = if reg_bits == 64 {
            !fmt.mask()
        } else {
            ((1u64 << reg_bits) - 1) & !fmt.mask()
        };
        v | upper
    }

    /// Extract a value of format `fmt` from a `reg_bits`-wide register,
    /// checking the NaN-boxing invariant.
    ///
    /// Per the RISC-V spec, if the upper bits are not all ones the value is
    /// treated as the canonical quiet NaN of the narrow format.
    ///
    /// # Panics
    ///
    /// Panics if `reg_bits` is 0 or greater than 64.
    pub fn unboxed(fmt: Format, reg: u64, reg_bits: u32) -> u64 {
        assert!((1..=64).contains(&reg_bits), "register width out of range");
        if fmt.width() >= reg_bits {
            return reg & fmt.mask();
        }
        let upper_mask = if reg_bits == 64 {
            !fmt.mask()
        } else {
            ((1u64 << reg_bits) - 1) & !fmt.mask()
        };
        if reg & upper_mask == upper_mask {
            reg & fmt.mask()
        } else {
            fmt.quiet_nan()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn boxes_upper_bits() {
            let fmt = Format::BINARY16;
            let b = boxed(fmt, 0x3c00, 32);
            assert_eq!(b, 0xffff_3c00);
            assert_eq!(unboxed(fmt, b, 32), 0x3c00);
        }

        #[test]
        fn bad_box_is_canonical_nan() {
            let fmt = Format::BINARY16;
            assert_eq!(unboxed(fmt, 0x0000_3c00, 32), fmt.quiet_nan());
        }

        #[test]
        fn same_width_passthrough() {
            let fmt = Format::BINARY32;
            assert_eq!(boxed(fmt, 0xdead_beef, 32), 0xdead_beef);
            assert_eq!(unboxed(fmt, 0xdead_beef, 32), 0xdead_beef);
        }

        #[test]
        fn byte_in_32bit_reg() {
            let fmt = Format::BINARY8;
            let b = boxed(fmt, 0x3c, 32);
            assert_eq!(b, 0xffff_ff3c);
            assert_eq!(unboxed(fmt, b, 32), 0x3c);
            assert_eq!(unboxed(fmt, 0x0000_003c, 32), fmt.quiet_nan());
        }
    }
}
