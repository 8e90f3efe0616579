//! Fast-path dispatch for the concrete paper formats.
//!
//! Drop-in counterparts of the scalar entry points in [`crate::ops`], with
//! the same signatures and bit-exact results/flags, that route each call to
//! the cheapest implementation available for the given [`Format`]:
//!
//! 1. **binary8 / binary8alt** → the exhaustive lookup tables of
//!    `crate::tables` for add/sub/mul/div/sqrt/classify and the widening
//!    conversions (an O(1) load replaces the whole unpack/round pipeline);
//! 2. **binary16 / binary16alt / binary32** (and the remaining 8-bit
//!    ops, e.g. fused multiply-add) → the monomorphized `u64` kernels of
//!    `crate::kernels`, where every format constant has been folded (and
//!    which, under round-to-nearest-even, first try the host-FPU leaf of
//!    [`crate::host`] for the op);
//! 3. **anything else** (binary64, custom layouts) → the generic
//!    runtime-`Format` reference in [`crate::ops`].
//!
//! The dispatch is a short if-chain on `Format` equality; each arm is a
//! static call, so the branch predictor sees one stable target per call
//! site in format-homogeneous loops (the simulator's common case).
//!
//! Equivalence with the reference is enforced by the differential suites:
//! exhaustively for binary8 (`tests/fastpath_b8_exhaustive.rs`) and for
//! 16-bit unary ops, sampled with replayable seeds otherwise
//! (`tests/fastpath_sampled.rs`); the host-`f64` bridges [`to_f64`] and
//! [`from_f64`] by `tests/fastpath_f64_bridge.rs`; the expanding ops
//! [`mulex`] and [`macex`] by `tests/dotp_differential.rs`.

use crate::env::Env;
use crate::format::Format;
use crate::host;
use crate::kernels as k;
use crate::ops;
use crate::tables;

/// Dispatch a two-operand op: tables for the 8-bit formats, monomorphized
/// kernels for the other concrete formats, generic reference otherwise.
macro_rules! dispatch2 {
    ($fmt:expr, $a:expr, $b:expr, $env:expr, $table:expr, $mono:ident, $generic:expr) => {{
        let (fmt, a, b) = ($fmt, $a, $b);
        if fmt == Format::BINARY8 || fmt == Format::BINARY8ALT {
            $table(fmt, a, b, $env)
        } else if fmt == Format::BINARY16 {
            k::$mono::<5, 10>(a, b, $env)
        } else if fmt == Format::BINARY16ALT {
            k::$mono::<8, 7>(a, b, $env)
        } else if fmt == Format::BINARY32 {
            k::$mono::<8, 23>(a, b, $env)
        } else {
            $generic(fmt, a, b, $env)
        }
    }};
}

/// Dispatch a two-operand op that has no 8-bit table (mono kernels cover
/// the 8-bit formats too).
macro_rules! dispatch2_mono {
    ($fmt:expr, $a:expr, $b:expr, $env:expr, $mono:ident, $generic:expr) => {{
        let (fmt, a, b) = ($fmt, $a, $b);
        if fmt == Format::BINARY8 {
            k::$mono::<5, 2>(a, b, $env)
        } else if fmt == Format::BINARY8ALT {
            k::$mono::<4, 3>(a, b, $env)
        } else if fmt == Format::BINARY16 {
            k::$mono::<5, 10>(a, b, $env)
        } else if fmt == Format::BINARY16ALT {
            k::$mono::<8, 7>(a, b, $env)
        } else if fmt == Format::BINARY32 {
            k::$mono::<8, 23>(a, b, $env)
        } else {
            $generic(fmt, a, b, $env)
        }
    }};
}

/// Fast-path `a + b` (see [`ops::add`]).
#[inline]
pub fn add(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2!(fmt, a, b, env, tables::add, add, ops::add)
}

/// Fast-path `a - b` (see [`ops::sub`]).
#[inline]
pub fn sub(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2!(fmt, a, b, env, tables::sub, sub, ops::sub)
}

/// Fast-path `a * b` (see [`ops::mul`]).
#[inline]
pub fn mul(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2!(fmt, a, b, env, tables::mul, mul, ops::mul)
}

/// Fast-path `a / b` (see [`ops::div`]).
#[inline]
pub fn div(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2!(fmt, a, b, env, tables::div, div, ops::div)
}

/// Fast-path `sqrt(a)` (see [`ops::sqrt`]).
#[inline]
pub fn sqrt(fmt: Format, a: u64, env: &mut Env) -> u64 {
    if fmt == Format::BINARY8 || fmt == Format::BINARY8ALT {
        tables::sqrt(fmt, a, env)
    } else if fmt == Format::BINARY16 {
        k::sqrt::<5, 10>(a, env)
    } else if fmt == Format::BINARY16ALT {
        k::sqrt::<8, 7>(a, env)
    } else if fmt == Format::BINARY32 {
        k::sqrt::<8, 23>(a, env)
    } else {
        ops::sqrt(fmt, a, env)
    }
}

macro_rules! dispatch_fma {
    ($fmt:expr, $a:expr, $b:expr, $c:expr, $env:expr) => {{
        let (fmt, a, b, c) = ($fmt, $a, $b, $c);
        if fmt == Format::BINARY8 {
            Some(k::fma::<5, 2>(a, b, c, $env))
        } else if fmt == Format::BINARY8ALT {
            Some(k::fma::<4, 3>(a, b, c, $env))
        } else if fmt == Format::BINARY16 {
            Some(k::fma::<5, 10>(a, b, c, $env))
        } else if fmt == Format::BINARY16ALT {
            Some(k::fma::<8, 7>(a, b, c, $env))
        } else if fmt == Format::BINARY32 {
            Some(k::fma::<8, 23>(a, b, c, $env))
        } else {
            None
        }
    }};
}

/// Fast-path fused `a * b + c` (see [`ops::fmadd`]).
#[inline]
pub fn fmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    dispatch_fma!(fmt, a, b, c, env).unwrap_or_else(|| ops::fmadd(fmt, a, b, c, env))
}

/// Fast-path fused `a * b - c` (see [`ops::fmsub`]).
#[inline]
pub fn fmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let nc = fmt.negate(c);
    dispatch_fma!(fmt, a, b, nc, env).unwrap_or_else(|| ops::fmadd(fmt, a, b, nc, env))
}

/// Fast-path fused `-(a * b) + c` (see [`ops::fnmsub`]).
#[inline]
pub fn fnmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let na = fmt.negate(a);
    dispatch_fma!(fmt, na, b, c, env).unwrap_or_else(|| ops::fmadd(fmt, na, b, c, env))
}

/// Fast-path fused `-(a * b) - c` (see [`ops::fnmadd`]).
#[inline]
pub fn fnmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let na = fmt.negate(a);
    let nc = fmt.negate(c);
    dispatch_fma!(fmt, na, b, nc, env).unwrap_or_else(|| ops::fmadd(fmt, na, b, nc, env))
}

/// Dispatch an expanding op on its source format: the monomorphized
/// kernel into binary32 for the four narrow concrete formats, `None`
/// otherwise.
macro_rules! dispatch_ex {
    ($src:expr, $kernel:ident, $($arg:expr),+) => {{
        let src = $src;
        if src == Format::BINARY16 {
            Some(k::$kernel::<5, 10>($($arg),+))
        } else if src == Format::BINARY16ALT {
            Some(k::$kernel::<8, 7>($($arg),+))
        } else if src == Format::BINARY8 {
            Some(k::$kernel::<5, 2>($($arg),+))
        } else if src == Format::BINARY8ALT {
            Some(k::$kernel::<4, 3>($($arg),+))
        } else {
            None
        }
    }};
}

/// Exact widening of a `src` value to binary32, flags discarded.
fn widen_s(src: Format, bits: u64, env: &Env) -> u64 {
    ops::cvt_f_f(Format::BINARY32, src, bits, &mut Env::new(env.rm))
}

/// Fast-path expanding multiply (`fmulex.s.*`): `a * b` of two `src`
/// values rounded once into binary32. The reference is [`ops::mul`] at
/// binary32 of the factors widened by [`ops::cvt_f_f`], whose flags (at
/// most NV on a signaling NaN) are discarded.
#[inline]
pub fn mulex(src: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch_ex!(src, mulex, a, b, env).unwrap_or_else(|| {
        let (a, b) = (widen_s(src, a, env), widen_s(src, b, env));
        ops::mul(Format::BINARY32, a, b, env)
    })
}

/// Fast-path expanding multiply-accumulate (`fmacex.s.*`): `a * b + acc`
/// with `src` factors and a binary32 `acc`, rounded once (the reference is
/// [`ops::fmadd`] at binary32, factors widened as in [`mulex`]).
#[inline]
pub fn macex(src: Format, a: u64, b: u64, acc: u64, env: &mut Env) -> u64 {
    dispatch_ex!(src, fmaex, a, b, acc, env).unwrap_or_else(|| {
        let (a, b) = (widen_s(src, a, env), widen_s(src, b, env));
        ops::fmadd(Format::BINARY32, a, b, acc, env)
    })
}

macro_rules! dispatch_cmp {
    ($fmt:expr, $a:expr, $b:expr, $env:expr, $mono:ident, $generic:expr) => {{
        let (fmt, a, b) = ($fmt, $a, $b);
        if fmt == Format::BINARY8 {
            k::$mono::<5, 2>(a, b, $env)
        } else if fmt == Format::BINARY8ALT {
            k::$mono::<4, 3>(a, b, $env)
        } else if fmt == Format::BINARY16 {
            k::$mono::<5, 10>(a, b, $env)
        } else if fmt == Format::BINARY16ALT {
            k::$mono::<8, 7>(a, b, $env)
        } else if fmt == Format::BINARY32 {
            k::$mono::<8, 23>(a, b, $env)
        } else {
            $generic(fmt, a, b, $env)
        }
    }};
}

/// Fast-path quiet equality (see [`ops::feq`]).
#[inline]
pub fn feq(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    dispatch_cmp!(fmt, a, b, env, feq, ops::feq)
}

/// Fast-path signaling less-than (see [`ops::flt`]).
#[inline]
pub fn flt(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    dispatch_cmp!(fmt, a, b, env, flt, ops::flt)
}

/// Fast-path signaling less-or-equal (see [`ops::fle`]).
#[inline]
pub fn fle(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    dispatch_cmp!(fmt, a, b, env, fle, ops::fle)
}

/// Fast-path `minNum` (see [`ops::fmin`]).
#[inline]
pub fn fmin(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2_mono!(fmt, a, b, env, fmin, ops::fmin)
}

/// Fast-path `maxNum` (see [`ops::fmax`]).
#[inline]
pub fn fmax(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch2_mono!(fmt, a, b, env, fmax, ops::fmax)
}

macro_rules! dispatch_sgnj {
    ($fmt:expr, $a:expr, $b:expr, $mono:ident, $generic:expr) => {{
        let (fmt, a, b) = ($fmt, $a, $b);
        if fmt == Format::BINARY8 {
            k::$mono::<5, 2>(a, b)
        } else if fmt == Format::BINARY8ALT {
            k::$mono::<4, 3>(a, b)
        } else if fmt == Format::BINARY16 {
            k::$mono::<5, 10>(a, b)
        } else if fmt == Format::BINARY16ALT {
            k::$mono::<8, 7>(a, b)
        } else if fmt == Format::BINARY32 {
            k::$mono::<8, 23>(a, b)
        } else {
            $generic(fmt, a, b)
        }
    }};
}

/// Fast-path `fsgnj` (see [`ops::fsgnj`]).
#[inline]
pub fn fsgnj(fmt: Format, a: u64, b: u64) -> u64 {
    dispatch_sgnj!(fmt, a, b, fsgnj, ops::fsgnj)
}

/// Fast-path `fsgnjn` (see [`ops::fsgnjn`]).
#[inline]
pub fn fsgnjn(fmt: Format, a: u64, b: u64) -> u64 {
    dispatch_sgnj!(fmt, a, b, fsgnjn, ops::fsgnjn)
}

/// Fast-path `fsgnjx` (see [`ops::fsgnjx`]).
#[inline]
pub fn fsgnjx(fmt: Format, a: u64, b: u64) -> u64 {
    dispatch_sgnj!(fmt, a, b, fsgnjx, ops::fsgnjx)
}

/// Fast-path `fclass` (see [`ops::classify`]).
#[inline]
pub fn classify(fmt: Format, a: u64) -> u32 {
    if fmt == Format::BINARY8 || fmt == Format::BINARY8ALT {
        tables::classify(fmt, a)
    } else if fmt == Format::BINARY16 {
        k::classify::<5, 10>(a)
    } else if fmt == Format::BINARY16ALT {
        k::classify::<8, 7>(a)
    } else if fmt == Format::BINARY32 {
        k::classify::<8, 23>(a)
    } else {
        ops::classify(fmt, a)
    }
}

/// Fast-path float-to-float conversion (see [`ops::cvt_f_f`]).
///
/// Dispatches over the 5×5 grid of concrete (dst, src) pairs; widening out
/// of the 8-bit formats goes through the exhaustive tables, every other
/// concrete pair through a monomorphized kernel, and anything touching
/// other layouts falls back to the generic reference.
#[inline]
pub fn cvt_f_f(dst: Format, src: Format, bits: u64, env: &mut Env) -> u64 {
    macro_rules! to_dst {
        ($se:literal, $sm:literal) => {
            if dst == Format::BINARY8 {
                k::cvt::<$se, $sm, 5, 2>(bits, env)
            } else if dst == Format::BINARY8ALT {
                k::cvt::<$se, $sm, 4, 3>(bits, env)
            } else if dst == Format::BINARY16 {
                k::cvt::<$se, $sm, 5, 10>(bits, env)
            } else if dst == Format::BINARY16ALT {
                k::cvt::<$se, $sm, 8, 7>(bits, env)
            } else if dst == Format::BINARY32 {
                k::cvt::<$se, $sm, 8, 23>(bits, env)
            } else {
                ops::cvt_f_f(dst, src, bits, env)
            }
        };
    }
    if src == Format::BINARY8 {
        if dst == Format::BINARY16 || dst == Format::BINARY16ALT || dst == Format::BINARY32 {
            tables::cvt_widen(dst, src, bits, env)
        } else {
            to_dst!(5, 2)
        }
    } else if src == Format::BINARY8ALT {
        if dst == Format::BINARY16 || dst == Format::BINARY16ALT || dst == Format::BINARY32 {
            tables::cvt_widen(dst, src, bits, env)
        } else {
            to_dst!(4, 3)
        }
    } else if src == Format::BINARY16 {
        to_dst!(5, 10)
    } else if src == Format::BINARY16ALT {
        to_dst!(8, 7)
    } else if src == Format::BINARY32 {
        to_dst!(8, 23)
    } else {
        ops::cvt_f_f(dst, src, bits, env)
    }
}

/// Fast-path exact widening to host `f64` (see [`ops::to_f64`]). Bits
/// above the format width are ignored.
#[inline]
pub fn to_f64(fmt: Format, bits: u64) -> f64 {
    let bits = bits & fmt.mask();
    if fmt == Format::BINARY8 {
        host::widen::<5, 2>(bits)
    } else if fmt == Format::BINARY8ALT {
        host::widen::<4, 3>(bits)
    } else if fmt == Format::BINARY16 {
        host::widen::<5, 10>(bits)
    } else if fmt == Format::BINARY16ALT {
        host::widen::<8, 7>(bits)
    } else if fmt == Format::BINARY32 {
        host::widen::<8, 23>(bits)
    } else {
        ops::to_f64(fmt, bits)
    }
}

/// Fast-path rounding of a host `f64` into `fmt` per `env.rm`, raising
/// flags (see [`ops::from_f64`]): the monomorphized binary64-source
/// conversion kernel for the concrete formats.
#[inline]
pub fn from_f64(fmt: Format, v: f64, env: &mut Env) -> u64 {
    let bits = v.to_bits();
    if fmt == Format::BINARY8 {
        k::cvt::<11, 52, 5, 2>(bits, env)
    } else if fmt == Format::BINARY8ALT {
        k::cvt::<11, 52, 4, 3>(bits, env)
    } else if fmt == Format::BINARY16 {
        k::cvt::<11, 52, 5, 10>(bits, env)
    } else if fmt == Format::BINARY16ALT {
        k::cvt::<11, 52, 8, 7>(bits, env)
    } else if fmt == Format::BINARY32 {
        k::cvt::<11, 52, 8, 23>(bits, env)
    } else {
        ops::from_f64(fmt, v, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Flags, Rounding};

    #[test]
    fn dispatch_covers_all_concrete_formats() {
        // One smoke case per format through every dispatch shape; the
        // differential suites do the heavy lifting.
        for fmt in [
            Format::BINARY8,
            Format::BINARY8ALT,
            Format::BINARY16,
            Format::BINARY16ALT,
            Format::BINARY32,
            Format::BINARY64,
        ] {
            let mut e1 = Env::new(Rounding::Rne);
            let mut e2 = Env::new(Rounding::Rne);
            let one = fmt.one();
            assert_eq!(
                add(fmt, one, one, &mut e1),
                ops::add(fmt, one, one, &mut e2),
                "{}",
                fmt.name()
            );
            assert_eq!(
                fmadd(fmt, one, one, one, &mut e1),
                ops::fmadd(fmt, one, one, one, &mut e2)
            );
            assert!(feq(fmt, one, one, &mut e1));
            assert_eq!(classify(fmt, one), ops::classify(fmt, one));
            assert_eq!(e1.flags, e2.flags);
        }
    }

    #[test]
    fn cvt_grid_matches_reference() {
        let fmts = [
            Format::BINARY8,
            Format::BINARY8ALT,
            Format::BINARY16,
            Format::BINARY16ALT,
            Format::BINARY32,
            Format::BINARY64,
        ];
        for src in fmts {
            for dst in fmts {
                for bits in [0u64, src.one(), src.quiet_nan(), src.max_finite(true)] {
                    for rm in Rounding::ALL {
                        let mut e1 = Env::new(rm);
                        let mut e2 = Env::new(rm);
                        assert_eq!(
                            cvt_f_f(dst, src, bits, &mut e1),
                            ops::cvt_f_f(dst, src, bits, &mut e2),
                            "{} -> {} bits={bits:#x} rm={rm}",
                            src.name(),
                            dst.name()
                        );
                        assert_eq!(e1.flags, e2.flags);
                    }
                }
            }
        }
    }

    #[test]
    fn negated_fma_variants_match_reference() {
        let fmt = Format::BINARY16;
        let (a, b, c) = (0x3e00u64, 0xc200u64, 0x3c01u64);
        for rm in Rounding::ALL {
            let mut e1 = Env::new(rm);
            let mut e2 = Env::new(rm);
            assert_eq!(
                fmsub(fmt, a, b, c, &mut e1),
                ops::fmsub(fmt, a, b, c, &mut e2)
            );
            assert_eq!(
                fnmsub(fmt, a, b, c, &mut e1),
                ops::fnmsub(fmt, a, b, c, &mut e2)
            );
            assert_eq!(
                fnmadd(fmt, a, b, c, &mut e1),
                ops::fnmadd(fmt, a, b, c, &mut e2)
            );
            assert_eq!(e1.flags, e2.flags);
        }
        let mut e = Env::new(Rounding::Rne);
        // sNaN input raises NV through the negated variants too.
        fmsub(fmt, 0x7c01, b, c, &mut e);
        assert!(e.flags.contains(Flags::NV));
    }
}
