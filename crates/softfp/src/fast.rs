//! Fast-path dispatch for the concrete paper formats.
//!
//! Drop-in counterparts of the scalar entry points in [`crate::ops`], with
//! the same signatures and bit-exact results/flags. Each rounded op takes
//! the first of three routes that applies:
//!
//! 1. **binary8 / binary8alt** add, sub, mul, div, sqrt and the widening
//!    conversions → the exhaustive lookup tables of `crate::tables`, in
//!    every rounding mode (an O(1) load replaces the whole unpack/round
//!    pipeline);
//! 2. **round-to-nearest-even** → the host-FPU leaf of [`crate::host`] at
//!    the format's layout, for all five concrete formats: add, sub, mul,
//!    the fused multiply-adds, every conversion between them and out of
//!    `f64`, and the expanding [`mulex`]/[`macex`] (whose fallback widens
//!    its factors exactly through [`cvt_f_f`] before the binary32 `ops`
//!    step);
//! 3. **everything else** — the other rounding modes, every case a leaf
//!    declines (`None`), div and sqrt above 8 bits, binary64 and custom
//!    layouts → the generic reference in [`crate::ops`].
//!
//! The bit-level ops (comparisons, min/max, sign injection, `fclass`)
//! round nothing: they run the monomorphized copies of `crate::kernels`
//! (binary8 `fclass` has a table too).
//!
//! The dispatch is a short if-chain on `Format` equality; each arm is a
//! static call, so the branch predictor sees one stable target per call
//! site in format-homogeneous loops (the simulator's common case).
//!
//! Equivalence with the reference is enforced by the differential suites:
//! exhaustively for binary8 and binary8alt
//! (`tests/fastpath_b8_exhaustive.rs`, `tests/fastpath_b8alt_exhaustive.rs`)
//! and for 16-bit unary ops, sampled with replayable seeds otherwise
//! (`tests/fastpath_sampled.rs`, `tests/fastpath_host_rne.rs`); the
//! host-`f64` bridges [`to_f64`] and [`from_f64`] by
//! `tests/fastpath_f64_bridge.rs`; the expanding ops [`mulex`] and
//! [`macex`] by `tests/dotp_differential.rs`.

use crate::env::{Env, Flags, Rounding};
use crate::format::Format;
use crate::host;
use crate::kernels as k;
use crate::ops;
use crate::tables;

/// `leaf()`'s result, its flags accrued into `env`, when `env` rounds to
/// nearest-even and the leaf gives one; `reference(env)` otherwise.
#[inline(always)]
pub(crate) fn rne_or<T>(
    env: &mut Env,
    leaf: impl FnOnce() -> Option<(T, Flags)>,
    reference: impl FnOnce(&mut Env) -> T,
) -> T {
    if env.rm == Rounding::Rne {
        if let Some((bits, flags)) = leaf() {
            env.flags.set(flags);
            return bits;
        }
    }
    reference(env)
}

/// Call `host::$leaf` at the `<E, M>` layout of `$fmt`: `None` for a
/// format other than the five concrete ones.
macro_rules! leaf {
    ($fmt:expr, $leaf:ident($($arg:expr),*)) => {{
        let fmt = $fmt;
        if fmt == Format::BINARY16 {
            host::$leaf::<5, 10>($($arg),*)
        } else if fmt == Format::BINARY16ALT {
            host::$leaf::<8, 7>($($arg),*)
        } else if fmt == Format::BINARY32 {
            host::$leaf::<8, 23>($($arg),*)
        } else if fmt == Format::BINARY8 {
            host::$leaf::<5, 2>($($arg),*)
        } else if fmt == Format::BINARY8ALT {
            host::$leaf::<4, 3>($($arg),*)
        } else {
            None
        }
    }};
}

/// [`host::cvt`] from `$src` to `$dst`: `None` unless both are concrete
/// formats. The `@to` form takes the source layout as literals.
macro_rules! cvt_leaf {
    ($dst:expr, $src:expr, $bits:expr) => {{
        let src = $src;
        if src == Format::BINARY16 {
            cvt_leaf!(@to $dst, 5, 10, $bits)
        } else if src == Format::BINARY16ALT {
            cvt_leaf!(@to $dst, 8, 7, $bits)
        } else if src == Format::BINARY32 {
            cvt_leaf!(@to $dst, 8, 23, $bits)
        } else if src == Format::BINARY8 {
            cvt_leaf!(@to $dst, 5, 2, $bits)
        } else if src == Format::BINARY8ALT {
            cvt_leaf!(@to $dst, 4, 3, $bits)
        } else {
            None
        }
    }};
    (@to $dst:expr, $se:literal, $sm:literal, $bits:expr) => {{
        let dst = $dst;
        if dst == Format::BINARY16 {
            host::cvt::<$se, $sm, 5, 10>($bits)
        } else if dst == Format::BINARY16ALT {
            host::cvt::<$se, $sm, 8, 7>($bits)
        } else if dst == Format::BINARY32 {
            host::cvt::<$se, $sm, 8, 23>($bits)
        } else if dst == Format::BINARY8 {
            host::cvt::<$se, $sm, 5, 2>($bits)
        } else if dst == Format::BINARY8ALT {
            host::cvt::<$se, $sm, 4, 3>($bits)
        } else {
            None
        }
    }};
}

/// True for the two formats with exhaustive tables.
#[inline(always)]
fn tabled(fmt: Format) -> bool {
    fmt == Format::BINARY8 || fmt == Format::BINARY8ALT
}

/// Fast-path `a + b` (see [`ops::add`]).
#[inline]
pub fn add(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    if tabled(fmt) {
        return tables::add(fmt, a, b, env);
    }
    rne_or(env, || leaf!(fmt, add(a, b)), |e| ops::add(fmt, a, b, e))
}

/// Fast-path `a - b` (see [`ops::sub`]).
#[inline]
pub fn sub(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    if tabled(fmt) {
        return tables::sub(fmt, a, b, env);
    }
    rne_or(env, || leaf!(fmt, sub(a, b)), |e| ops::sub(fmt, a, b, e))
}

/// Fast-path `a * b` (see [`ops::mul`]).
#[inline]
pub fn mul(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    if tabled(fmt) {
        return tables::mul(fmt, a, b, env);
    }
    rne_or(env, || leaf!(fmt, mul(a, b)), |e| ops::mul(fmt, a, b, e))
}

/// Fast-path `a / b` (see [`ops::div`]).
#[inline]
pub fn div(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    if tabled(fmt) {
        tables::div(fmt, a, b, env)
    } else {
        ops::div(fmt, a, b, env)
    }
}

/// Fast-path `sqrt(a)` (see [`ops::sqrt`]).
#[inline]
pub fn sqrt(fmt: Format, a: u64, env: &mut Env) -> u64 {
    if tabled(fmt) {
        tables::sqrt(fmt, a, env)
    } else {
        ops::sqrt(fmt, a, env)
    }
}

/// Fast-path fused `a * b + c` (see [`ops::fmadd`]).
#[inline]
pub fn fmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let leaf = || leaf!(fmt, fma(a, b, c));
    rne_or(env, leaf, |e| ops::fmadd(fmt, a, b, c, e))
}

/// Fast-path fused `a * b - c` (see [`ops::fmsub`]).
#[inline]
pub fn fmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fmadd(fmt, a, b, fmt.negate(c), env)
}

/// Fast-path fused `-(a * b) + c` (see [`ops::fnmsub`]).
#[inline]
pub fn fnmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fmadd(fmt, fmt.negate(a), b, c, env)
}

/// Fast-path fused `-(a * b) - c` (see [`ops::fnmadd`]).
#[inline]
pub fn fnmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fmadd(fmt, fmt.negate(a), b, fmt.negate(c), env)
}

/// Exact widening of a `src` value to binary32, flags discarded.
fn widen_s(src: Format, bits: u64, env: &Env) -> u64 {
    cvt_f_f(Format::BINARY32, src, bits, &mut Env::new(env.rm))
}

/// Fast-path expanding multiply (`fmulex.s.*`): `a * b` of two `src`
/// values rounded once into binary32. The reference is [`ops::mul`] at
/// binary32 of the factors widened by [`ops::cvt_f_f`], whose flags (at
/// most NV on a signaling NaN) are discarded.
#[inline]
pub fn mulex(src: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    let leaf = || leaf!(src, mulex(a, b));
    rne_or(env, leaf, |env| {
        let (a, b) = (widen_s(src, a, env), widen_s(src, b, env));
        ops::mul(Format::BINARY32, a, b, env)
    })
}

/// Fast-path expanding multiply-accumulate (`fmacex.s.*`): `a * b + acc`
/// with `src` factors and a binary32 `acc`, rounded once (the reference is
/// [`ops::fmadd`] at binary32, factors widened as in [`mulex`]).
#[inline]
pub fn macex(src: Format, a: u64, b: u64, acc: u64, env: &mut Env) -> u64 {
    let leaf = || leaf!(src, macex(a, b, acc));
    rne_or(env, leaf, |env| {
        let (a, b) = (widen_s(src, a, env), widen_s(src, b, env));
        ops::fmadd(Format::BINARY32, a, b, acc, env)
    })
}

/// Dispatch a bit-level op to its monomorphized copy in `crate::kernels`
/// for the five concrete formats, the generic reference otherwise.
macro_rules! dispatch_k {
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
    dispatch_k!(fmt, a, b, env, feq, ops::feq)
}

/// Fast-path signaling less-than (see [`ops::flt`]).
#[inline]
pub fn flt(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    dispatch_k!(fmt, a, b, env, flt, ops::flt)
}

/// Fast-path signaling less-or-equal (see [`ops::fle`]).
#[inline]
pub fn fle(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    dispatch_k!(fmt, a, b, env, fle, ops::fle)
}

/// Fast-path `minNum` (see [`ops::fmin`]).
#[inline]
pub fn fmin(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch_k!(fmt, a, b, env, fmin, ops::fmin)
}

/// Fast-path `maxNum` (see [`ops::fmax`]).
#[inline]
pub fn fmax(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    dispatch_k!(fmt, a, b, env, fmax, ops::fmax)
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
/// Widening out of the 8-bit formats reads the exhaustive tables; at
/// round-to-nearest-even every other pair of concrete formats takes the
/// host leaf; the rest goes to the generic reference.
#[inline]
pub fn cvt_f_f(dst: Format, src: Format, bits: u64, env: &mut Env) -> u64 {
    if tabled(src)
        && (dst == Format::BINARY16 || dst == Format::BINARY16ALT || dst == Format::BINARY32)
    {
        return tables::cvt_widen(dst, src, bits, env);
    }
    let leaf = || cvt_leaf!(dst, src, bits);
    rne_or(env, leaf, |e| ops::cvt_f_f(dst, src, bits, e))
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
/// flags (see [`ops::from_f64`]): at round-to-nearest-even the host leaf
/// from binary64 for the concrete formats.
#[inline]
pub fn from_f64(fmt: Format, v: f64, env: &mut Env) -> u64 {
    let leaf = || cvt_leaf!(@to fmt, 11, 52, v.to_bits());
    rne_or(env, leaf, |e| ops::from_f64(fmt, v, e))
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
