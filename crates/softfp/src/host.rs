//! Host-FPU round-to-nearest-even leaves for the hot operations.
//!
//! Each leaf computes one operation on the host FPU for the concrete
//! formats, const-generic over their `<E, M>` layouts, and returns the
//! result bits with the flags it raised, or `None` whenever it cannot give
//! the exact answer (the caller then runs the integer kernels). A leaf
//! takes and returns plain values: no [`crate::Env`], no format dispatch,
//! nothing written through memory. They implement round-to-nearest-even
//! only; the caller checks the rounding mode.
//!
//! The monomorphized kernels (and so [`crate::fast`], the batch
//! lane helpers, the typed interpreter and the quantizer) take their
//! round-to-nearest path through these leaves, and the simulator's FP
//! handlers call them directly, so the host path has one definition.
//!
//! # Exactness
//!
//! * Every operand widens exactly to `f64`: binary32 and
//!   binary16alt through the host's own `f32` conversion, the other
//!   layouts by bit assembly.
//! * A product of two significands of at most 24 bits has at most 48 bits,
//!   so `x * y` is exact.
//! * A sum `s = x + y` is rounded once by the host, and Knuth's TwoSum
//!   recovers the exact error `e` with `x + y = s + e`. Range analysis
//!   drops TwoSum where `e = 0` always: every binary16 value is a multiple
//!   of 2^-24 below 2^16, so a binary16 sum spans at most 41 bits; a
//!   binary8 (E5M2 or E4M3) lane product is a multiple of 2^-32 below
//!   2^32, and added to a binary16 accumulator it either spans at most 49
//!   bits or overflows binary16 (and falls back).
//!
//! binary32 add and sub use the host's binary32 adder itself, which
//! rounds once; a subnormal binary32 sum is exact, so it needs no
//! fallback, and the result is inexact iff it differs from the binary64
//! sum or that sum has a nonzero TwoSum error.
//!
//! Every other leaf then rounds `s` into the format: binary32 with the
//! host's `f64 → f32` conversion, the 16- and 8-bit layouts by bit
//! assembly. Rounding `s` instead of the exact `s + e` changes nothing
//! unless `s` is a midpoint of the format: `s` is the binary64 value
//! nearest to `s + e`, and every midpoint of a format with at most 24
//! significand bits is itself a binary64 value, so no midpoint lies
//! strictly between `s` and `s + e`. The one double-rounding case, `e != 0`
//! with `s` on a midpoint, falls back, as does every result that is
//! subnormal (before rounding below 2^emin), overflowing or not finite
//! (NaN and infinite operands give a non-finite `s`). What is left cannot
//! raise UF, OF or NV, and it is inexact iff rounding dropped nonzero bits
//! or `e != 0`.
//!
//! A zero `s` is exact: binary64 has gradual underflow and every product
//! here is exact, so a host sum or product is zero only when the exact
//! result is. The host's round-to-nearest then also gives IEEE 754's zero
//! signs (`x + (-x) = +0`, `(-0) + (-0) = -0`, the XOR of the signs for a
//! product, the sum rule for an fma), so the format's zero of the same
//! sign comes back with no flag.
//!
//! The expanding ops (`fmulex`/`fmacex`, the `vfdotpex`/`vfsdotpex` dot
//! products) widen their narrow lanes straight to `f64`, where every lane
//! product is exact, and round each accumulate step once into the
//! accumulator format, lane 0 first. A chain returns `None` if any of its
//! steps would fall back.
//!
//! Valid instantiations: `M <= 23` and `E <= 8` for the arithmetic leaves
//! (the layouts of `Format::BINARY8` through `Format::BINARY32`); [`cvt`]
//! also takes binary64 (`<11, 52>`) as its source.

use crate::batch::LaneOp;
use crate::env::Flags;

/// Bits of a finite `f64` below a binary32 significand (52 − 23).
const B32_DROP: u32 = 29;

/// The flags of a leaf result that is inexact iff `nx`: NX is bit 0 of
/// the flag byte, so this takes no branch.
#[inline(always)]
fn nx_flags(nx: bool) -> Flags {
    Flags::from_bits(u8::from(nx))
}

/// Exact value of an `<E, M>` encoding as `f64`; any NaN encoding gives
/// some NaN. Bits above the format width are ignored.
#[inline(always)]
fn wide<const E: u32, const M: u32>(bits: u64) -> f64 {
    if E == 11 && M == 52 {
        return f64::from_bits(bits);
    }
    if E == 8 && M == 23 {
        return f64::from(f32::from_bits(bits as u32));
    }
    if E == 8 && M == 7 {
        return f64::from(f32::from_bits((bits as u32) << 16));
    }
    let bias = (1u64 << (E - 1)) - 1;
    let mag = bits & ((1u64 << (E + M)) - 1);
    let sign = ((bits >> (E + M)) & 1) << 63;
    let exp = mag >> M;
    let v = if exp.wrapping_sub(1) < (1 << E) - 2 {
        // A normal number: re-bias the exponent field from the format's
        // to binary64's.
        (mag << (52 - M)) + ((1023 - bias) << 52)
    } else if exp == 0 {
        // ±0 or a subnormal `mag · 2^(1 - bias - M)`, exact in f64.
        (mag as f64 * f64::from_bits((1024 - bias - u64::from(M)) << 52)).to_bits()
    } else if mag == exp << M {
        0x7ff0_0000_0000_0000
    } else {
        return f64::NAN;
    };
    f64::from_bits(sign | v)
}

/// Exact widening of a concrete `(E, M)` encoding to `f64`: every value
/// of an 8-, 16- or 32-bit format is an `f64` normal, and NaNs collapse to
/// the canonical quiet NaN, as [`crate::ops::to_f64`] does. Bits above the
/// format width are ignored.
#[inline(always)]
pub(crate) fn widen<const E: u32, const M: u32>(bits: u64) -> f64 {
    let v = wide::<E, M>(bits);
    if v.is_nan() {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        v
    }
}

/// Knuth's TwoSum: the exact error `e` of the host sum `s = a + b`, so
/// that `a + b = s + e` (no overflow is possible for the formats here).
#[inline(always)]
fn two_sum_err(a: f64, b: f64, s: f64) -> f64 {
    let bb = s - a;
    (a - (s - bb)) + (b - bb)
}

/// Round the host value `s` into `<E, M>` at round-to-nearest-even when
/// the result is a normal number or an exact zero: the encoding, the
/// rounded value as `f64` (for the next step of a chain) and whether the
/// result is inexact (rounding dropped nonzero bits, or `inexact`, a
/// nonzero TwoSum error, is set). `None` for subnormal, overflowing and
/// non-finite results and for a midpoint `s` with `inexact` set.
#[inline(always)]
fn round<const E: u32, const M: u32>(s: f64, inexact: bool) -> Option<(u64, f64, bool)> {
    const { assert!(M <= 23 && E <= 8) };
    if E == 8 && M == 23 {
        if s.abs() >= f64::from(f32::MIN_POSITIVE) {
            let r = s as f32;
            let midpoint = s.to_bits() & ((1 << B32_DROP) - 1) == 1 << (B32_DROP - 1);
            if r.is_infinite() || (inexact && midpoint) {
                return None;
            }
            let v = f64::from(r);
            return Some((u64::from(r.to_bits()), v, inexact || v != s));
        }
        // An exact zero keeps its sign; subnormal and NaN fall back.
        return (s == 0.0 && !inexact).then_some(((s.to_bits() >> 63) << 31, s, false));
    }
    let bias = (1i32 << (E - 1)) - 1;
    let drop = 52 - M;
    let half = 1u64 << (drop - 1);
    let bits = s.to_bits();
    let sign = bits & (1 << 63);
    let abs = bits ^ sign;
    let exp = (abs >> 52) as i32 - 1023;
    let rem = abs & ((1u64 << drop) - 1);
    if exp < 1 - bias || exp > bias || (inexact && rem == half) {
        return (abs == 0 && !inexact).then_some(((sign >> 63) << (E + M), s, false));
    }
    // Round the magnitude at bit `drop`, ties to even (half - 1 plus the
    // kept LSB carries exactly when the dropped bits exceed half, or equal
    // it with an odd LSB); a carry out of the significand bumps the
    // exponent field, which is the correctly rounded encoding. Then
    // re-bias the exponent field from binary64's to the format's.
    let lsb = (abs >> drop) & 1;
    let rounded = (abs + (half - 1) + lsb) >> drop;
    let mag = rounded - (((1023 - bias) as u64) << M);
    if mag >> M == (1 << E) - 1 {
        return None; // rounded up to infinity
    }
    let v = f64::from_bits(sign | rounded << drop);
    Some((mag | ((sign >> 63) << (E + M)), v, rem != 0 || inexact))
}

/// [`round`] for a leaf's final result.
#[inline(always)]
fn finish<const E: u32, const M: u32>(s: f64, inexact: bool) -> Option<(u64, Flags)> {
    let (bits, _, nx) = round::<E, M>(s, inexact)?;
    Some((bits, nx_flags(nx)))
}

/// One accumulate step `p + z`: an exact host product `p` and an `<E, M>`
/// accumulator value `z`, rounded once into `<E, M>` (see [`round`]).
/// `two_sum` is false only where range analysis proves the host sum exact.
#[inline(always)]
fn step<const E: u32, const M: u32>(p: f64, z: f64, two_sum: bool) -> Option<(u64, f64, bool)> {
    let s = p + z;
    round::<E, M>(s, two_sum && two_sum_err(p, z, s) != 0.0)
}

/// `a + b` at round-to-nearest-even.
#[inline(always)]
pub fn add<const E: u32, const M: u32>(a: u64, b: u64) -> Option<(u64, Flags)> {
    if E == 8 && M == 23 {
        // The host's binary32 add rounds once, and subnormal sums are
        // exact. The binary64 sum `d` of the widened operands and its
        // TwoSum error give the exact sum, so the result is inexact iff
        // either differs from it.
        let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
        let r = x + y;
        if !r.is_finite() {
            return None;
        }
        let (x, y) = (f64::from(x), f64::from(y));
        let d = x + y;
        let nx = two_sum_err(x, y, d) != 0.0 || f64::from(r) != d;
        return Some((u64::from(r.to_bits()), nx_flags(nx)));
    }
    let (x, y) = (wide::<E, M>(a), wide::<E, M>(b));
    let s = x + y;
    // binary16 (and E5M2) sums are exact on the host.
    let inexact = E != 5 && two_sum_err(x, y, s) != 0.0;
    finish::<E, M>(s, inexact)
}

/// `a - b` at round-to-nearest-even.
#[inline(always)]
pub fn sub<const E: u32, const M: u32>(a: u64, b: u64) -> Option<(u64, Flags)> {
    add::<E, M>(a, b ^ (1 << (E + M)))
}

/// `a * b` at round-to-nearest-even: the product is exact in `f64`.
#[inline(always)]
pub fn mul<const E: u32, const M: u32>(a: u64, b: u64) -> Option<(u64, Flags)> {
    finish::<E, M>(wide::<E, M>(a) * wide::<E, M>(b), false)
}

/// Fused `a * b + c` at round-to-nearest-even.
#[inline(always)]
pub fn fma<const E: u32, const M: u32>(a: u64, b: u64, c: u64) -> Option<(u64, Flags)> {
    let p = wide::<E, M>(a) * wide::<E, M>(b);
    let (bits, _, nx) = step::<E, M>(p, wide::<E, M>(c), true)?;
    Some((bits, nx_flags(nx)))
}

/// Float-to-float conversion from `<SE, SM>` to `<DE, DM>` at
/// round-to-nearest-even. binary16 and binary16alt widen to binary32 by
/// exact bit moves (NaNs fall back); every other pair widens the source to
/// `f64` and rounds it into the destination.
#[inline(always)]
pub fn cvt<const SE: u32, const SM: u32, const DE: u32, const DM: u32>(
    bits: u64,
) -> Option<(u64, Flags)> {
    if (DE, DM) == (8, 23) && (SE, SM) == (8, 7) {
        let w = (bits as u32) << 16;
        return (w & 0x7fff_ffff <= 0x7f80_0000).then_some((u64::from(w), Flags::NONE));
    }
    if (DE, DM) == (8, 23) && (SE, SM) == (5, 10) {
        let mag = bits as u32 & 0x7fff;
        let sign = (bits as u32 & 0x8000) << 16;
        let w = if mag >= 0x7c00 {
            if mag != 0x7c00 {
                return None; // NaN
            }
            0x7f80_0000
        } else if mag >= 0x0400 {
            // Re-bias the exponent field: 127 - 15 = 112.
            (mag << 13) + (112 << 23)
        } else {
            // ±0 or a subnormal: the binary32 subnormal with the same
            // significand bits, scaled by 2^112, is the exact value.
            (f32::from_bits(mag << 13) * f32::from_bits((127 + 112) << 23)).to_bits()
        };
        return Some((u64::from(sign | w), Flags::NONE));
    }
    finish::<DE, DM>(wide::<SE, SM>(bits), false)
}

/// Expanding `a * b` (`fmulex.s.*`): two `<SE, SM>` factors rounded once
/// into binary32.
#[inline(always)]
pub fn mulex<const SE: u32, const SM: u32>(a: u64, b: u64) -> Option<(u64, Flags)> {
    finish::<8, 23>(wide::<SE, SM>(a) * wide::<SE, SM>(b), false)
}

/// Expanding fused `a * b + acc` (`fmacex.s.*`): `<SE, SM>` factors, a
/// binary32 accumulator and result.
#[inline(always)]
pub fn macex<const SE: u32, const SM: u32>(a: u64, b: u64, acc: u64) -> Option<(u64, Flags)> {
    dot::<SE, SM, 8, 23, 1>(acc, [a], [b])
}

/// Dot-product chain `acc + a[0]·b[0] + a[1]·b[1] + …` of `<SE, SM>`
/// lanes into an `<DE, DM>` accumulator, each step one rounding into the
/// accumulator format, lane 0 first: `None` if any step would fall back.
#[inline(always)]
pub fn dot<const SE: u32, const SM: u32, const DE: u32, const DM: u32, const N: usize>(
    acc: u64,
    a: [u64; N],
    b: [u64; N],
) -> Option<(u64, Flags)> {
    // 8-bit lanes into a binary16 accumulator: exact host sums.
    let two_sum = !((DE, DM) == (5, 10) && SE + SM <= 7);
    let mut z = wide::<DE, DM>(acc);
    let mut bits = acc;
    let mut nx = false;
    for (&x, &y) in a.iter().zip(&b) {
        let p = wide::<SE, SM>(x) * wide::<SE, SM>(y);
        let (r, v, x) = step::<DE, DM>(p, z, two_sum)?;
        (bits, z, nx) = (r, v, nx | x);
    }
    Some((bits, nx_flags(nx)))
}

/// `vfdotpex`/`vfsdotpex` on two 16-bit `<E, M>` lanes into the binary32
/// accumulator: `acc + a0·b0 + a1·b1` (`rep` replicates lane 0 of `vb`).
#[inline(always)]
pub fn dotpex2<const E: u32, const M: u32>(
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
) -> Option<(u32, Flags)> {
    let b1 = if rep { vb } else { vb >> 16 };
    let a = [u64::from(va), u64::from(va >> 16)];
    let (r, f) = dot::<E, M, 8, 23, 2>(u64::from(acc), a, [u64::from(vb), u64::from(b1)])?;
    Some((r as u32, f))
}

/// `vfdotpex` on four 8-bit `<E, M>` lanes into the binary32 accumulator.
#[inline(always)]
pub fn dotpex4<const E: u32, const M: u32>(
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
) -> Option<(u32, Flags)> {
    let a = [va, va >> 8, va >> 16, va >> 24].map(u64::from);
    let b = if rep {
        [u64::from(vb); 4]
    } else {
        [vb, vb >> 8, vb >> 16, vb >> 24].map(u64::from)
    };
    let (r, f) = dot::<E, M, 8, 23, 4>(u64::from(acc), a, b)?;
    Some((r as u32, f))
}

/// `vfsdotpex` on four 8-bit `<SE, SM>` lanes into the two 16-bit
/// `<DE, DM>` accumulator lanes of `acc`: lane `j` adds the products of
/// source lanes `2j` and `2j + 1`, even lane first. `None` if either
/// destination lane would fall back.
#[inline(always)]
pub fn sdotp4<const SE: u32, const SM: u32, const DE: u32, const DM: u32>(
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
) -> Option<(u32, Flags)> {
    let a = [va, va >> 8, va >> 16, va >> 24].map(u64::from);
    let b = if rep {
        [u64::from(vb); 4]
    } else {
        [vb, vb >> 8, vb >> 16, vb >> 24].map(u64::from)
    };
    let (lo, f0) = dot::<SE, SM, DE, DM, 2>(u64::from(acc), [a[0], a[1]], [b[0], b[1]])?;
    let (hi, f1) = dot::<SE, SM, DE, DM, 2>(u64::from(acc >> 16), [a[2], a[3]], [b[2], b[3]])?;
    Some(((lo as u32 & 0xffff) | (hi as u32) << 16, f0 | f1))
}

/// One 16-bit lane of [`vfop2`].
#[inline(always)]
fn lane_op<const E: u32, const M: u32>(op: LaneOp, a: u32, b: u32, d: u32) -> Option<(u64, Flags)> {
    let (a, b, d) = (
        u64::from(a & 0xffff),
        u64::from(b & 0xffff),
        u64::from(d & 0xffff),
    );
    match op {
        LaneOp::Add => add::<E, M>(a, b),
        LaneOp::Sub => sub::<E, M>(a, b),
        LaneOp::Mul => mul::<E, M>(a, b),
        LaneOp::Mac => fma::<E, M>(a, b, d),
        _ => None,
    }
}

/// `vfop` on two 16-bit `<E, M>` lanes for the rounded arithmetic lane
/// ops (add, sub, mul and the fused `a * b + d` of `Mac`); `None` for the
/// other ops and whenever a lane would fall back.
#[inline(always)]
pub fn vfop2<const E: u32, const M: u32>(
    op: LaneOp,
    va: u32,
    vb: u32,
    vd: u32,
    rep: bool,
) -> Option<(u32, Flags)> {
    let b1 = if rep { vb } else { vb >> 16 };
    let (lo, f0) = lane_op::<E, M>(op, va, vb, vd)?;
    let (hi, f1) = lane_op::<E, M>(op, va >> 16, b1, vd >> 16)?;
    Some((lo as u32 | ((hi as u32) << 16), f0 | f1))
}
