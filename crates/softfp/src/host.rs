//! Host-FPU round-to-nearest-even leaves for the hot operations.
//!
//! Each leaf computes one operation on the host FPU for the concrete
//! formats, const-generic over their `<E, M>` layouts, and returns the
//! result bits with the flags it raised, or `None` whenever it cannot give
//! the exact answer (the caller then runs the integer reference,
//! [`crate::ops`]). A leaf takes and returns plain values: no
//! [`crate::Env`], no format dispatch, nothing written through memory.
//! They implement round-to-nearest-even only; the caller checks the
//! rounding mode.
//!
//! [`crate::fast`] (and so the batch lane helpers, the typed interpreter
//! and the quantizer) takes its round-to-nearest path through these
//! leaves for every op the binary8 tables do not serve, and the
//! simulator's FP handlers call them directly, so the host path has one
//! definition.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Env, Rounding};
    use crate::fast;
    use crate::format::Format;
    use crate::ops;
    use smallfloat_devtools::Rng;

    fn env() -> Env {
        Env::new(Rounding::Rne)
    }

    /// The sign bit of an `<E, M>` encoding.
    fn sign_bit<const E: u32, const M: u32>() -> u64 {
        1 << (E + M)
    }

    /// The exponent bias of an `<E, M>` layout.
    fn bias<const E: u32>() -> i32 {
        (1 << (E - 1)) - 1
    }

    /// A random `<E, M>` encoding within ±`span` binades of 1.
    fn window_in<const E: u32, const M: u32>(rng: &mut Rng, span: i32) -> u64 {
        let exp = (bias::<E>() + rng.range_i32(-span, span + 1)) as u64;
        let sign = u64::from(rng.bool());
        (sign << (E + M)) | (exp << M) | (rng.u64() & ((1 << M) - 1))
    }

    /// A random `<E, M>` encoding within ±4 binades of 1.
    fn window<const E: u32, const M: u32>(rng: &mut Rng) -> u64 {
        window_in::<E, M>(rng, 4)
    }

    type Leaf = Option<(u64, Flags)>;

    /// A packed-register leaf's result as a [`Leaf`].
    fn packed(leaf: Option<(u32, Flags)>) -> Leaf {
        leaf.map(|(bits, flags)| (u64::from(bits), flags))
    }

    /// Count `leaf` in `taken` if it gave a result, and require that
    /// result, flags included, to match `reference` on a fresh RNE `Env`.
    fn tally(taken: &mut u32, what: &str, leaf: Leaf, reference: &dyn Fn(&mut Env) -> u64) {
        if let Some((bits, flags)) = leaf {
            *taken += 1;
            let mut e = env();
            let want = reference(&mut e);
            assert_eq!((bits, flags), (want, e.flags), "{what}");
        }
    }

    /// At least 90 % of `n` narrow-window cases took the host path: a
    /// leaf that always fell back would still pass every differential
    /// suite, but it would be slow.
    fn mostly_taken(what: &str, taken: u32, n: u32) {
        assert!(
            taken * 10 >= n * 9,
            "{what}: host path taken {taken} of {n} times"
        );
    }

    /// Operands with exponents within ±4 binades of 1: under RNE almost
    /// every add, sub, mul, fma and conversion (from binary64 and between
    /// every pair of concrete formats) has a normal, nonzero result, so
    /// every scalar leaf must take at least 90 % of them, and every result
    /// it gives must match the reference, flags included. Exact zero
    /// results must take it every time.
    #[test]
    fn host_path_takes_most_narrow_window_rne_cases() {
        type Reference<'a> = &'a dyn Fn(&mut Env) -> u64;
        const N: u32 = 4096;
        fn check<const E: u32, const M: u32>(fmt: Format) {
            let mut rng = Rng::new(0x0f57_9a7e ^ u64::from(M));
            let names = ["add", "sub", "mul", "fma", "from_f64"];
            let mut taken = [0u32; 5];
            for _ in 0..N {
                let (a, b, c) = (
                    window::<E, M>(&mut rng),
                    window::<E, M>(&mut rng),
                    window::<E, M>(&mut rng),
                );
                let wide = widen::<E, M>(a) * 2f64.powi(rng.range_i32(-8, 8));
                let cases: [(Leaf, Reference); 5] = [
                    (add::<E, M>(a, b), &|e| ops::add(fmt, a, b, e)),
                    (sub::<E, M>(a, b), &|e| ops::sub(fmt, a, b, e)),
                    (mul::<E, M>(a, b), &|e| ops::mul(fmt, a, b, e)),
                    (fma::<E, M>(a, b, c), &|e| ops::fmadd(fmt, a, b, c, e)),
                    (cvt::<11, 52, E, M>(wide.to_bits()), &|e| {
                        ops::from_f64(fmt, wide, e)
                    }),
                ];
                for (i, (leaf, reference)) in cases.into_iter().enumerate() {
                    let what = format!("{} {}", fmt.name(), names[i]);
                    tally(&mut taken[i], &what, leaf, reference);
                }
            }
            for (op, t) in names.iter().zip(taken) {
                mostly_taken(&format!("{} {op}", fmt.name()), t, N);
            }
            // Exact zeros, with IEEE 754's signs and no flag.
            let zero = |op: &str, got: Leaf, reference: Reference| {
                let mut e = env();
                let want = reference(&mut e);
                assert_eq!(
                    want & !sign_bit::<E, M>(),
                    0,
                    "{} {op} is not zero",
                    fmt.name()
                );
                assert_eq!(got, Some((want, e.flags)), "{} {op}", fmt.name());
            };
            let (pz, nz, one) = (0, sign_bit::<E, M>(), (bias::<E>() as u64) << M);
            for _ in 0..64 {
                let x = window::<E, M>(&mut rng);
                let nx = x ^ sign_bit::<E, M>();
                zero("x + (-x)", add::<E, M>(x, nx), &|e| ops::add(fmt, x, nx, e));
                zero("x - x", sub::<E, M>(x, x), &|e| ops::sub(fmt, x, x, e));
                zero("x * 1 - x", fma::<E, M>(x, one, nx), &|e| {
                    ops::fmadd(fmt, x, one, nx, e)
                });
                for a in [pz, nz] {
                    zero("0 * x", mul::<E, M>(a, x), &|e| ops::mul(fmt, a, x, e));
                    zero("x * 0", mul::<E, M>(nx, a), &|e| ops::mul(fmt, nx, a, e));
                    for b in [pz, nz] {
                        zero("(±0) + (±0)", add::<E, M>(a, b), &|e| {
                            ops::add(fmt, a, b, e)
                        });
                        zero("fma(±0, x, ±0)", fma::<E, M>(a, x, b), &|e| {
                            ops::fmadd(fmt, a, x, b, e)
                        });
                    }
                }
            }
        }
        check::<8, 23>(Format::BINARY32);
        check::<5, 10>(Format::BINARY16);
        check::<8, 7>(Format::BINARY16ALT);

        /// binary8 and binary8alt fma, which [`crate::fast`] sends to the
        /// leaf at round-to-nearest-even (their add and mul have tables).
        /// Operands within ±2 binades of 1 keep the products normal in
        /// E4M3's range (2^-6 to 240).
        fn fma8<const E: u32, const M: u32>(fmt: Format) {
            let mut rng = Rng::new(0xf3a8 ^ u64::from(M));
            let what = format!("{} fma", fmt.name());
            let mut taken = 0;
            for _ in 0..N {
                let [a, b, c] = [(); 3].map(|_| window_in::<E, M>(&mut rng, 2));
                tally(&mut taken, &what, fma::<E, M>(a, b, c), &|e| {
                    ops::fmadd(fmt, a, b, c, e)
                });
            }
            mostly_taken(&what, taken, N);
        }
        fma8::<5, 2>(Format::BINARY8);
        fma8::<4, 3>(Format::BINARY8ALT);

        fn pair<const SE: u32, const SM: u32, const DE: u32, const DM: u32>(
            src: Format,
            dst: Format,
        ) {
            let mut rng = Rng::new(0xc0_4e47 ^ u64::from(SM << 8 | DM));
            let what = format!("cvt {} -> {}", src.name(), dst.name());
            let mut taken = 0;
            for _ in 0..N {
                let x = window::<SE, SM>(&mut rng);
                tally(&mut taken, &what, cvt::<SE, SM, DE, DM>(x), &|e| {
                    ops::cvt_f_f(dst, src, x, e)
                });
            }
            mostly_taken(&what, taken, N);
        }
        fn from<const SE: u32, const SM: u32>(src: Format) {
            pair::<SE, SM, 8, 23>(src, Format::BINARY32);
            pair::<SE, SM, 5, 10>(src, Format::BINARY16);
            pair::<SE, SM, 8, 7>(src, Format::BINARY16ALT);
            pair::<SE, SM, 5, 2>(src, Format::BINARY8);
            pair::<SE, SM, 4, 3>(src, Format::BINARY8ALT);
        }
        from::<8, 23>(Format::BINARY32);
        from::<5, 10>(Format::BINARY16);
        from::<8, 7>(Format::BINARY16ALT);
        from::<5, 2>(Format::BINARY8);
        from::<4, 3>(Format::BINARY8ALT);
    }

    /// The generic chain the expanding leaves must match: `src` lanes
    /// widened to `dst`, then one `fmadd` per lane pair, lane 0 first.
    fn dot_reference(src: Format, dst: Format, acc: u64, a: &[u64], b: &[u64], e: &mut Env) -> u64 {
        let up = |v: u64| ops::cvt_f_f(dst, src, v, &mut env());
        a.iter()
            .zip(b)
            .fold(acc, |t, (&x, &y)| ops::fmadd(dst, up(x), up(y), t, e))
    }

    /// Every expanding and packed leaf on narrow-window lanes: `dot`
    /// chains (16-bit lanes into binary32, 8-bit lanes into binary16 and
    /// binary16alt), `mulex`/`macex`, and the packed-register leaves the
    /// simulator's vector handlers call (`dotpex2`, `dotpex4`, `sdotp4`,
    /// `vfop2`) each take the host path at least 90 % of the time and
    /// match the generic widen-then-fma chain (or per-lane reference)
    /// when they do.
    #[test]
    fn host_dot_takes_most_narrow_window_chains() {
        const N: u32 = 4096;
        fn chain<const SE: u32, const SM: u32, const DE: u32, const DM: u32>(
            src: Format,
            dst: Format,
        ) {
            let mut rng = Rng::new(0xd07 ^ u64::from(SM << 8 | DM));
            let name = |op: &str| format!("{op} {} -> {}", src.name(), dst.name());
            let mut taken = [0u32; 3];
            for _ in 0..N {
                let (a0, b0) = (window::<SE, SM>(&mut rng), window::<SE, SM>(&mut rng));
                let (a1, b1) = (window::<SE, SM>(&mut rng), window::<SE, SM>(&mut rng));
                let acc = window::<DE, DM>(&mut rng);
                tally(
                    &mut taken[0],
                    &name("dot"),
                    dot::<SE, SM, DE, DM, 2>(acc, [a0, a1], [b0, b1]),
                    &|e| dot_reference(src, dst, acc, &[a0, a1], &[b0, b1], e),
                );
                if dst == Format::BINARY32 {
                    tally(
                        &mut taken[1],
                        &name("mulex"),
                        mulex::<SE, SM>(a0, b0),
                        &|e| {
                            let up = |v: u64| ops::cvt_f_f(dst, src, v, &mut env());
                            ops::mul(dst, up(a0), up(b0), e)
                        },
                    );
                    tally(
                        &mut taken[2],
                        &name("macex"),
                        macex::<SE, SM>(a0, b0, acc),
                        &|e| dot_reference(src, dst, acc, &[a0], &[b0], e),
                    );
                }
            }
            let ops = if dst == Format::BINARY32 { 3 } else { 1 };
            for (op, t) in ["dot", "mulex", "macex"].iter().zip(taken).take(ops) {
                mostly_taken(&name(op), t, N);
            }
        }
        chain::<5, 10, 8, 23>(Format::BINARY16, Format::BINARY32);
        chain::<8, 7, 8, 23>(Format::BINARY16ALT, Format::BINARY32);
        chain::<5, 2, 8, 23>(Format::BINARY8, Format::BINARY32);
        chain::<4, 3, 8, 23>(Format::BINARY8ALT, Format::BINARY32);
        chain::<5, 2, 5, 10>(Format::BINARY8, Format::BINARY16);
        chain::<4, 3, 5, 10>(Format::BINARY8ALT, Format::BINARY16);
        chain::<5, 2, 8, 7>(Format::BINARY8, Format::BINARY16ALT);
        chain::<4, 3, 8, 7>(Format::BINARY8ALT, Format::BINARY16ALT);

        /// Two 16-bit lanes: `dotpex2` and `vfop2` for every rounded op.
        fn lanes16<const E: u32, const M: u32>(fmt: Format) {
            let mut rng = Rng::new(0x16_1a4e ^ u64::from(M));
            let ops_ = [LaneOp::Add, LaneOp::Sub, LaneOp::Mul, LaneOp::Mac];
            let mut taken = [0u32; 5];
            for _ in 0..N {
                let mut lanes = || [window::<E, M>(&mut rng), window::<E, M>(&mut rng)];
                let (a, b, d) = (lanes(), lanes(), lanes());
                let pack = |l: [u64; 2]| (l[0] | l[1] << 16) as u32;
                let rep = rng.bool();
                let bl = if rep { [b[0], b[0]] } else { b };
                let acc = window::<8, 23>(&mut rng);
                tally(
                    &mut taken[0],
                    &format!("dotpex2 {}", fmt.name()),
                    packed(dotpex2::<E, M>(acc as u32, pack(a), pack(b), rep)),
                    &|e| dot_reference(fmt, Format::BINARY32, acc, &a, &bl, e),
                );
                for (i, op) in ops_.into_iter().enumerate() {
                    let lane = |i: usize, e: &mut Env| match op {
                        LaneOp::Add => ops::add(fmt, a[i], bl[i], e),
                        LaneOp::Sub => ops::sub(fmt, a[i], bl[i], e),
                        LaneOp::Mul => ops::mul(fmt, a[i], bl[i], e),
                        _ => ops::fmadd(fmt, a[i], bl[i], d[i], e),
                    };
                    tally(
                        &mut taken[1 + i],
                        &format!("vfop2 {op:?} {}", fmt.name()),
                        packed(vfop2::<E, M>(op, pack(a), pack(b), pack(d), rep)),
                        &|e| lane(0, e) | lane(1, e) << 16,
                    );
                }
            }
            for (i, t) in taken.into_iter().enumerate() {
                mostly_taken(&format!("{} leaf {i}", fmt.name()), t, N);
            }
        }
        lanes16::<5, 10>(Format::BINARY16);
        lanes16::<8, 7>(Format::BINARY16ALT);

        /// Four 8-bit lanes: `dotpex4` into binary32 and `sdotp4` into
        /// binary16 and binary16alt.
        fn lanes8<const E: u32, const M: u32>(fmt: Format) {
            let mut rng = Rng::new(0x8_1a4e ^ u64::from(M));
            let mut taken = [0u32; 3];
            for _ in 0..N {
                let mut lanes = || [(); 4].map(|_| window::<E, M>(&mut rng));
                let (a, b) = (lanes(), lanes());
                let pack = |l: [u64; 4]| (l[0] | l[1] << 8 | l[2] << 16 | l[3] << 24) as u32;
                let rep = rng.bool();
                let bl = if rep { [b[0]; 4] } else { b };
                let acc = window::<8, 23>(&mut rng);
                tally(
                    &mut taken[0],
                    &format!("dotpex4 {}", fmt.name()),
                    packed(dotpex4::<E, M>(acc as u32, pack(a), pack(b), rep)),
                    &|e| dot_reference(fmt, Format::BINARY32, acc, &a, &bl, e),
                );
                let halves = |dst: Format, acc: [u64; 2], e: &mut Env| {
                    let lo = dot_reference(fmt, dst, acc[0], &a[..2], &bl[..2], e);
                    lo | dot_reference(fmt, dst, acc[1], &a[2..], &bl[2..], e) << 16
                };
                let acc16 = [window::<5, 10>(&mut rng), window::<5, 10>(&mut rng)];
                tally(
                    &mut taken[1],
                    &format!("sdotp4 {} -> b16", fmt.name()),
                    packed(sdotp4::<E, M, 5, 10>(
                        (acc16[0] | acc16[1] << 16) as u32,
                        pack(a),
                        pack(b),
                        rep,
                    )),
                    &|e| halves(Format::BINARY16, acc16, e),
                );
                let acc16 = [window::<8, 7>(&mut rng), window::<8, 7>(&mut rng)];
                tally(
                    &mut taken[2],
                    &format!("sdotp4 {} -> b16alt", fmt.name()),
                    packed(sdotp4::<E, M, 8, 7>(
                        (acc16[0] | acc16[1] << 16) as u32,
                        pack(a),
                        pack(b),
                        rep,
                    )),
                    &|e| halves(Format::BINARY16ALT, acc16, e),
                );
            }
            for (i, t) in taken.into_iter().enumerate() {
                mostly_taken(&format!("{} leaf {i}", fmt.name()), t, N);
            }
        }
        lanes8::<5, 2>(Format::BINARY8);
        lanes8::<4, 3>(Format::BINARY8ALT);
    }

    #[test]
    fn cvt_widen_narrow_round_trip() {
        let mut e = env();
        for bits in [0u64, 0x3c00, 0x7bff, 0x0001, 0xfbff] {
            let wide = fast::cvt_f_f(Format::BINARY32, Format::BINARY16, bits, &mut e);
            assert_eq!(
                wide,
                ops::cvt_f_f(Format::BINARY32, Format::BINARY16, bits, &mut env())
            );
            let back = fast::cvt_f_f(Format::BINARY16, Format::BINARY32, wide, &mut e);
            assert_eq!(back, bits);
        }
    }
}
