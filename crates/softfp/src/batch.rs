//! Batched SIMD lane helpers: whole-register vector entry points.
//!
//! The simulator's Xfvec instructions operate on packed 32-bit FP registers
//! (2×16-bit or 4×8-bit lanes at `FLEN = 32`). These helpers take the packed
//! register(s), run every lane through the routing of [`crate::fast`]
//! (binary8 add/sub/mul/div through the exhaustive tables of
//! `crate::tables`, fetched **once** per vector op; other rounded lane ops
//! through the host-FPU leaves at round-to-nearest-even and [`crate::ops`]
//! otherwise), share a single [`Env`], and return the packed result with
//! all lanes' exception flags ORed into it.
//!
//! Lane semantics mirror the scalar reference exactly (the differential and
//! simulator test suites enforce this):
//!
//! * `rep` replicates operand lane 0 of `b` across all lanes (the `.R`
//!   vector-scalar instruction variants);
//! * [`LaneOp::Mac`] reads the addend lanes from the *original* destination
//!   register value;
//! * [`LaneCmp::Ne`] is quiet and true for unordered operands, and — like
//!   the interpreter's reference loop — does not consult `feq` (and thus
//!   raises no flag) when either operand is any NaN;
//! * the widening dot-product helpers convert lanes to the accumulator
//!   format exactly as the interpreter's scalar path does, discarding the
//!   conversion's flags, then chain single-rounding FMAs lane 0 first
//!   (FPnew SDOTP accumulation order). Under round-to-nearest-even the
//!   chain runs on the host FPU ([`crate::host`]'s `dotpex2`, `dotpex4` and
//!   `dot` leaves); when a step's result is subnormal, overflows, is not
//!   finite or sits on the double-rounding midpoint, the whole chain reruns
//!   one step at a time through [`fast::cvt_f_f`] and [`fast::fmadd`], so
//!   only the steps no leaf can round reach [`crate::ops`].
//!
//! The widening dot products are re-exported from [`crate::ops`] next to
//! the scalar entry points.

use crate::env::Env;
use crate::fast::{self, rne_or};
use crate::format::Format;
use crate::host;
use crate::kernels as k;
use crate::ops;
use crate::tables;

/// Two-operand (plus destination-addend) lane operation of the `vfop`
/// family, matching the simulator's `VfOp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// IEEE 754-2008 `minNum`
    Min,
    /// IEEE 754-2008 `maxNum`
    Max,
    /// Fused `a * b + d` where `d` is the destination lane
    Mac,
    /// Sign injection
    Sgnj,
    /// Negated sign injection
    Sgnjn,
    /// XORed sign injection
    Sgnjx,
}

/// Per-lane comparison predicate, matching the simulator's `VCmpOp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneCmp {
    /// Quiet equality
    Eq,
    /// Quiet inequality (true for unordered)
    Ne,
    /// Signaling less-than
    Lt,
    /// Signaling less-or-equal
    Le,
    /// Signaling greater-than
    Gt,
    /// Signaling greater-or-equal
    Ge,
}

// ---------------------------------------------------------------------------
// Lane extraction
// ---------------------------------------------------------------------------

#[inline(always)]
fn lo16(v: u32) -> u64 {
    (v & 0xffff) as u64
}

#[inline(always)]
fn hi16(v: u32) -> u64 {
    (v >> 16) as u64
}

#[inline(always)]
fn pack16(lo: u64, hi: u64) -> u32 {
    (lo as u32 & 0xffff) | ((hi as u32) << 16)
}

#[inline(always)]
fn lane8(v: u32, i: u32) -> u64 {
    ((v >> (8 * i)) & 0xff) as u64
}

#[inline(always)]
fn pack8(l: [u64; 4]) -> u32 {
    (l[0] as u32 & 0xff)
        | ((l[1] as u32 & 0xff) << 8)
        | ((l[2] as u32 & 0xff) << 16)
        | ((l[3] as u32) << 24)
}

// ---------------------------------------------------------------------------
// vfop: two 16-bit lanes and four 8-bit lanes
// ---------------------------------------------------------------------------

/// One lane of `op` in `fmt` through [`crate::fast`]'s routing.
#[inline(always)]
fn lane_op(fmt: Format, op: LaneOp, a: u64, b: u64, d: u64, env: &mut Env) -> u64 {
    match op {
        LaneOp::Add => fast::add(fmt, a, b, env),
        LaneOp::Sub => fast::sub(fmt, a, b, env),
        LaneOp::Mul => fast::mul(fmt, a, b, env),
        LaneOp::Div => fast::div(fmt, a, b, env),
        LaneOp::Min => fast::fmin(fmt, a, b, env),
        LaneOp::Max => fast::fmax(fmt, a, b, env),
        LaneOp::Mac => fast::fmadd(fmt, a, b, d, env),
        LaneOp::Sgnj => fast::fsgnj(fmt, a, b),
        LaneOp::Sgnjn => fast::fsgnjn(fmt, a, b),
        LaneOp::Sgnjx => fast::fsgnjx(fmt, a, b),
    }
}

#[inline(always)]
fn vfop2(fmt: Format, op: LaneOp, va: u32, vb: u32, vd: u32, rep: bool, env: &mut Env) -> u32 {
    let b0 = lo16(vb);
    let b1 = if rep { b0 } else { hi16(vb) };
    let r0 = lane_op(fmt, op, lo16(va), b0, lo16(vd), env);
    let r1 = lane_op(fmt, op, hi16(va), b1, hi16(vd), env);
    pack16(r0, r1)
}

/// `vfop` on two binary16 lanes. `vd` supplies the addend lanes for
/// [`LaneOp::Mac`] (ignored otherwise).
#[inline]
pub fn vfop2_f16(op: LaneOp, va: u32, vb: u32, vd: u32, rep: bool, env: &mut Env) -> u32 {
    vfop2(Format::BINARY16, op, va, vb, vd, rep, env)
}

/// `vfop` on two binary16alt lanes.
#[inline]
pub fn vfop2_f16alt(op: LaneOp, va: u32, vb: u32, vd: u32, rep: bool, env: &mut Env) -> u32 {
    vfop2(Format::BINARY16ALT, op, va, vb, vd, rep, env)
}

/// One 8-bit lane of `fmt` (`binary8` E5M2 or `binary8alt` E4M3), with
/// the format a constant in each arm.
#[inline(always)]
fn lane_op_8(fmt: Format, op: LaneOp, a: u64, b: u64, d: u64, env: &mut Env) -> u64 {
    if fmt == Format::BINARY8ALT {
        lane_op(Format::BINARY8ALT, op, a, b, d, env)
    } else {
        lane_op(Format::BINARY8, op, a, b, d, env)
    }
}

/// `vfop` on four 8-bit lanes of `fmt` (`binary8` or `binary8alt`).
/// Add/sub/mul/div fetch the exhaustive lookup table once and do four O(1)
/// loads; the remaining ops go lane by lane through [`crate::fast`].
#[inline]
pub fn vfop4_f8(
    fmt: Format,
    op: LaneOp,
    va: u32,
    vb: u32,
    vd: u32,
    rep: bool,
    env: &mut Env,
) -> u32 {
    let bl = |i: u32| -> u64 {
        if rep {
            lane8(vb, 0)
        } else {
            lane8(vb, i)
        }
    };
    match op {
        LaneOp::Add | LaneOp::Sub | LaneOp::Mul | LaneOp::Div => {
            let (t, bflip) = match op {
                LaneOp::Add => (tables::add_table(fmt, env.rm), 0u64),
                LaneOp::Sub => (tables::add_table(fmt, env.rm), 0x80),
                LaneOp::Mul => (tables::mul_table(fmt, env.rm), 0),
                _ => (tables::div_table(fmt, env.rm), 0),
            };
            pack8([
                tables::bin_lookup(t, lane8(va, 0), bl(0) ^ bflip, env),
                tables::bin_lookup(t, lane8(va, 1), bl(1) ^ bflip, env),
                tables::bin_lookup(t, lane8(va, 2), bl(2) ^ bflip, env),
                tables::bin_lookup(t, lane8(va, 3), bl(3) ^ bflip, env),
            ])
        }
        _ => pack8([
            lane_op_8(fmt, op, lane8(va, 0), bl(0), lane8(vd, 0), env),
            lane_op_8(fmt, op, lane8(va, 1), bl(1), lane8(vd, 1), env),
            lane_op_8(fmt, op, lane8(va, 2), bl(2), lane8(vd, 2), env),
            lane_op_8(fmt, op, lane8(va, 3), bl(3), lane8(vd, 3), env),
        ]),
    }
}

// ---------------------------------------------------------------------------
// Vector comparisons (lane mask results)
// ---------------------------------------------------------------------------

#[inline(always)]
fn lane_cmp_k<const E: u32, const M: u32>(op: LaneCmp, a: u64, b: u64, env: &mut Env) -> bool {
    match op {
        LaneCmp::Eq => k::feq::<E, M>(a, b, env),
        LaneCmp::Ne => {
            // NaN != x is true (IEEE unordered), quiet like feq. The
            // short-circuit skips feq for NaN operands, matching the
            // interpreter's reference loop flag-for-flag.
            let nan = k::is_nan_bits::<E, M>(a) || k::is_nan_bits::<E, M>(b);
            nan || !k::feq::<E, M>(a, b, env)
        }
        LaneCmp::Lt => k::flt::<E, M>(a, b, env),
        LaneCmp::Le => k::fle::<E, M>(a, b, env),
        LaneCmp::Gt => k::flt::<E, M>(b, a, env),
        LaneCmp::Ge => k::fle::<E, M>(b, a, env),
    }
}

#[inline(always)]
fn vcmp2<const E: u32, const M: u32>(
    op: LaneCmp,
    va: u32,
    vb: u32,
    rep: bool,
    env: &mut Env,
) -> u32 {
    let b0 = lo16(vb);
    let b1 = if rep { b0 } else { hi16(vb) };
    u32::from(lane_cmp_k::<E, M>(op, lo16(va), b0, env))
        | (u32::from(lane_cmp_k::<E, M>(op, hi16(va), b1, env)) << 1)
}

/// Lane-mask comparison of two binary16 lanes (bit `i` = lane `i` result).
#[inline]
pub fn vcmp2_f16(op: LaneCmp, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    vcmp2::<5, 10>(op, va, vb, rep, env)
}

/// Lane-mask comparison of two binary16alt lanes.
#[inline]
pub fn vcmp2_f16alt(op: LaneCmp, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    vcmp2::<8, 7>(op, va, vb, rep, env)
}

/// Lane-mask comparison of four 8-bit lanes of `fmt`.
#[inline]
pub fn vcmp4_f8(fmt: Format, op: LaneCmp, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    let mut mask = 0u32;
    let mut i = 0;
    while i < 4 {
        let b = if rep { lane8(vb, 0) } else { lane8(vb, i) };
        let r = if fmt == Format::BINARY8ALT {
            lane_cmp_k::<4, 3>(op, lane8(va, i), b, env)
        } else {
            lane_cmp_k::<5, 2>(op, lane8(va, i), b, env)
        };
        mask |= u32::from(r) << i;
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Vector sqrt
// ---------------------------------------------------------------------------

/// Square root of two binary16 lanes.
#[inline]
pub fn vsqrt2_f16(va: u32, env: &mut Env) -> u32 {
    let f = Format::BINARY16;
    pack16(fast::sqrt(f, lo16(va), env), fast::sqrt(f, hi16(va), env))
}

/// Square root of two binary16alt lanes.
#[inline]
pub fn vsqrt2_f16alt(va: u32, env: &mut Env) -> u32 {
    let f = Format::BINARY16ALT;
    pack16(fast::sqrt(f, lo16(va), env), fast::sqrt(f, hi16(va), env))
}

/// Square root of four 8-bit lanes of `fmt` (table-driven).
#[inline]
pub fn vsqrt4_f8(fmt: Format, va: u32, env: &mut Env) -> u32 {
    pack8([
        tables::sqrt(fmt, lane8(va, 0), env),
        tables::sqrt(fmt, lane8(va, 1), env),
        tables::sqrt(fmt, lane8(va, 2), env),
        tables::sqrt(fmt, lane8(va, 3), env),
    ])
}

// ---------------------------------------------------------------------------
// Vector conversions
// ---------------------------------------------------------------------------

/// Same-width float-to-float conversion of two 16-bit lanes
/// (binary16 ↔ binary16alt, or identity).
#[inline]
pub fn vcvt2_ff(dst: Format, src: Format, va: u32, env: &mut Env) -> u32 {
    pack16(
        fast::cvt_f_f(dst, src, lo16(va), env),
        fast::cvt_f_f(dst, src, hi16(va), env),
    )
}

/// Float-to-float conversion of four 8-bit lanes (binary8 → binary8).
#[inline]
pub fn vcvt4_ff(dst: Format, src: Format, va: u32, env: &mut Env) -> u32 {
    pack8([
        fast::cvt_f_f(dst, src, lane8(va, 0), env),
        fast::cvt_f_f(dst, src, lane8(va, 1), env),
        fast::cvt_f_f(dst, src, lane8(va, 2), env),
        fast::cvt_f_f(dst, src, lane8(va, 3), env),
    ])
}

#[inline(always)]
fn sext_lane(v: u32, bits: u32) -> u32 {
    (((v << (32 - bits)) as i32) >> (32 - bits)) as u32
}

/// Float-to-integer conversion of two 16-bit lanes of `fmt` into two 16-bit
/// integer lanes (clamping, `NV` on NaN/out-of-range as in `ops::to_int`).
#[inline]
pub fn vcvt2_x_f(fmt: Format, va: u32, signed: bool, env: &mut Env) -> u32 {
    let r0 = ops::to_int(fmt, lo16(va), signed, 16, env);
    let r1 = ops::to_int(fmt, hi16(va), signed, 16, env);
    pack16(r0 & 0xffff, r1 & 0xffff)
}

/// Float-to-integer conversion of four 8-bit lanes of `fmt` into 8-bit
/// integer lanes.
#[inline]
pub fn vcvt4_x_f8(fmt: Format, va: u32, signed: bool, env: &mut Env) -> u32 {
    pack8([
        ops::to_int(fmt, lane8(va, 0), signed, 8, env) & 0xff,
        ops::to_int(fmt, lane8(va, 1), signed, 8, env) & 0xff,
        ops::to_int(fmt, lane8(va, 2), signed, 8, env) & 0xff,
        ops::to_int(fmt, lane8(va, 3), signed, 8, env) & 0xff,
    ])
}

/// Integer-to-float conversion of two 16-bit integer lanes into `fmt`.
#[inline]
pub fn vcvt2_f_x(fmt: Format, va: u32, signed: bool, env: &mut Env) -> u32 {
    let cv = |raw: u32, env: &mut Env| -> u64 {
        if signed {
            ops::from_i64(fmt, sext_lane(raw, 16) as i32 as i64, env)
        } else {
            ops::from_u64(fmt, raw as u64, env)
        }
    };
    let r0 = cv(lo16(va) as u32, env);
    let r1 = cv(hi16(va) as u32, env);
    pack16(r0, r1)
}

/// Integer-to-float conversion of four 8-bit integer lanes into `fmt`.
#[inline]
pub fn vcvt4_f8_x(fmt: Format, va: u32, signed: bool, env: &mut Env) -> u32 {
    let cv = |raw: u32, env: &mut Env| -> u64 {
        if signed {
            ops::from_i64(fmt, sext_lane(raw, 8) as i32 as i64, env)
        } else {
            ops::from_u64(fmt, raw as u64, env)
        }
    };
    let l = [
        cv(lane8(va, 0) as u32, env),
        cv(lane8(va, 1) as u32, env),
        cv(lane8(va, 2) as u32, env),
        cv(lane8(va, 3) as u32, env),
    ];
    pack8(l)
}

// ---------------------------------------------------------------------------
// Widening dot-product accumulate (vfdotpex)
// ---------------------------------------------------------------------------

/// The dot-product chain off the host path: `src` lanes widened exactly to
/// `dst` (flags discarded), then one fused multiply-add per lane pair into
/// `acc`, lane 0 first, each step routed by [`crate::fast`].
fn dot_chain(src: Format, dst: Format, acc: u64, a: &[u64], b: &[u64], env: &mut Env) -> u64 {
    let rm = env.rm;
    let up = |v: u64| fast::cvt_f_f(dst, src, v, &mut Env::new(rm));
    a.iter()
        .zip(b)
        .fold(acc, |t, (&x, &y)| fast::fmadd(dst, up(x), up(y), t, env))
}

/// Lane `i` of `vb`, or lane 0 under `rep`.
#[inline(always)]
fn b_lane8(vb: u32, i: u32, rep: bool) -> u64 {
    lane8(vb, if rep { 0 } else { i })
}

macro_rules! dotpex2 {
    ($name:ident, $fmt:expr, $se:literal, $sm:literal, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Accumulates both lane products into the binary32 accumulator,
        /// lane 0 first, each step a single-rounding FMA (FPnew SDOTP
        /// order). Lane widening is exact; its (at most `NV`-on-sNaN) flags
        /// are discarded, matching the interpreter's scalar widening path.
        /// Under round-to-nearest-even the lanes widen straight to `f64`
        /// and the chain runs on the host FPU; if any step falls back, the
        /// whole op reruns step by step through [`crate::fast`].
        #[inline]
        pub fn $name(acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
            let leaf = || host::dotpex2::<$se, $sm>(acc, va, vb, rep);
            rne_or(env, leaf, |env| {
                let b1 = if rep { lo16(vb) } else { hi16(vb) };
                let (a, b) = ([lo16(va), hi16(va)], [lo16(vb), b1]);
                dot_chain($fmt, Format::BINARY32, u64::from(acc), &a, &b, env) as u32
            })
        }
    };
}

dotpex2!(
    vdotpex2_f16,
    Format::BINARY16,
    5,
    10,
    "Widening dot-product accumulate of two binary16 lane pairs into a binary32 accumulator."
);
dotpex2!(
    vdotpex2_f16alt,
    Format::BINARY16ALT,
    8,
    7,
    "Widening dot-product accumulate of two binary16alt lane pairs into a binary32 accumulator."
);

/// Widening dot-product accumulate of four 8-bit lane pairs of `fmt` into
/// a binary32 accumulator (lane 0 first, single-rounding FMA chain; exact
/// widening flags discarded as in the interpreter's scalar path). The
/// host chain and its fallback are those of [`vdotpex2_f16`].
#[inline]
pub fn vdotpex4_f8(fmt: Format, acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    let leaf = || {
        if fmt == Format::BINARY8 {
            host::dotpex4::<5, 2>(acc, va, vb, rep)
        } else if fmt == Format::BINARY8ALT {
            host::dotpex4::<4, 3>(acc, va, vb, rep)
        } else {
            None
        }
    };
    rne_or(env, leaf, |env| {
        let a = [0, 1, 2, 3].map(|i| lane8(va, i));
        let b = [0, 1, 2, 3].map(|i| b_lane8(vb, i, rep));
        dot_chain(fmt, Format::BINARY32, u64::from(acc), &a, &b, env) as u32
    })
}

// ---------------------------------------------------------------------------
// Expanding sum-of-dot-products (vfsdotpex, MiniFloat-NN ExSdotp shape)
// ---------------------------------------------------------------------------

/// Expanding sum-of-dot-products of two 16-bit lane pairs into the single
/// binary32 destination lane: `rd = rd + a0*b0 + a1*b1`, accumulated in
/// binary32 (lane 0 first, single-rounding FMA chain). At `FLEN = 32` the
/// 16-bit source shape has exactly one doubled-width destination lane, so
/// the computation coincides with [`vdotpex2_f16`].
#[inline]
pub fn vsdotp2_f16(acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    vdotpex2_f16(acc, va, vb, rep, env)
}

/// Expanding sum-of-dot-products of two binary16alt lane pairs into the
/// binary32 destination lane (see [`vsdotp2_f16`]).
#[inline]
pub fn vsdotp2_f16alt(acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    vdotpex2_f16alt(acc, va, vb, rep, env)
}

/// Expanding sum-of-dot-products of four 8-bit lanes of `fmt` into **two**
/// 16-bit destination lanes of `wide` (`binary16` or `binary16alt`):
///
/// ```text
/// rd16[0] = rd16[0] + a[0]*b[0] + a[1]*b[1]
/// rd16[1] = rd16[1] + a[2]*b[2] + a[3]*b[3]
/// ```
///
/// Source lanes widen to `wide` exactly (both E5M2 and E4M3 products are
/// representable there; the widening's at-most-NV-on-sNaN flags are
/// discarded as in the scalar widening path); each destination lane then
/// chains two single-rounding FMAs in `wide`, even source lane first.
/// `rep` replicates `b` lane 0 across all products (the `.r` variant).
/// Under round-to-nearest-even each destination lane's chain runs on the
/// host FPU as in [`vdotpex2_f16`]; the two chains are independent, so
/// each falls back on its own.
#[inline]
pub fn vsdotp4_f8(
    fmt: Format,
    wide: Format,
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
    env: &mut Env,
) -> u32 {
    let half = |lo: u32, acc16: u64, env: &mut Env| -> u64 {
        let (a, b) = (
            [lane8(va, lo), lane8(va, lo + 1)],
            [b_lane8(vb, lo, rep), b_lane8(vb, lo + 1, rep)],
        );
        let leaf = || match (fmt == Format::BINARY8ALT, wide == Format::BINARY16ALT) {
            (false, false) => host::dot::<5, 2, 5, 10, 2>(acc16, a, b),
            (false, true) => host::dot::<5, 2, 8, 7, 2>(acc16, a, b),
            (true, false) => host::dot::<4, 3, 5, 10, 2>(acc16, a, b),
            (true, true) => host::dot::<4, 3, 8, 7, 2>(acc16, a, b),
        };
        rne_or(env, leaf, |env| dot_chain(fmt, wide, acc16, &a, &b, env))
    };
    let r0 = half(0, lo16(acc), env);
    let r1 = half(2, hi16(acc), env);
    pack16(r0, r1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Rounding;

    fn env() -> Env {
        Env::new(Rounding::Rne)
    }

    #[test]
    fn vfop2_matches_scalar_lanes() {
        let va = 0x4000_3c00; // [1.0, 2.0]
        let vb = 0x3c00_4200; // [3.0, 1.0]
        let mut e = env();
        let sum = vfop2_f16(LaneOp::Add, va, vb, 0, false, &mut e);
        let mut es = env();
        let lo = ops::add(Format::BINARY16, 0x3c00, 0x4200, &mut es);
        let hi = ops::add(Format::BINARY16, 0x4000, 0x3c00, &mut es);
        assert_eq!(sum, (hi as u32) << 16 | lo as u32);
        assert_eq!(e.flags, es.flags);
    }

    #[test]
    fn rep_replicates_lane0() {
        let va = 0x4400_4200; // [3.0, 4.0]
        let vb = 0xdead_3c00; // lane0 = 1.0, lane1 = garbage (ignored)
        let mut e = env();
        let r = vfop2_f16(LaneOp::Add, va, vb, 0, true, &mut e);
        assert_eq!(r & 0xffff, 0x4400); // 3+1
        assert_eq!(r >> 16, 0x4500); // 4+1
        assert!(e.flags.is_empty());
    }

    #[test]
    fn mac_uses_original_destination_lanes() {
        let va = 0x3c3c_3c3c; // four 1.0_b8
        let vb = 0x3c3c_3c3c;
        let vd = 0x40_3c_40_3c; // [1, 2, 1, 2]
        let mut e = env();
        let r = vfop4_f8(Format::BINARY8, LaneOp::Mac, va, vb, vd, false, &mut e);
        assert_eq!(r, 0x42_40_42_40); // [2, 3, 2, 3]
    }

    #[test]
    fn sdotp4_accumulates_per_pair() {
        // binary8alt lanes [1, 2, 3, 4] · [1, 1, 1, 1], acc16 = [0, 0]:
        // lane pair 0 → 1*1 + 2*1 = 3, lane pair 1 → 3*1 + 4*1 = 7.
        let one = 0x38u32; // 1.0 E4M3
        let va = 0x48_44_40_38; // [1, 2, 3, 4]
        let vb = one | one << 8 | one << 16 | one << 24;
        let mut e = env();
        let r = vsdotp4_f8(
            Format::BINARY8ALT,
            Format::BINARY16,
            0,
            va,
            vb,
            false,
            &mut e,
        );
        assert_eq!(r & 0xffff, 0x4200); // 3.0 b16
        assert_eq!(r >> 16, 0x4700); // 7.0 b16
        assert!(e.flags.is_empty());
    }

    #[test]
    fn ne_is_quiet_for_nan() {
        // qNaN lane: Ne must report true without raising NV.
        let va = 0x7e00_3c00;
        let vb = 0x3c00_3c00;
        let mut e = env();
        let mask = vcmp2_f16(LaneCmp::Ne, va, vb, false, &mut e);
        assert_eq!(mask, 0b10);
        assert!(e.flags.is_empty());
    }

    #[test]
    fn dotp_matches_reference_chain() {
        let va = 0x4000_3c00; // [1.0, 2.0] b16
        let vb = 0x4200_4400; // [4.0, 3.0] b16
        let acc = 1f32.to_bits();
        let mut e = env();
        let r = vdotpex2_f16(acc, va, vb, false, &mut e);
        // 1*4 + 2*3 + 1 = 11
        assert_eq!(f32::from_bits(r), 11.0);
        assert!(e.flags.is_empty());
    }
}
