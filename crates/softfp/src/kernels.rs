//! Monomorphized fast-path kernels for the concrete small formats.
//!
//! These are const-generic copies of the algorithms in [`crate::ops`],
//! instantiated once per format (`binary8`, `binary16`, `binary16alt`,
//! `binary32`). Two things make them faster than the generic reference:
//!
//! * every [`crate::Format`] quantity — masks, field widths, bias, guard
//!   shifts — is a compile-time constant per instantiation, so the field
//!   loads and shift-amount computations of the generic path constant-fold;
//! * significands are carried in `u64` instead of `u128`: with at most 23
//!   mantissa bits, products (≤48 bits), quotients (≤51 bits) and exactly
//!   aligned FMA sums (<2^63, see [`fma`]) all fit, avoiding 128-bit shifts
//!   and the `u128` division libcall.
//!
//! The generic functions in [`crate::ops`] remain the reference
//! implementation and the fallback for exotic layouts; the differential
//! suites in `crates/softfp/tests/fastpath_*.rs` prove these kernels bit-
//! and flag-identical to it (exhaustively for binary8 and for 16-bit unary
//! ops, sampled with replayable seeds for 16/32-bit binary ops).
//!
//! Instantiations are only valid for `M <= 23` and `E <= 11` (the `u64`
//! headroom arguments above assume it); the dispatch layer in
//! [`crate::fast`] only ever instantiates the four paper formats.

use crate::env::{Env, Flags, Rounding};

// ---------------------------------------------------------------------------
// Per-instantiation constants (all fold once E/M are const generics)
// ---------------------------------------------------------------------------

#[inline(always)]
fn width<const E: u32, const M: u32>() -> u32 {
    1 + E + M
}

#[inline(always)]
fn mask<const E: u32, const M: u32>() -> u64 {
    // Shift down rather than up so the binary64 source of
    // `fast::from_f64` (width 64) gets a full mask.
    u64::MAX >> (64 - width::<E, M>())
}

#[inline(always)]
fn sign_bit<const E: u32, const M: u32>() -> u64 {
    1u64 << (E + M)
}

#[inline(always)]
fn man_mask<const M: u32>() -> u64 {
    (1u64 << M) - 1
}

#[inline(always)]
fn exp_field_max<const E: u32>() -> u64 {
    (1u64 << E) - 1
}

#[inline(always)]
fn bias<const E: u32>() -> i32 {
    (1i32 << (E - 1)) - 1
}

#[inline(always)]
fn emin<const E: u32>() -> i32 {
    1 - bias::<E>()
}

#[inline(always)]
pub(crate) fn quiet_nan<const E: u32, const M: u32>() -> u64 {
    (exp_field_max::<E>() << M) | (1u64 << (M - 1))
}

#[inline(always)]
fn infinity<const E: u32, const M: u32>(negative: bool) -> u64 {
    let inf = exp_field_max::<E>() << M;
    if negative {
        inf | sign_bit::<E, M>()
    } else {
        inf
    }
}

#[inline(always)]
fn zero<const E: u32, const M: u32>(negative: bool) -> u64 {
    if negative {
        sign_bit::<E, M>()
    } else {
        0
    }
}

#[inline(always)]
fn max_finite<const E: u32, const M: u32>(negative: bool) -> u64 {
    let v = ((exp_field_max::<E>() - 1) << M) | man_mask::<M>();
    if negative {
        v | sign_bit::<E, M>()
    } else {
        v
    }
}

/// Flip the sign bit (monomorphized `Format::negate`).
#[inline(always)]
pub(crate) fn negate<const E: u32, const M: u32>(bits: u64) -> u64 {
    (bits ^ sign_bit::<E, M>()) & mask::<E, M>()
}

/// True if the bit pattern encodes any NaN.
#[inline(always)]
pub(crate) fn is_nan_bits<const E: u32, const M: u32>(bits: u64) -> bool {
    let bits = bits & mask::<E, M>();
    let exp = (bits >> M) & exp_field_max::<E>();
    exp == exp_field_max::<E>() && bits & man_mask::<M>() != 0
}

#[inline(always)]
fn is_snan_bits<const E: u32, const M: u32>(bits: u64) -> bool {
    is_nan_bits::<E, M>(bits) && bits & (1u64 << (M - 1)) == 0
}

// ---------------------------------------------------------------------------
// Unpacking (u64 significands)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cls {
    Zero,
    Finite,
    Inf,
    QNan,
    SNan,
}

#[derive(Clone, Copy)]
struct Un {
    sign: bool,
    cls: Cls,
    exp: i32,
    sig: u64,
}

impl Un {
    #[inline(always)]
    fn is_nan(&self) -> bool {
        matches!(self.cls, Cls::QNan | Cls::SNan)
    }
    #[inline(always)]
    fn is_snan(&self) -> bool {
        self.cls == Cls::SNan
    }
    #[inline(always)]
    fn is_zero(&self) -> bool {
        self.cls == Cls::Zero
    }
    #[inline(always)]
    fn is_inf(&self) -> bool {
        self.cls == Cls::Inf
    }
}

#[inline(always)]
fn unpack_k<const E: u32, const M: u32>(bits: u64) -> Un {
    let bits = bits & mask::<E, M>();
    let sign = bits & sign_bit::<E, M>() != 0;
    let exp_field = (bits >> M) & exp_field_max::<E>();
    let man_field = bits & man_mask::<M>();
    if exp_field == exp_field_max::<E>() {
        let cls = if man_field == 0 {
            Cls::Inf
        } else if man_field & (1u64 << (M - 1)) != 0 {
            Cls::QNan
        } else {
            Cls::SNan
        };
        Un {
            sign,
            cls,
            exp: 0,
            sig: man_field,
        }
    } else if exp_field == 0 {
        if man_field == 0 {
            Un {
                sign,
                cls: Cls::Zero,
                exp: 0,
                sig: 0,
            }
        } else {
            let lead = 63 - man_field.leading_zeros();
            let shift = M - lead;
            Un {
                sign,
                cls: Cls::Finite,
                exp: emin::<E>() - shift as i32,
                sig: man_field << shift,
            }
        }
    } else {
        Un {
            sign,
            cls: Cls::Finite,
            exp: exp_field as i32 - bias::<E>(),
            sig: man_field | (1u64 << M),
        }
    }
}

#[inline(always)]
fn nan_result<const E: u32, const M: u32>(any_snan: bool, flags: &mut Flags) -> u64 {
    if any_snan {
        flags.set(Flags::NV);
    }
    quiet_nan::<E, M>()
}

// ---------------------------------------------------------------------------
// Rounding (u64 significands)
// ---------------------------------------------------------------------------

/// Shift right with sticky LSB ("jamming"); `n` may exceed 63.
#[inline(always)]
fn shift_right_jam64(m: u64, n: u32) -> u64 {
    if n == 0 {
        m
    } else if n > 63 {
        u64::from(m != 0)
    } else {
        let lost = m & ((1u64 << n) - 1);
        (m >> n) | u64::from(lost != 0)
    }
}

#[inline(always)]
fn round_increment(rm: Rounding, sign: bool, rem: u64, half: u64, lsb_odd: bool) -> bool {
    if rem == 0 {
        return false;
    }
    match rm {
        Rounding::Rne => rem > half || (rem == half && lsb_odd),
        Rounding::Rmm => rem >= half,
        Rounding::Rtz => false,
        Rounding::Rdn => sign,
        Rounding::Rup => !sign,
    }
}

/// Monomorphized `round_pack`: round `(-1)^sign * m * 2^e` into the format.
/// `m` must be below `2^63` (callers guarantee it; see module docs).
#[inline(always)]
fn round_pack_k<const E: u32, const M: u32>(
    sign: bool,
    e: i32,
    m: u64,
    rm: Rounding,
    flags: &mut Flags,
) -> u64 {
    debug_assert!(m < 1u64 << 63, "kernel significand overflow");
    if m == 0 {
        return zero::<E, M>(sign);
    }
    let man = M as i32;
    let h = 63 - m.leading_zeros() as i32;
    let e0 = e + h;
    let mut e_real = e0;

    // Rounding with unbounded exponent range (p = M+1 bits kept).
    let shift = h - man;
    let (mut sig, rem, half) = if shift <= 0 {
        (m << (-shift) as u32, 0u64, 0u64)
    } else {
        let s = shift as u32;
        (m >> s, m & ((1u64 << s) - 1), 1u64 << (s - 1))
    };
    let inexact = rem != 0;
    if round_increment(rm, sign, rem, half, sig & 1 == 1) {
        sig += 1;
        if sig >> (M + 1) != 0 {
            sig >>= 1;
            e_real += 1;
        }
    }

    // Overflow.
    if e_real > bias::<E>() {
        flags.set(Flags::OF | Flags::NX);
        let to_inf = match rm {
            Rounding::Rne | Rounding::Rmm => true,
            Rounding::Rtz => false,
            Rounding::Rdn => sign,
            Rounding::Rup => !sign,
        };
        return if to_inf {
            infinity::<E, M>(sign)
        } else {
            max_finite::<E, M>(sign)
        };
    }

    // Normal result.
    if e_real >= emin::<E>() {
        if inexact {
            flags.set(Flags::NX);
        }
        let exp_field = (e_real + bias::<E>()) as u64;
        let bits = (exp_field << M) | (sig & man_mask::<M>());
        return if sign {
            bits | sign_bit::<E, M>()
        } else {
            bits
        };
    }

    // Subnormal range: re-round the original m with the LSB weight pinned at
    // 2^(emin - M), mirroring the reference's double-rounding-free path.
    let target_e = emin::<E>() - man;
    let shift2 = target_e - e;
    let (mut sig2, rem2, half2) = if shift2 <= 0 {
        (m << (-shift2) as u32, 0u64, 0u64)
    } else if shift2 > 63 {
        (0u64, m, u64::MAX)
    } else {
        let s = shift2 as u32;
        (m >> s, m & ((1u64 << s) - 1), 1u64 << (s - 1))
    };
    let inc = if half2 == u64::MAX {
        // Fully shifted out: v < 2^target_e; compare against half an ULP via
        // the exact floor exponent (same reasoning as the reference).
        let v_ge_half = e0 == target_e - 1;
        let v_gt_half = v_ge_half && m.count_ones() > 1;
        match rm {
            Rounding::Rne => v_gt_half,
            Rounding::Rmm => v_ge_half,
            Rounding::Rtz => false,
            Rounding::Rdn => sign,
            Rounding::Rup => !sign,
        }
    } else {
        round_increment(rm, sign, rem2, half2, sig2 & 1 == 1)
    };
    if inc {
        sig2 += 1;
    }
    if rem2 != 0 {
        flags.set(Flags::NX | Flags::UF);
    }
    debug_assert!(sig2 <= 1u64 << M);
    if sign {
        sig2 | sign_bit::<E, M>()
    } else {
        sig2
    }
}

// ---------------------------------------------------------------------------
// Addition / subtraction
// ---------------------------------------------------------------------------

/// Monomorphized `a + b`.
#[inline]
pub(crate) fn add<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack_k::<E, M>(a);
    let ub = unpack_k::<E, M>(b);
    if ua.is_nan() || ub.is_nan() {
        return nan_result::<E, M>(ua.is_snan() || ub.is_snan(), &mut env.flags);
    }
    match (ua.is_inf(), ub.is_inf()) {
        (true, true) => {
            if ua.sign == ub.sign {
                infinity::<E, M>(ua.sign)
            } else {
                env.flags.set(Flags::NV);
                quiet_nan::<E, M>()
            }
        }
        (true, false) => infinity::<E, M>(ua.sign),
        (false, true) => infinity::<E, M>(ub.sign),
        (false, false) => {
            if ua.is_zero() && ub.is_zero() {
                if ua.sign == ub.sign {
                    zero::<E, M>(ua.sign)
                } else {
                    zero::<E, M>(env.rm == Rounding::Rdn)
                }
            } else if ua.is_zero() {
                b & mask::<E, M>()
            } else if ub.is_zero() {
                a & mask::<E, M>()
            } else {
                add_finite_k::<E, M>(&ua, &ub, env)
            }
        }
    }
}

/// Monomorphized `a - b`.
#[inline]
pub(crate) fn sub<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    add::<E, M>(a, negate::<E, M>(b), env)
}

#[inline(always)]
fn add_finite_k<const E: u32, const M: u32>(ua: &Un, ub: &Un, env: &mut Env) -> u64 {
    let man = M as i32;
    let (hi, lo) = if (ua.exp, ua.sig) >= (ub.exp, ub.sig) {
        (ua, ub)
    } else {
        (ub, ua)
    };
    const G: u32 = 3; // guard bits
    let d = (hi.exp - lo.exp) as u32;
    let mhi = hi.sig << G;
    let mlo = shift_right_jam64(lo.sig << G, d);
    let e = hi.exp - man - G as i32;
    if hi.sign == lo.sign {
        round_pack_k::<E, M>(hi.sign, e, mhi + mlo, env.rm, &mut env.flags)
    } else {
        let diff = mhi - mlo; // mhi >= mlo by the magnitude ordering
        if diff == 0 {
            return zero::<E, M>(env.rm == Rounding::Rdn);
        }
        round_pack_k::<E, M>(hi.sign, e, diff, env.rm, &mut env.flags)
    }
}

// ---------------------------------------------------------------------------
// Multiplication / division / square root
// ---------------------------------------------------------------------------

/// Monomorphized `a * b`.
#[inline]
pub(crate) fn mul<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack_k::<E, M>(a);
    let ub = unpack_k::<E, M>(b);
    let sign = ua.sign ^ ub.sign;
    if ua.is_nan() || ub.is_nan() {
        return nan_result::<E, M>(ua.is_snan() || ub.is_snan(), &mut env.flags);
    }
    if ua.is_inf() || ub.is_inf() {
        if ua.is_zero() || ub.is_zero() {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        return infinity::<E, M>(sign);
    }
    if ua.is_zero() || ub.is_zero() {
        return zero::<E, M>(sign);
    }
    let man = M as i32;
    // Both significands are <= 2^(M+1): the product fits in 2M+2 <= 48 bits.
    let m = ua.sig * ub.sig;
    round_pack_k::<E, M>(sign, ua.exp + ub.exp - 2 * man, m, env.rm, &mut env.flags)
}

/// Monomorphized `a / b`.
#[inline]
pub(crate) fn div<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack_k::<E, M>(a);
    let ub = unpack_k::<E, M>(b);
    let sign = ua.sign ^ ub.sign;
    if ua.is_nan() || ub.is_nan() {
        return nan_result::<E, M>(ua.is_snan() || ub.is_snan(), &mut env.flags);
    }
    match (ua.is_inf(), ub.is_inf()) {
        (true, true) => {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        (true, false) => return infinity::<E, M>(sign),
        (false, true) => return zero::<E, M>(sign),
        (false, false) => {}
    }
    if ub.is_zero() {
        if ua.is_zero() {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        env.flags.set(Flags::DZ);
        return infinity::<E, M>(sign);
    }
    if ua.is_zero() {
        return zero::<E, M>(sign);
    }
    // Numerator <= 2^(2M+5) <= 2^51: a single u64 division suffices where
    // the generic path pays a u128 libcall.
    let k = M + 4;
    let num = ua.sig << k;
    let q = num / ub.sig;
    let r = num % ub.sig;
    let m = (q << 1) | u64::from(r != 0);
    let e = ua.exp - ub.exp - k as i32 - 1;
    round_pack_k::<E, M>(sign, e, m, env.rm, &mut env.flags)
}

/// Integer square root of a `u64`, with remainder-nonzero indicator.
#[inline(always)]
fn isqrt_u64(v: u64) -> (u64, bool) {
    if v == 0 {
        return (0, false);
    }
    let mut x = v;
    let mut result: u64 = 0;
    let mut bit: u64 = 1 << ((63 - v.leading_zeros()) & !1);
    while bit != 0 {
        if x >= result + bit {
            x -= result + bit;
            result = (result >> 1) + bit;
        } else {
            result >>= 1;
        }
        bit >>= 2;
    }
    (result, x != 0)
}

/// Monomorphized `sqrt(a)`.
#[inline]
pub(crate) fn sqrt<const E: u32, const M: u32>(a: u64, env: &mut Env) -> u64 {
    let ua = unpack_k::<E, M>(a);
    if ua.is_nan() {
        return nan_result::<E, M>(ua.is_snan(), &mut env.flags);
    }
    if ua.is_zero() {
        return zero::<E, M>(ua.sign);
    }
    if ua.sign {
        env.flags.set(Flags::NV);
        return quiet_nan::<E, M>();
    }
    if ua.is_inf() {
        return infinity::<E, M>(false);
    }
    let man = M as i32;
    let mut m = ua.sig;
    let mut e = ua.exp - man;
    if e & 1 != 0 {
        m <<= 1;
        e -= 1;
    }
    // Scale by 2^(2k) so the integer root carries M+4 significant bits;
    // the scaled radicand spans at most 2M+2k+2 <= 56 bits.
    let k = M / 2 + 4;
    m <<= 2 * k;
    e -= 2 * k as i32;
    let (s, rem) = isqrt_u64(m);
    let mr = (s << 1) | u64::from(rem);
    round_pack_k::<E, M>(false, e / 2 - 1, mr, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Fused multiply-add
// ---------------------------------------------------------------------------

#[inline(always)]
fn align64(m: u64, e: i32, e_t: i32) -> u64 {
    let s = e - e_t;
    if s >= 0 {
        m << s as u32
    } else {
        shift_right_jam64(m, (-s) as u32)
    }
}

/// Monomorphized fused `a * b + c` with a single rounding.
///
/// binary8 (`<5, 2>`) instantiations take the fixed-point fast path of
/// [`fma_b8`]; the check is on const parameters, so it folds away.
#[inline]
pub(crate) fn fma<const E: u32, const M: u32>(a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    if E == 5 && M == 2 {
        return fma_b8(a, b, c, env);
    }
    fma_core::<E, M>(a, b, c, env)
}

/// Every finite binary8 (E5M2) value is an integer multiple of `2^-16`
/// (subnormal ULP `2^-16`; max magnitude `1.75 * 2^15`). Scaling by `2^16`
/// therefore maps the format onto integers below `2^32`, and a fused
/// multiply-add becomes *exact* 64-bit integer arithmetic at scale `2^-32`:
/// the product is at most `(7 * 2^29)^2 = 49 * 2^58 < 2^64` and the addend
/// at most `7 * 2^45`, so `a*b ± c` never overflows the `u64` magnitude.
/// One normalization step then hands the exact sum to [`round_pack_k`],
/// which performs the single rounding with the usual flag semantics.
/// Non-finite operands (exponent field all ones) defer to the generic
/// kernel path, which owns the NaN/infinity case analysis.
const fn build_b8_fix() -> [u64; 128] {
    let mut t = [0u64; 128];
    let mut i = 0;
    while i < 128 {
        let e = i >> 2;
        let m = (i & 0x3) as u64;
        if e == 0 {
            t[i] = m; // subnormal: m * 2^-16
        } else if e < 31 {
            t[i] = (4 + m) << (e - 1); // (1 + m/4) * 2^(e-15) * 2^16
        }
        i += 1;
    }
    t
}

/// Finite binary8 magnitudes scaled by `2^16`, indexed by the low 7 bits.
const B8_FIX: [u64; 128] = build_b8_fix();

/// Fixed-point fused multiply-add for binary8: exact `u64` integer
/// arithmetic at scale `2^-32`, then one shared rounding.
pub(crate) fn fma_b8(a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let (ai, bi, ci) = (a as usize & 0xff, b as usize & 0xff, c as usize & 0xff);
    if (ai & 0x7c) == 0x7c || (bi & 0x7c) == 0x7c || (ci & 0x7c) == 0x7c {
        // Infinity or NaN operand: generic case analysis (rare).
        return fma_core::<5, 2>(a, b, c, env);
    }
    let pm = B8_FIX[ai & 0x7f] * B8_FIX[bi & 0x7f];
    let cm = B8_FIX[ci & 0x7f] << 16;
    let ps = (ai ^ bi) & 0x80 != 0;
    let cs = ci & 0x80 != 0;
    let (sign, mag) = if ps == cs {
        (ps, pm + cm)
    } else if pm > cm {
        (ps, pm - cm)
    } else if pm < cm {
        (cs, cm - pm)
    } else {
        // Exact cancellation of nonzero terms, or two opposite-signed
        // zeros: +0 except under round-down.
        return zero::<5, 2>(env.rm == Rounding::Rdn);
    };
    if mag == 0 {
        // Product and addend both zero, same sign.
        return zero::<5, 2>(sign);
    }
    if mag >> 63 != 0 {
        // One-bit normalize into `round_pack_k`'s domain; the jammed-out
        // bit can only feed the sticky (3 significand bits are kept).
        return round_pack_k::<5, 2>(sign, -31, (mag >> 1) | (mag & 1), env.rm, &mut env.flags);
    }
    round_pack_k::<5, 2>(sign, -32, mag, env.rm, &mut env.flags)
}

#[inline]
fn fma_core<const E: u32, const M: u32>(a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let ua = unpack_k::<E, M>(a);
    let ub = unpack_k::<E, M>(b);
    let uc = unpack_k::<E, M>(c);
    let inf_times_zero = (ua.is_inf() && ub.is_zero()) || (ua.is_zero() && ub.is_inf());
    if ua.is_nan() || ub.is_nan() || uc.is_nan() {
        if inf_times_zero {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        return nan_result::<E, M>(ua.is_snan() || ub.is_snan() || uc.is_snan(), &mut env.flags);
    }
    let psign = ua.sign ^ ub.sign;
    if ua.is_inf() || ub.is_inf() {
        if inf_times_zero {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        if uc.is_inf() && uc.sign != psign {
            env.flags.set(Flags::NV);
            return quiet_nan::<E, M>();
        }
        return infinity::<E, M>(psign);
    }
    if uc.is_inf() {
        return infinity::<E, M>(uc.sign);
    }
    if ua.is_zero() || ub.is_zero() {
        if uc.is_zero() {
            return if psign == uc.sign {
                zero::<E, M>(psign)
            } else {
                zero::<E, M>(env.rm == Rounding::Rdn)
            };
        }
        return c & mask::<E, M>();
    }
    let man = M as i32;
    let mp = ua.sig * ub.sig; // exact, <= 2M+2 <= 48 bits
    let ep = ua.exp + ub.exp - 2 * man;
    if uc.is_zero() {
        return round_pack_k::<E, M>(psign, ep, mp, env.rm, &mut env.flags);
    }
    let mc = uc.sig;
    let ec = uc.exp - man;

    let hp = 63 - mp.leading_zeros() as i32;
    let hc = 63 - mc.leading_zeros() as i32;
    let msb = (ep + hp).max(ec + hc);
    let lsb = ep.min(ec);
    let (mp_al, mc_al, e_t);
    if msb - lsb <= 61 {
        // The operands' joint bit span fits in 64 bits (each aligned value is
        // < 2^62, so their sum is < 2^63): align exactly.
        e_t = lsb;
        mp_al = mp << (ep - e_t) as u32;
        mc_al = mc << (ec - e_t) as u32;
    } else {
        // Far-apart case: with close magnitudes the joint span is at most
        // 2M+4 <= 50 bits (product <= 2M+2 bits, addend <= M+1 bits), so a
        // span above 61 implies the magnitudes differ by at least two binary
        // orders; post-cancellation normalization then shifts by at most one
        // bit and a jamming alignment is round-safe.
        const G: i32 = 8;
        e_t = ep.max(ec) - G;
        mp_al = align64(mp, ep, e_t);
        mc_al = align64(mc, ec, e_t);
    }
    let (msum, rsign) = if psign == uc.sign {
        (mp_al + mc_al, psign)
    } else if mp_al >= mc_al {
        (mp_al - mc_al, psign)
    } else {
        (mc_al - mp_al, uc.sign)
    };
    if msum == 0 {
        return zero::<E, M>(env.rm == Rounding::Rdn);
    }
    round_pack_k::<E, M>(rsign, e_t, msum, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Conversion between the concrete formats
// ---------------------------------------------------------------------------

/// Monomorphized float-to-float conversion from `(SE, SM)` to `(DE, DM)`.
#[inline]
pub(crate) fn cvt<const SE: u32, const SM: u32, const DE: u32, const DM: u32>(
    bits: u64,
    env: &mut Env,
) -> u64 {
    let u = unpack_k::<SE, SM>(bits);
    if u.is_nan() {
        if u.is_snan() {
            env.flags.set(Flags::NV);
        }
        return quiet_nan::<DE, DM>();
    }
    if u.is_inf() {
        return infinity::<DE, DM>(u.sign);
    }
    if u.is_zero() {
        return zero::<DE, DM>(u.sign);
    }
    round_pack_k::<DE, DM>(u.sign, u.exp - SM as i32, u.sig, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Comparisons, min/max, sign injection, classification
// ---------------------------------------------------------------------------

/// Total-order key for NaN-free comparison; `±0` map to the same key.
#[inline(always)]
fn order_key<const E: u32, const M: u32>(bits: u64) -> i64 {
    let bits = bits & mask::<E, M>();
    let mag = (bits & !sign_bit::<E, M>()) as i64;
    if bits & sign_bit::<E, M>() != 0 {
        -mag
    } else {
        mag
    }
}

/// Monomorphized quiet equality (RISC-V `feq`).
#[inline]
pub(crate) fn feq<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> bool {
    if is_nan_bits::<E, M>(a) || is_nan_bits::<E, M>(b) {
        if is_snan_bits::<E, M>(a) || is_snan_bits::<E, M>(b) {
            env.flags.set(Flags::NV);
        }
        return false;
    }
    order_key::<E, M>(a) == order_key::<E, M>(b)
}

/// Monomorphized signaling less-than (RISC-V `flt`).
#[inline]
pub(crate) fn flt<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> bool {
    if is_nan_bits::<E, M>(a) || is_nan_bits::<E, M>(b) {
        env.flags.set(Flags::NV);
        return false;
    }
    order_key::<E, M>(a) < order_key::<E, M>(b)
}

/// Monomorphized signaling less-or-equal (RISC-V `fle`).
#[inline]
pub(crate) fn fle<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> bool {
    if is_nan_bits::<E, M>(a) || is_nan_bits::<E, M>(b) {
        env.flags.set(Flags::NV);
        return false;
    }
    order_key::<E, M>(a) <= order_key::<E, M>(b)
}

#[inline(always)]
fn minmax_k<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env, want_min: bool) -> u64 {
    if is_snan_bits::<E, M>(a) || is_snan_bits::<E, M>(b) {
        env.flags.set(Flags::NV);
    }
    match (is_nan_bits::<E, M>(a), is_nan_bits::<E, M>(b)) {
        (true, true) => return quiet_nan::<E, M>(),
        (true, false) => return b & mask::<E, M>(),
        (false, true) => return a & mask::<E, M>(),
        (false, false) => {}
    }
    let ka = order_key::<E, M>(a);
    let kb = order_key::<E, M>(b);
    if ka == kb {
        let a_neg = a & mask::<E, M>() & sign_bit::<E, M>() != 0;
        return if a_neg == want_min {
            a & mask::<E, M>()
        } else {
            b & mask::<E, M>()
        };
    }
    if (ka < kb) == want_min {
        a & mask::<E, M>()
    } else {
        b & mask::<E, M>()
    }
}

/// Monomorphized IEEE 754-2008 `minNum` (RISC-V `fmin`).
#[inline]
pub(crate) fn fmin<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    minmax_k::<E, M>(a, b, env, true)
}

/// Monomorphized IEEE 754-2008 `maxNum` (RISC-V `fmax`).
#[inline]
pub(crate) fn fmax<const E: u32, const M: u32>(a: u64, b: u64, env: &mut Env) -> u64 {
    minmax_k::<E, M>(a, b, env, false)
}

/// Monomorphized RISC-V `fsgnj`.
#[inline]
pub(crate) fn fsgnj<const E: u32, const M: u32>(a: u64, b: u64) -> u64 {
    (a & mask::<E, M>() & !sign_bit::<E, M>()) | (b & sign_bit::<E, M>())
}

/// Monomorphized RISC-V `fsgnjn`.
#[inline]
pub(crate) fn fsgnjn<const E: u32, const M: u32>(a: u64, b: u64) -> u64 {
    (a & mask::<E, M>() & !sign_bit::<E, M>()) | ((b ^ sign_bit::<E, M>()) & sign_bit::<E, M>())
}

/// Monomorphized RISC-V `fsgnjx`.
#[inline]
pub(crate) fn fsgnjx<const E: u32, const M: u32>(a: u64, b: u64) -> u64 {
    (a & mask::<E, M>()) ^ (b & sign_bit::<E, M>())
}

/// Monomorphized RISC-V `fclass` 10-bit mask.
#[inline]
pub(crate) fn classify<const E: u32, const M: u32>(a: u64) -> u32 {
    let bits = a & mask::<E, M>();
    let sign = bits & sign_bit::<E, M>() != 0;
    let exp_field = (bits >> M) & exp_field_max::<E>();
    let man_field = bits & man_mask::<M>();
    if exp_field == exp_field_max::<E>() {
        if man_field == 0 {
            if sign {
                1 << 0
            } else {
                1 << 7
            }
        } else if man_field & (1u64 << (M - 1)) == 0 {
            1 << 8
        } else {
            1 << 9
        }
    } else if exp_field == 0 {
        if man_field == 0 {
            if sign {
                1 << 3
            } else {
                1 << 4
            }
        } else if sign {
            1 << 2
        } else {
            1 << 5
        }
    } else if sign {
        1 << 1
    } else {
        1 << 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Format;
    use crate::ops;

    const B16E: u32 = 5;
    const B16M: u32 = 10;

    fn env() -> Env {
        Env::new(Rounding::Rne)
    }

    #[test]
    fn constants_match_format() {
        let f = Format::BINARY16;
        assert_eq!(mask::<B16E, B16M>(), f.mask());
        assert_eq!(sign_bit::<B16E, B16M>(), f.sign_bit());
        assert_eq!(quiet_nan::<B16E, B16M>(), f.quiet_nan());
        assert_eq!(infinity::<B16E, B16M>(true), f.infinity(true));
        assert_eq!(max_finite::<B16E, B16M>(false), f.max_finite(false));
        assert_eq!(bias::<B16E>(), f.bias());
        assert_eq!(emin::<B16E>(), f.emin());
    }

    #[test]
    fn isqrt64_matches_isqrt128_semantics() {
        for v in [0u64, 1, 2, 144, 145, (1 << 52) + 987_654] {
            let (r, rem) = isqrt_u64(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v);
            assert_eq!(rem, r * r != v);
        }
    }

    #[test]
    fn spot_agreement_with_generic_b16() {
        let f = Format::BINARY16;
        let pairs = [
            (0x3c00u64, 0x3c00u64), // 1 + 1
            (0x3c00, 0x8400),       // 1 + small negative normal
            (0x0001, 0x0001),       // subnormal + subnormal
            (0x7bff, 0x7bff),       // overflow
            (0x7c01, 0x3c00),       // sNaN operand
            (0xfc00, 0x7c00),       // -inf + inf
        ];
        for rm in Rounding::ALL {
            for &(a, b) in &pairs {
                let mut e1 = Env::new(rm);
                let mut e2 = Env::new(rm);
                assert_eq!(
                    add::<B16E, B16M>(a, b, &mut e1),
                    ops::add(f, a, b, &mut e2),
                    "add a={a:04x} b={b:04x} rm={rm}"
                );
                assert_eq!(e1.flags, e2.flags, "flags a={a:04x} b={b:04x} rm={rm}");
            }
        }
    }

    #[test]
    fn spot_agreement_fma_b32() {
        let f = Format::BINARY32;
        let cases = [
            (0x3f800001u64, 0x3f800001u64, 0xbf800002u64), // cancellation
            (0x7149f2cau64, 0x7149f2cau64, 0xff7fffffu64), // huge product
            (0x00000001u64, 0x00000001u64, 0x00000000u64), // deep underflow
            (0x2d13f2cau64, 0x0c49f2cau64, 0x3f800000u64), // far exponents
        ];
        for rm in Rounding::ALL {
            for &(a, b, c) in &cases {
                let mut e1 = Env::new(rm);
                let mut e2 = Env::new(rm);
                assert_eq!(
                    fma::<8, 23>(a, b, c, &mut e1),
                    ops::fmadd(f, a, b, c, &mut e2),
                    "fma a={a:08x} b={b:08x} c={c:08x} rm={rm}"
                );
                assert_eq!(e1.flags, e2.flags, "flags rm={rm}");
            }
        }
    }

    #[test]
    fn cvt_widen_narrow_round_trip() {
        let mut e = env();
        for bits in [0u64, 0x3c00, 0x7bff, 0x0001, 0xfbff] {
            let wide = cvt::<5, 10, 8, 23>(bits, &mut e);
            assert_eq!(
                wide,
                ops::cvt_f_f(Format::BINARY32, Format::BINARY16, bits, &mut env())
            );
            let back = cvt::<8, 23, 5, 10>(wide, &mut e);
            assert_eq!(back, bits);
        }
    }
}
