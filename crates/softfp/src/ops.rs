//! Floating-point operations on raw bit patterns.
//!
//! Every function takes the value [`Format`] explicitly and an [`Env`]
//! carrying the rounding mode; raised IEEE exceptions are ORed into
//! `env.flags`. Semantics follow the RISC-V "F" extension (and its
//! smallFloat siblings): canonical quiet-NaN results, `minNum`/`maxNum`
//! min/max, signaling comparisons for `flt`/`fle`, quiet for `feq`.

use crate::env::{Env, Flags, Rounding};
use crate::format::Format;
use crate::round::{isqrt_u128, round_pack, shift_right_jam};
use crate::unpack::{propagate_nan, unpack, Unpacked};

// The packed widening dot products (batched lane execution over the fast
// path), re-exported here next to the scalar ops. See [`crate::batch`] for
// the `LaneOp`-driven vector forms used by the simulator.
pub use crate::batch::{vdotpex2_f16, vdotpex2_f16alt, vdotpex4_f8};

// ---------------------------------------------------------------------------
// Addition / subtraction
// ---------------------------------------------------------------------------

/// `a + b`.
pub fn add(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    if ua.is_nan() || ub.is_nan() {
        return propagate_nan(fmt, &[&ua, &ub], &mut env.flags);
    }
    match (ua.is_inf(), ub.is_inf()) {
        (true, true) => {
            if ua.sign == ub.sign {
                fmt.infinity(ua.sign)
            } else {
                env.flags.set(Flags::NV);
                fmt.quiet_nan()
            }
        }
        (true, false) => fmt.infinity(ua.sign),
        (false, true) => fmt.infinity(ub.sign),
        (false, false) => {
            if ua.is_zero() && ub.is_zero() {
                if ua.sign == ub.sign {
                    fmt.zero(ua.sign)
                } else {
                    fmt.zero(env.rm == Rounding::Rdn)
                }
            } else if ua.is_zero() {
                b & fmt.mask()
            } else if ub.is_zero() {
                a & fmt.mask()
            } else {
                add_finite(fmt, &ua, &ub, env)
            }
        }
    }
}

/// `a - b`.
pub fn sub(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    // NaN sign flips are harmless: propagation always returns the canonical
    // NaN and quietness is encoded in the mantissa, not the sign.
    add(fmt, a, fmt.negate(b), env)
}

fn add_finite(fmt: Format, ua: &Unpacked, ub: &Unpacked, env: &mut Env) -> u64 {
    let man = fmt.man_bits() as i32;
    // Order by magnitude; significands are normalized so the (exp, sig)
    // lexicographic order matches magnitude order.
    let (hi, lo) = if (ua.exp, ua.sig) >= (ub.exp, ub.sig) {
        (ua, ub)
    } else {
        (ub, ua)
    };
    const G: u32 = 3; // guard bits
    let d = (hi.exp - lo.exp) as u32;
    let mhi = (hi.sig as u128) << G;
    let mlo = shift_right_jam((lo.sig as u128) << G, d);
    let e = hi.exp - man - G as i32;
    if hi.sign == lo.sign {
        round_pack(fmt, hi.sign, e, mhi + mlo, env.rm, &mut env.flags)
    } else {
        let diff = mhi - mlo; // mhi >= mlo by the magnitude ordering
        if diff == 0 {
            // Exact cancellation: +0, except -0 when rounding down.
            return fmt.zero(env.rm == Rounding::Rdn);
        }
        round_pack(fmt, hi.sign, e, diff, env.rm, &mut env.flags)
    }
}

// ---------------------------------------------------------------------------
// Multiplication
// ---------------------------------------------------------------------------

/// `a * b`.
pub fn mul(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    let sign = ua.sign ^ ub.sign;
    if ua.is_nan() || ub.is_nan() {
        return propagate_nan(fmt, &[&ua, &ub], &mut env.flags);
    }
    if ua.is_inf() || ub.is_inf() {
        if ua.is_zero() || ub.is_zero() {
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        return fmt.infinity(sign);
    }
    if ua.is_zero() || ub.is_zero() {
        return fmt.zero(sign);
    }
    let man = fmt.man_bits() as i32;
    let m = ua.sig as u128 * ub.sig as u128;
    round_pack(
        fmt,
        sign,
        ua.exp + ub.exp - 2 * man,
        m,
        env.rm,
        &mut env.flags,
    )
}

// ---------------------------------------------------------------------------
// Division
// ---------------------------------------------------------------------------

/// `a / b`.
pub fn div(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    let sign = ua.sign ^ ub.sign;
    if ua.is_nan() || ub.is_nan() {
        return propagate_nan(fmt, &[&ua, &ub], &mut env.flags);
    }
    match (ua.is_inf(), ub.is_inf()) {
        (true, true) => {
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        (true, false) => return fmt.infinity(sign),
        (false, true) => return fmt.zero(sign),
        (false, false) => {}
    }
    if ub.is_zero() {
        if ua.is_zero() {
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        env.flags.set(Flags::DZ);
        return fmt.infinity(sign);
    }
    if ua.is_zero() {
        return fmt.zero(sign);
    }
    let man = fmt.man_bits();
    let k = man + 4;
    let num = (ua.sig as u128) << k;
    let q = num / ub.sig as u128;
    let r = num % ub.sig as u128;
    let m = (q << 1) | u128::from(r != 0);
    let e = ua.exp - ub.exp - k as i32 - 1;
    round_pack(fmt, sign, e, m, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Square root
// ---------------------------------------------------------------------------

/// `sqrt(a)`.
pub fn sqrt(fmt: Format, a: u64, env: &mut Env) -> u64 {
    let ua = unpack(fmt, a);
    if ua.is_nan() {
        return propagate_nan(fmt, &[&ua], &mut env.flags);
    }
    if ua.is_zero() {
        return fmt.zero(ua.sign); // sqrt(±0) = ±0
    }
    if ua.sign {
        env.flags.set(Flags::NV);
        return fmt.quiet_nan();
    }
    if ua.is_inf() {
        return fmt.infinity(false);
    }
    let man = fmt.man_bits() as i32;
    let mut m = ua.sig as u128;
    let mut e = ua.exp - man;
    if e & 1 != 0 {
        m <<= 1;
        e -= 1;
    }
    // Scale by 2^(2k) so the integer root carries man+4 significant bits.
    let k = (man / 2 + 4) as u32;
    m <<= 2 * k;
    e -= 2 * k as i32;
    let (s, rem) = isqrt_u128(m);
    let mr = (s << 1) | u128::from(rem);
    round_pack(fmt, false, e / 2 - 1, mr, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Fused multiply-add family
// ---------------------------------------------------------------------------

/// Fused `a * b + c` with a single rounding (RISC-V `fmadd`).
pub fn fmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fma_inner(fmt, a, b, c, env)
}

/// Fused `a * b - c` (RISC-V `fmsub`).
pub fn fmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fma_inner(fmt, a, b, fmt.negate(c), env)
}

/// Fused `-(a * b) + c` (RISC-V `fnmsub`).
pub fn fnmsub(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fma_inner(fmt, fmt.negate(a), b, c, env)
}

/// Fused `-(a * b) - c` (RISC-V `fnmadd`).
pub fn fnmadd(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    fma_inner(fmt, fmt.negate(a), b, fmt.negate(c), env)
}

fn fma_inner(fmt: Format, a: u64, b: u64, c: u64, env: &mut Env) -> u64 {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    let uc = unpack(fmt, c);
    let inf_times_zero = (ua.is_inf() && ub.is_zero()) || (ua.is_zero() && ub.is_inf());
    if ua.is_nan() || ub.is_nan() || uc.is_nan() {
        if inf_times_zero {
            // 0 × ∞ is invalid even when the addend is a quiet NaN
            // (Berkeley softfloat / RISC-V behaviour).
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        return propagate_nan(fmt, &[&ua, &ub, &uc], &mut env.flags);
    }
    let psign = ua.sign ^ ub.sign;
    if ua.is_inf() || ub.is_inf() {
        if inf_times_zero {
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        if uc.is_inf() && uc.sign != psign {
            env.flags.set(Flags::NV);
            return fmt.quiet_nan();
        }
        return fmt.infinity(psign);
    }
    if uc.is_inf() {
        return fmt.infinity(uc.sign);
    }
    if ua.is_zero() || ub.is_zero() {
        // Exact zero product.
        if uc.is_zero() {
            return if psign == uc.sign {
                fmt.zero(psign)
            } else {
                fmt.zero(env.rm == Rounding::Rdn)
            };
        }
        return c & fmt.mask();
    }
    let man = fmt.man_bits() as i32;
    let mp = ua.sig as u128 * ub.sig as u128; // exact, <= 2*(man+1) bits
    let ep = ua.exp + ub.exp - 2 * man;
    if uc.is_zero() {
        return round_pack(fmt, psign, ep, mp, env.rm, &mut env.flags);
    }
    let mc = uc.sig as u128;
    let ec = uc.exp - man;

    let hp = 127 - mp.leading_zeros() as i32;
    let hc = 127 - mc.leading_zeros() as i32;
    let msb = (ep + hp).max(ec + hc);
    let lsb = ep.min(ec);
    let (mp_al, mc_al, e_t);
    if msb - lsb <= 120 {
        // The operands' bit spans jointly fit in 128 bits: align exactly.
        e_t = lsb;
        mp_al = mp << (ep - e_t) as u32;
        mc_al = mc << (ec - e_t) as u32;
    } else {
        // Far-apart case: the magnitudes differ by at least two binary
        // orders (a joint span this wide with close magnitudes is impossible
        // since both significands are <= 107 bits), so post-cancellation
        // normalization shifts by at most one bit and a jamming alignment is
        // round-safe.
        const G: i32 = 8;
        e_t = ep.max(ec) - G;
        mp_al = align(mp, ep, e_t);
        mc_al = align(mc, ec, e_t);
    }
    let (msum, rsign) = if psign == uc.sign {
        (mp_al + mc_al, psign)
    } else if mp_al >= mc_al {
        (mp_al - mc_al, psign)
    } else {
        (mc_al - mp_al, uc.sign)
    };
    if msum == 0 {
        return fmt.zero(env.rm == Rounding::Rdn);
    }
    round_pack(fmt, rsign, e_t, msum, env.rm, &mut env.flags)
}

fn align(m: u128, e: i32, e_t: i32) -> u128 {
    let s = e - e_t;
    if s >= 0 {
        m << s as u32
    } else {
        shift_right_jam(m, (-s) as u32)
    }
}

// ---------------------------------------------------------------------------
// Comparisons, min/max
// ---------------------------------------------------------------------------

/// Total-order key for finite/inf magnitude comparison (NaN-free inputs).
/// `-0` and `+0` map to the same key.
fn order_key(fmt: Format, bits: u64) -> i128 {
    let mag = (bits & fmt.mask() & !fmt.sign_bit()) as i128;
    if fmt.is_negative(bits) {
        -mag
    } else {
        mag
    }
}

/// Quiet equality (RISC-V `feq`): NaN compares unequal; only a signaling
/// NaN raises `NV`. `+0 == -0`.
pub fn feq(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    if ua.is_nan() || ub.is_nan() {
        if ua.is_snan() || ub.is_snan() {
            env.flags.set(Flags::NV);
        }
        return false;
    }
    order_key(fmt, a) == order_key(fmt, b)
}

/// Signaling less-than (RISC-V `flt`): any NaN raises `NV` and compares false.
pub fn flt(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    if ua.is_nan() || ub.is_nan() {
        env.flags.set(Flags::NV);
        return false;
    }
    order_key(fmt, a) < order_key(fmt, b)
}

/// Signaling less-or-equal (RISC-V `fle`): any NaN raises `NV`, compares false.
pub fn fle(fmt: Format, a: u64, b: u64, env: &mut Env) -> bool {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    if ua.is_nan() || ub.is_nan() {
        env.flags.set(Flags::NV);
        return false;
    }
    order_key(fmt, a) <= order_key(fmt, b)
}

/// IEEE 754-2008 `minNum` (RISC-V `fmin`): if exactly one operand is NaN the
/// other is returned; signaling NaNs raise `NV`; `fmin(+0, -0) = -0`.
pub fn fmin(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    minmax(fmt, a, b, env, true)
}

/// IEEE 754-2008 `maxNum` (RISC-V `fmax`): `fmax(+0, -0) = +0`.
pub fn fmax(fmt: Format, a: u64, b: u64, env: &mut Env) -> u64 {
    minmax(fmt, a, b, env, false)
}

fn minmax(fmt: Format, a: u64, b: u64, env: &mut Env, want_min: bool) -> u64 {
    let ua = unpack(fmt, a);
    let ub = unpack(fmt, b);
    if ua.is_snan() || ub.is_snan() {
        env.flags.set(Flags::NV);
    }
    match (ua.is_nan(), ub.is_nan()) {
        (true, true) => return fmt.quiet_nan(),
        (true, false) => return b & fmt.mask(),
        (false, true) => return a & fmt.mask(),
        (false, false) => {}
    }
    let ka = order_key(fmt, a);
    let kb = order_key(fmt, b);
    if ka == kb {
        // Equal magnitude: distinguish ±0 — min prefers -0, max prefers +0.
        let a_neg = fmt.is_negative(a);
        return if a_neg == want_min {
            a & fmt.mask()
        } else {
            b & fmt.mask()
        };
    }
    if (ka < kb) == want_min {
        a & fmt.mask()
    } else {
        b & fmt.mask()
    }
}

// ---------------------------------------------------------------------------
// Sign injection
// ---------------------------------------------------------------------------

/// RISC-V `fsgnj`: magnitude of `a`, sign of `b`.
pub fn fsgnj(fmt: Format, a: u64, b: u64) -> u64 {
    (a & fmt.mask() & !fmt.sign_bit()) | (b & fmt.sign_bit())
}

/// RISC-V `fsgnjn`: magnitude of `a`, inverted sign of `b`.
pub fn fsgnjn(fmt: Format, a: u64, b: u64) -> u64 {
    (a & fmt.mask() & !fmt.sign_bit()) | ((b ^ fmt.sign_bit()) & fmt.sign_bit())
}

/// RISC-V `fsgnjx`: magnitude of `a`, sign XOR of `a` and `b`.
pub fn fsgnjx(fmt: Format, a: u64, b: u64) -> u64 {
    (a & fmt.mask()) ^ (b & fmt.sign_bit())
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// RISC-V `fclass` 10-bit mask.
///
/// | bit | meaning        | bit | meaning        |
/// |-----|----------------|-----|----------------|
/// | 0   | −∞             | 5   | +subnormal     |
/// | 1   | −normal        | 6   | +normal        |
/// | 2   | −subnormal     | 7   | +∞             |
/// | 3   | −0             | 8   | signaling NaN  |
/// | 4   | +0             | 9   | quiet NaN      |
pub fn classify(fmt: Format, a: u64) -> u32 {
    let bits = a & fmt.mask();
    let sign = fmt.is_negative(bits);
    let exp_field = (bits >> fmt.man_bits()) & fmt.exp_field_max();
    let man_field = bits & fmt.man_mask();
    if exp_field == fmt.exp_field_max() {
        if man_field == 0 {
            if sign {
                1 << 0
            } else {
                1 << 7
            }
        } else if fmt.is_signaling_nan(bits) {
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

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Convert between floating formats (exact when widening; rounded and
/// flag-raising when narrowing). NaNs become the destination's canonical
/// quiet NaN; signaling NaNs raise `NV`.
pub fn cvt_f_f(dst: Format, src: Format, bits: u64, env: &mut Env) -> u64 {
    let u = unpack(src, bits);
    if u.is_nan() {
        if u.is_snan() {
            env.flags.set(Flags::NV);
        }
        return dst.quiet_nan();
    }
    if u.is_inf() {
        return dst.infinity(u.sign);
    }
    if u.is_zero() {
        return dst.zero(u.sign);
    }
    round_pack(
        dst,
        u.sign,
        u.exp - src.man_bits() as i32,
        u.sig as u128,
        env.rm,
        &mut env.flags,
    )
}

/// Convert a float to an integer of `width` bits (8, 16, 32 or 64), signed
/// or unsigned, with RISC-V semantics:
///
/// * NaN → largest positive representable value, `NV`;
/// * out-of-range (incl. ±∞) → clamped to min/max, `NV` (no `NX`);
/// * otherwise round per `env.rm`, `NX` if inexact.
///
/// The result is sign-extended (signed) or zero-extended (unsigned) into the
/// returned `u64`.
///
/// # Panics
///
/// Panics if `width` is not one of 8, 16, 32, 64.
pub fn to_int(fmt: Format, bits: u64, signed: bool, width: u32, env: &mut Env) -> u64 {
    assert!(
        matches!(width, 8 | 16 | 32 | 64),
        "unsupported integer width {width}"
    );
    let (min, max): (i128, i128) = if signed {
        (-(1i128 << (width - 1)), (1i128 << (width - 1)) - 1)
    } else {
        (0, (1i128 << width) - 1)
    };
    let clamp = |v: i128| -> u64 {
        if width == 64 {
            v as u64
        } else {
            (v as u64) & ((1u64 << width) - 1)
                | if signed && v < 0 {
                    !((1u64 << width) - 1)
                } else {
                    0
                }
        }
    };
    let u = unpack(fmt, bits);
    if u.is_nan() {
        env.flags.set(Flags::NV);
        return clamp(max);
    }
    if u.is_inf() {
        env.flags.set(Flags::NV);
        return clamp(if u.sign { min } else { max });
    }
    if u.is_zero() {
        return 0;
    }
    let man = fmt.man_bits() as i32;
    let e = u.exp - man; // value = sig * 2^e
    let (mag, inexact) = if e >= 0 {
        if u.exp >= 80 {
            // Far out of range of any <=64-bit integer.
            env.flags.set(Flags::NV);
            return clamp(if u.sign { min } else { max });
        }
        ((u.sig as u128) << e as u32, false)
    } else {
        let s = (-e) as u32;
        let (q, rem, half) = if s > 127 {
            (0u128, u128::from(u.sig != 0), u128::MAX)
        } else {
            let r = (u.sig as u128) & ((1u128 << s.min(127)) - 1);
            ((u.sig as u128) >> s.min(127), r, 1u128 << (s - 1).min(126))
        };
        let inc = if half == u128::MAX {
            // Entirely fractional and far below 1/2: only directed modes
            // away from zero can produce 1. (s > 127 implies |v| < 2^-70.)
            match env.rm {
                Rounding::Rdn => u.sign,
                Rounding::Rup => !u.sign,
                _ => false,
            }
        } else {
            let rem_nz = rem != 0;
            match env.rm {
                Rounding::Rne => rem > half || (rem == half && q & 1 == 1),
                Rounding::Rmm => rem >= half && rem_nz,
                Rounding::Rtz => false,
                Rounding::Rdn => u.sign && rem_nz,
                Rounding::Rup => !u.sign && rem_nz,
            }
        };
        (q + u128::from(inc), rem != 0)
    };
    let v: i128 = if u.sign { -(mag as i128) } else { mag as i128 };
    if v < min || v > max {
        env.flags.set(Flags::NV);
        return clamp(if u.sign { min } else { max });
    }
    if inexact {
        env.flags.set(Flags::NX);
    }
    clamp(v)
}

/// Convert a signed integer to a float, rounding per `env.rm`.
pub fn from_i64(fmt: Format, v: i64, env: &mut Env) -> u64 {
    let sign = v < 0;
    round_pack(
        fmt,
        sign,
        0,
        v.unsigned_abs() as u128,
        env.rm,
        &mut env.flags,
    )
}

/// Convert an unsigned integer to a float, rounding per `env.rm`.
pub fn from_u64(fmt: Format, v: u64, env: &mut Env) -> u64 {
    round_pack(fmt, false, 0, v as u128, env.rm, &mut env.flags)
}

// ---------------------------------------------------------------------------
// Host-float bridges
// ---------------------------------------------------------------------------

/// Exact conversion of any supported format to host `f64`.
///
/// Exact because every supported [`Format`] has at most 52 mantissa and 11
/// exponent bits.
pub fn to_f64(fmt: Format, bits: u64) -> f64 {
    if fmt == Format::BINARY64 {
        return f64::from_bits(bits);
    }
    let mut env = Env::new(Rounding::Rne);
    f64::from_bits(cvt_f_f(Format::BINARY64, fmt, bits, &mut env))
}

/// Convert a host `f64` into `fmt`, rounding per `env.rm` and raising flags.
pub fn from_f64(fmt: Format, v: f64, env: &mut Env) -> u64 {
    if fmt == Format::BINARY64 {
        return v.to_bits();
    }
    cvt_f_f(fmt, Format::BINARY64, v.to_bits(), env)
}

/// Convert any supported format to host `f32` (rounding if the format is
/// wider than binary32 — exact for all smallFloat formats).
pub fn to_f32(fmt: Format, bits: u64) -> f32 {
    let mut env = Env::new(Rounding::Rne);
    f32::from_bits(cvt_f_f(Format::BINARY32, fmt, bits, &mut env) as u32)
}

/// Convert a host `f32` into `fmt`, rounding per `env.rm` and raising flags.
pub fn from_f32(fmt: Format, v: f32, env: &mut Env) -> u64 {
    cvt_f_f(fmt, Format::BINARY32, v.to_bits() as u64, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::new(Rounding::Rne)
    }

    fn f32b(v: f32) -> u64 {
        v.to_bits() as u64
    }

    const B32: Format = Format::BINARY32;
    const B16: Format = Format::BINARY16;
    const B8: Format = Format::BINARY8;

    #[test]
    fn add_simple() {
        let mut e = env();
        assert_eq!(add(B32, f32b(1.5), f32b(2.25), &mut e), f32b(3.75));
        assert!(e.flags.is_empty());
        assert_eq!(add(B32, f32b(-1.0), f32b(1.0), &mut e), f32b(0.0));
        assert_eq!(sub(B32, f32b(1.0), f32b(1.0), &mut e), f32b(0.0));
    }

    #[test]
    fn sub_cancellation_sign_rdn() {
        let mut e = Env::new(Rounding::Rdn);
        let r = sub(B32, f32b(1.0), f32b(1.0), &mut e);
        assert_eq!(r, f32b(-0.0), "exact cancellation is -0 under RDN");
    }

    #[test]
    fn add_inf_nan_cases() {
        let mut e = env();
        let inf = B32.infinity(false);
        let ninf = B32.infinity(true);
        assert_eq!(add(B32, inf, f32b(5.0), &mut e), inf);
        assert_eq!(add(B32, inf, ninf, &mut e), B32.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
    }

    #[test]
    fn add_zero_identity_preserves_operand() {
        let mut e = env();
        // x + (+0) = x, including subnormal x.
        let sub_x = 0x0000_0001u64; // smallest f32 subnormal
        assert_eq!(add(B32, sub_x, 0, &mut e), sub_x);
        assert_eq!(add(B32, 0, sub_x, &mut e), sub_x);
        // (+0) + (-0) = +0 RNE; -0 under RDN.
        assert_eq!(add(B32, f32b(0.0), f32b(-0.0), &mut e), f32b(0.0));
        let mut e = Env::new(Rounding::Rdn);
        assert_eq!(add(B32, f32b(0.0), f32b(-0.0), &mut e), f32b(-0.0));
        // (-0) + (-0) = -0 in all modes.
        let mut e = env();
        assert_eq!(add(B32, f32b(-0.0), f32b(-0.0), &mut e), f32b(-0.0));
    }

    #[test]
    fn mul_basics() {
        let mut e = env();
        assert_eq!(mul(B32, f32b(3.0), f32b(-7.0), &mut e), f32b(-21.0));
        assert_eq!(mul(B32, f32b(0.0), f32b(-7.0), &mut e), f32b(-0.0));
        assert_eq!(
            mul(B32, B32.infinity(false), f32b(0.0), &mut e),
            B32.quiet_nan()
        );
        assert!(e.flags.contains(Flags::NV));
    }

    #[test]
    fn mul_overflow_b16() {
        let mut e = env();
        // 300 * 300 = 90000 > 65504 → +inf, OF|NX.
        let a = from_f64(B16, 300.0, &mut e);
        let r = mul(B16, a, a, &mut e);
        assert_eq!(r, B16.infinity(false));
        assert!(e.flags.contains(Flags::OF | Flags::NX));
    }

    #[test]
    fn div_basics() {
        let mut e = env();
        assert_eq!(div(B32, f32b(1.0), f32b(4.0), &mut e), f32b(0.25));
        assert!(e.flags.is_empty());
        assert_eq!(div(B32, f32b(1.0), f32b(3.0), &mut e), f32b(1.0 / 3.0));
        assert!(e.flags.contains(Flags::NX));
        let mut e = env();
        assert_eq!(div(B32, f32b(1.0), f32b(0.0), &mut e), B32.infinity(false));
        assert!(e.flags.contains(Flags::DZ));
        let mut e = env();
        assert_eq!(div(B32, f32b(0.0), f32b(0.0), &mut e), B32.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
    }

    #[test]
    fn sqrt_basics() {
        let mut e = env();
        assert_eq!(sqrt(B32, f32b(9.0), &mut e), f32b(3.0));
        assert!(e.flags.is_empty());
        assert_eq!(sqrt(B32, f32b(2.0), &mut e), f32b(std::f32::consts::SQRT_2));
        assert!(e.flags.contains(Flags::NX));
        let mut e = env();
        assert_eq!(sqrt(B32, f32b(-1.0), &mut e), B32.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
        let mut e = env();
        assert_eq!(sqrt(B32, f32b(-0.0), &mut e), f32b(-0.0));
        assert_eq!(sqrt(B32, B32.infinity(false), &mut e), B32.infinity(false));
    }

    #[test]
    fn fma_single_rounding() {
        let mut e = env();
        // Catastrophic-cancellation case where fused differs from unfused:
        // a*b - a*b rounded would be 0 either way; use the classic test
        // (1+2^-23)^2 = 1 + 2^-22 + 2^-46: unfused mul rounds away 2^-46.
        let one_eps = f32b(1.0 + f32::EPSILON / 2.0); // 1 + 2^-24? EPSILON=2^-23 → 1+2^-24 rounds: use bits
        let _ = one_eps;
        let a = 0x3f80_0001u64; // 1 + 2^-23
        let prod_unfused = mul(B32, a, a, &mut e);
        // fused: a*a - (unfused product) = the rounding error = 2^-46.
        let err = fmsub(B32, a, a, prod_unfused, &mut e);
        let expect = (2f64).powi(-46);
        assert_eq!(
            to_f64(B32, err),
            expect,
            "fma must expose the exact rounding error"
        );
    }

    #[test]
    fn fma_specials() {
        let mut e = env();
        let inf = B32.infinity(false);
        // inf*0 + qNaN → NV per Berkeley/RISC-V.
        let r = fmadd(B32, inf, f32b(0.0), B32.quiet_nan(), &mut e);
        assert_eq!(r, B32.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
        let mut e = env();
        // inf*1 + (-inf) → NV.
        let r = fmadd(B32, inf, f32b(1.0), B32.infinity(true), &mut e);
        assert_eq!(r, B32.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
        let mut e = env();
        // 0*5 + c → c exactly.
        assert_eq!(
            fmadd(B32, f32b(0.0), f32b(5.0), f32b(2.5), &mut e),
            f32b(2.5)
        );
        // 0*5 + (-0): signs differ → +0 (RNE).
        assert_eq!(
            fmadd(B32, f32b(0.0), f32b(5.0), f32b(-0.0), &mut e),
            f32b(0.0)
        );
        // (-0)*5 + (-0): signs agree → -0.
        assert_eq!(
            fmadd(B32, f32b(-0.0), f32b(5.0), f32b(-0.0), &mut e),
            f32b(-0.0)
        );
    }

    #[test]
    fn fma_far_exponents() {
        let mut e = env();
        // Huge addend + tiny product: result = addend, NX set.
        let big = f32b(1e30);
        let r = fmadd(B32, f32b(1e-30), f32b(1e-3), big, &mut e);
        assert_eq!(r, big);
        assert!(e.flags.contains(Flags::NX));
        // Subtractive far case: c - tiny rounds to nextafter(c, -inf)?
        let mut e = Env::new(Rounding::Rdn);
        let r = fmadd(B32, f32b(-1e-30), f32b(1e-3), big, &mut e);
        assert_eq!(
            r,
            big - 1,
            "RDN pulls one ulp down when subtracting a tiny product"
        );
    }

    #[test]
    fn cmp_semantics() {
        let mut e = env();
        assert!(feq(B32, f32b(0.0), f32b(-0.0), &mut e));
        assert!(!feq(B32, B32.quiet_nan(), B32.quiet_nan(), &mut e));
        assert!(e.flags.is_empty(), "feq with qNaN is quiet");
        assert!(!flt(B32, B32.quiet_nan(), f32b(0.0), &mut e));
        assert!(e.flags.contains(Flags::NV), "flt with NaN signals");
        let mut e = env();
        let snan = 0x7f80_0001u64;
        assert!(!feq(B32, snan, f32b(0.0), &mut e));
        assert!(e.flags.contains(Flags::NV), "feq with sNaN signals");
        let mut e = env();
        assert!(flt(B32, f32b(-1.0), f32b(-0.5), &mut e));
        assert!(fle(B32, f32b(-1.0), f32b(-1.0), &mut e));
        assert!(!flt(B32, f32b(-0.0), f32b(0.0), &mut e), "-0 < +0 is false");
        assert!(fle(B32, f32b(-0.0), f32b(0.0), &mut e));
    }

    #[test]
    fn minmax_semantics() {
        let mut e = env();
        assert_eq!(fmin(B32, f32b(1.0), f32b(2.0), &mut e), f32b(1.0));
        assert_eq!(fmax(B32, f32b(1.0), f32b(2.0), &mut e), f32b(2.0));
        assert_eq!(fmin(B32, f32b(0.0), f32b(-0.0), &mut e), f32b(-0.0));
        assert_eq!(fmax(B32, f32b(-0.0), f32b(0.0), &mut e), f32b(0.0));
        assert_eq!(fmin(B32, B32.quiet_nan(), f32b(3.0), &mut e), f32b(3.0));
        assert!(e.flags.is_empty(), "qNaN in min is quiet");
        assert_eq!(
            fmin(B32, B32.quiet_nan(), B32.quiet_nan(), &mut e),
            B32.quiet_nan()
        );
        let snan = 0x7f80_0001u64;
        assert_eq!(fmax(B32, snan, f32b(3.0), &mut e), f32b(3.0));
        assert!(e.flags.contains(Flags::NV));
    }

    #[test]
    fn sgnj_family() {
        let a = f32b(1.5);
        let nb = f32b(-2.0);
        assert_eq!(fsgnj(B32, a, nb), f32b(-1.5));
        assert_eq!(fsgnjn(B32, a, nb), f32b(1.5));
        assert_eq!(fsgnjx(B32, f32b(-1.5), nb), f32b(1.5));
        assert_eq!(fsgnjx(B32, f32b(1.5), nb), f32b(-1.5));
    }

    #[test]
    fn classify_all_classes() {
        assert_eq!(classify(B32, B32.infinity(true)), 1 << 0);
        assert_eq!(classify(B32, f32b(-1.0)), 1 << 1);
        assert_eq!(classify(B32, 0x8000_0001), 1 << 2);
        assert_eq!(classify(B32, f32b(-0.0)), 1 << 3);
        assert_eq!(classify(B32, f32b(0.0)), 1 << 4);
        assert_eq!(classify(B32, 0x0000_0001), 1 << 5);
        assert_eq!(classify(B32, f32b(1.0)), 1 << 6);
        assert_eq!(classify(B32, B32.infinity(false)), 1 << 7);
        assert_eq!(classify(B32, 0x7f80_0001), 1 << 8);
        assert_eq!(classify(B32, B32.quiet_nan()), 1 << 9);
    }

    #[test]
    fn cvt_widening_is_exact() {
        let mut e = env();
        for bits in [0u64, 0x3c00, 0x7bff, 0x0001, 0x8400, 0xfbff] {
            let wide = cvt_f_f(B32, B16, bits, &mut e);
            let back = cvt_f_f(B16, B32, wide, &mut e);
            assert_eq!(back, bits);
        }
        assert!(e.flags.is_empty());
    }

    #[test]
    fn cvt_narrowing_rounds_and_flags() {
        let mut e = env();
        // 1 + 2^-11 in f32 rounds to 1.0 in b16 (tie? 2^-11 = half ulp of b16 → tie to even 1.0).
        let v = f32b(1.0 + (2f32).powi(-11));
        assert_eq!(cvt_f_f(B16, B32, v, &mut e), B16.one());
        assert!(e.flags.contains(Flags::NX));
        // 70000 overflows b16 → inf, OF.
        let mut e = env();
        assert_eq!(
            cvt_f_f(B16, B32, f32b(70000.0), &mut e),
            B16.infinity(false)
        );
        assert!(e.flags.contains(Flags::OF));
        // sNaN narrows to canonical qNaN + NV.
        let mut e = env();
        assert_eq!(cvt_f_f(B16, B32, 0x7f80_0001, &mut e), B16.quiet_nan());
        assert!(e.flags.contains(Flags::NV));
    }

    #[test]
    fn cvt_b8_range() {
        let mut e = env();
        // binary8 E5M2: max finite 57344, one ulp granularity is coarse.
        assert_eq!(to_f64(B8, B8.max_finite(false)), 57344.0);
        assert_eq!(from_f64(B8, 57344.0, &mut e), B8.max_finite(false));
        assert!(e.flags.is_empty());
        // 1.1 rounds to 1.0 (ulp at 1.0 is 0.25).
        let mut e = env();
        assert_eq!(from_f64(B8, 1.1, &mut e), B8.one());
        assert!(e.flags.contains(Flags::NX));
    }

    #[test]
    fn to_int_semantics() {
        let mut e = env();
        assert_eq!(to_int(B32, f32b(3.7), true, 32, &mut e), 4);
        assert!(e.flags.contains(Flags::NX));
        let mut e = Env::new(Rounding::Rtz);
        assert_eq!(to_int(B32, f32b(3.7), true, 32, &mut e) as i64, 3);
        assert_eq!(to_int(B32, f32b(-3.7), true, 32, &mut e) as i64, -3);
        let mut e = Env::new(Rounding::Rdn);
        assert_eq!(to_int(B32, f32b(-3.2), true, 32, &mut e) as i64, -4);
        // NaN → max positive, NV.
        let mut e = env();
        assert_eq!(
            to_int(B32, B32.quiet_nan(), true, 32, &mut e) as i64,
            i32::MAX as i64
        );
        assert!(e.flags.contains(Flags::NV));
        // -inf signed → min.
        let mut e = env();
        assert_eq!(
            to_int(B32, B32.infinity(true), true, 32, &mut e) as i64,
            i32::MIN as i64
        );
        // negative → unsigned clamps to 0 with NV.
        let mut e = env();
        assert_eq!(to_int(B32, f32b(-1.5), false, 32, &mut e), 0);
        assert!(e.flags.contains(Flags::NV));
        // -0.25 rtz → 0, only NX.
        let mut e = Env::new(Rounding::Rtz);
        assert_eq!(to_int(B32, f32b(-0.25), false, 32, &mut e), 0);
        assert!(e.flags.contains(Flags::NX) && !e.flags.contains(Flags::NV));
        // 2^40 overflows i32 → clamp max, NV.
        let mut e = env();
        assert_eq!(
            to_int(B32, f32b(1.1e12), true, 32, &mut e) as i64,
            i32::MAX as i64
        );
        assert!(e.flags.contains(Flags::NV));
        // 16-bit width for vector conversions.
        let mut e = env();
        assert_eq!(to_int(B16, B16.one(), true, 16, &mut e), 1);
        assert_eq!(
            to_int(B16, from_f64(B16, -40000.0, &mut e), true, 16, &mut e) as i64,
            i16::MIN as i64
        );
    }

    #[test]
    fn from_int_round_trip() {
        let mut e = env();
        assert_eq!(from_i64(B32, -7, &mut e), f32b(-7.0));
        assert_eq!(from_u64(B32, 1 << 30, &mut e), f32b((1u64 << 30) as f32));
        assert!(e.flags.is_empty());
        // 2^24+1 is inexact in f32.
        let mut e = env();
        assert_eq!(from_i64(B32, (1 << 24) + 1, &mut e), f32b(16777216.0));
        assert!(e.flags.contains(Flags::NX));
        assert_eq!(from_i64(B32, i64::MIN, &mut e), f32b(i64::MIN as f32));
    }

    #[test]
    fn host_bridges() {
        let mut e = env();
        let x = from_f64(B16, 0.333984375, &mut e); // exactly representable in b16
        assert_eq!(to_f64(B16, x), 0.333984375);
        assert!(e.flags.is_empty());
        assert_eq!(to_f32(B16, B16.one()), 1.0f32);
        assert_eq!(from_f32(B16, 2.0, &mut e), 0x4000);
    }
}
