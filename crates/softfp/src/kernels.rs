//! Monomorphized bit-level ops for the concrete small formats.
//!
//! Comparisons (`feq`/`flt`/`fle`), IEEE 754-2008 `minNum`/`maxNum`, sign
//! injection and `fclass` need no rounding: each is a few masks and
//! compares on the encoding. These const-generic copies of the
//! [`crate::ops`] definitions fold every [`crate::Format`] quantity per
//! instantiation (`binary8`, `binary8alt`, `binary16`, `binary16alt`,
//! `binary32`); [`crate::fast`] and the batch lane helpers dispatch to
//! them. Rounded arithmetic has no copy here: it runs on the binary8
//! tables, the host-FPU leaves of [`crate::host`] or [`crate::ops`].
//!
//! The differential suites in `crates/softfp/tests/fastpath_*.rs` check
//! these ops against the reference (exhaustively for the 8-bit formats,
//! sampled for the 16- and 32-bit ones).

use crate::env::{Env, Flags};

#[inline(always)]
fn mask<const E: u32, const M: u32>() -> u64 {
    u64::MAX >> (64 - (1 + E + M))
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
fn quiet_nan<const E: u32, const M: u32>() -> u64 {
    (exp_field_max::<E>() << M) | (1u64 << (M - 1))
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

    #[test]
    fn constants_match_format() {
        fn check<const E: u32, const M: u32>(f: Format) {
            assert_eq!(mask::<E, M>(), f.mask());
            assert_eq!(sign_bit::<E, M>(), f.sign_bit());
            assert_eq!(man_mask::<M>(), f.man_mask());
            assert_eq!(exp_field_max::<E>(), f.exp_field_max());
            assert_eq!(quiet_nan::<E, M>(), f.quiet_nan());
        }
        check::<5, 2>(Format::BINARY8);
        check::<4, 3>(Format::BINARY8ALT);
        check::<5, 10>(Format::BINARY16);
        check::<8, 7>(Format::BINARY16ALT);
        check::<8, 23>(Format::BINARY32);
    }
}
