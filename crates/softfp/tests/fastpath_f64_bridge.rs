//! Differential suite for the host-`f64` bridges: `fast::to_f64` and
//! `fast::from_f64` against the generic `ops::to_f64` / `ops::from_f64`.
//!
//! * Decode is exhaustive over the 8- and 16-bit formats (all 256 and all
//!   65536 encodings) and sampled plus special values for binary32.
//! * Quantize is checked result *and* flags, under every rounding mode, at
//!   every representable value of the 8- and 16-bit formats and at the
//!   neighbourhood of each: the exact midpoint to the next encoding (a
//!   tie), one `f64` ulp either side of it, the overflow threshold past
//!   the largest finite value, and the subnormal boundaries. binary32 and
//!   arbitrary `f64` inputs (including `f64` subnormals and NaN payloads)
//!   are sampled with replayable seeds.

use smallfloat_devtools::{prop, Rng};
use smallfloat_softfp::{fast, ops, Env, Format, Rounding};

const FMTS: [Format; 5] = [
    Format::BINARY8,
    Format::BINARY8ALT,
    Format::BINARY16,
    Format::BINARY16ALT,
    Format::BINARY32,
];

/// Sampled cases per format: ≥1M in release, smoke-sized in debug.
const N: u64 = if cfg!(debug_assertions) {
    4_096
} else {
    1_048_576
};

fn assert_decode(fmt: Format, bits: u64) {
    let (f, r) = (fast::to_f64(fmt, bits), ops::to_f64(fmt, bits));
    assert_eq!(
        f.to_bits(),
        r.to_bits(),
        "to_f64 {} {bits:#x}: fast {f:e} vs reference {r:e}",
        fmt.name()
    );
}

fn assert_quantize(fmt: Format, v: f64, rm: Rounding) {
    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
    let f = fast::from_f64(fmt, v, &mut ef);
    let r = ops::from_f64(fmt, v, &mut er);
    assert_eq!(
        f,
        r,
        "from_f64 {} {v:e} ({:#x}) rm={rm}",
        fmt.name(),
        v.to_bits()
    );
    assert_eq!(
        ef.flags,
        er.flags,
        "from_f64 {} {v:e} ({:#x}) rm={rm}: flags",
        fmt.name(),
        v.to_bits()
    );
}

fn assert_quantize_all_rm(fmt: Format, v: f64) {
    for rm in Rounding::ALL {
        assert_quantize(fmt, v, rm);
        assert_quantize(fmt, -v, rm);
    }
}

/// Special `f64` inputs: signed zeros, infinities, NaNs with payloads
/// (quiet and signaling, both signs), `f64` subnormals and extremes.
fn f64_specials() -> Vec<f64> {
    [
        0u64,
        0x7ff0_0000_0000_0000,
        0x7ff8_0000_0000_0000,
        0x7ff8_0000_0000_0001,
        0x7ffc_dead_beef_0001,
        0x7ff0_0000_0000_0001,
        0x7ff4_0000_0000_0000,
        0x7ff7_ffff_ffff_ffff,
        0x0000_0000_0000_0001,
        0x000f_ffff_ffff_ffff,
        0x0010_0000_0000_0000,
        0x7fef_ffff_ffff_ffff,
        1f64.to_bits(),
    ]
    .into_iter()
    .flat_map(|b| [f64::from_bits(b), f64::from_bits(b | 1 << 63)])
    .collect()
}

#[test]
fn decode_is_exhaustive_over_8_and_16_bit_formats() {
    for fmt in &FMTS[..4] {
        for bits in 0..=fmt.mask() {
            assert_decode(*fmt, bits);
        }
    }
}

#[test]
fn decode_binary32_sampled_and_specials() {
    let fmt = Format::BINARY32;
    for bits in [
        0u64,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0x7fbf_ffff,
        0xffff_ffff,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x0080_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x3f80_0000,
    ] {
        assert_decode(fmt, bits);
    }
    prop::cases("f64_bridge_decode_b32", N, |rng| {
        assert_decode(fmt, rng.u32() as u64);
    });
}

/// Every positive finite encoding's value, the midpoint to its successor
/// (for the largest finite value, the successor is the next power of two
/// the format cannot hold — the overflow threshold), and one `f64` ulp
/// either side of that midpoint.
fn neighbourhood(fmt: Format, bits: u64) -> [f64; 4] {
    let lo = ops::to_f64(fmt, bits);
    let hi = if bits == fmt.max_finite(false) {
        lo + (lo - ops::to_f64(fmt, bits - 1))
    } else {
        ops::to_f64(fmt, bits + 1)
    };
    let mid = (lo + hi) / 2.0;
    [lo, mid, mid.next_down(), mid.next_up()]
}

#[test]
fn quantize_every_8_and_16_bit_neighbourhood() {
    for fmt in &FMTS[..4] {
        for bits in 0..=fmt.max_finite(false) {
            for v in neighbourhood(*fmt, bits) {
                assert_quantize_all_rm(*fmt, v);
            }
        }
        // Below the smallest subnormal: half of it (a tie with zero) and
        // either side.
        let half_min = ops::to_f64(*fmt, 1) / 2.0;
        for v in [half_min, half_min.next_down(), half_min.next_up()] {
            assert_quantize_all_rm(*fmt, v);
        }
    }
}

#[test]
fn quantize_specials_every_format() {
    for fmt in FMTS {
        for v in f64_specials() {
            for rm in Rounding::ALL {
                assert_quantize(fmt, v, rm);
            }
        }
    }
}

#[test]
fn quantize_binary32_boundaries_and_samples() {
    let fmt = Format::BINARY32;
    for bits in [
        0u64,
        1,
        2,
        0x007f_fffe,
        0x007f_ffff,
        0x0080_0000,
        0x0080_0001,
        0x3f80_0000,
        0x7f7f_fffe,
        0x7f7f_ffff,
    ] {
        for v in neighbourhood(fmt, bits) {
            assert_quantize_all_rm(fmt, v);
        }
    }
    prop::cases("f64_bridge_quantize_b32_neighbourhood", N, |rng| {
        let bits = rng.below(fmt.max_finite(false) + 1);
        let rm = Rounding::ALL[rng.below(5) as usize];
        for v in neighbourhood(fmt, bits) {
            assert_quantize(fmt, v, rm);
            assert_quantize(fmt, -v, rm);
        }
    });
}

/// Raw `f64` encodings drawn uniformly, plus values drawn near each
/// format's dynamic range so most cases round rather than saturate.
#[test]
fn quantize_sampled_f64_every_format() {
    for fmt in FMTS {
        prop::cases(&format!("f64_bridge_quantize_{}", fmt.name()), N, |rng| {
            let rm = Rounding::ALL[rng.below(5) as usize];
            assert_quantize(fmt, f64::from_bits(rng.u64()), rm);
            assert_quantize(fmt, in_range(rng, fmt), rm);
        });
    }
}

/// A random `f64` whose exponent lies within a few binades of `fmt`'s
/// range (subnormals and overflow included).
fn in_range(rng: &mut Rng, fmt: Format) -> f64 {
    let span = 2 * fmt.bias() as u64 + fmt.man_bits() as u64 + 8;
    let exp = 1023 + rng.below(span) as i64 - (fmt.bias() as i64 + fmt.man_bits() as i64 + 4);
    let man = rng.u64() & ((1 << 52) - 1);
    let sign = rng.u64() & (1 << 63);
    f64::from_bits(sign | (exp as u64) << 52 | man)
}
