//! Differential suite for the expanding dot products and the scalar
//! expanding ops: `vdotpex2_f16`/`vdotpex2_f16alt`, the `vfsdotpex`
//! models `vsdotp2_f16`/`vsdotp2_f16alt` and `vsdotp4_f8` (binary8 and
//! binary8alt lanes into binary16 and binary16alt), and `fast::mulex` /
//! `fast::macex` (`fmulex.s.*` / `fmacex.s.*`).
//!
//! Under round-to-nearest-even these widen their lanes straight to `f64`
//! and chain the accumulate steps on the host FPU; when a step leaves the
//! host path, and in every other rounding mode, they rerun the chain one
//! step at a time through `fast::` (`ops` wherever no leaf applies). The
//! reference here
//! rebuilds the architectural semantics from the generic runtime-`Format`
//! ops alone: widen each lane to the accumulator format with
//! `ops::cvt_f_f` (exact, flags discarded into a scratch env, as the
//! interpreter's scalar path does), then chain single-rounding
//! `ops::fmadd`s there, lane 0 first, the replicated form reusing lane 0
//! of the second operand. Results and accumulated flags must match
//! exactly, under all five rounding modes.
//!
//! * 8-bit lanes: release builds sweep every 256×256 lane pair in every
//!   lane position, and in the first position under every rounding mode
//!   against the class-covering accumulators; debug builds sample.
//! * 16-bit lanes: ≥1M sampled cases per operation in release, lanes and
//!   accumulators drawn with forced ±0, subnormal, NaN, infinity and
//!   near-overflow values next to a narrow exponent window around 1 (where
//!   the host path decides almost every step).

use smallfloat_devtools::{prop, Rng};
use smallfloat_softfp::{batch, fast, ops, Env, Format, Rounding};

const B8: Format = Format::BINARY8;
const B8A: Format = Format::BINARY8ALT;
const H: Format = Format::BINARY16;
const AH: Format = Format::BINARY16ALT;
const S: Format = Format::BINARY32;

/// Sampled cases per 16-bit operation: ≥1M in release, smoke-sized in
/// debug builds.
const N: u64 = if cfg!(debug_assertions) {
    4_096
} else {
    1_048_576
};

type Dot2 = fn(u32, u32, u32, bool, &mut Env) -> u32;

/// The two-lane entry points with their lane format.
const DOT2: [(&str, Format, Dot2); 4] = [
    ("vdotpex2_f16", H, batch::vdotpex2_f16),
    ("vdotpex2_f16alt", AH, batch::vdotpex2_f16alt),
    ("vsdotp2_f16", H, batch::vsdotp2_f16),
    ("vsdotp2_f16alt", AH, batch::vsdotp2_f16alt),
];

/// Exact widening of `bits` to `wide`, flags discarded.
fn widen(wide: Format, fmt: Format, bits: u64, rm: Rounding) -> u64 {
    ops::cvt_f_f(wide, fmt, bits, &mut Env::new(rm))
}

/// Reference chain: `acc + a[0]*b[0] + a[1]*b[1] + …` in `wide`, one
/// `ops::fmadd` per lane pair (see module docs).
fn chain(wide: Format, fmt: Format, acc: u64, a: &[u64], b: &[u64], env: &mut Env) -> u64 {
    a.iter().zip(b).fold(acc, |acc, (&x, &y)| {
        let (x, y) = (widen(wide, fmt, x, env.rm), widen(wide, fmt, y, env.rm));
        ops::fmadd(wide, x, y, acc, env)
    })
}

/// The `n` lanes of `v`, `32 / n` bits each; under `rep` lane 0 in every
/// position.
fn lanes(v: u32, n: u32, rep: bool) -> Vec<u64> {
    let w = 32 / n;
    (0..n)
        .map(|i| {
            let i = if rep { 0 } else { i };
            u64::from(v >> (w * i)) & ((1 << w) - 1)
        })
        .collect()
}

fn reference_dot2(fmt: Format, acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    chain(
        S,
        fmt,
        acc.into(),
        &lanes(va, 2, false),
        &lanes(vb, 2, rep),
        env,
    ) as u32
}

fn reference_sdotp4(
    fmt: Format,
    wide: Format,
    acc: u32,
    va: u32,
    vb: u32,
    rep: bool,
    env: &mut Env,
) -> u32 {
    let (a, b) = (lanes(va, 4, false), lanes(vb, 4, rep));
    let lo = chain(wide, fmt, u64::from(acc & 0xffff), &a[..2], &b[..2], env);
    let hi = chain(wide, fmt, u64::from(acc >> 16), &a[2..], &b[2..], env);
    (hi << 16 | lo) as u32
}

fn check_dot2(name: &str, fmt: Format, f: Dot2, (acc, va, vb): (u32, u32, u32), rep: bool) {
    for rm in Rounding::ALL {
        let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
        let got = f(acc, va, vb, rep, &mut ef);
        let want = reference_dot2(fmt, acc, va, vb, rep, &mut er);
        assert_eq!(
            (got, ef.flags),
            (want, er.flags),
            "{name}(acc={acc:#010x}, va={va:#010x}, vb={vb:#010x}, rep={rep}) rm={rm}"
        );
    }
}

fn check_sdotp4(
    fmt: Format,
    wide: Format,
    (acc, va, vb): (u32, u32, u32),
    rep: bool,
    rm: Rounding,
) {
    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
    let got = batch::vsdotp4_f8(fmt, wide, acc, va, vb, rep, &mut ef);
    let want = reference_sdotp4(fmt, wide, acc, va, vb, rep, &mut er);
    assert_eq!(
        (got, ef.flags),
        (want, er.flags),
        "vsdotp4_f8<{}, {}>(acc={acc:#010x}, va={va:#010x}, vb={vb:#010x}, rep={rep}) rm={rm}",
        fmt.name(),
        wide.name()
    );
}

/// `fast::mulex` and `fast::macex` against `ops::mul`/`ops::fmadd` at
/// binary32 of the widened factors, under every rounding mode.
fn check_ex(src: Format, a: u64, b: u64, acc: u32) {
    for rm in Rounding::ALL {
        let (wa, wb) = (widen(S, src, a, rm), widen(S, src, b, rm));
        let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
        let got = fast::mulex(src, a, b, &mut ef);
        let want = ops::mul(S, wa, wb, &mut er);
        assert_eq!(
            (got, ef.flags),
            (want, er.flags),
            "mulex<{}>({a:#x}, {b:#x}) rm={rm}",
            src.name()
        );
        let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
        let got = fast::macex(src, a, b, acc.into(), &mut ef);
        let want = ops::fmadd(S, wa, wb, acc.into(), &mut er);
        assert_eq!(
            (got, ef.flags),
            (want, er.flags),
            "macex<{}>({a:#x}, {b:#x}, {acc:#010x}) rm={rm}",
            src.name()
        );
    }
}

/// A `fmt` encoding from one of the value classes the chains round
/// against; the narrow window around 1 (the host path's domain) half the
/// time.
fn draw(rng: &mut Rng, fmt: Format) -> u64 {
    let (m, w) = (fmt.man_bits(), fmt.width());
    let man = rng.u64() & ((1u64 << m) - 1);
    let exp_max = (1u64 << fmt.exp_bits()) - 1;
    let sign = u64::from(rng.bool()) << (w - 1);
    let mag = match rng.weighted(&[8, 2, 1, 2, 1, 1, 1]) {
        // Within ±4 binades of 1.
        0 => ((fmt.bias() + rng.range_i32(-4, 4)) as u64) << m | man,
        // Any encoding.
        1 => rng.u64() & ((1u64 << (w - 1)) - 1),
        2 => 0,
        // Subnormal.
        3 => man.max(1),
        // Quiet or signaling NaN.
        4 => exp_max << m | man.max(1),
        5 => exp_max << m,
        // Near overflow: the top two binades.
        _ => (exp_max - 1 - rng.below(2)) << m | man,
    };
    sign | mag
}

/// A vector of `32 / lane_bits` lanes, each drawn by [`draw`].
fn draw_vec(rng: &mut Rng, fmt: Format) -> u32 {
    let w = fmt.width();
    (0..32 / w).fold(0, |v, i| v | (draw(rng, fmt) as u32) << (w * i))
}

#[test]
fn sampled_16bit_dot_products_match_reference() {
    for (name, fmt, f) in DOT2 {
        // The vsdotp2 entry points share vdotpex2's body: a smaller sample.
        let n = if name.starts_with("vsdotp") { N / 4 } else { N };
        prop::cases(name, n, |rng| {
            let acc = draw(rng, S) as u32;
            let (va, vb) = (draw_vec(rng, fmt), draw_vec(rng, fmt));
            check_dot2(name, fmt, f, (acc, va, vb), rng.below(4) == 0);
        });
    }
}

#[test]
fn sampled_16bit_expanding_scalars_match_reference() {
    for src in [H, AH] {
        prop::cases(&format!("mulex_macex_{}", src.name()), N / 4, |rng| {
            let (a, b) = (draw(rng, src), draw(rng, src));
            check_ex(src, a, b, draw(rng, S) as u32);
        });
    }
}

#[test]
fn sampled_8bit_sum_of_dot_products_match_reference() {
    for fmt in [B8, B8A] {
        for wide in [H, AH] {
            prop::cases(
                &format!("vsdotp4_{}_{}", fmt.name(), wide.name()),
                N / 16,
                |rng| {
                    let acc = (draw(rng, wide) | draw(rng, wide) << 16) as u32;
                    let (va, vb) = (rng.u32(), rng.u32());
                    let rep = rng.below(4) == 0;
                    for rm in Rounding::ALL {
                        check_sdotp4(fmt, wide, (acc, va, vb), rep, rm);
                    }
                },
            );
        }
    }
}

/// Accumulators per destination width covering the classes the chain
/// rounds against: zeros, ±1, the smallest normal, the largest subnormal,
/// a value that absorbs small products, max finite, infinity and NaN.
fn accs(wide: Format) -> Vec<u64> {
    let one = wide.one();
    let min_normal = 1u64 << wide.man_bits();
    let absorb = (((wide.bias() + 12) as u64) << wide.man_bits()) | 1;
    vec![
        0,
        wide.sign_bit(),
        one,
        wide.negate(one),
        min_normal,
        min_normal - 1,
        absorb,
        wide.max_finite(false),
        wide.infinity(false),
        wide.quiet_nan(),
    ]
}

/// A 16-bit accumulator in both destination lanes.
fn splat16(acc: u64) -> u32 {
    (acc | acc << 16) as u32
}

/// Every 8-bit lane pair in every lane position against zero, one and an
/// absorbing accumulator, both operand forms, round-to-nearest-even (the
/// host path); the other lanes are zero, so the pair under test is the
/// only rounding event besides the accumulator.
#[cfg(not(debug_assertions))]
#[test]
fn all_8bit_pairs_every_lane_position() {
    for fmt in [B8, B8A] {
        for wide in [H, AH] {
            let acc = accs(wide);
            for lane in 0..4u32 {
                for a in 0..256u32 {
                    for b in 0..256u32 {
                        for &c in [acc[0], acc[2], acc[6]].iter() {
                            for rep in [false, true] {
                                let v = (splat16(c), a << (8 * lane), b << (8 * lane));
                                check_sdotp4(fmt, wide, v, rep, Rounding::Rne);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every 8-bit lane pair in lane 0 (the first step of the low chain, so it
/// meets every accumulator class unmodified) with lane 1 holding the same
/// pair mirrored, under all five rounding modes.
#[cfg(not(debug_assertions))]
#[test]
fn all_8bit_pairs_all_rounding_modes() {
    for fmt in [B8, B8A] {
        for wide in [H, AH] {
            for a in 0..256u32 {
                for b in 0..256u32 {
                    for &c in &accs(wide) {
                        for rm in Rounding::ALL {
                            let v = (splat16(c), a | b << 8, b | a << 8);
                            check_sdotp4(fmt, wide, v, false, rm);
                        }
                    }
                }
            }
        }
    }
}

/// Every 8-bit factor pair through the scalar expanding ops, against the
/// binary32 accumulator classes.
#[cfg(not(debug_assertions))]
#[test]
fn all_8bit_pairs_expanding_scalars() {
    for src in [B8, B8A] {
        for a in 0..256u64 {
            for b in 0..256u64 {
                for &acc in &accs(S) {
                    check_ex(src, a, b, acc as u32);
                }
            }
        }
    }
}

/// Debug-profile sample of the 8-bit pair sweeps.
#[test]
fn sampled_8bit_pairs_and_scalars() {
    let mut rng = Rng::new(0x5d07_4e8b);
    for _ in 0..2_000 {
        let (a, b) = (rng.u64() & 0xff, rng.u64() & 0xff);
        for src in [B8, B8A] {
            check_ex(src, a, b, draw(&mut rng, S) as u32);
            for wide in [H, AH] {
                let acc = splat16(rng.pick(&accs(wide)));
                let v = (acc, (a | b << 16) as u32, (b | a << 24) as u32);
                check_sdotp4(
                    src,
                    wide,
                    v,
                    rng.bool(),
                    Rounding::ALL[rng.below(5) as usize],
                );
            }
        }
    }
}

/// Chains whose steps take different paths: an exact zero first step
/// followed by an underflowing product, an overflowing second step, a
/// special second lane after a normal first one, and a product absorbed
/// by a huge accumulator (a nonzero TwoSum error, so only NX tells it
/// apart). Each must give the integer chain's result and flags.
#[test]
fn mixed_path_chains_match_reference() {
    let (one_h, one_ah) = (0x3c00u32, 0x3f80u32);
    let h = [
        // -1 + 1·1 = +0, then + 2^-24 · 2^-24.
        (0xbf80_0000u32, 0x0001 << 16 | one_h, 0x0001 << 16 | one_h),
        // 1 + 1·1, then + inf·1 and + NaN·1.
        (0x3f80_0000, 0x7c00 << 16 | one_h, one_h << 16 | one_h),
        (0x3f80_0000, 0x7e00 << 16 | one_h, one_h << 16 | one_h),
        (0x3f80_0000, 0x7d00 << 16 | one_h, one_h << 16 | one_h),
        // 1e30 absorbs both products.
        (0x7149_f2ca, one_h << 16 | one_h, 0x3555 << 16 | one_h),
    ];
    let ah = [
        // -1 + 1·1 = +0, then 2^-133 · 2^-133 underflows binary32.
        (0xbf80_0000u32, 0x0001 << 16 | one_ah, 0x0001 << 16 | one_ah),
        // Max finite + max bf16 · 1 overflows on the second step.
        (0x7f7f_ffff, 0x7f7f_0000, one_ah << 16 | one_ah),
        (0x3f80_0000, 0x7f80 << 16 | one_ah, one_ah << 16 | one_ah),
        (0x3f80_0000, 0x7f81 << 16 | one_ah, one_ah << 16 | one_ah),
        (0x7149_f2ca, one_ah << 16 | one_ah, 0x3eab << 16 | one_ah),
    ];
    for (name, fmt, f) in DOT2 {
        for &v in if fmt == H { &h } else { &ah } {
            for rep in [false, true] {
                check_dot2(name, fmt, f, v, rep);
            }
        }
    }
}
