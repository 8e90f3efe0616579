//! Differential suite for the host-FPU round-to-nearest path of
//! binary32, binary16 and binary16alt (add/sub/mul/fma and the
//! float-to-float conversions): `fast::*` against the generic `ops::*`
//! reference, results and flags. The expanding ops, which share the
//! path, have their own suite (`dotp_differential.rs`).
//!
//! Uniformly drawn encodings (`fastpath_sampled.rs`) mostly land on
//! operands whose results overflow, underflow or are far apart, so this
//! suite aims at the cases the host path itself decides:
//!
//! * operands drawn from a narrow exponent window, where almost every
//!   round-to-nearest result is a normal number (the host path's domain);
//! * boundary cases built on purpose: fma sums on a format midpoint with a
//!   nonzero TwoSum error (the double-rounding case that must fall back),
//!   results at the smallest normal and at the largest finite value,
//!   exact zero results (`x + (-x)`, signed-zero sums, zero products and
//!   exact fma cancellation, which the host path returns with IEEE 754's
//!   signs), subnormal, NaN and infinite operands, and garbage above the
//!   format width;
//! * an `#[ignore]`d exhaustive sweep of binary16 add and mul over all 2^32
//!   operand pairs at round-to-nearest-even (`cargo test --release -p
//!   smallfloat-softfp --test fastpath_host_rne -- --ignored`).

use smallfloat_devtools::{prop, Rng};
use smallfloat_softfp::{fast, ops, Env, Format, Rounding};

/// Cases per (op, format): ≥1M in release, smoke-sized in debug builds.
const N: u64 = if cfg!(debug_assertions) {
    8_192
} else {
    1_048_576
};

const FMTS: [Format; 3] = [Format::BINARY16, Format::BINARY16ALT, Format::BINARY32];

type Bin = fn(Format, u64, u64, &mut Env) -> u64;
type Tern = fn(Format, u64, u64, u64, &mut Env) -> u64;

const BINOPS: [(&str, Bin, Bin); 3] = [
    ("add", fast::add, ops::add),
    ("sub", fast::sub, ops::sub),
    ("mul", fast::mul, ops::mul),
];

const FMAS: [(&str, Tern, Tern); 4] = [
    ("fmadd", fast::fmadd, ops::fmadd),
    ("fmsub", fast::fmsub, ops::fmsub),
    ("fnmsub", fast::fnmsub, ops::fnmsub),
    ("fnmadd", fast::fnmadd, ops::fnmadd),
];

/// An exactly representable `f64` as a `fmt` encoding.
fn enc(fmt: Format, v: f64) -> u64 {
    let mut env = Env::new(Rounding::Rne);
    let bits = ops::from_f64(fmt, v, &mut env);
    assert!(env.flags.is_empty(), "{v:e} is not exact in {}", fmt.name());
    bits
}

fn check2(name: &str, f: Bin, r: Bin, fmt: Format, a: u64, b: u64, rm: Rounding) {
    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
    let vf = f(fmt, a, b, &mut ef);
    let vr = r(fmt, a, b, &mut er);
    assert_eq!(
        (vf, ef.flags),
        (vr, er.flags),
        "{name}<{}>({a:#x}, {b:#x}) rm={rm}",
        fmt.name()
    );
}

fn check3(name: &str, f: Tern, r: Tern, fmt: Format, (a, b, c): (u64, u64, u64), rm: Rounding) {
    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
    let vf = f(fmt, a, b, c, &mut ef);
    let vr = r(fmt, a, b, c, &mut er);
    assert_eq!(
        (vf, ef.flags),
        (vr, er.flags),
        "{name}<{}>({a:#x}, {b:#x}, {c:#x}) rm={rm}",
        fmt.name()
    );
}

/// Every binary op and fma variant on `(a, b, c)` under every rounding
/// mode, with the operands rotated so each reaches every position.
fn check_all(fmt: Format, a: u64, b: u64, c: u64) {
    for rm in Rounding::ALL {
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b)] {
            for (name, f, r) in BINOPS {
                check2(name, f, r, fmt, x, y, rm);
            }
            for (name, f, r) in FMAS {
                check3(name, f, r, fmt, (x, y, z), rm);
            }
        }
    }
}

/// A finite encoding with its exponent within `±4` binades of 1: under
/// round-to-nearest almost every add, mul and fma result is a normal.
fn draw_window(rng: &mut Rng, fmt: Format) -> u64 {
    let exp = (fmt.bias() + rng.range_i32(-4, 4)) as u64;
    let man = rng.u64() & ((1u64 << fmt.man_bits()) - 1);
    let sign = u64::from(rng.bool());
    let bits = (sign << (fmt.width() - 1)) | (exp << fmt.man_bits()) | man;
    if rng.below(16) == 0 {
        bits | (rng.u64() << fmt.width()) // garbage above the format width
    } else {
        bits
    }
}

/// Round-to-nearest-even three times in four, any other mode otherwise.
fn draw_rm(rng: &mut Rng) -> Rounding {
    if rng.below(4) == 0 {
        Rounding::ALL[rng.below(5) as usize]
    } else {
        Rounding::Rne
    }
}

#[test]
fn narrow_window_binary_ops_match_reference() {
    for fmt in FMTS {
        for (name, f, r) in BINOPS {
            prop::cases(&format!("host_rne_{name}_{}", fmt.name()), N, |rng| {
                let (a, b) = (draw_window(rng, fmt), draw_window(rng, fmt));
                check2(name, f, r, fmt, a, b, draw_rm(rng));
            });
        }
    }
}

#[test]
fn narrow_window_fma_variants_match_reference() {
    for fmt in FMTS {
        for (name, f, r) in FMAS {
            prop::cases(&format!("host_rne_{name}_{}", fmt.name()), N, |rng| {
                let (a, b, c) = (
                    draw_window(rng, fmt),
                    draw_window(rng, fmt),
                    draw_window(rng, fmt),
                );
                check3(name, f, r, fmt, (a, b, c), draw_rm(rng));
            });
        }
    }
}

#[test]
fn narrow_window_conversions_match_reference() {
    for src in FMTS {
        for dst in FMTS {
            prop::cases(
                &format!("host_rne_cvt_{}_{}", src.name(), dst.name()),
                N / 4,
                |rng| {
                    let bits = draw_window(rng, src);
                    let rm = draw_rm(rng);
                    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
                    assert_eq!(
                        (fast::cvt_f_f(dst, src, bits, &mut ef), ef.flags),
                        (ops::cvt_f_f(dst, src, bits, &mut er), er.flags),
                        "cvt {}->{} ({bits:#x}) rm={rm}",
                        src.name(),
                        dst.name()
                    );
                },
            );
        }
    }
}

/// fma sums that sit on a midpoint of the format. binary32 and
/// binary16alt reach a midpoint with a nonzero TwoSum error (a tiny addend
/// below binary64's precision, or a product term that is): rounding the
/// host sum alone would resolve the tie to even, the exact sum is just
/// off it. binary16's exponent range is too narrow for that within its
/// finite range, so its midpoints come with an exact host sum.
#[test]
fn fma_midpoints_match_reference() {
    let b32 = Format::BINARY32;
    let eps32 = f64::from(f32::EPSILON); // 2^-23
    let cases32 = [
        // 1+2^-23 + (1+2^-23)(1-2^-23)2^-24 = 1 + 3·2^-24 - 2^-70: the
        // host sum is the midpoint 1 + 3·2^-24, the exact one just below.
        (1.0 + eps32, (1.0 - eps32) * 2f64.powi(-24), 1.0 + eps32),
        // (1+2^-12)^2 = 1 + 2^-11 + 2^-24, a midpoint; ±2^-100 tips it.
        (1.0 + 2f64.powi(-12), 1.0 + 2f64.powi(-12), 2f64.powi(-100)),
        (
            1.0 + 2f64.powi(-12),
            1.0 + 2f64.powi(-12),
            -(2f64.powi(-100)),
        ),
        // The same midpoint with an exact host sum: a true tie.
        (1.0 + 2f64.powi(-12), 1.0 + 2f64.powi(-12), 0.0),
    ];
    for (a, b, c) in cases32 {
        check_all(b32, enc(b32, a), enc(b32, b), enc(b32, c));
        check_all(b32, enc(b32, -a), enc(b32, b), enc(b32, -c));
    }
    // The tipped midpoints round away from the tie-to-even neighbour.
    let mut env = Env::new(Rounding::Rne);
    let (a, b, c) = cases32[0];
    let r = fast::fmadd(b32, enc(b32, a), enc(b32, b), enc(b32, c), &mut env);
    assert_eq!(r, enc(b32, 1.0 + eps32), "rounds down, not to even");
    let (a, b, c) = cases32[1];
    let r = fast::fmadd(b32, enc(b32, a), enc(b32, b), enc(b32, c), &mut env);
    assert_eq!(r, enc(b32, 1.0 + 2f64.powi(-11) + eps32), "rounds up");

    let bf = Format::BINARY16ALT;
    let casesbf = [
        // 0.875 · 1.15625 = 1 + 3·2^-8, a midpoint; ±2^-80 tips it.
        (0.875, 1.15625, -(2f64.powi(-80))),
        (0.875, 1.15625, 2f64.powi(-80)),
        // (1 + 2^-3)(1 + 2^-5) = 1 + 2^-3 + 2^-5 + 2^-8, a midpoint.
        (1.125, 1.03125, 2f64.powi(-100)),
        (1.125, 1.03125, -(2f64.powi(-100))),
        (1.125, 1.03125, 0.0),
    ];
    for (a, b, c) in casesbf {
        check_all(bf, enc(bf, a), enc(bf, b), enc(bf, c));
        check_all(bf, enc(bf, -a), enc(bf, b), enc(bf, -c));
    }
    let (a, b, c) = casesbf[0];
    let r = fast::fmadd(bf, enc(bf, a), enc(bf, b), enc(bf, c), &mut env);
    assert_eq!(r, enc(bf, 1.0 + 2f64.powi(-7)), "binary16alt rounds down");

    let h = Format::BINARY16;
    // (1 + 2^-5)(1 + 2^-6) = 1 + 2^-5 + 2^-6 + 2^-11, a midpoint.
    for c in [0.0, 2f64.powi(-24), -(2f64.powi(-24)), 2f64.powi(-14)] {
        check_all(
            h,
            enc(h, 1.0 + 2f64.powi(-5)),
            enc(h, 1.0 + 2f64.powi(-6)),
            enc(h, c),
        );
    }
}

/// Results at and around the smallest normal `±2^emin`: exactly on it,
/// one subnormal ULP below, a product that only rounds up to it, and the
/// same reached by add, mul and fma.
#[test]
fn smallest_normal_results_match_reference() {
    for fmt in FMTS {
        let emin = fmt.emin();
        let m = fmt.man_bits() as i32;
        let tiny = 2f64.powi(emin);
        let sub_ulp = 2f64.powi(emin - m);
        let below_one = 1.0 - 2f64.powi(-m - 1); // largest value below 1
        let half_exp = emin / 2;
        let operands = [
            (2f64.powi(half_exp), 2f64.powi(emin - half_exp), 0.0),
            (tiny, 1.0, 0.0),
            (1.5 * tiny, -0.5 * tiny, tiny),
            (tiny, -sub_ulp, sub_ulp),
            (tiny - sub_ulp, sub_ulp, 1.0),
            (below_one, tiny, -sub_ulp),
            (below_one, tiny * 2.0, -tiny),
            (1.0 + 2f64.powi(-m), tiny, -tiny),
        ];
        for (a, b, c) in operands {
            check_all(fmt, enc(fmt, a), enc(fmt, b), enc(fmt, c));
            check_all(fmt, enc(fmt, -a), enc(fmt, b), enc(fmt, c));
        }
    }
}

/// Results at the largest finite value: exact, just under the overflow
/// threshold, on it (ties to even = infinity) and past it.
#[test]
fn max_finite_results_match_reference() {
    for fmt in FMTS {
        let m = fmt.man_bits() as i32;
        let max = ops::to_f64(fmt, fmt.max_finite(false));
        let emax = fmt.bias();
        let ulp = 2f64.powi(emax - m);
        let operands = [
            (max, 0.0, 1.0),
            (max, ulp / 2.0, 1.0),
            (max, ulp / 4.0, 1.0),
            (max, 1.0 + 2f64.powi(-m), 0.0),
            (max, 1.0, max),
            (max, -max, ulp),
            (max / 2.0, 2.0, ulp / 2.0),
            (max / 2.0, 2.0, -(ulp / 2.0)),
        ];
        for (a, b, c) in operands {
            check_all(fmt, enc(fmt, a), enc(fmt, b), enc(fmt, c));
            check_all(fmt, enc(fmt, -a), enc(fmt, -b), enc(fmt, c));
        }
        // max + ulp/2 ties to even: infinity, OF|NX.
        let mut env = Env::new(Rounding::Rne);
        let r = fast::add(fmt, fmt.max_finite(false), enc(fmt, ulp / 2.0), &mut env);
        assert_eq!(r, fmt.infinity(false), "{}", fmt.name());
    }
}

/// `x + (-x)`, signed zeros, exact fma cancellation, zero products.
#[test]
fn zero_results_match_reference() {
    for fmt in FMTS {
        let (pz, nz) = (0u64, fmt.sign_bit());
        let x = enc(fmt, 1.5);
        let nx = enc(fmt, -1.5);
        for (a, b, c) in [
            (x, nx, pz),
            (pz, nz, pz),
            (nz, nz, nz),
            (nz, pz, nz),
            (x, pz, nz),
            (nx, pz, pz),
            (enc(fmt, 2.0), x, enc(fmt, -3.0)),
            (enc(fmt, -2.0), x, enc(fmt, 3.0)),
        ] {
            check_all(fmt, a, b, c);
        }
    }
}

/// Subnormal operands (normal, subnormal and zero results), signaling and
/// quiet NaNs, infinities, and garbage above the format width.
#[test]
fn special_operands_match_reference() {
    for fmt in FMTS {
        let m = fmt.man_bits();
        let min_sub = 1u64;
        let max_sub = (1u64 << m) - 1;
        let snan = fmt.infinity(false) | 1;
        let qnan = fmt.quiet_nan();
        let inf = fmt.infinity(false);
        let ninf = fmt.infinity(true);
        let one = fmt.one();
        let big = enc(fmt, 2f64.powi(m as i32 + 1));
        let specials = [
            0,
            min_sub,
            max_sub,
            snan,
            qnan,
            inf,
            ninf,
            one,
            big,
            fmt.negate(min_sub),
            fmt.negate(max_sub),
            fmt.negate(snan),
            fmt.negate(one),
        ];
        let garbage = u64::MAX << fmt.width();
        for &a in &specials {
            for &b in &specials {
                for c in [0, one, max_sub, qnan, ninf] {
                    check_all(fmt, a, b, c);
                    check_all(fmt, a | garbage, b, c | (garbage & 0xdead_beef_0000_0000));
                }
            }
        }
    }
}

/// Conversions at the destination's boundaries: the smallest normal, the
/// overflow threshold (a tie to infinity) and one binary64 ULP either side.
#[test]
fn conversion_boundaries_match_reference() {
    for dst in FMTS {
        let m = dst.man_bits() as i32;
        let max = ops::to_f64(dst, dst.max_finite(false));
        let threshold = max + 2f64.powi(dst.bias() - m - 1);
        let tiny = 2f64.powi(dst.emin());
        let mut values = Vec::new();
        for v in [
            threshold,
            tiny,
            tiny * (1.0 - 2f64.powi(-m - 1)),
            max,
            1.0 + 2f64.powi(-m - 1),
        ] {
            values.extend([
                v,
                f64::from_bits(v.to_bits() - 1),
                f64::from_bits(v.to_bits() + 1),
            ]);
        }
        for v in values.iter().flat_map(|&v| [v, -v]) {
            for rm in Rounding::ALL {
                let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
                assert_eq!(
                    (fast::from_f64(dst, v, &mut ef), ef.flags),
                    (ops::from_f64(dst, v, &mut er), er.flags),
                    "from_f64 {} {v:e} rm={rm}",
                    dst.name()
                );
                for src in FMTS {
                    let mut e = Env::new(Rounding::Rne);
                    let bits = ops::from_f64(src, v, &mut e);
                    let (mut ef, mut er) = (Env::new(rm), Env::new(rm));
                    assert_eq!(
                        (fast::cvt_f_f(dst, src, bits, &mut ef), ef.flags),
                        (ops::cvt_f_f(dst, src, bits, &mut er), er.flags),
                        "cvt {}->{} {bits:#x} rm={rm}",
                        src.name(),
                        dst.name()
                    );
                }
            }
        }
    }
}

/// Every binary16 operand pair through add and mul at
/// round-to-nearest-even, results and flags, on two threads.
#[test]
#[ignore = "2^32 pairs per op: run explicitly in release"]
fn exhaustive_binary16_add_mul_rne() {
    let fmt = Format::BINARY16;
    std::thread::scope(|scope| {
        for half in 0..2u64 {
            scope.spawn(move || {
                for a in (half * 0x8000)..((half + 1) * 0x8000) {
                    for b in 0..=0xffffu64 {
                        for (name, f, r) in [BINOPS[0], BINOPS[2]] {
                            let (mut ef, mut er) = (Env::new(Rounding::Rne), Env::new(Rounding::Rne));
                            let vf = f(fmt, a, b, &mut ef);
                            let vr = r(fmt, a, b, &mut er);
                            assert!(
                                vf == vr && ef.flags == er.flags,
                                "{name}<binary16>({a:#06x}, {b:#06x}): {vf:#06x} {} vs {vr:#06x} {}",
                                ef.flags,
                                er.flags
                            );
                        }
                    }
                }
            });
        }
    });
}
