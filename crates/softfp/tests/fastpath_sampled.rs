//! Sampled differential suite: the fast path (`fast::*`) vs the generic
//! reference for binary16, binary16alt and binary32.
//!
//! At round-to-nearest-even the fast path runs the host-FPU leaves and
//! falls back to `ops` where a leaf declines; the other rounding modes run
//! `ops` itself, so those cases pin the routing, not a second algorithm.
//!
//! The 16- and 32-bit formats are too wide to enumerate pairs, so binary and
//! ternary ops are checked with the devtools property runner: deterministic,
//! replayable seeds (a failure prints the case seed for `prop::replay`),
//! raw operand encodings drawn uniformly (every pattern — subnormals, NaNs,
//! infinities — is reachable), and the rounding mode drawn per case. Release
//! builds run ≥1M cases per (op, format); debug builds keep a smoke-sized
//! sample so plain `cargo test` stays fast.
//!
//! Unary ops (sqrt, classify, conversions) over the 16-bit formats *are*
//! enumerable — all 65536 encodings are swept exhaustively, every rounding
//! mode, results and flags.

use smallfloat_devtools::prop;
use smallfloat_softfp::{fast, ops, Env, Format, Rounding};

/// Cases per (op, format): ≥1M in release, smoke-sized in debug builds.
const N: u64 = if cfg!(debug_assertions) {
    8_192
} else {
    1_048_576
};

const FMTS: [Format; 3] = [Format::BINARY16, Format::BINARY16ALT, Format::BINARY32];

fn draw(rng: &mut smallfloat_devtools::Rng, fmt: Format) -> u64 {
    // Raw uniform encodings; upper garbage bits occasionally left set to
    // check that both implementations ignore them identically.
    let raw = rng.u64();
    if rng.below(8) == 0 {
        raw
    } else {
        raw & fmt.mask()
    }
}

fn rm_of(rng: &mut smallfloat_devtools::Rng) -> Rounding {
    Rounding::ALL[rng.below(5) as usize]
}

#[test]
fn sampled_binary_ops_match_reference() {
    type Op = (
        &'static str,
        fn(Format, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, &mut Env) -> u64,
    );
    let binops: [Op; 6] = [
        ("add", fast::add, ops::add),
        ("sub", fast::sub, ops::sub),
        ("mul", fast::mul, ops::mul),
        ("div", fast::div, ops::div),
        ("fmin", fast::fmin, ops::fmin),
        ("fmax", fast::fmax, ops::fmax),
    ];
    for fmt in FMTS {
        for (name, f, r) in binops {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (a, b) = (draw(rng, fmt), draw(rng, fmt));
                let rm = rm_of(rng);
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = f(fmt, a, b, &mut ef);
                let vr = r(fmt, a, b, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x}) rm={rm}",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_fma_variants_match_reference() {
    type Fma = (
        &'static str,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
    );
    let variants: [Fma; 4] = [
        ("fmadd", fast::fmadd, ops::fmadd),
        ("fmsub", fast::fmsub, ops::fmsub),
        ("fnmsub", fast::fnmsub, ops::fnmsub),
        ("fnmadd", fast::fnmadd, ops::fnmadd),
    ];
    for fmt in FMTS {
        for (name, f, r) in variants {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (a, b, c) = (draw(rng, fmt), draw(rng, fmt), draw(rng, fmt));
                let rm = rm_of(rng);
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = f(fmt, a, b, c, &mut ef);
                let vr = r(fmt, a, b, c, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x}, {c:#x}) rm={rm}",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_comparisons_match_reference() {
    type Cmp = (
        &'static str,
        fn(Format, u64, u64, &mut Env) -> bool,
        fn(Format, u64, u64, &mut Env) -> bool,
    );
    let cmps: [Cmp; 3] = [
        ("feq", fast::feq, ops::feq),
        ("flt", fast::flt, ops::flt),
        ("fle", fast::fle, ops::fle),
    ];
    for fmt in FMTS {
        for (name, f, r) in cmps {
            prop::cases(&format!("fastpath_{name}_{}", fmt.name()), N, |rng| {
                let (mut a, mut b) = (draw(rng, fmt), draw(rng, fmt));
                // Bias toward equal/NaN operands so the interesting branches
                // (equality, NV raising) see real traffic, not just 2^-width.
                match rng.below(4) {
                    0 => b = a,
                    1 => a = fmt.quiet_nan(),
                    _ => {}
                }
                let mut ef = Env::new(Rounding::Rne);
                let mut er = Env::new(Rounding::Rne);
                let vf = f(fmt, a, b, &mut ef);
                let vr = r(fmt, a, b, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "{name}<{}>({a:#x}, {b:#x})",
                    fmt.name()
                );
            });
        }
    }
}

#[test]
fn sampled_cvt_grid_matches_reference() {
    let all = [
        Format::BINARY8,
        Format::BINARY16,
        Format::BINARY16ALT,
        Format::BINARY32,
    ];
    for src in FMTS {
        for dst in all {
            if src == dst {
                continue; // identity conversions covered exhaustively below
            }
            prop::cases(
                &format!("fastpath_cvt_{}_{}", src.name(), dst.name()),
                N,
                |rng| {
                    let bits = draw(rng, src);
                    let rm = rm_of(rng);
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::cvt_f_f(dst, src, bits, &mut ef);
                    let vr = ops::cvt_f_f(dst, src, bits, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "cvt {}->{} ({bits:#x}) rm={rm}",
                        src.name(),
                        dst.name()
                    );
                },
            );
        }
    }
}

#[test]
fn sampled_binary32_sqrt_matches_reference() {
    prop::cases("fastpath_sqrt_binary32", N, |rng| {
        let a = draw(rng, Format::BINARY32);
        let rm = rm_of(rng);
        let mut ef = Env::new(rm);
        let mut er = Env::new(rm);
        let vf = fast::sqrt(Format::BINARY32, a, &mut ef);
        let vr = ops::sqrt(Format::BINARY32, a, &mut er);
        assert_eq!(
            (vf, ef.flags),
            (vr, er.flags),
            "sqrt<binary32>({a:#x}) rm={rm}"
        );
    });
}

// ---------------------------------------------------------------------------
// Exhaustive unary sweeps for the 16-bit formats: all 65536 encodings.
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_16bit_sqrt_all_encodings_all_rounding_modes() {
    for fmt in [Format::BINARY16, Format::BINARY16ALT] {
        for rm in Rounding::ALL {
            for a in 0..=0xffffu64 {
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = fast::sqrt(fmt, a, &mut ef);
                let vr = ops::sqrt(fmt, a, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "sqrt<{}>({a:#06x}) rm={rm}",
                    fmt.name()
                );
            }
        }
    }
}

#[test]
fn exhaustive_16bit_classify_all_encodings() {
    for fmt in [Format::BINARY16, Format::BINARY16ALT] {
        for a in 0..=0xffffu64 {
            assert_eq!(
                fast::classify(fmt, a),
                ops::classify(fmt, a),
                "classify<{}>({a:#06x})",
                fmt.name()
            );
        }
    }
}

#[test]
fn exhaustive_16bit_cvt_all_encodings_all_rounding_modes() {
    // Every conversion out of a 16-bit source: narrowing to binary8, the
    // cross-16-bit pair, widening to binary32, and format identity.
    let dsts = [
        Format::BINARY8,
        Format::BINARY16,
        Format::BINARY16ALT,
        Format::BINARY32,
    ];
    for src in [Format::BINARY16, Format::BINARY16ALT] {
        for dst in dsts {
            for rm in Rounding::ALL {
                for a in 0..=0xffffu64 {
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::cvt_f_f(dst, src, a, &mut ef);
                    let vr = ops::cvt_f_f(dst, src, a, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "cvt {}->{} ({a:#06x}) rm={rm}",
                        src.name(),
                        dst.name()
                    );
                }
            }
        }
    }
}
