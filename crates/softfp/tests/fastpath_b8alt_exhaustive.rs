//! Exhaustive binary8alt (FP8 E4M3) differential suite: fast path vs
//! generic reference.
//!
//! `binary8alt` has 256 encodings, so the fast path (exhaustive tables, the
//! `<4, 3>` host-FPU leaves at round-to-nearest-even and the bit-level
//! kernels behind [`smallfloat_softfp::fast`]) can be
//! proven bit- and flag-identical to the generic runtime-`Format` reference
//! in [`smallfloat_softfp::ops`] by enumeration rather than sampling,
//! mirroring the binary8 (E5M2) suite:
//!
//! * add/sub/mul/div — **all** 256×256 operand pairs × all 5 rounding modes,
//! * fused multiply-add — all 256×256 `(a, b)` pairs × a class-covering set
//!   of addends × all 5 rounding modes (plus the negated variants),
//! * sqrt — all 256 encodings × all 5 rounding modes,
//! * classify, comparisons, min/max, sign injection — all encodings/pairs,
//! * conversions — all 256 encodings, widening, cross-bank and identity.
//!
//! Every assertion checks the result bits *and* the exception flags.

use smallfloat_softfp::{fast, ops, Env, Format, Rounding};

const B8A: Format = Format::BINARY8ALT;

/// Addends for the FMA sweep: one representative per binary8alt value class
/// and rounding-sensitive neighborhood (±0, ±min subnormal, ±max subnormal,
/// ±min normal, ±1, odd/even small normals, ±max finite, ±inf, sNaN, qNaN).
const FMA_ADDENDS: [u64; 20] = [
    0x00, 0x80, // +0, -0
    0x01, 0x81, // +/- min subnormal
    0x07, 0x87, // +/- max subnormal
    0x08, 0x88, // +/- min normal
    0x38, 0xb8, // +/- 1.0
    0x39, 0x29, // 1.125, odd-significand small normal
    0x2e, 0xae, // +/- 0.4375 mid normal
    0x77, 0xf7, // +/- max finite
    0x78, 0xf8, // +/- inf
    0x79, 0x7c, // sNaN, qNaN
];

fn check2(
    name: &str,
    rm: Rounding,
    a: u64,
    b: u64,
    f: fn(Format, u64, u64, &mut Env) -> u64,
    r: fn(Format, u64, u64, &mut Env) -> u64,
) {
    let mut ef = Env::new(rm);
    let mut er = Env::new(rm);
    let vf = f(B8A, a, b, &mut ef);
    let vr = r(B8A, a, b, &mut er);
    assert_eq!(
        (vf, ef.flags),
        (vr, er.flags),
        "{name}({a:#04x}, {b:#04x}) rm={rm}: fast {vf:#04x}/{:?} vs ref {vr:#04x}/{:?}",
        ef.flags,
        er.flags
    );
}

#[test]
fn b8alt_add_sub_mul_div_all_pairs_all_rounding_modes() {
    type Op = (
        &'static str,
        fn(Format, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, &mut Env) -> u64,
    );
    let binops: [Op; 4] = [
        ("add", fast::add, ops::add),
        ("sub", fast::sub, ops::sub),
        ("mul", fast::mul, ops::mul),
        ("div", fast::div, ops::div),
    ];
    for rm in Rounding::ALL {
        for a in 0..256u64 {
            for b in 0..256u64 {
                for (name, f, r) in binops {
                    check2(name, rm, a, b, f, r);
                }
            }
        }
    }
}

#[test]
fn b8alt_fma_all_pairs_class_covering_addends() {
    for rm in Rounding::ALL {
        for a in 0..256u64 {
            for b in 0..256u64 {
                for c in FMA_ADDENDS {
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::fmadd(B8A, a, b, c, &mut ef);
                    let vr = ops::fmadd(B8A, a, b, c, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "fmadd({a:#04x}, {b:#04x}, {c:#04x}) rm={rm}"
                    );
                }
            }
        }
    }
}

/// Release builds sweep the *entire* `256^3 x 5` fma input space (~84M
/// triples): the binary8alt fma (the `host::fma::<4, 3>` leaf at
/// round-to-nearest-even, `ops` where it declines and in the other modes)
/// is proven equal to the generic reference by total enumeration, not
/// sampling. Debug builds rely on the class-covering addend sweep above.
#[cfg(not(debug_assertions))]
#[test]
fn b8alt_fma_full_cube_all_rounding_modes() {
    for rm in Rounding::ALL {
        for a in 0..256u64 {
            for b in 0..256u64 {
                for c in 0..256u64 {
                    let mut ef = Env::new(rm);
                    let mut er = Env::new(rm);
                    let vf = fast::fmadd(B8A, a, b, c, &mut ef);
                    let vr = ops::fmadd(B8A, a, b, c, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "fmadd({a:#04x}, {b:#04x}, {c:#04x}) rm={rm}"
                    );
                }
            }
        }
    }
}

#[test]
fn b8alt_negated_fma_variants_all_pairs() {
    // The negated variants share the fmadd path after operand sign flips;
    // a single rounding mode over all pairs (with the addend sweep folded to
    // the rounding-interesting subset) exercises every flip combination.
    type Fma = (
        &'static str,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
        fn(Format, u64, u64, u64, &mut Env) -> u64,
    );
    let variants: [Fma; 3] = [
        ("fmsub", fast::fmsub, ops::fmsub),
        ("fnmsub", fast::fnmsub, ops::fnmsub),
        ("fnmadd", fast::fnmadd, ops::fnmadd),
    ];
    for a in 0..256u64 {
        for b in 0..256u64 {
            for c in [0x00u64, 0x38, 0xb8, 0x01, 0x77, 0x78, 0x79] {
                for (name, f, r) in variants {
                    let mut ef = Env::new(Rounding::Rne);
                    let mut er = Env::new(Rounding::Rne);
                    let vf = f(B8A, a, b, c, &mut ef);
                    let vr = r(B8A, a, b, c, &mut er);
                    assert_eq!(
                        (vf, ef.flags),
                        (vr, er.flags),
                        "{name}({a:#04x}, {b:#04x}, {c:#04x})"
                    );
                }
            }
        }
    }
}

#[test]
fn b8alt_sqrt_all_encodings_all_rounding_modes() {
    for rm in Rounding::ALL {
        for a in 0..256u64 {
            let mut ef = Env::new(rm);
            let mut er = Env::new(rm);
            let vf = fast::sqrt(B8A, a, &mut ef);
            let vr = ops::sqrt(B8A, a, &mut er);
            assert_eq!((vf, ef.flags), (vr, er.flags), "sqrt({a:#04x}) rm={rm}");
        }
    }
}

#[test]
fn b8alt_classify_all_encodings() {
    for a in 0..256u64 {
        assert_eq!(
            fast::classify(B8A, a),
            ops::classify(B8A, a),
            "classify({a:#04x})"
        );
    }
}

#[test]
fn b8alt_comparisons_minmax_sgnj_all_pairs() {
    for a in 0..256u64 {
        for b in 0..256u64 {
            // Comparisons: results and the NV-on-NaN flag behavior.
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
            for (name, f, r) in cmps {
                let mut ef = Env::new(Rounding::Rne);
                let mut er = Env::new(Rounding::Rne);
                let vf = f(B8A, a, b, &mut ef);
                let vr = r(B8A, a, b, &mut er);
                assert_eq!((vf, ef.flags), (vr, er.flags), "{name}({a:#04x}, {b:#04x})");
            }
            check2("fmin", Rounding::Rne, a, b, fast::fmin, ops::fmin);
            check2("fmax", Rounding::Rne, a, b, fast::fmax, ops::fmax);
            // Sign injection takes no environment and raises no flags.
            assert_eq!(fast::fsgnj(B8A, a, b), ops::fsgnj(B8A, a, b));
            assert_eq!(fast::fsgnjn(B8A, a, b), ops::fsgnjn(B8A, a, b));
            assert_eq!(fast::fsgnjx(B8A, a, b), ops::fsgnjx(B8A, a, b));
        }
    }
}

#[test]
fn b8alt_conversions_all_encodings() {
    // Widening (table-driven), cross-bank (binary8alt <-> binary8) and
    // identity conversions out of binary8alt — all encodings, all modes.
    let dsts = [
        Format::BINARY8ALT,
        Format::BINARY8,
        Format::BINARY16,
        Format::BINARY16ALT,
        Format::BINARY32,
    ];
    for rm in Rounding::ALL {
        for a in 0..256u64 {
            for dst in dsts {
                let mut ef = Env::new(rm);
                let mut er = Env::new(rm);
                let vf = fast::cvt_f_f(dst, B8A, a, &mut ef);
                let vr = ops::cvt_f_f(dst, B8A, a, &mut er);
                assert_eq!(
                    (vf, ef.flags),
                    (vr, er.flags),
                    "cvt b8alt->{} ({a:#04x}) rm={rm}",
                    dst.name()
                );
            }
        }
    }
}
