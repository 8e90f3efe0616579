//! Differential suite for the batched 4-lane binary8 expanding dot
//! product (`vdotpex4_f8`, the softfp model of `vfdotpex.s.b` /
//! `vfdotpex.r.s.b`).
//!
//! Under round-to-nearest-even the batched implementation widens the lanes
//! straight to `f64`, where each lane product is exact, and rounds every
//! accumulate step once into binary32 on the host FPU; a chain with a
//! step it cannot round exactly (a subnormal, overflowing or non-finite
//! result), and every other rounding mode, reruns one step at a time:
//! lanes widened through the exhaustive binary8 tables, accumulated with
//! `fast::fmadd` (the binary32 fma leaf at round-to-nearest-even, `ops`
//! otherwise). The reference here
//! rebuilds the architectural semantics from the generic runtime-`Format`
//! ops alone: widen each lane to binary32 with
//! `ops::cvt_f_f` (exact, flags discarded into a scratch env, as the
//! interpreter's scalar path does), then chain four single-rounding
//! `ops::fmadd`s at binary32, lane 0 first, with the replicated form
//! reusing lane 0 of the second operand. Results and accumulated
//! exception flags must match exactly.
//!
//! Release builds sweep every 256×256 lane pair in every lane position
//! and, separately, all five rounding modes; debug builds run a seeded
//! random sample so `cargo test` stays quick.

use smallfloat_softfp::{ops, Env, Format, Rounding};

const B8: Format = Format::BINARY8;
const B8A: Format = Format::BINARY8ALT;
const S: Format = Format::BINARY32;

/// Reference ops-chain (see module docs).
fn reference(fmt: Format, acc: u32, va: u32, vb: u32, rep: bool, env: &mut Env) -> u32 {
    let lane = |v: u32, i: u32| ((v >> (8 * i)) & 0xff) as u64;
    let widen = |v: u64, env: &mut Env| {
        let mut scratch = Env::new(env.rm);
        ops::cvt_f_f(S, fmt, v, &mut scratch)
    };
    let b0 = widen(lane(vb, 0), env);
    let mut acc = acc as u64;
    for i in 0..4 {
        let a = widen(lane(va, i), env);
        let b = if rep { b0 } else { widen(lane(vb, i), env) };
        acc = ops::fmadd(S, a, b, acc, env);
    }
    acc as u32
}

fn check_fmt(fmt: Format, acc: u32, va: u32, vb: u32, rep: bool, rm: Rounding) {
    let mut eb = Env::new(rm);
    let mut er = Env::new(rm);
    let vbatch = ops::vdotpex4_f8(fmt, acc, va, vb, rep, &mut eb);
    let vref = reference(fmt, acc, va, vb, rep, &mut er);
    assert_eq!(
        (vbatch, eb.flags),
        (vref, er.flags),
        "vdotpex4_f8(acc={acc:#010x}, va={va:#010x}, vb={vb:#010x}, rep={rep}) rm={rm}: \
         batch {vbatch:#010x}/{:?} vs ref {vref:#010x}/{:?}",
        eb.flags,
        er.flags
    );
}

fn check(acc: u32, va: u32, vb: u32, rep: bool, rm: Rounding) {
    check_fmt(B8, acc, va, vb, rep, rm);
    check_fmt(B8A, acc, va, vb, rep, rm);
}

/// Binary32 accumulators covering the value classes the FMA chain rounds
/// against: zeros, one, a tiny normal, a huge normal (absorbs products),
/// max finite (overflow on the way in), infinity and NaN.
const ACCS: [u32; 9] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x3f80_0000, // 1.0
    0xbf80_0000, // -1.0
    0x0080_0000, // min normal
    0x7149_f2ca, // 1e30 (absorbs every binary8 product)
    0x7f7f_ffff, // max finite
    0x7f80_0000, // +inf
    0x7fc0_0000, // qNaN
];

/// xorshift64 for the sampled sweeps (deterministic, seed-stable).
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Debug-profile sample: random full-width vectors and accumulators,
/// all rounding modes, both operand forms.
#[test]
fn sampled_vectors_all_rounding_modes() {
    let mut s = 0xd07b_0e40_u64;
    for _ in 0..4_000 {
        let acc = xorshift(&mut s) as u32;
        let va = xorshift(&mut s) as u32;
        let vb = xorshift(&mut s) as u32;
        for rm in Rounding::ALL {
            for rep in [false, true] {
                check(acc, va, vb, rep, rm);
            }
        }
    }
}

/// The replicated form must equal the plain form with lane 0 broadcast.
#[test]
fn replicated_equals_broadcast() {
    let mut s = 0xbca5_u64;
    for _ in 0..2_000 {
        let acc = xorshift(&mut s) as u32;
        let va = xorshift(&mut s) as u32;
        let vb = xorshift(&mut s) as u32;
        let splat = (vb & 0xff) * 0x0101_0101;
        let mut e1 = Env::new(Rounding::Rne);
        let mut e2 = Env::new(Rounding::Rne);
        let r1 = ops::vdotpex4_f8(B8, acc, va, vb, true, &mut e1);
        let r2 = ops::vdotpex4_f8(B8, acc, va, splat, false, &mut e2);
        assert_eq!((r1, e1.flags), (r2, e2.flags));
    }
}

/// Every 256×256 binary8 pair, in every lane position, against the
/// class-covering accumulators (remaining lanes zero so the pair under
/// test is the only rounding event besides the accumulator): the full
/// pairwise product space is proven, not sampled.
#[cfg(not(debug_assertions))]
#[test]
fn all_pairs_every_lane_position() {
    for lane in 0..4u32 {
        for a in 0..256u32 {
            for b in 0..256u32 {
                for acc in [0x0000_0000, 0x3f80_0000, 0x7149_f2ca] {
                    for rep in [false, true] {
                        check(acc, a << (8 * lane), b << (8 * lane), rep, Rounding::Rne);
                    }
                }
            }
        }
    }
}

/// All pairs in lane 0 across all five rounding modes and the full
/// accumulator class set (lane 0 is rounded first, so its products see
/// every accumulator class unmodified).
#[cfg(not(debug_assertions))]
#[test]
fn all_pairs_lane0_all_rounding_modes() {
    for rm in Rounding::ALL {
        for a in 0..256u32 {
            for b in 0..256u32 {
                for acc in ACCS {
                    check(acc, a, b, false, rm);
                }
            }
        }
    }
}

/// NaN/infinity propagation through the chain: special values in *later*
/// lanes must corrupt the accumulator identically in both
/// implementations (the chain is order-sensitive).
#[test]
fn specials_in_every_lane() {
    let specials = [0x7cu32, 0xfc, 0x7d, 0x7f, 0x7b, 0xfb]; // ±inf, sNaN, qNaN, ±max
    for lane in 0..4u32 {
        for s in specials {
            for o in [0x3cu32, 0x00, 0x7c] {
                // Other lanes hold 1.0 so every FMA participates.
                let ones = 0x3c3c_3c3c_u32;
                let va = (ones & !(0xff << (8 * lane))) | (s << (8 * lane));
                let vb = (ones & !(0xff << (8 * lane))) | (o << (8 * lane));
                for acc in ACCS {
                    for rm in Rounding::ALL {
                        check(acc, va, vb, false, rm);
                        check(acc, va, vb, true, rm);
                    }
                }
            }
        }
    }
}
