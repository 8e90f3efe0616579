//! Exhaustive-by-family semantic tests for the Xfvec/Xfaux instruction
//! surface not covered by the core program tests: vector min/max/sgnj,
//! replicated variants, unsigned conversions, vector sqrt/div, binary8
//! four-lane behaviour, FMA sign variants and expanding multiplies.

use smallfloat_isa::*;
use smallfloat_sim::{Cpu, ExitReason, SimConfig};
use smallfloat_softfp::{ops, Env, Format, Rounding};

const TEXT: u32 = 0x1000;

fn cpu() -> Cpu {
    Cpu::new(SimConfig::default())
}

fn fa(n: u8) -> FReg {
    FReg::a(n)
}

fn a(n: u8) -> XReg {
    XReg::a(n)
}

fn run(c: &mut Cpu, prog: &[Instr]) {
    let mut p = prog.to_vec();
    p.push(Instr::Ecall);
    c.load_program(TEXT, &p);
    assert_eq!(c.run(10_000).unwrap(), ExitReason::Ecall);
}

fn h(v: f32) -> u64 {
    let mut e = Env::new(Rounding::Rne);
    ops::from_f32(Format::BINARY16, v, &mut e)
}

fn b8(v: f32) -> u64 {
    let mut e = Env::new(Rounding::Rne);
    ops::from_f32(Format::BINARY8, v, &mut e)
}

fn pack16(lo: f32, hi: f32) -> u32 {
    ((h(hi) << 16) | h(lo)) as u32
}

fn pack8(vals: [f32; 4]) -> u32 {
    vals.iter()
        .enumerate()
        .fold(0u32, |acc, (i, v)| acc | ((b8(*v) as u32) << (8 * i)))
}

fn lanes16(reg: u32) -> [u64; 2] {
    [reg as u64 & 0xffff, (reg >> 16) as u64]
}

#[test]
fn vector_min_max_with_nan_lanes() {
    let mut c = cpu();
    let qnan = Format::BINARY16.quiet_nan() as u32;
    c.set_freg(fa(0), (qnan << 16) | pack16(3.0, 0.0) & 0xffff); // [3.0, qNaN]
    c.set_freg(fa(1), pack16(5.0, -2.0));
    let prog = [
        Instr::VFOp {
            op: VfOp::Min,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFOp {
            op: VfOp::Max,
            fmt: FpFmt::H,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
    ];
    run(&mut c, &prog);
    // minNum semantics per lane: NaN lane yields the other operand.
    assert_eq!(lanes16(c.freg(fa(2))), [h(3.0), h(-2.0)]);
    assert_eq!(lanes16(c.freg(fa(3))), [h(5.0), h(-2.0)]);
}

#[test]
fn vector_sign_injection_lanewise() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(1.5, -2.5));
    c.set_freg(fa(1), pack16(-1.0, 1.0));
    let prog = [
        Instr::VFOp {
            op: VfOp::Sgnj,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFOp {
            op: VfOp::Sgnjn,
            fmt: FpFmt::H,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFOp {
            op: VfOp::Sgnjx,
            fmt: FpFmt::H,
            rd: fa(4),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
    ];
    run(&mut c, &prog);
    assert_eq!(lanes16(c.freg(fa(2))), [h(-1.5), h(2.5)]);
    assert_eq!(lanes16(c.freg(fa(3))), [h(1.5), h(-2.5)]);
    assert_eq!(lanes16(c.freg(fa(4))), [h(-1.5), h(-2.5)]);
}

#[test]
fn vector_div_and_sqrt() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(9.0, 1.0));
    c.set_freg(fa(1), pack16(4.0, 8.0));
    let prog = [
        Instr::VFOp {
            op: VfOp::Div,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFSqrt {
            fmt: FpFmt::H,
            rd: fa(3),
            rs1: fa(0),
        },
    ];
    run(&mut c, &prog);
    assert_eq!(lanes16(c.freg(fa(2))), [h(2.25), h(0.125)]);
    assert_eq!(lanes16(c.freg(fa(3))), [h(3.0), h(1.0)]);
}

#[test]
fn replicated_compare_and_dotp() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(1.0, 3.0));
    c.set_freg(fa(1), pack16(2.0, 99.0)); // lane 0 (2.0) replicated
    c.set_freg(fa(2), 0f32.to_bits());
    let prog = [
        Instr::VFCmp {
            op: VCmpOp::Lt,
            fmt: FpFmt::H,
            rd: a(0),
            rs1: fa(0),
            rs2: fa(1),
            rep: true,
        },
        Instr::VFDotpEx {
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: true,
        },
    ];
    run(&mut c, &prog);
    assert_eq!(c.xreg(a(0)), 0b01, "1<2 true, 3<2 false");
    assert_eq!(f32::from_bits(c.freg(fa(2))), 1.0 * 2.0 + 3.0 * 2.0);
}

#[test]
fn vector_unsigned_conversions() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(3.6, 250.0));
    let prog = [
        Instr::VFCvtXF {
            fmt: FpFmt::H,
            rd: fa(1),
            rs1: fa(0),
            signed: false,
        },
        Instr::VFCvtFX {
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(1),
            signed: false,
        },
    ];
    run(&mut c, &prog);
    let ints = c.freg(fa(1));
    assert_eq!(ints & 0xffff, 4, "RNE");
    assert_eq!(ints >> 16, 250);
    assert_eq!(lanes16(c.freg(fa(2))), [h(4.0), h(250.0)]);
    // Negative values clamp to 0 for unsigned conversion.
    let mut c = cpu();
    c.set_freg(fa(0), pack16(-3.0, 7.0));
    run(
        &mut c,
        &[Instr::VFCvtXF {
            fmt: FpFmt::H,
            rd: fa(1),
            rs1: fa(0),
            signed: false,
        }],
    );
    assert_eq!(c.freg(fa(1)) & 0xffff, 0);
    assert_eq!(c.freg(fa(1)) >> 16, 7);
}

#[test]
fn four_lane_f8_family() {
    let mut c = cpu();
    c.set_freg(fa(0), pack8([1.0, 2.0, -3.0, 4.0]));
    c.set_freg(fa(1), pack8([4.0, 2.0, 1.0, 0.5]));
    c.set_freg(fa(2), 0f32.to_bits());
    let prog = [
        Instr::VFOp {
            op: VfOp::Max,
            fmt: FpFmt::B,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFCmp {
            op: VCmpOp::Ge,
            fmt: FpFmt::B,
            rd: a(0),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFDotpEx {
            fmt: FpFmt::B,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
    ];
    run(&mut c, &prog);
    let out = c.freg(fa(3));
    for (i, expect) in [4.0f32, 2.0, 1.0, 4.0].iter().enumerate() {
        assert_eq!((out >> (8 * i)) as u64 & 0xff, b8(*expect), "lane {i}");
    }
    assert_eq!(c.xreg(a(0)), 0b1010, "lanes 1 (2>=2) and 3 (4>=0.5)");
    assert_eq!(f32::from_bits(c.freg(fa(2))), 4.0 + 4.0 - 3.0 + 2.0);
}

/// Replicated (`.r`) forms on the four-lane 8-bit formats: lane 0 of `rs2`
/// feeds every lane (and every product of the expanding dot products).
#[test]
fn replicated_four_lane_f8_ops() {
    for fmt in [FpFmt::B, FpFmt::Ab] {
        let bits = |v: f32| {
            let mut e = Env::new(Rounding::Rne);
            ops::from_f32(fmt.format(), v, &mut e) as u32
        };
        let pack = |vals: [f32; 4]| {
            vals.iter()
                .enumerate()
                .fold(0u32, |acc, (i, v)| acc | (bits(*v) << (8 * i)))
        };
        let mut c = cpu();
        c.set_freg(fa(0), pack([1.0, 2.0, -3.0, 4.0]));
        c.set_freg(fa(1), pack([2.0, 8.0, 8.0, 8.0])); // lane 0 (2.0) replicated
        c.set_freg(fa(3), pack([0.5, 0.5, 0.5, 0.5]));
        c.set_freg(fa(4), 0f32.to_bits());
        c.set_freg(fa(5), 0);
        let vf = |op, rd| Instr::VFOp {
            op,
            fmt,
            rd,
            rs1: fa(0),
            rs2: fa(1),
            rep: true,
        };
        let prog = [
            vf(VfOp::Mul, fa(2)),
            vf(VfOp::Mac, fa(3)),
            Instr::VFCmp {
                op: VCmpOp::Lt,
                fmt,
                rd: a(0),
                rs1: fa(0),
                rs2: fa(1),
                rep: true,
            },
            Instr::VFDotpEx {
                fmt,
                rd: fa(4),
                rs1: fa(0),
                rs2: fa(1),
                rep: true,
            },
            Instr::VFSdotpEx {
                fmt,
                rd: fa(5),
                rs1: fa(0),
                rs2: fa(1),
                rep: true,
            },
        ];
        run(&mut c, &prog);
        assert_eq!(c.freg(fa(2)), pack([2.0, 4.0, -6.0, 8.0]), "{fmt:?}");
        assert_eq!(c.freg(fa(3)), pack([2.5, 4.5, -5.5, 8.5]), "{fmt:?}");
        assert_eq!(c.xreg(a(0)), 0b0101, "1<2 and -3<2 ({fmt:?})");
        assert_eq!(f32::from_bits(c.freg(fa(4))), 8.0, "{fmt:?}");
        // binary16 lanes: 1*2 + 2*2 and -3*2 + 4*2.
        assert_eq!(c.freg(fa(5)), pack16(6.0, 2.0), "{fmt:?}");
    }
}

#[test]
fn fma_variants_signs() {
    let mut c = cpu();
    let set = |c: &mut Cpu, r: u8, v: f32| {
        c.set_freg(fa(r), 0xffff_0000 | h(v) as u32);
    };
    set(&mut c, 0, 3.0);
    set(&mut c, 1, 2.0);
    set(&mut c, 2, 1.0);
    let mk = |op| Instr::FFma {
        op,
        fmt: FpFmt::H,
        rd: fa(3),
        rs1: fa(0),
        rs2: fa(1),
        rs3: fa(2),
        rm: Rm::Dyn,
    };
    for (op, expect) in [
        (FmaOp::Madd, 7.0f32), // 3*2 + 1
        (FmaOp::Msub, 5.0),    // 3*2 - 1
        (FmaOp::Nmsub, -5.0),  // -(3*2) + 1
        (FmaOp::Nmadd, -7.0),  // -(3*2) - 1
    ] {
        let mut c2 = c.clone_state();
        run(&mut c2, &[mk(op)]);
        assert_eq!(c2.freg(fa(3)) as u64 & 0xffff, h(expect), "{op:?}");
    }
}

// Cpu has no Clone; build a tiny helper re-creating the needed state.
trait CloneState {
    fn clone_state(&self) -> Cpu;
}

impl CloneState for Cpu {
    fn clone_state(&self) -> Cpu {
        let mut c = Cpu::new(SimConfig::default());
        for i in 0..32 {
            c.set_freg(FReg::new(i), self.freg(FReg::new(i)));
            if i != 0 {
                c.set_xreg(XReg::new(i), self.xreg(XReg::new(i)));
            }
        }
        c
    }
}

#[test]
fn fmulex_expands_exactly() {
    let mut c = cpu();
    // Products of b8 values are exact in binary32: no NX.
    c.set_freg(fa(0), 0xffff_ff00 | b8(3.0) as u32);
    c.set_freg(fa(1), 0xffff_ff00 | b8(0.125) as u32);
    run(
        &mut c,
        &[Instr::FMulEx {
            fmt: FpFmt::B,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        }],
    );
    assert_eq!(f32::from_bits(c.freg(fa(2))), 0.375);
    assert!(c.fflags().is_empty(), "expanding multiply of b8 is exact");
}

#[test]
fn vector_h_to_ah_and_back_round_trips_common_values() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(1.5, -0.25)); // exactly representable in both
    let prog = [
        Instr::VFCvtFF {
            dst: FpFmt::Ah,
            src: FpFmt::H,
            rd: fa(1),
            rs1: fa(0),
        },
        Instr::VFCvtFF {
            dst: FpFmt::H,
            src: FpFmt::Ah,
            rd: fa(2),
            rs1: fa(1),
        },
    ];
    run(&mut c, &prog);
    assert_eq!(c.freg(fa(2)), c.freg(fa(0)));
    assert!(c.fflags().is_empty());
}

#[test]
fn scalar_ops_preserve_untouched_high_lanes_via_boxing() {
    // A scalar binary16 op writes a NaN-boxed result: the high half is all
    // ones, never leftovers from previous vector contents.
    let mut c = cpu();
    c.set_freg(fa(0), pack16(1.0, 99.0));
    c.set_freg(fa(1), 0xffff_0000 | h(2.0) as u32);
    run(
        &mut c,
        &[Instr::FOp {
            op: FpOp::Add,
            fmt: FpFmt::H,
            rd: fa(0),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        }],
    );
    // rs1's low lane is a properly boxed? No: fa(0) held a *vector* (high
    // half = 99.0, not all-ones), so the scalar op sees canonical NaN and
    // the result is NaN — boxing is strict.
    assert_eq!(c.freg(fa(0)) >> 16, 0xffff);
    assert_eq!(c.freg(fa(0)) as u64 & 0xffff, Format::BINARY16.quiet_nan());
}

#[test]
fn vfcmp_writes_zero_for_false_everywhere() {
    let mut c = cpu();
    c.set_freg(fa(0), pack16(1.0, 2.0));
    c.set_freg(fa(1), pack16(1.0, 2.0));
    c.set_xreg(a(0), 0xdead_beef);
    run(
        &mut c,
        &[Instr::VFCmp {
            op: VCmpOp::Ne,
            fmt: FpFmt::H,
            rd: a(0),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        }],
    );
    assert_eq!(
        c.xreg(a(0)),
        0,
        "equal lanes: mask fully cleared, no stale bits"
    );
}

#[test]
fn vfmin_quiet_nan_flags() {
    // Vector min with a signaling NaN lane raises NV once.
    let mut c = cpu();
    let snan16 = 0x7c01u32;
    c.set_freg(fa(0), (snan16 << 16) | h(1.0) as u32);
    c.set_freg(fa(1), pack16(0.5, 2.0));
    run(
        &mut c,
        &[Instr::VFOp {
            op: VfOp::Min,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        }],
    );
    assert_eq!(lanes16(c.freg(fa(2))), [h(0.5), h(2.0)]);
    assert!(c.fflags().contains(smallfloat_softfp::Flags::NV));
}
