//! End-to-end program tests for the simulator: whole-ISA semantics, timing
//! and energy accounting.

use smallfloat_isa::*;
use smallfloat_sim::{Cpu, ExitReason, MemLevel, SimConfig, SimError};
use smallfloat_softfp::{ops, Env, Flags, Format, Rounding};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;

fn run_program(cpu: &mut Cpu, prog: &[Instr]) {
    let mut p = prog.to_vec();
    p.push(Instr::Ecall);
    cpu.load_program(TEXT, &p);
    assert_eq!(cpu.run(1_000_000).unwrap(), ExitReason::Ecall);
}

fn cpu() -> Cpu {
    Cpu::new(SimConfig::default())
}

fn a(n: u8) -> XReg {
    XReg::a(n)
}

fn fa(n: u8) -> FReg {
    FReg::a(n)
}

fn li(rd: XReg, v: i32) -> Instr {
    // Fits our tests' small immediates.
    Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1: XReg::ZERO,
        imm: v,
    }
}

fn f16(v: f32) -> u64 {
    let mut env = Env::new(Rounding::Rne);
    ops::from_f32(Format::BINARY16, v, &mut env)
}

fn f8bits(v: f32) -> u64 {
    let mut env = Env::new(Rounding::Rne);
    ops::from_f32(Format::BINARY8, v, &mut env)
}

/// The three ways to run a program. `Step` and `RunNoBlocks` take the
/// per-instruction path; `RunBlocks` dispatches blocks and falls back to
/// it for CSR accesses and for code outside the window.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Step,
    RunNoBlocks,
    RunBlocks,
}

const MODES: [Mode; 3] = [Mode::Step, Mode::RunNoBlocks, Mode::RunBlocks];

/// Run the loaded program in `mode` for at most `max` instructions.
fn run_in(c: &mut Cpu, mode: Mode, max: u64) -> Result<ExitReason, SimError> {
    match mode {
        Mode::Step => {
            for _ in 0..max {
                if let Some(reason) = c.step()? {
                    return Ok(reason);
                }
            }
            Ok(ExitReason::InstructionLimit)
        }
        Mode::RunNoBlocks => {
            c.set_block_cache(false);
            c.run(max)
        }
        Mode::RunBlocks => {
            c.set_block_cache(true);
            c.run(max)
        }
    }
}

/// Load `prog` plus a final `ecall` at `TEXT` and run it in `mode` to the exit.
fn run_program_in(c: &mut Cpu, mode: Mode, prog: &[Instr]) {
    let mut p = prog.to_vec();
    p.push(Instr::Ecall);
    c.load_program(TEXT, &p);
    assert_eq!(
        run_in(c, mode, 1_000_000),
        Ok(ExitReason::Ecall),
        "{mode:?}"
    );
}

fn csr_read(rd: XReg, num: u16) -> Instr {
    Instr::Csr {
        op: CsrOp::Rs,
        rd,
        src: CsrSrc::Reg(XReg::ZERO),
        csr: num,
    }
}

#[test]
fn arithmetic_loop_sums_1_to_100() {
    let mut c = cpu();
    // a0 = Σ 1..=100 computed with a loop.
    let prog = [
        li(a(0), 0),   // sum
        li(a(1), 1),   // i
        li(a(2), 101), // limit
        // loop:
        Instr::Op {
            op: AluOp::Add,
            rd: a(0),
            rs1: a(0),
            rs2: a(1),
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: a(1),
            rs1: a(1),
            imm: 1,
        },
        Instr::Branch {
            cond: BranchCond::Lt,
            rs1: a(1),
            rs2: a(2),
            offset: -8,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.xreg(a(0)), 5050);
}

#[test]
fn memory_round_trip_all_widths() {
    let mut c = cpu();
    let prog = [
        Instr::Lui {
            rd: a(1),
            imm20: (DATA >> 12) as i32,
        },
        li(a(0), -123),
        Instr::Store {
            width: MemWidth::W,
            rs2: a(0),
            rs1: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::W,
            unsigned: false,
            rd: a(2),
            rs1: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::H,
            unsigned: false,
            rd: a(3),
            rs1: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::H,
            unsigned: true,
            rd: a(4),
            rs1: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::B,
            unsigned: false,
            rd: a(5),
            rs1: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::B,
            unsigned: true,
            rd: a(6),
            rs1: a(1),
            offset: 0,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.xreg(a(2)) as i32, -123);
    assert_eq!(c.xreg(a(3)) as i32, -123); // sign-extended halfword
    assert_eq!(c.xreg(a(4)), 0xff85); // zero-extended
    assert_eq!(c.xreg(a(5)) as i32, -123);
    assert_eq!(c.xreg(a(6)), 0x85);
}

#[test]
fn function_call_and_return() {
    let mut c = cpu();
    // main: jal ra, f; ecall   f: a0 = 7; ret
    let prog = vec![
        Instr::Jal {
            rd: XReg::RA,
            offset: 8,
        },
        Instr::Ecall,
        li(a(0), 7),
        Instr::Jalr {
            rd: XReg::ZERO,
            rs1: XReg::RA,
            offset: 0,
        },
    ];
    c.load_program(TEXT, &prog);
    assert_eq!(c.run(100).unwrap(), ExitReason::Ecall);
    assert_eq!(c.xreg(a(0)), 7);
}

#[test]
fn scalar_fp32_computation() {
    let mut c = cpu();
    let x = 1.5f32.to_bits();
    let y = 2.25f32.to_bits();
    c.write_data(DATA, &x.to_le_bytes());
    c.write_data(DATA + 4, &y.to_le_bytes());
    let prog = [
        Instr::Lui {
            rd: a(1),
            imm20: (DATA >> 12) as i32,
        },
        Instr::FLoad {
            fmt: FpFmt::S,
            rd: fa(0),
            rs1: a(1),
            offset: 0,
        },
        Instr::FLoad {
            fmt: FpFmt::S,
            rd: fa(1),
            rs1: a(1),
            offset: 4,
        },
        Instr::FOp {
            op: FpOp::Add,
            fmt: FpFmt::S,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        },
        Instr::FOp {
            op: FpOp::Mul,
            fmt: FpFmt::S,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        },
        Instr::FFma {
            op: FmaOp::Madd,
            fmt: FpFmt::S,
            rd: fa(4),
            rs1: fa(0),
            rs2: fa(1),
            rs3: fa(2),
            rm: Rm::Dyn,
        },
        Instr::FStore {
            fmt: FpFmt::S,
            rs2: fa(4),
            rs1: a(1),
            offset: 8,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(f32::from_bits(c.freg(fa(2))), 3.75);
    assert_eq!(f32::from_bits(c.freg(fa(3))), 3.375);
    assert_eq!(f32::from_bits(c.freg(fa(4))), 3.375 + 3.75);
    let out = u32::from_le_bytes(c.mem().read_bytes(DATA + 8, 4).try_into().unwrap());
    assert_eq!(f32::from_bits(out), 7.125);
}

#[test]
fn scalar_f16_nanboxing_and_arith() {
    let mut c = cpu();
    c.write_data(DATA, &(f16(1.5) as u16).to_le_bytes());
    c.write_data(DATA + 2, &(f16(0.25) as u16).to_le_bytes());
    let prog = [
        Instr::Lui {
            rd: a(1),
            imm20: (DATA >> 12) as i32,
        },
        Instr::FLoad {
            fmt: FpFmt::H,
            rd: fa(0),
            rs1: a(1),
            offset: 0,
        },
        Instr::FLoad {
            fmt: FpFmt::H,
            rd: fa(1),
            rs1: a(1),
            offset: 2,
        },
        Instr::FOp {
            op: FpOp::Sub,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        },
        Instr::FStore {
            fmt: FpFmt::H,
            rs2: fa(2),
            rs1: a(1),
            offset: 4,
        },
    ];
    run_program(&mut c, &prog);
    // Result register is NaN-boxed.
    assert_eq!(c.freg(fa(2)) >> 16, 0xffff);
    let out = u16::from_le_bytes(c.mem().read_bytes(DATA + 4, 2).try_into().unwrap());
    assert_eq!(out as u64, f16(1.25));
}

#[test]
fn unboxed_f16_value_reads_as_nan() {
    let mut c = cpu();
    // Write a non-boxed value directly to the register file: ops must see NaN.
    c.set_freg(fa(0), 0x0000_3c00); // f16 1.0 without boxing
    c.set_freg(fa(1), 0xffff_3c00); // properly boxed 1.0
    let prog = [Instr::FOp {
        op: FpOp::Add,
        fmt: FpFmt::H,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
        rm: Rm::Dyn,
    }];
    c.load_program(TEXT, &[prog[0], Instr::Ecall]);
    c.run(10).unwrap();
    let out = c.freg(fa(2)) as u64 & 0xffff;
    assert_eq!(out, Format::BINARY16.quiet_nan());
}

#[test]
fn vector_f16_simd_lanes() {
    let mut c = cpu();
    // Pack [1.5, -2.0] and [0.5, 4.0]; vfadd.h → [2.0, 2.0].
    let va = (f16(-2.0) << 16 | f16(1.5)) as u32;
    let vb = (f16(4.0) << 16 | f16(0.5)) as u32;
    c.set_freg(fa(0), va);
    c.set_freg(fa(1), vb);
    let prog = [
        Instr::VFOp {
            op: VfOp::Add,
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFOp {
            op: VfOp::Mul,
            fmt: FpFmt::H,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        // Replicated variant: multiply both lanes by lane 0 of fa(1) (0.5).
        Instr::VFOp {
            op: VfOp::Mul,
            fmt: FpFmt::H,
            rd: fa(4),
            rs1: fa(0),
            rs2: fa(1),
            rep: true,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.freg(fa(2)) as u64 & 0xffff, f16(2.0));
    assert_eq!((c.freg(fa(2)) >> 16) as u64, f16(2.0));
    assert_eq!(c.freg(fa(3)) as u64 & 0xffff, f16(0.75));
    assert_eq!((c.freg(fa(3)) >> 16) as u64, f16(-8.0));
    assert_eq!(c.freg(fa(4)) as u64 & 0xffff, f16(0.75));
    assert_eq!((c.freg(fa(4)) >> 16) as u64, f16(-1.0));
}

#[test]
fn vector_f8_four_lanes() {
    let mut c = cpu();
    let pack = |vals: [f32; 4]| -> u32 {
        let mut r = 0u32;
        for (i, v) in vals.iter().enumerate() {
            r |= (f8bits(*v) as u32) << (8 * i);
        }
        r
    };
    c.set_freg(fa(0), pack([1.0, 2.0, 3.0, 4.0]));
    c.set_freg(fa(1), pack([2.0, 2.0, 2.0, 2.0]));
    let prog = [Instr::VFOp {
        op: VfOp::Mul,
        fmt: FpFmt::B,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
        rep: false,
    }];
    run_program(&mut c, &prog);
    let out = c.freg(fa(2));
    for (i, expect) in [2.0f32, 4.0, 6.0, 8.0].iter().enumerate() {
        let lane = ((out >> (8 * i)) & 0xff) as u64;
        assert_eq!(lane, f8bits(*expect), "lane {i}");
    }
}

#[test]
fn vector_mac_accumulates() {
    let mut c = cpu();
    let pack16 = |lo: f32, hi: f32| ((f16(hi) << 16) | f16(lo)) as u32;
    c.set_freg(fa(0), pack16(1.0, 2.0));
    c.set_freg(fa(1), pack16(3.0, 4.0));
    c.set_freg(fa(2), pack16(10.0, 20.0)); // accumulator
    let prog = [Instr::VFOp {
        op: VfOp::Mac,
        fmt: FpFmt::H,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
        rep: false,
    }];
    run_program(&mut c, &prog);
    assert_eq!(c.freg(fa(2)) as u64 & 0xffff, f16(13.0));
    assert_eq!((c.freg(fa(2)) >> 16) as u64, f16(28.0));
}

#[test]
fn cast_and_pack_assembles_vector() {
    let mut c = cpu();
    c.set_freg(fa(0), 1.5f32.to_bits());
    c.set_freg(fa(1), (-2.5f32).to_bits());
    let prog = [Instr::VFCpk {
        fmt: FpFmt::H,
        half: CpkHalf::A,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
    }];
    run_program(&mut c, &prog);
    assert_eq!(c.freg(fa(2)) as u64 & 0xffff, f16(1.5));
    assert_eq!((c.freg(fa(2)) >> 16) as u64, f16(-2.5));
}

#[test]
fn cpk_b_half_on_f8() {
    let mut c = cpu();
    c.set_freg(fa(0), 1.0f32.to_bits());
    c.set_freg(fa(1), 2.0f32.to_bits());
    c.set_freg(fa(2), 0);
    let prog = [Instr::VFCpk {
        fmt: FpFmt::B,
        half: CpkHalf::B,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
    }];
    run_program(&mut c, &prog);
    let out = c.freg(fa(2));
    assert_eq!((out >> 16) as u64 & 0xff, f8bits(1.0));
    assert_eq!((out >> 24) as u64 & 0xff, f8bits(2.0));
    assert_eq!(out & 0xffff, 0, "lanes 0-1 preserved");
}

#[test]
fn cpk_b_half_on_f16_is_unsupported() {
    let mut c = cpu();
    let prog = [
        Instr::VFCpk {
            fmt: FpFmt::H,
            half: CpkHalf::B,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
        },
        Instr::Ecall,
    ];
    c.load_program(TEXT, &prog);
    assert_eq!(c.run(10), Err(SimError::VectorUnsupported { pc: TEXT }));
}

#[test]
fn expanding_dot_product_matches_manual() {
    let mut c = cpu();
    let pack16 = |lo: f32, hi: f32| ((f16(hi) << 16) | f16(lo)) as u32;
    c.set_freg(fa(0), pack16(1.5, 2.0));
    c.set_freg(fa(1), pack16(4.0, 0.25));
    c.set_freg(fa(2), 10.0f32.to_bits()); // f32 accumulator
    let prog = [Instr::VFDotpEx {
        fmt: FpFmt::H,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
        rep: false,
    }];
    run_program(&mut c, &prog);
    // 10 + 1.5*4 + 2*0.25 = 16.5, all exact in f32.
    assert_eq!(f32::from_bits(c.freg(fa(2))), 16.5);
}

#[test]
fn fmacex_expands_without_conversions() {
    let mut c = cpu();
    c.set_freg(fa(0), (0xffff_0000u32) | f16(3.0) as u32);
    c.set_freg(fa(1), (0xffff_0000u32) | f16(0.5) as u32);
    c.set_freg(fa(2), 1.0f32.to_bits());
    let prog = [Instr::FMacEx {
        fmt: FpFmt::H,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
        rm: Rm::Dyn,
    }];
    run_program(&mut c, &prog);
    assert_eq!(f32::from_bits(c.freg(fa(2))), 2.5);
}

#[test]
fn vector_compare_writes_lane_mask() {
    let mut c = cpu();
    let pack16 = |lo: f32, hi: f32| ((f16(hi) << 16) | f16(lo)) as u32;
    c.set_freg(fa(0), pack16(1.0, 5.0));
    c.set_freg(fa(1), pack16(2.0, 2.0));
    let prog = [
        Instr::VFCmp {
            op: VCmpOp::Lt,
            fmt: FpFmt::H,
            rd: a(0),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
        Instr::VFCmp {
            op: VCmpOp::Ge,
            fmt: FpFmt::H,
            rd: a(1),
            rs1: fa(0),
            rs2: fa(1),
            rep: false,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.xreg(a(0)), 0b01, "lane0: 1<2 true, lane1: 5<2 false");
    assert_eq!(c.xreg(a(1)), 0b10);
}

#[test]
fn vector_int_conversions() {
    let mut c = cpu();
    let pack16 = |lo: f32, hi: f32| ((f16(hi) << 16) | f16(lo)) as u32;
    c.set_freg(fa(0), pack16(3.7, -2.2));
    let prog = [
        Instr::VFCvtXF {
            fmt: FpFmt::H,
            rd: fa(1),
            rs1: fa(0),
            signed: true,
        },
        Instr::VFCvtFX {
            fmt: FpFmt::H,
            rd: fa(2),
            rs1: fa(1),
            signed: true,
        },
    ];
    run_program(&mut c, &prog);
    let ints = c.freg(fa(1));
    assert_eq!((ints & 0xffff) as i16, 4, "RNE rounds 3.7 to 4");
    assert_eq!((ints >> 16) as i16, -2);
    assert_eq!(c.freg(fa(2)) as u64 & 0xffff, f16(4.0));
    assert_eq!((c.freg(fa(2)) >> 16) as u64, f16(-2.0));
}

#[test]
fn vector_h_ah_conversion() {
    let mut c = cpu();
    let mut env = Env::new(Rounding::Rne);
    let mut ah = |v: f32| ops::from_f32(Format::BINARY16ALT, v, &mut env);
    let pack16 = |lo: u64, hi: u64| ((hi << 16) | lo) as u32;
    c.set_freg(fa(0), pack16(f16(1.5), f16(-3.0)));
    let prog = [Instr::VFCvtFF {
        dst: FpFmt::Ah,
        src: FpFmt::H,
        rd: fa(1),
        rs1: fa(0),
    }];
    run_program(&mut c, &prog);
    assert_eq!(c.freg(fa(1)) as u64 & 0xffff, ah(1.5));
    assert_eq!((c.freg(fa(1)) >> 16) as u64, ah(-3.0));
}

#[test]
fn fflags_accrue_and_csr_access() {
    for mode in MODES {
        let mut c = cpu();
        c.set_freg(fa(0), 1.0f32.to_bits());
        c.set_freg(fa(1), 0.0f32.to_bits());
        let prog = [
            Instr::FOp {
                op: FpOp::Div,
                fmt: FpFmt::S,
                rd: fa(2),
                rs1: fa(0),
                rs2: fa(1),
                rm: Rm::Dyn,
            },
            csr_read(a(0), csr::FFLAGS),
            // Clear flags, read again.
            Instr::Csr {
                op: CsrOp::Rw,
                rd: a(1),
                src: CsrSrc::Imm(0),
                csr: csr::FFLAGS,
            },
            csr_read(a(2), csr::FFLAGS),
        ];
        run_program_in(&mut c, mode, &prog);
        assert_eq!(c.xreg(a(0)), Flags::DZ.bits() as u32, "{mode:?}");
        assert_eq!(c.xreg(a(2)), 0, "{mode:?}");
        assert!(f32::from_bits(c.freg(fa(2))).is_infinite());

        // Flags accrue between CSR accesses in straight-line code;
        // `csrrci` clears only the named bits, and `fcsr` packs `frm`
        // above them.
        let mut c = cpu();
        c.set_freg(fa(0), 1.0f32.to_bits());
        c.set_freg(fa(1), 0.0f32.to_bits());
        c.set_freg(fa(3), 3.0f32.to_bits());
        c.set_frm(Rounding::Rup);
        let div = |rs2| Instr::FOp {
            op: FpOp::Div,
            fmt: FpFmt::S,
            rd: fa(2),
            rs1: fa(0),
            rs2,
            rm: Rm::Dyn,
        };
        let prog = [
            div(fa(1)),
            li(a(5), 1),
            div(fa(3)),
            Instr::Csr {
                op: CsrOp::Rc,
                rd: a(0),
                src: CsrSrc::Imm(Flags::DZ.bits()),
                csr: csr::FFLAGS,
            },
            csr_read(a(1), csr::FCSR),
        ];
        run_program_in(&mut c, mode, &prog);
        assert_eq!(
            c.xreg(a(0)),
            (Flags::DZ | Flags::NX).bits() as u32,
            "{mode:?}"
        );
        assert_eq!(
            c.xreg(a(1)),
            ((Rounding::Rup.to_frm() as u32) << 5) | Flags::NX.bits() as u32,
            "{mode:?}"
        );
        assert_eq!(c.fflags(), Flags::NX, "{mode:?}");
    }
}

#[test]
fn static_rounding_mode_in_instruction() {
    let mut c = cpu();
    c.set_freg(fa(0), 1.0f32.to_bits());
    c.set_freg(fa(1), 3.0f32.to_bits());
    let prog = [
        Instr::FOp {
            op: FpOp::Div,
            fmt: FpFmt::S,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Rdn,
        },
        Instr::FOp {
            op: FpOp::Div,
            fmt: FpFmt::S,
            rd: fa(3),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Rup,
        },
    ];
    run_program(&mut c, &prog);
    let dn = f32::from_bits(c.freg(fa(2)));
    let up = f32::from_bits(c.freg(fa(3)));
    assert!(dn < up);
    assert_eq!(c.freg(fa(3)) - c.freg(fa(2)), 1, "one ulp apart");
}

#[test]
fn dynamic_rounding_via_frm_csr() {
    let mut c = cpu();
    c.set_freg(fa(0), 1.0f32.to_bits());
    c.set_freg(fa(1), 3.0f32.to_bits());
    let prog = [
        Instr::Csr {
            op: CsrOp::Rw,
            rd: XReg::ZERO,
            src: CsrSrc::Imm(Rounding::Rup.to_frm()),
            csr: csr::FRM,
        },
        Instr::FOp {
            op: FpOp::Div,
            fmt: FpFmt::S,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        },
    ];
    run_program(&mut c, &prog);
    let mut env = Env::new(Rounding::Rup);
    let expect = ops::div(
        Format::BINARY32,
        1.0f32.to_bits() as u64,
        3.0f32.to_bits() as u64,
        &mut env,
    );
    assert_eq!(c.freg(fa(2)) as u64, expect);
}

#[test]
fn cycle_counter_via_csr() {
    let t = smallfloat_sim::TimingModel::riscy();
    for mode in MODES {
        let mut c = cpu();
        let prog = [li(a(0), 1), li(a(1), 2), csr_read(a(2), csr::CYCLE)];
        run_program_in(&mut c, mode, &prog);
        // Two 1-cycle ALU ops execute before the CSR read.
        assert_eq!(c.xreg(a(2)), 2, "{mode:?}");

        // Counter reads between straight-line ops see every instruction
        // retired before them, including a multi-cycle divide.
        let mut c = cpu();
        let prog = [
            li(a(0), 7),
            Instr::MulDiv {
                op: MulDivOp::Div,
                rd: a(1),
                rs1: a(0),
                rs2: a(0),
            },
            csr_read(a(2), csr::CYCLE),
            li(a(3), 3),
            csr_read(a(4), csr::INSTRET),
            csr_read(a(5), csr::CYCLEH),
            li(a(6), 4),
        ];
        run_program_in(&mut c, mode, &prog);
        assert_eq!(c.xreg(a(1)), 1);
        assert_eq!(c.xreg(a(2)) as u64, t.int_alu + t.int_div, "{mode:?}");
        assert_eq!(c.xreg(a(4)), 4, "{mode:?}");
        assert_eq!(c.xreg(a(5)), 0, "{mode:?}");
        assert_eq!(c.stats().instret, 8, "{mode:?}");
        assert_eq!(
            c.stats().cycles,
            6 * t.int_alu + t.int_div + t.int_alu,
            "{mode:?}"
        );

        // Code outside the loaded window: a jump into bytes written as
        // data runs them on the per-instruction path, CSR read included.
        let out = 0x4000u32;
        let mut c = cpu();
        c.load_program(
            TEXT,
            &[Instr::Jal {
                rd: XReg::ZERO,
                offset: (out - TEXT) as i32,
            }],
        );
        for (i, instr) in [li(a(0), 7), csr_read(a(1), csr::INSTRET), Instr::Ecall]
            .iter()
            .enumerate()
        {
            c.write_data(out + 4 * i as u32, &encode(instr).to_le_bytes());
        }
        c.set_pc(TEXT);
        assert_eq!(run_in(&mut c, mode, 100), Ok(ExitReason::Ecall), "{mode:?}");
        assert_eq!(c.xreg(a(0)), 7, "{mode:?}");
        assert_eq!(c.xreg(a(1)), 2, "{mode:?}");
        assert_eq!(c.pc(), out + 12, "{mode:?}");
        assert_eq!(c.stats().instret, 4, "{mode:?}");
        assert_eq!(c.stats().cycles, t.jump + 3 * t.int_alu, "{mode:?}");
    }
}

/// RVC code on every mode: each 2-byte instruction advances the pc by
/// its own length, on the per-instruction path as in blocks.
#[test]
fn compressed_code_in_every_mode() {
    let body = [
        li(a(0), 5),
        Instr::OpImm {
            op: AluOp::Add,
            rd: a(0),
            rs1: a(0),
            imm: 3,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: a(0),
            rs1: a(0),
            rs2: a(0),
        },
    ];
    let mut bytes = Vec::new();
    for instr in &body {
        let half = compress(instr).expect("compressible");
        bytes.extend_from_slice(&half.to_le_bytes());
    }
    bytes.extend_from_slice(&encode(&Instr::Ecall).to_le_bytes());
    for mode in MODES {
        let mut c = cpu();
        c.load_program(TEXT, &[Instr::Fence; 3]);
        c.write_data(TEXT, &bytes);
        c.set_pc(TEXT);
        assert_eq!(run_in(&mut c, mode, 100), Ok(ExitReason::Ecall), "{mode:?}");
        assert_eq!(c.xreg(a(0)), 16, "{mode:?}");
        assert_eq!(c.pc(), TEXT + 10, "{mode:?}");
        assert_eq!(c.stats().instret, 4, "{mode:?}");
    }
}

#[test]
fn timing_memory_levels() {
    // The same program must take ~10×/100× more memory cycles at L2/L3.
    let mut cycles = Vec::new();
    for level in MemLevel::ALL {
        let mut c = Cpu::new(SimConfig {
            mem_level: level,
            ..SimConfig::default()
        });
        let prog = [
            Instr::Lui {
                rd: a(1),
                imm20: (DATA >> 12) as i32,
            },
            Instr::Load {
                width: MemWidth::W,
                unsigned: false,
                rd: a(0),
                rs1: a(1),
                offset: 0,
            },
            Instr::Load {
                width: MemWidth::W,
                unsigned: false,
                rd: a(2),
                rs1: a(1),
                offset: 4,
            },
        ];
        run_program(&mut c, &prog);
        cycles.push(c.stats().cycles);
    }
    // 2 ALU-ish + 2 loads + ecall: lui(1) + 2*lat + 1.
    assert_eq!(cycles[0], 1 + 2 + 1);
    assert_eq!(cycles[1], 1 + 20 + 1);
    assert_eq!(cycles[2], 1 + 200 + 1);
}

#[test]
fn energy_grows_with_latency_level() {
    let mut energies = Vec::new();
    for level in MemLevel::ALL {
        let mut c = Cpu::new(SimConfig {
            mem_level: level,
            ..SimConfig::default()
        });
        let prog = [
            Instr::Lui {
                rd: a(1),
                imm20: (DATA >> 12) as i32,
            },
            Instr::Load {
                width: MemWidth::W,
                unsigned: false,
                rd: a(0),
                rs1: a(1),
                offset: 0,
            },
        ];
        run_program(&mut c, &prog);
        energies.push(c.stats().energy_pj);
    }
    assert!(energies[0] < energies[1] && energies[1] < energies[2]);
}

/// Energy as written out by hand: each class's count times its per-op
/// energy, summed in `InstrClass::ALL` order, plus idle energy per cycle.
fn energy_by_hand(stats: &smallfloat_sim::Stats, level: MemLevel) -> f64 {
    let m = smallfloat_sim::EnergyModel::umc65();
    let ops: f64 = InstrClass::ALL
        .iter()
        .map(|&c| stats.class_count(c) as f64 * m.class_energy(c, level))
        .sum();
    ops + m.idle_per_cycle * stats.cycles as f64
}

/// Reported energy is a function of the counters whenever control is back
/// with the caller — after `run` on either engine tier, after a trap, and
/// after a single `step`.
#[test]
fn energy_is_derived_from_the_counters() {
    let prog = [
        li(a(1), 7),
        Instr::Lui {
            rd: a(2),
            imm20: (DATA >> 12) as i32,
        },
        Instr::Store {
            width: MemWidth::W,
            rs1: a(2),
            rs2: a(1),
            offset: 0,
        },
        Instr::Load {
            width: MemWidth::W,
            unsigned: false,
            rd: a(3),
            rs1: a(2),
            offset: 0,
        },
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: a(3),
            rs2: XReg::ZERO,
            offset: 8,
        },
        li(a(4), 1),
        Instr::Ebreak,
    ];
    for level in MemLevel::ALL {
        for blocks in [false, true] {
            let mut c = Cpu::new(SimConfig {
                mem_level: level,
                ..SimConfig::default()
            });
            c.set_block_cache(blocks);
            c.load_program(TEXT, &prog);
            let trap = c.run(1_000).unwrap_err();
            assert_eq!(trap, SimError::Breakpoint { pc: TEXT + 24 });
            assert_eq!(c.stats().instret, 5);
            let e = c.stats().energy_pj;
            assert!(e > 0.0);
            assert_eq!(e.to_bits(), energy_by_hand(c.stats(), level).to_bits());

            c.set_pc(TEXT);
            c.step().unwrap();
            assert_eq!(c.stats().instret, 6);
            let e = c.stats().energy_pj;
            assert_eq!(e.to_bits(), energy_by_hand(c.stats(), level).to_bits());
        }
    }
}

#[test]
fn stats_breakdown_classifies() {
    let mut c = cpu();
    let prog = [
        li(a(0), 1),
        Instr::VFOp {
            op: VfOp::Add,
            fmt: FpFmt::H,
            rd: fa(0),
            rs1: fa(0),
            rs2: fa(0),
            rep: false,
        },
        Instr::FMacEx {
            fmt: FpFmt::H,
            rd: fa(1),
            rs1: fa(0),
            rs2: fa(0),
            rm: Rm::Dyn,
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.stats().class_count(InstrClass::IntAlu), 1);
    assert_eq!(c.stats().class_count(InstrClass::FpVecH), 1);
    assert_eq!(c.stats().class_count(InstrClass::FpExpand), 1);
    assert_eq!(c.stats().class_count(InstrClass::System), 1); // the ecall
    assert_eq!(c.stats().instret, 4);
}

#[test]
fn traps_reported() {
    let t = smallfloat_sim::TimingModel::riscy();
    let misaligned_lw = Instr::Load {
        width: MemWidth::W,
        unsigned: false,
        rd: a(0),
        rs1: a(1),
        offset: 0,
    };
    let unknown_csr = Instr::Csr {
        op: CsrOp::Rw,
        rd: a(0),
        src: CsrSrc::Imm(0),
        csr: 0x123,
    };
    let reserved_frm = Instr::Csr {
        op: CsrOp::Rw,
        rd: XReg::ZERO,
        src: CsrSrc::Imm(5),
        csr: csr::FRM,
    };
    let fadd_dyn = Instr::FOp {
        op: FpOp::Add,
        fmt: FpFmt::S,
        rd: fa(0),
        rs1: fa(0),
        rs2: fa(0),
        rm: Rm::Dyn,
    };
    let vfadd_s = Instr::VFOp {
        op: VfOp::Add,
        fmt: FpFmt::S,
        rd: fa(0),
        rs1: fa(1),
        rs2: fa(2),
        rep: false,
    };
    let vfcpk_b_h = Instr::VFCpk {
        fmt: FpFmt::H,
        half: CpkHalf::B,
        rd: fa(2),
        rs1: fa(0),
        rs2: fa(1),
    };
    // (1-cycle prefix, trapping word, trap).
    let cases = [
        (
            vec![li(a(1), 2)],
            encode(&misaligned_lw),
            SimError::Misaligned { addr: 2 },
        ),
        (
            vec![],
            0xffff_ffff,
            SimError::IllegalInstruction {
                word: 0xffff_ffff,
                pc: TEXT,
            },
        ),
        (
            vec![],
            encode(&Instr::Ebreak),
            SimError::Breakpoint { pc: TEXT },
        ),
        (
            vec![li(a(0), 1), li(a(1), 2)],
            encode(&Instr::Ebreak),
            SimError::Breakpoint { pc: TEXT + 8 },
        ),
        (
            vec![],
            encode(&unknown_csr),
            SimError::UnknownCsr {
                csr: 0x123,
                pc: TEXT,
            },
        ),
        (
            vec![reserved_frm],
            encode(&fadd_dyn),
            SimError::InvalidRounding { pc: TEXT + 4 },
        ),
        (
            vec![li(a(0), 1)],
            encode(&vfadd_s),
            SimError::VectorUnsupported { pc: TEXT + 4 },
        ),
        (
            vec![li(a(0), 1), li(a(1), 2)],
            encode(&vfcpk_b_h),
            SimError::VectorUnsupported { pc: TEXT + 8 },
        ),
    ];
    for mode in MODES {
        for (prefix, word, trap) in &cases {
            let mut c = cpu();
            c.set_fflags(Flags::OF);
            let mut prog = prefix.clone();
            prog.push(Instr::Ecall);
            c.load_program(TEXT, &prog);
            let at = TEXT + 4 * prefix.len() as u32;
            c.write_data(at, &word.to_le_bytes());
            assert_eq!(run_in(&mut c, mode, 10), Err(*trap), "{mode:?}");
            // A trap retires nothing: the PC stays on the trapping
            // instruction, and `fflags` and the counters are what the
            // prefix left.
            assert_eq!(c.pc(), at, "{trap:?} {mode:?}");
            assert_eq!(c.fflags(), Flags::OF, "{trap:?} {mode:?}");
            assert_eq!(c.stats().instret, prefix.len() as u64, "{trap:?}");
            assert_eq!(
                c.stats().cycles,
                prefix.len() as u64 * t.int_alu,
                "{trap:?} {mode:?}"
            );
        }
    }
}

#[test]
fn run_traced_observes_every_instruction() {
    let mut c = cpu();
    let prog = [
        li(a(0), 2),
        Instr::Op {
            op: AluOp::Add,
            rd: a(0),
            rs1: a(0),
            rs2: a(0),
        },
    ];
    let mut p = prog.to_vec();
    p.push(Instr::Ecall);
    c.load_program(TEXT, &p);
    let mut trace = Vec::new();
    let exit = c
        .run_traced(100, |pc, instr| trace.push(format!("{pc:#x}: {instr}")))
        .unwrap();
    assert_eq!(exit, ExitReason::Ecall);
    assert_eq!(trace.len(), 3, "{trace:?}");
    assert!(trace[0].contains("addi a0, zero, 2"));
    assert!(trace[1].contains("add a0, a0, a0"));
    assert!(trace[2].contains("ecall"));
    assert_eq!(c.xreg(a(0)), 4);
}

#[test]
fn peek_does_not_execute() {
    let mut c = cpu();
    c.load_program(TEXT, &[li(a(0), 7), Instr::Ecall]);
    let i = c.peek().unwrap();
    assert_eq!(i.to_string(), "addi a0, zero, 7");
    assert_eq!(c.xreg(a(0)), 0, "peek must not execute");
    assert_eq!(c.stats().instret, 0);
}

#[test]
fn instruction_limit() {
    let mut c = cpu();
    // Infinite loop.
    c.load_program(
        TEXT,
        &[Instr::Jal {
            rd: XReg::ZERO,
            offset: 0,
        }],
    );
    assert_eq!(c.run(100).unwrap(), ExitReason::InstructionLimit);
    assert_eq!(c.stats().instret, 100);
}

/// An unbounded budget (`u64::MAX`) after instructions have already
/// retired — by a `step()`, or carried in by a restored snapshot — runs
/// to the exit on every driver and on `run_traced`: the limit saturates
/// instead of wrapping to below the retired count.
#[test]
fn unbounded_budget_after_retired_instructions() {
    let bump = Instr::OpImm {
        op: AluOp::Add,
        rd: a(0),
        rs1: a(0),
        imm: 1,
    };
    let prog = [li(a(0), 1), bump, bump, Instr::Ecall];
    for mode in MODES {
        let mut c = cpu();
        c.load_program(TEXT, &prog);
        assert_eq!(c.step(), Ok(None), "{mode:?}");
        let snap = c.snapshot();
        assert_eq!(snap.instret(), 1);
        for from in ["step", "restore"] {
            if from == "restore" {
                c.restore(&snap);
            }
            assert_eq!(
                run_in(&mut c, mode, u64::MAX),
                Ok(ExitReason::Ecall),
                "{mode:?} after {from}"
            );
            assert_eq!(c.xreg(a(0)), 3, "{mode:?} after {from}");
            assert_eq!(c.stats().instret, 4, "{mode:?} after {from}");
        }
    }
    let mut c = cpu();
    c.load_program(TEXT, &prog);
    assert_eq!(c.step(), Ok(None));
    let mut seen = 0;
    assert_eq!(
        c.run_traced(u64::MAX, |_, _| seen += 1),
        Ok(ExitReason::Ecall)
    );
    assert_eq!((seen, c.xreg(a(0))), (3, 3));
}

#[test]
fn fmv_moves_raw_bits() {
    let mut c = cpu();
    let prog = [
        li(a(0), 0x3c0), // will shift to make 0x3c00 (f16 1.0)
        Instr::OpImm {
            op: AluOp::Sll,
            rd: a(0),
            rs1: a(0),
            imm: 4,
        },
        Instr::FMvFX {
            fmt: FpFmt::H,
            rd: fa(0),
            rs1: a(0),
        },
        Instr::FMvXF {
            fmt: FpFmt::H,
            rd: a(1),
            rs1: fa(0),
        },
        Instr::FClass {
            fmt: FpFmt::H,
            rd: a(2),
            rs1: fa(0),
        },
    ];
    run_program(&mut c, &prog);
    assert_eq!(c.freg(fa(0)), 0xffff_3c00, "NaN-boxed on fmv.h.x");
    assert_eq!(c.xreg(a(1)), 0x3c00);
    assert_eq!(c.xreg(a(2)), 1 << 6, "+normal");
}

#[test]
fn f8_scalar_and_b16alt_range() {
    let mut c = cpu();
    let mut env = Env::new(Rounding::Rne);
    let ah = |v: f32, env: &mut Env| ops::from_f32(Format::BINARY16ALT, v, env);
    let big = ah(1e30, &mut env);
    c.set_freg(fa(0), 0xffff_0000 | big as u32);
    c.set_freg(fa(1), 0xffff_0000 | big as u32);
    let prog = [
        // b16alt handles 1e30 * 2 fine (bfloat range).
        Instr::FOp {
            op: FpOp::Add,
            fmt: FpFmt::Ah,
            rd: fa(2),
            rs1: fa(0),
            rs2: fa(1),
            rm: Rm::Dyn,
        },
        // b8 65504 doesn't exist: convert f32 1e6 to b8 → inf (OF).
        Instr::FMvFX {
            fmt: FpFmt::S,
            rd: fa(3),
            rs1: a(3),
        },
        Instr::FCvtFF {
            dst: FpFmt::B,
            src: FpFmt::S,
            rd: fa(4),
            rs1: fa(3),
            rm: Rm::Dyn,
        },
    ];
    c.set_xreg(a(3), 1e6f32.to_bits());
    // set_xreg before load_program is fine; run resets nothing.
    run_program(&mut c, &prog);
    let sum = c.freg(fa(2)) as u64 & 0xffff;
    // big is 1e30 rounded to bfloat16; doubling is exact (exponent bump).
    assert_eq!(
        ops::to_f64(Format::BINARY16ALT, sum),
        2.0 * ops::to_f64(Format::BINARY16ALT, big)
    );
    let b8 = c.freg(fa(4)) as u64 & 0xff;
    assert_eq!(b8, Format::BINARY8.infinity(false));
    assert!(c.fflags().contains(Flags::OF));
}
