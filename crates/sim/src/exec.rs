//! The instruction interpreter: semantics + cycle accounting.

use crate::cpu::{Cpu, ExitReason, SimError};
use smallfloat_isa::{
    csr, vector_lanes, AluOp, BranchCond, CmpOp, CpkHalf, CsrOp, CsrSrc, FmaOp, FpFmt, FpOp, Instr,
    MemWidth, MinMaxOp, MulDivOp, Rm, SgnjKind, VCmpOp, VfOp,
};
use smallfloat_softfp::{batch, fast, ops, Env, Format, Rounding};

const FLEN: u32 = 32;

fn resolve_rm(cpu: &Cpu, rm: Rm, pc: u32) -> Result<Rounding, SimError> {
    match rm {
        Rm::Dyn => cpu.frm().ok_or(SimError::InvalidRounding { pc }),
        other => Ok(other.resolve(Rounding::Rne)),
    }
}

// `unbox`/`write_boxed` are the FLEN = 32 specialization of
// `nanbox::unboxed`/`nanbox::boxed`: the generic helpers recompute the
// format mask and upper-bit pattern per call, which shows up on the
// scalar FP dispatch hot path. Width checks here are against the fixed
// 32-bit register, so binary32 is a plain move and the narrow formats
// reduce to one compare (or one OR) with a constant.

#[inline(always)]
pub(crate) fn unbox(cpu: &Cpu, fmt: FpFmt, r: smallfloat_isa::FReg) -> u64 {
    let reg = cpu.freg(r);
    let (upper, mask) = match fmt.width() {
        32 => return reg as u64,
        16 => (0xffff_0000u32, 0xffffu32),
        _ => (0xffff_ff00u32, 0xffu32),
    };
    if reg & upper == upper {
        (reg & mask) as u64
    } else {
        fmt.format().quiet_nan()
    }
}

#[inline(always)]
pub(crate) fn write_boxed(cpu: &mut Cpu, fmt: FpFmt, r: smallfloat_isa::FReg, bits: u64) {
    let boxed = match fmt.width() {
        32 => bits as u32,
        16 => (bits as u32 & 0xffff) | 0xffff_0000,
        _ => (bits as u32 & 0xff) | 0xffff_ff00,
    };
    cpu.set_freg(r, boxed);
}

fn lanes_of(fmt: FpFmt, pc: u32) -> Result<(u32, u32), SimError> {
    match vector_lanes(FLEN, fmt) {
        Some(n) => Ok((n, fmt.width())),
        None => Err(SimError::VectorUnsupported { pc }),
    }
}

/// Lane layout of a vectorizable format at `FLEN = 32`, mapping to the
/// matching batched helper family in `smallfloat_softfp::batch`.
#[derive(Clone, Copy, PartialEq)]
enum VecFmt {
    /// 2 × binary16
    H,
    /// 2 × binary16alt
    Ah,
    /// 4 × binary8 (E5M2 or E4M3; the softfp `Format` disambiguates)
    B8,
}

fn vec_fmt(fmt: FpFmt, pc: u32) -> Result<VecFmt, SimError> {
    match (fmt.width(), fmt) {
        (16, FpFmt::Ah) => Ok(VecFmt::Ah),
        (16, _) => Ok(VecFmt::H),
        (8, _) => Ok(VecFmt::B8),
        _ => Err(SimError::VectorUnsupported { pc }),
    }
}

#[inline(always)]
pub(crate) fn lane_op(op: VfOp) -> batch::LaneOp {
    match op {
        VfOp::Add => batch::LaneOp::Add,
        VfOp::Sub => batch::LaneOp::Sub,
        VfOp::Mul => batch::LaneOp::Mul,
        VfOp::Div => batch::LaneOp::Div,
        VfOp::Min => batch::LaneOp::Min,
        VfOp::Max => batch::LaneOp::Max,
        VfOp::Mac => batch::LaneOp::Mac,
        VfOp::Sgnj => batch::LaneOp::Sgnj,
        VfOp::Sgnjn => batch::LaneOp::Sgnjn,
        VfOp::Sgnjx => batch::LaneOp::Sgnjx,
    }
}

#[inline(always)]
pub(crate) fn lane_cmp(op: VCmpOp) -> batch::LaneCmp {
    match op {
        VCmpOp::Eq => batch::LaneCmp::Eq,
        VCmpOp::Ne => batch::LaneCmp::Ne,
        VCmpOp::Lt => batch::LaneCmp::Lt,
        VCmpOp::Le => batch::LaneCmp::Le,
        VCmpOp::Gt => batch::LaneCmp::Gt,
        VCmpOp::Ge => batch::LaneCmp::Ge,
    }
}

#[inline(always)]
pub(crate) fn set_lane(reg: u32, i: u32, w: u32, v: u64) -> u32 {
    let mask = (((1u64 << w) - 1) as u32) << (i * w);
    (reg & !mask) | (((v as u32) << (i * w)) & mask)
}

#[inline(always)]
pub(crate) fn sext(v: u32, bits: u32) -> u32 {
    if bits >= 32 {
        v
    } else {
        (((v << (32 - bits)) as i32) >> (32 - bits)) as u32
    }
}

/// Widen a smallFloat bit pattern to binary32 — exact for every supported
/// format, so no flags can be raised.
#[inline(always)]
pub(crate) fn widen_to_s(fmt: FpFmt, bits: u64) -> u64 {
    let mut env = Env::new(Rounding::Rne);
    fast::cvt_f_f(Format::BINARY32, fmt.format(), bits, &mut env)
}

pub(crate) fn exec(cpu: &mut Cpu, instr: Instr, len: u32) -> Result<Option<ExitReason>, SimError> {
    let pc = cpu.pc;
    let mut next_pc = pc.wrapping_add(len);
    let mut cycles = cpu.config.timing.int_alu;
    let mut exit = None;
    // One environment per retired instruction: arms that round set `rm`,
    // flags accrue across lanes and drain into `fflags` once after the
    // match (trapping arms return early and leave `fflags` untouched,
    // as before).
    let mut env = Env::new(Rounding::Rne);

    match instr {
        // ----- RV32I -----
        Instr::Lui { rd, imm20 } => cpu.set_xreg(rd, (imm20 as u32) << 12),
        Instr::Auipc { rd, imm20 } => {
            cpu.set_xreg(rd, pc.wrapping_add((imm20 as u32) << 12));
        }
        Instr::Jal { rd, offset } => {
            cpu.set_xreg(rd, pc.wrapping_add(len));
            next_pc = pc.wrapping_add(offset as u32);
            cycles = cpu.config.timing.jump;
        }
        Instr::Jalr { rd, rs1, offset } => {
            let target = cpu.xreg(rs1).wrapping_add(offset as u32) & !1;
            cpu.set_xreg(rd, pc.wrapping_add(len));
            next_pc = target;
            cycles = cpu.config.timing.jump;
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let a = cpu.xreg(rs1);
            let b = cpu.xreg(rs2);
            let taken = match cond {
                BranchCond::Eq => a == b,
                BranchCond::Ne => a != b,
                BranchCond::Lt => (a as i32) < (b as i32),
                BranchCond::Ge => (a as i32) >= (b as i32),
                BranchCond::Ltu => a < b,
                BranchCond::Geu => a >= b,
            };
            if taken {
                next_pc = pc.wrapping_add(offset as u32);
                cycles = cpu.config.timing.branch_taken;
            } else {
                cycles = cpu.config.timing.branch_not_taken;
            }
        }
        Instr::Load {
            width,
            unsigned,
            rd,
            rs1,
            offset,
        } => {
            let addr = cpu.xreg(rs1).wrapping_add(offset as u32);
            let raw = cpu.mem.load(addr, width.bytes())?;
            let v = if unsigned || width == MemWidth::W {
                raw
            } else {
                sext(raw, width.bytes() * 8)
            };
            cpu.set_xreg(rd, v);
            cycles = cpu.config.mem_level.latency();
        }
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            let addr = cpu.xreg(rs1).wrapping_add(offset as u32);
            cpu.mem.store(addr, width.bytes(), cpu.xreg(rs2))?;
            cpu.blocks.invalidate(addr, width.bytes());
            cycles = cpu.config.mem_level.latency();
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            let v = alu(op, cpu.xreg(rs1), imm as u32);
            cpu.set_xreg(rd, v);
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let v = alu(op, cpu.xreg(rs1), cpu.xreg(rs2));
            cpu.set_xreg(rd, v);
        }
        Instr::Fence => {}
        Instr::Ecall => exit = Some(ExitReason::Ecall),
        Instr::Ebreak => return Err(SimError::Breakpoint { pc }),

        // ----- M -----
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            let a = cpu.xreg(rs1);
            let b = cpu.xreg(rs2);
            let v = muldiv(op, a, b);
            cpu.set_xreg(rd, v);
            cycles = match op {
                MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => {
                    cpu.config.timing.int_mul
                }
                _ => cpu.config.timing.int_div,
            };
        }

        // ----- Zicsr -----
        Instr::Csr {
            op,
            rd,
            src,
            csr: num,
        } => {
            let old = read_csr(cpu, num, pc)?;
            let (src_val, skip_write) = match src {
                CsrSrc::Reg(r) => (cpu.xreg(r), op != CsrOp::Rw && r.num() == 0),
                CsrSrc::Imm(i) => (i as u32, op != CsrOp::Rw && i == 0),
            };
            if !skip_write {
                let new = match op {
                    CsrOp::Rw => src_val,
                    CsrOp::Rs => old | src_val,
                    CsrOp::Rc => old & !src_val,
                };
                write_csr(cpu, num, new, pc)?;
            }
            cpu.set_xreg(rd, old);
        }

        // ----- FP loads/stores -----
        Instr::FLoad {
            fmt,
            rd,
            rs1,
            offset,
        } => {
            let addr = cpu.xreg(rs1).wrapping_add(offset as u32);
            let bytes = fmt.width() / 8;
            let raw = cpu.mem.load(addr, bytes)? as u64;
            write_boxed(cpu, fmt, rd, raw);
            cycles = cpu.config.mem_level.latency();
        }
        Instr::FStore {
            fmt,
            rs2,
            rs1,
            offset,
        } => {
            let addr = cpu.xreg(rs1).wrapping_add(offset as u32);
            let bytes = fmt.width() / 8;
            cpu.mem.store(addr, bytes, cpu.freg(rs2))?;
            cpu.blocks.invalidate(addr, bytes);
            cycles = cpu.config.mem_level.latency();
        }

        // ----- Scalar FP arithmetic -----
        Instr::FOp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let a = unbox(cpu, fmt, rs1);
            let b = unbox(cpu, fmt, rs2);
            let f = fmt.format();
            let r = match op {
                FpOp::Add => fast::add(f, a, b, &mut env),
                FpOp::Sub => fast::sub(f, a, b, &mut env),
                FpOp::Mul => fast::mul(f, a, b, &mut env),
                FpOp::Div => fast::div(f, a, b, &mut env),
            };
            write_boxed(cpu, fmt, rd, r);
            cycles = if op == FpOp::Div {
                cpu.config.timing.fp_div
            } else {
                cpu.config.timing.fp_op
            };
        }
        Instr::FSqrt { fmt, rd, rs1, rm } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let r = fast::sqrt(fmt.format(), unbox(cpu, fmt, rs1), &mut env);
            write_boxed(cpu, fmt, rd, r);
            cycles = cpu.config.timing.fp_sqrt;
        }
        Instr::FSgnj {
            kind,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            let a = unbox(cpu, fmt, rs1);
            let b = unbox(cpu, fmt, rs2);
            let f = fmt.format();
            let r = match kind {
                SgnjKind::Sgnj => fast::fsgnj(f, a, b),
                SgnjKind::Sgnjn => fast::fsgnjn(f, a, b),
                SgnjKind::Sgnjx => fast::fsgnjx(f, a, b),
            };
            write_boxed(cpu, fmt, rd, r);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FMinMax {
            op,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            let a = unbox(cpu, fmt, rs1);
            let b = unbox(cpu, fmt, rs2);
            let r = match op {
                MinMaxOp::Min => fast::fmin(fmt.format(), a, b, &mut env),
                MinMaxOp::Max => fast::fmax(fmt.format(), a, b, &mut env),
            };
            write_boxed(cpu, fmt, rd, r);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FFma {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rs3,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let a = unbox(cpu, fmt, rs1);
            let b = unbox(cpu, fmt, rs2);
            let c = unbox(cpu, fmt, rs3);
            let f = fmt.format();
            let r = match op {
                FmaOp::Madd => fast::fmadd(f, a, b, c, &mut env),
                FmaOp::Msub => fast::fmsub(f, a, b, c, &mut env),
                FmaOp::Nmsub => fast::fnmsub(f, a, b, c, &mut env),
                FmaOp::Nmadd => fast::fnmadd(f, a, b, c, &mut env),
            };
            write_boxed(cpu, fmt, rd, r);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FCmp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            let a = unbox(cpu, fmt, rs1);
            let b = unbox(cpu, fmt, rs2);
            let f = fmt.format();
            let r = match op {
                CmpOp::Eq => fast::feq(f, a, b, &mut env),
                CmpOp::Lt => fast::flt(f, a, b, &mut env),
                CmpOp::Le => fast::fle(f, a, b, &mut env),
            };
            cpu.set_xreg(rd, r as u32);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FClass { fmt, rd, rs1 } => {
            cpu.set_xreg(rd, fast::classify(fmt.format(), unbox(cpu, fmt, rs1)));
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FMvXF { fmt, rd, rs1 } => {
            let raw = (cpu.freg(rs1) as u64 & fmt.format().mask()) as u32;
            cpu.set_xreg(rd, sext(raw, fmt.width()));
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FMvFX { fmt, rd, rs1 } => {
            write_boxed(cpu, fmt, rd, cpu.xreg(rs1) as u64 & fmt.format().mask());
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FCvtFF {
            dst,
            src,
            rd,
            rs1,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let r = fast::cvt_f_f(dst.format(), src.format(), unbox(cpu, src, rs1), &mut env);
            write_boxed(cpu, dst, rd, r);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FCvtFI {
            fmt,
            rd,
            rs1,
            signed,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let r = ops::to_int(fmt.format(), unbox(cpu, fmt, rs1), signed, 32, &mut env);
            cpu.set_xreg(rd, r as u32);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FCvtIF {
            fmt,
            rd,
            rs1,
            signed,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let x = cpu.xreg(rs1);
            let r = if signed {
                ops::from_i64(fmt.format(), x as i32 as i64, &mut env)
            } else {
                ops::from_u64(fmt.format(), x as u64, &mut env)
            };
            write_boxed(cpu, fmt, rd, r);
            cycles = cpu.config.timing.fp_op;
        }

        // ----- Xfaux scalar expanding -----
        Instr::FMulEx {
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let a = widen_to_s(fmt, unbox(cpu, fmt, rs1));
            let b = widen_to_s(fmt, unbox(cpu, fmt, rs2));
            let r = fast::mul(Format::BINARY32, a, b, &mut env);
            cpu.set_freg(rd, r as u32);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::FMacEx {
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            env.rm = resolve_rm(cpu, rm, pc)?;
            let a = widen_to_s(fmt, unbox(cpu, fmt, rs1));
            let b = widen_to_s(fmt, unbox(cpu, fmt, rs2));
            let acc = cpu.freg(rd) as u64;
            let r = fast::fmadd(Format::BINARY32, a, b, acc, &mut env);
            cpu.set_freg(rd, r as u32);
            cycles = cpu.config.timing.fp_op;
        }

        // ----- Xfvec -----
        Instr::VFOp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let vb = cpu.freg(rs2);
            let vd = cpu.freg(rd);
            let lop = lane_op(op);
            let out = match vf {
                VecFmt::H => batch::vfop2_f16(lop, va, vb, vd, rep, &mut env),
                VecFmt::Ah => batch::vfop2_f16alt(lop, va, vb, vd, rep, &mut env),
                VecFmt::B8 => batch::vfop4_f8(fmt.format(), lop, va, vb, vd, rep, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = if op == VfOp::Div {
                cpu.config.timing.fp_div
            } else {
                cpu.config.timing.fp_op
            };
        }
        Instr::VFSqrt { fmt, rd, rs1 } => {
            let vf = vec_fmt(fmt, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let out = match vf {
                VecFmt::H => batch::vsqrt2_f16(va, &mut env),
                VecFmt::Ah => batch::vsqrt2_f16alt(va, &mut env),
                VecFmt::B8 => batch::vsqrt4_f8(fmt.format(), va, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_sqrt;
        }
        Instr::VFCmp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            let va = cpu.freg(rs1);
            let vb = cpu.freg(rs2);
            let lop = lane_cmp(op);
            let mask = match vf {
                VecFmt::H => batch::vcmp2_f16(lop, va, vb, rep, &mut env),
                VecFmt::Ah => batch::vcmp2_f16alt(lop, va, vb, rep, &mut env),
                VecFmt::B8 => batch::vcmp4_f8(fmt.format(), lop, va, vb, rep, &mut env),
            };
            cpu.set_xreg(rd, mask);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFCvtFF { dst, src, rd, rs1 } => {
            if dst.width() != src.width() {
                return Err(SimError::VectorUnsupported { pc });
            }
            let vf = vec_fmt(dst, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let out = match vf {
                VecFmt::H | VecFmt::Ah => batch::vcvt2_ff(dst.format(), src.format(), va, &mut env),
                VecFmt::B8 => batch::vcvt4_ff(dst.format(), src.format(), va, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFCvtXF {
            fmt,
            rd,
            rs1,
            signed,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let out = match vf {
                VecFmt::H | VecFmt::Ah => batch::vcvt2_x_f(fmt.format(), va, signed, &mut env),
                VecFmt::B8 => batch::vcvt4_x_f8(fmt.format(), va, signed, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFCvtFX {
            fmt,
            rd,
            rs1,
            signed,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let out = match vf {
                VecFmt::H | VecFmt::Ah => batch::vcvt2_f_x(fmt.format(), va, signed, &mut env),
                VecFmt::B8 => batch::vcvt4_f8_x(fmt.format(), va, signed, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFCpk {
            fmt,
            half,
            rd,
            rs1,
            rs2,
        } => {
            let (n, w) = lanes_of(fmt, pc)?;
            let base = match half {
                CpkHalf::A => 0,
                CpkHalf::B => 2,
            };
            if base + 1 >= n {
                return Err(SimError::VectorUnsupported { pc });
            }
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let a = fast::cvt_f_f(
                fmt.format(),
                Format::BINARY32,
                cpu.freg(rs1) as u64,
                &mut env,
            );
            let b = fast::cvt_f_f(
                fmt.format(),
                Format::BINARY32,
                cpu.freg(rs2) as u64,
                &mut env,
            );
            let mut out = cpu.freg(rd);
            out = set_lane(out, base, w, a);
            out = set_lane(out, base + 1, w, b);
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFDotpEx {
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let vb = cpu.freg(rs2);
            // Lane products accumulate into the binary32 destination, lane 0
            // first, each step a single-rounding FMA (FPnew SDOTP order).
            let acc = cpu.freg(rd);
            let out = match vf {
                VecFmt::H => batch::vdotpex2_f16(acc, va, vb, rep, &mut env),
                VecFmt::Ah => batch::vdotpex2_f16alt(acc, va, vb, rep, &mut env),
                VecFmt::B8 => batch::vdotpex4_f8(fmt.format(), acc, va, vb, rep, &mut env),
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
        Instr::VFSdotpEx {
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            let vf = vec_fmt(fmt, pc)?;
            let wide = fmt.widen().ok_or(SimError::VectorUnsupported { pc })?;
            env.rm = cpu.frm().ok_or(SimError::InvalidRounding { pc })?;
            let va = cpu.freg(rs1);
            let vb = cpu.freg(rs2);
            // Destination lane j (width 2w) accumulates the product pair
            // a[2j]*b[2j] + a[2j+1]*b[2j+1] as two chained single-rounding
            // FMAs in the wide format, even lane first (ExSdotp order).
            let acc = cpu.freg(rd);
            let out = match vf {
                VecFmt::H => batch::vsdotp2_f16(acc, va, vb, rep, &mut env),
                VecFmt::Ah => batch::vsdotp2_f16alt(acc, va, vb, rep, &mut env),
                VecFmt::B8 => {
                    batch::vsdotp4_f8(fmt.format(), wide.format(), acc, va, vb, rep, &mut env)
                }
            };
            cpu.set_freg(rd, out);
            cycles = cpu.config.timing.fp_op;
        }
    }

    // ----- Flag drain + accounting -----
    cpu.fflags.set(env.flags);
    let class = instr.class();
    cpu.stats.count(class, cycles);
    cpu.stats.instret += 1;
    cpu.stats.cycles += cycles;
    cpu.pc = next_pc;
    Ok(exit)
}

#[inline(always)]
pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

#[inline(always)]
pub(crate) fn muldiv(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow: MIN / -1 = MIN
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

fn read_csr(cpu: &Cpu, num: u16, pc: u32) -> Result<u32, SimError> {
    Ok(match num {
        csr::FFLAGS => cpu.fflags.bits() as u32,
        csr::FRM => cpu.frm_raw as u32,
        csr::FCSR => ((cpu.frm_raw as u32) << 5) | cpu.fflags.bits() as u32,
        csr::CYCLE | csr::TIME | csr::MCYCLE => cpu.stats.cycles as u32,
        csr::CYCLEH => (cpu.stats.cycles >> 32) as u32,
        csr::INSTRET | csr::MINSTRET => cpu.stats.instret as u32,
        csr::INSTRETH => (cpu.stats.instret >> 32) as u32,
        _ => return Err(SimError::UnknownCsr { csr: num, pc }),
    })
}

fn write_csr(cpu: &mut Cpu, num: u16, v: u32, pc: u32) -> Result<(), SimError> {
    match num {
        csr::FFLAGS => cpu.fflags = smallfloat_softfp::Flags::from_bits(v as u8),
        csr::FRM => cpu.frm_raw = (v & 0x7) as u8,
        csr::FCSR => {
            cpu.frm_raw = ((v >> 5) & 0x7) as u8;
            cpu.fflags = smallfloat_softfp::Flags::from_bits(v as u8);
        }
        // Machine counters accept writes but the simulator keeps authority
        // over its own accounting; writes are ignored.
        csr::MCYCLE | csr::MINSTRET => {}
        _ => return Err(SimError::UnknownCsr { csr: num, pc }),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops() {
        assert_eq!(
            alu(AluOp::Add, 2_000_000_000, 2_000_000_000),
            4_000_000_000u32.wrapping_sub(0)
        );
        assert_eq!(alu(AluOp::Sub, 1, 2), u32::MAX);
        assert_eq!(alu(AluOp::Sll, 1, 33), 2, "shift amount masked to 5 bits");
        assert_eq!(alu(AluOp::Sra, 0x8000_0000, 31), u32::MAX);
        assert_eq!(alu(AluOp::Slt, u32::MAX, 0), 1, "signed -1 < 0");
        assert_eq!(alu(AluOp::Sltu, u32::MAX, 0), 0);
    }

    #[test]
    fn muldiv_edge_cases() {
        assert_eq!(muldiv(MulDivOp::Div, 7, 0), u32::MAX, "div by zero = -1");
        assert_eq!(muldiv(MulDivOp::Rem, 7, 0), 7, "rem by zero = dividend");
        assert_eq!(
            muldiv(MulDivOp::Div, 0x8000_0000, u32::MAX),
            0x8000_0000,
            "overflow"
        );
        assert_eq!(muldiv(MulDivOp::Rem, 0x8000_0000, u32::MAX), 0);
        assert_eq!(
            muldiv(MulDivOp::Mulh, u32::MAX, u32::MAX),
            0,
            "(-1)*(-1) high = 0"
        );
        assert_eq!(muldiv(MulDivOp::Mulhu, u32::MAX, u32::MAX), 0xffff_fffe);
        assert_eq!(muldiv(MulDivOp::Divu, 7, 2), 3);
    }

    #[test]
    fn lane_accessors() {
        let reg = 0xaabb_ccdd;
        assert_eq!(set_lane(reg, 1, 16, 0x1122), 0x1122_ccdd);
        assert_eq!(set_lane(reg, 0, 8, 0xff), 0xaabb_ccff);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext(0x80, 8), 0xffff_ff80);
        assert_eq!(sext(0x7f, 8), 0x7f);
        assert_eq!(sext(0x8000, 16), 0xffff_8000);
        assert_eq!(sext(0xdead_beef, 32), 0xdead_beef);
    }
}
