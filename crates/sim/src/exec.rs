//! Semantic helpers shared by the lowered handlers in `block.rs`: integer
//! ALU and M-extension arithmetic, NaN-boxing at FLEN = 32, lane
//! packing, and the CSR file.

use crate::cpu::{Cpu, SimError};
use smallfloat_isa::{csr, AluOp, FpFmt, MulDivOp, VCmpOp, VfOp};
use smallfloat_softfp::batch;

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

pub(crate) fn read_csr(cpu: &Cpu, num: u16, pc: u32) -> Result<u32, SimError> {
    Ok(match num {
        csr::FFLAGS => cpu.fflags.bits() as u32,
        csr::FRM => cpu.frm_raw,
        csr::FCSR => (cpu.frm_raw << 5) | cpu.fflags.bits() as u32,
        csr::CYCLE | csr::TIME | csr::MCYCLE => cpu.stats.cycles as u32,
        csr::CYCLEH => (cpu.stats.cycles >> 32) as u32,
        csr::INSTRET | csr::MINSTRET => cpu.stats.instret as u32,
        csr::INSTRETH => (cpu.stats.instret >> 32) as u32,
        _ => return Err(SimError::UnknownCsr { csr: num, pc }),
    })
}

pub(crate) fn write_csr(cpu: &mut Cpu, num: u16, v: u32, pc: u32) -> Result<(), SimError> {
    match num {
        csr::FFLAGS => cpu.fflags = smallfloat_softfp::Flags::from_bits(v as u8),
        csr::FRM => cpu.frm_raw = v & 0x7,
        csr::FCSR => {
            cpu.frm_raw = (v >> 5) & 0x7;
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
