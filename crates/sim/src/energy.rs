//! The per-instruction energy model (DESIGN.md §7).
//!
//! The paper obtained per-operation energies from post-layout simulation of
//! a UMC 65 nm smallFloat FPU at 350 MHz, worst case (1.08 V, 125 °C). That
//! flow is not reproducible here, so this model encodes the *structure* of
//! those numbers — per-class per-operation energy scaling roughly linearly
//! with FP datapath width, per-access memory energy growing steeply with
//! hierarchy level, and a per-cycle pipeline/idle cost — with constants
//! calibrated so the paper's reported anchor points hold (≈30 % average
//! energy saving for 16-bit types at L1, ≈50 % for binary8). Everything
//! else (per-benchmark shapes, latency trends) then *emerges* from the
//! simulator's actual instruction and cycle counts.

use crate::stats::Stats;
use crate::timing::MemLevel;
use smallfloat_isa::InstrClass;

/// Per-class energy costs in picojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Baseline pipeline energy charged per *cycle* (fetch, decode, clock
    /// tree) — this is what makes long-latency stalls expensive.
    pub idle_per_cycle: f64,
    /// Integer ALU op.
    pub int_alu: f64,
    /// Integer multiply.
    pub int_mul: f64,
    /// Integer divide (total, not per cycle).
    pub int_div: f64,
    /// Branch or jump.
    pub control: f64,
    /// Memory access energy per level `[L1, L2, L3]` (per access, added on
    /// top of the stall cycles' idle energy).
    pub mem_access: [f64; 3],
    /// Scalar binary32 FP op.
    pub fp32: f64,
    /// Scalar 16-bit FP op (binary16 or binary16alt).
    pub fp16: f64,
    /// Scalar binary8 FP op.
    pub fp8: f64,
    /// SIMD 2×16-bit FP op.
    pub vec16: f64,
    /// SIMD 4×8-bit FP op.
    pub vec8: f64,
    /// Conversion op (scalar or vector).
    pub cvt: f64,
    /// Cast-and-pack op.
    pub cpk: f64,
    /// Expanding op (fmulex/fmacex/vfdotpex).
    pub expand: f64,
    /// FP compare / move / classify.
    pub fp_misc: f64,
    /// CSR / system instruction.
    pub system: f64,
}

impl EnergyModel {
    /// The UMC 65 nm-calibrated model (see module docs).
    ///
    /// Calibration stance: at 65 nm worst-case corners a large share of the
    /// core's energy is per-cycle background (clock tree, fetch/decode,
    /// leakage at 125 °C), so energy tracks execution time first; packed
    /// SIMD ops cost *more* than one scalar binary32 op (full-width
    /// datapath plus lane handling), which is what keeps the paper's energy
    /// savings below the inverse speedup.
    pub fn umc65() -> EnergyModel {
        EnergyModel {
            idle_per_cycle: 3.0,
            int_alu: 0.9,
            int_mul: 2.0,
            int_div: 10.0,
            control: 0.9,
            mem_access: [4.5, 22.0, 110.0],
            fp32: 2.6,
            fp16: 1.5,
            fp8: 1.0,
            vec16: 7.0,
            vec8: 10.0,
            cvt: 1.7,
            cpk: 3.0,
            expand: 7.5,
            fp_misc: 1.0,
            system: 0.5,
        }
    }

    /// Energy of one instruction of class `class`, excluding the per-cycle
    /// idle component (which [`EnergyModel::energy_pj`] charges from the
    /// cycle count).
    pub fn class_energy(&self, class: InstrClass, level: MemLevel) -> f64 {
        let mem = self.mem_access[match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::L3 => 2,
        }];
        match class {
            InstrClass::IntAlu => self.int_alu,
            InstrClass::IntMul => self.int_mul,
            InstrClass::IntDiv => self.int_div,
            InstrClass::Branch | InstrClass::Jump => self.control,
            InstrClass::Load | InstrClass::Store | InstrClass::FpLoad | InstrClass::FpStore => mem,
            InstrClass::FpMove | InstrClass::FpCmp => self.fp_misc,
            InstrClass::FpS => self.fp32,
            InstrClass::FpH | InstrClass::FpAh => self.fp16,
            InstrClass::FpB | InstrClass::FpAb => self.fp8,
            InstrClass::FpVecH | InstrClass::FpVecAh => self.vec16,
            InstrClass::FpVecB | InstrClass::FpVecAb => self.vec8,
            InstrClass::FpCvt => self.cvt,
            InstrClass::FpCpk => self.cpk,
            InstrClass::FpExpand => self.expand,
            InstrClass::Csr | InstrClass::System => self.system,
        }
    }

    /// Total energy of a run with counters `stats` at memory level
    /// `level`: every retired instruction's class energy plus the idle
    /// energy of every cycle, `Σ_c count[c]·class_energy(c) +
    /// idle_per_cycle·cycles`. The sum runs in [`InstrClass::ALL`] order,
    /// so equal counters give bit-identical energy whichever engine tier,
    /// host worker count or fork history produced them.
    pub fn energy_pj(&self, stats: &Stats, level: MemLevel) -> f64 {
        let ops: f64 = InstrClass::ALL
            .iter()
            .map(|&c| stats.class_count(c) as f64 * self.class_energy(c, level))
            .sum();
        ops + self.idle_per_cycle * stats.cycles as f64
    }
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel::umc65()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_isa::{FReg, FpFmt, FpOp, Instr, Rm};

    fn fop(fmt: FpFmt) -> Instr {
        Instr::FOp {
            op: FpOp::Add,
            fmt,
            rd: FReg::new(0),
            rs1: FReg::new(1),
            rs2: FReg::new(2),
            rm: Rm::Dyn,
        }
    }

    #[test]
    fn width_scaling_monotone() {
        let m = EnergyModel::umc65();
        let e32 = m.class_energy(fop(FpFmt::S).class(), MemLevel::L1);
        let e16 = m.class_energy(fop(FpFmt::H).class(), MemLevel::L1);
        let e8 = m.class_energy(fop(FpFmt::B).class(), MemLevel::L1);
        assert!(e32 > e16 && e16 > e8, "narrower scalar FP must be cheaper");
        // A packed SIMD op drives the full-width datapath plus lane
        // handling: it costs more than one binary32 op, but (being one
        // instruction) stays below the per-lane scalar total *including*
        // each scalar op's share of pipeline overhead (idle_per_cycle).
        assert!(m.vec16 > e32 && m.vec8 > m.vec16);
        assert!(m.vec16 < 2.0 * (e16 + m.idle_per_cycle));
        assert!(m.vec8 < 4.0 * (e8 + m.idle_per_cycle));
    }

    #[test]
    fn memory_energy_grows_with_level() {
        let m = EnergyModel::umc65();
        let load = Instr::Load {
            width: smallfloat_isa::MemWidth::W,
            unsigned: false,
            rd: smallfloat_isa::XReg::new(1),
            rs1: smallfloat_isa::XReg::new(2),
            offset: 0,
        };
        let e1 = m.class_energy(load.class(), MemLevel::L1);
        let e2 = m.class_energy(load.class(), MemLevel::L2);
        let e3 = m.class_energy(load.class(), MemLevel::L3);
        assert!(e1 < e2 && e2 < e3);
    }
}
