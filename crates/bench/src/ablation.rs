//! Ablation studies for the extensions' design choices.
//!
//! The paper motivates two specific pieces of the ISA:
//!
//! * **Xfaux expanding ops** — without them, a widening reduction needs a
//!   per-lane extract/convert/accumulate chain ([`xfaux_ablation`]);
//! * **cast-and-pack (`vfcpk`)** — "convert scalars and assemble vectors"
//!   was a main bottleneck of transprecision computing
//!   ([`cpk_ablation`]).
//!
//! Each ablation builds the same computation with and without the feature
//! and measures simulated cycles.

use smallfloat_asm::Assembler;
use smallfloat_isa::{BranchCond, FReg, FpFmt, XReg};
use smallfloat_sim::{Cpu, SimConfig};
use smallfloat_softfp::{ops, Env, Rounding};

const DATA: u32 = 0x10_0000;
const TEXT: u32 = 0x1000;
const N: usize = 512; // elements per array (multiple of 4)

fn write_f16_array(cpu: &mut Cpu, addr: u32, seed: u64) {
    let mut env = Env::new(Rounding::Rne);
    let mut st = seed | 1;
    for i in 0..N {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        let v = ((st >> 16) % 128) as f64 / 32.0 - 2.0;
        let bits = ops::from_f64(FpFmt::H.format(), v, &mut env) as u16;
        cpu.write_data(addr + 2 * i as u32, &bits.to_le_bytes());
    }
}

fn write_f32_array(cpu: &mut Cpu, addr: u32, seed: u64) {
    let mut st = seed | 1;
    for i in 0..N {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        let v = ((st >> 16) % 128) as f32 / 32.0 - 2.0;
        cpu.write_data(addr + 4 * i as u32, &v.to_bits().to_le_bytes());
    }
}

fn run(asm: &Assembler, setup: impl FnOnce(&mut Cpu)) -> (u64, Cpu) {
    let mut cpu = Cpu::new(SimConfig::default());
    setup(&mut cpu);
    cpu.load_program(TEXT, &asm.assemble().expect("assembles"));
    cpu.run(50_000_000).expect("terminates");
    (cpu.stats().cycles, cpu)
}

/// Run the with-feature and without-feature programs concurrently (each
/// simulation is independent and deterministic, so the pair of results is
/// identical to a serial run).
fn run_pair(
    with: &Assembler,
    without: &Assembler,
    setup: impl Fn(&mut Cpu) + Sync,
) -> ((u64, Cpu), (u64, Cpu)) {
    let mut results = crate::par::par_map(2, |i| run(if i == 0 { with } else { without }, &setup));
    let second = results.pop().expect("two results");
    let first = results.pop().expect("two results");
    (first, second)
}

/// Result of an ablation: cycles with the feature vs without.
#[derive(Clone, Copy, Debug)]
pub struct Ablation {
    pub with_feature: u64,
    pub without_feature: u64,
}

impl Ablation {
    /// Speedup the feature provides.
    pub fn speedup(&self) -> f64 {
        self.without_feature as f64 / self.with_feature as f64
    }
}

/// Widening binary16 dot product into a binary32 accumulator:
/// `vfdotpex` (Xfaux) vs the Xfvec-only per-lane chain
/// (`vfmul.h` + `fmv.x`/`srli`/`fmv.h.x`/`fcvt.s.h`/`fadd.s` per lane).
pub fn xfaux_ablation() -> Ablation {
    let (pa, pb, end) = (XReg::new(18), XReg::new(19), XReg::new(7));
    let (f0, f1, acc) = (FReg::new(0), FReg::new(1), FReg::new(10));
    let t = XReg::new(28);
    let ft = FReg::new(2);

    let mut with = Assembler::new();
    with.la(pa, DATA);
    with.la(pb, DATA + 2 * N as u32);
    with.la(end, DATA + 2 * N as u32);
    with.fmv_f(FpFmt::S, acc, XReg::ZERO);
    with.label("loop");
    with.fload(FpFmt::S, f0, pa, 0);
    with.fload(FpFmt::S, f1, pb, 0);
    with.vfdotpex(FpFmt::H, acc, f0, f1);
    with.addi(pa, pa, 4);
    with.addi(pb, pb, 4);
    with.branch(BranchCond::Ltu, pa, end, "loop");
    with.ecall();

    let mut without = Assembler::new();
    without.la(pa, DATA);
    without.la(pb, DATA + 2 * N as u32);
    without.la(end, DATA + 2 * N as u32);
    without.fmv_f(FpFmt::S, acc, XReg::ZERO);
    without.label("loop");
    without.fload(FpFmt::S, f0, pa, 0);
    without.fload(FpFmt::S, f1, pb, 0);
    without.vfmul(FpFmt::H, f0, f0, f1);
    for lane in 0..2 {
        without.fmv_x(FpFmt::S, t, f0);
        if lane > 0 {
            without.srli(t, t, 16);
        }
        without.fmv_f(FpFmt::H, ft, t);
        without.fcvt(FpFmt::S, FpFmt::H, ft, ft);
        without.fadd(FpFmt::S, acc, acc, ft);
    }
    without.addi(pa, pa, 4);
    without.addi(pb, pb, 4);
    without.branch(BranchCond::Ltu, pa, end, "loop");
    without.ecall();

    let setup = |cpu: &mut Cpu| {
        write_f16_array(cpu, DATA, 0xA1);
        write_f16_array(cpu, DATA + 2 * N as u32, 0xB2);
    };
    let ((cw, cpu_w), (co, cpu_o)) = run_pair(&with, &without, setup);
    // The variants agree only approximately: the per-lane chain rounds
    // every product to binary16 before widening, while vfdotpex keeps the
    // product exact — Xfaux buys accuracy as well as speed.
    let rw = f32::from_bits(cpu_w.freg(FReg::new(10)));
    let ro = f32::from_bits(cpu_o.freg(FReg::new(10)));
    assert!(
        (rw - ro).abs() <= 0.02 * rw.abs().max(1.0),
        "results must agree approximately: {rw} vs {ro}"
    );
    Ablation {
        with_feature: cw,
        without_feature: co,
    }
}

/// Converting a binary32 array into packed binary16 vectors:
/// `vfcpk.a.h.s` (one instruction packs two converted scalars) vs the
/// Xf16-only path (scalar `fcvt.h.s` + `fsh` per element).
pub fn cpk_ablation() -> Ablation {
    let (src, dst, end) = (XReg::new(18), XReg::new(19), XReg::new(7));
    let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));

    let mut with = Assembler::new();
    with.la(src, DATA);
    with.la(dst, DATA + 4 * N as u32);
    with.la(end, DATA + 4 * N as u32);
    with.label("loop");
    with.fload(FpFmt::S, f0, src, 0);
    with.fload(FpFmt::S, f1, src, 4);
    with.vfcpk_a(FpFmt::H, f2, f0, f1);
    with.fstore(FpFmt::S, f2, dst, 0); // one packed store per pair
    with.addi(src, src, 8);
    with.addi(dst, dst, 4);
    with.branch(BranchCond::Ltu, src, end, "loop");
    with.ecall();

    let mut without = Assembler::new();
    without.la(src, DATA);
    without.la(dst, DATA + 4 * N as u32);
    without.la(end, DATA + 4 * N as u32);
    without.label("loop");
    without.fload(FpFmt::S, f0, src, 0);
    without.fcvt(FpFmt::H, FpFmt::S, f0, f0);
    without.fstore(FpFmt::H, f0, dst, 0);
    without.addi(src, src, 4);
    without.addi(dst, dst, 2);
    without.branch(BranchCond::Ltu, src, end, "loop");
    without.ecall();

    let ((cw, cpu_w), (co, cpu_o)) =
        run_pair(&with, &without, |cpu| write_f32_array(cpu, DATA, 0xC3));
    // Same packed halves either way.
    let out_w = cpu_w.mem().read_bytes(DATA + 4 * N as u32, 2 * N).to_vec();
    let out_o = cpu_o.mem().read_bytes(DATA + 4 * N as u32, 2 * N).to_vec();
    assert_eq!(out_w, out_o, "converted arrays must agree");
    Ablation {
        with_feature: cw,
        without_feature: co,
    }
}

/// Render both ablations.
pub fn render() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let x = xfaux_ablation();
    writeln!(
        out,
        "Ablation: Xfaux expanding dot product (binary16 -> binary32)"
    )
    .unwrap();
    writeln!(
        out,
        "  with vfdotpex: {:>8} cycles   without (Xfvec-only): {:>8} cycles   Xfaux speedup: {:.2}x",
        x.with_feature, x.without_feature, x.speedup()
    )
    .unwrap();
    let c = cpk_ablation();
    writeln!(
        out,
        "Ablation: cast-and-pack (binary32 array -> packed binary16)"
    )
    .unwrap();
    writeln!(
        out,
        "  with vfcpk:    {:>8} cycles   without (scalar fcvt): {:>8} cycles   vfcpk speedup: {:.2}x",
        c.with_feature, c.without_feature, c.speedup()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfaux_pays_off() {
        let a = xfaux_ablation();
        assert!(
            a.speedup() > 1.5,
            "expanding dot product must clearly beat the per-lane chain, got {:.2}x",
            a.speedup()
        );
    }

    #[test]
    fn cpk_pays_off() {
        let a = cpk_ablation();
        assert!(
            a.speedup() > 1.2,
            "cast-and-pack must beat scalar convert+store, got {:.2}x",
            a.speedup()
        );
    }
}
