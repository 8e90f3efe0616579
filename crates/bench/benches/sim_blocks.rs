//! Block-dispatch speedup: identical simulated programs executed with the
//! basic-block micro-op cache **on** (whole-block replay of pre-lowered
//! micro-ops) vs **off** (per-instruction dispatch through the decoded
//! code window), over the instruction mixes of `sim_dispatch` plus a
//! compiled GEMM kernel.
//!
//! Run with `cargo bench --bench sim_blocks`; set
//! `SMALLFLOAT_BENCH_JSON=<path>` to also write the machine-readable
//! report (the committed `BENCH_sim_blocks.json` before/after record).

use smallfloat_asm::Assembler;
use smallfloat_devtools::bench::Harness;
use smallfloat_isa::{FReg, FpFmt, XReg};
use smallfloat_kernels::bench::{build, Precision, VecMode, Workload};
use smallfloat_kernels::polybench::Gemm;
use smallfloat_sim::{Cpu, SimConfig};
use smallfloat_softfp::{ops, Env, Rounding};
use smallfloat_xcc::codegen::Compiled;
use smallfloat_xcc::codegen::TEXT_BASE;

const ITERS: i32 = 1000;

fn int_loop() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, acc) = (XReg::s(0), XReg::a(0));
    asm.li(acc, 0);
    asm.li(i, ITERS);
    asm.label("loop");
    asm.add(acc, acc, i);
    asm.slli(XReg::t(0), i, 1);
    asm.sub(acc, acc, XReg::t(0));
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

fn fp_loop(fmt: FpFmt) -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let i = XReg::s(0);
    let (a, b, c) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), fmt.format().one() as i32);
    asm.fmv_f(fmt, a, XReg::t(0));
    asm.fmv_f(fmt, b, XReg::t(0));
    asm.fmv_f(fmt, c, XReg::t(0));
    asm.li(i, ITERS);
    asm.label("loop");
    asm.fmadd(fmt, c, a, b, c);
    asm.fmul(fmt, b, a, b);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

fn vec_loop(fmt: FpFmt) -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let i = XReg::s(0);
    let (a, b, c) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(XReg::t(0), 0x3c003c00u32 as i32);
    asm.fmv_f(FpFmt::S, a, XReg::t(0));
    asm.fmv_f(FpFmt::S, b, XReg::t(0));
    asm.fmv_f(FpFmt::S, c, XReg::t(0));
    asm.li(i, ITERS);
    asm.label("loop");
    asm.vfmac(fmt, c, a, b);
    asm.vfmul(fmt, b, a, b);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("valid")
}

fn run_asm(cpu: &mut Cpu, program: &[smallfloat_isa::Instr]) -> u64 {
    cpu.reset();
    cpu.load_program(0x1000, program);
    cpu.run(10_000_000).expect("terminates");
    cpu.stats().instret
}

fn run_kernel(cpu: &mut Cpu, compiled: &Compiled, inputs: &[(String, Vec<f64>)]) -> u64 {
    cpu.reset();
    let mut env = Env::new(Rounding::Rne);
    for (name, values) in inputs {
        let entry = compiled.layout.entry(name).expect("kernel array");
        let bytes = entry.ty.width() / 8;
        for (i, v) in values.iter().enumerate() {
            let bits = ops::from_f64(entry.ty.format(), *v, &mut env) as u32;
            let le = bits.to_le_bytes();
            cpu.write_data(entry.addr + (i as u32) * bytes, &le[..bytes as usize]);
        }
    }
    cpu.load_program(TEXT_BASE, &compiled.program);
    cpu.run(200_000_000).expect("terminates");
    cpu.stats().instret
}

fn main() {
    let mut h = Harness::new("sim_blocks");
    let mut cpu = Cpu::new(SimConfig::default());

    let loops = [
        ("int_alu", int_loop()),
        ("fp16", fp_loop(FpFmt::H)),
        ("vec16", vec_loop(FpFmt::H)),
    ];
    for (name, program) in &loops {
        for (suffix, blocks) in [("blocks", true), ("stepwise", false)] {
            cpu.set_block_cache(blocks);
            let instret = run_asm(&mut cpu, program);
            h.throughput(instret);
            h.bench(&format!("{name}_{suffix}"), || run_asm(&mut cpu, program));
        }
    }

    let gemm = Gemm { n: 32 };
    let (_typed, compiled) = build(&gemm, &Precision::F16, VecMode::Auto);
    let inputs = gemm.inputs();
    for (suffix, blocks) in [("blocks", true), ("stepwise", false)] {
        cpu.set_block_cache(blocks);
        let instret = run_kernel(&mut cpu, &compiled, &inputs);
        h.throughput(instret);
        h.bench(&format!("gemm32_auto_{suffix}"), || {
            run_kernel(&mut cpu, &compiled, &inputs)
        });
    }

    // Pairwise speedups (stepwise time / blocks time) for the record.
    for pair in h.results().chunks(2) {
        if let [on, off] = pair {
            eprintln!(
                "  {:<24} speedup {:.2}x",
                on.name.trim_end_matches("_blocks"),
                off.median_ns / on.median_ns
            );
        }
    }
    h.finish();
}
