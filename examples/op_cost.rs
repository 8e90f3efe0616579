//! Host cost of single simulated instructions: for each op, a loop whose
//! body is 20 copies of it plus a two-instruction loop tail runs under
//! `Cpu::run` (blocks on), and the host thread's CPU time is divided by the
//! retired instruction count. An idiom of several instructions (the
//! `addi` triple, `slli; add`, the lane-accumulate `fmv.h.x; fcvt.s.h;
//! fadd.s`, each of which block lowering fuses into one micro-op) is
//! copied 20 times the same way. Each op's iteration count is sized so one
//! run takes about `RUN_S` seconds, well above the clock's tick-sized
//! staleness; each op is timed in `ROUNDS` interleaved rounds and the
//! minimum is reported, in ns per retired instruction.
//!
//! 16-bit operands are NaN-boxed with `fmv.h.x`: a register that is not
//! NaN-boxed reads as the canonical NaN, so its op would time the NaN
//! path instead of the common one.
//!
//! Run with: `cargo run --release --example op_cost`

use smallfloat_asm::Assembler;
use smallfloat_isa::{FReg, FpFmt, Instr, SgnjKind, XReg};
use smallfloat_sim::{Cpu, ExitReason, SimConfig};
use std::time::Instant;

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;
const COPIES: usize = 20;
const WARMUP_ITERS: i32 = 20_000;
const RUN_S: f64 = 0.25;
const ROUNDS: usize = 5;

/// Host CPU time of this thread in seconds: `/proc/thread-self/schedstat`
/// (nanoseconds on the CPU, updated at scheduler ticks) where the kernel
/// provides it, else wall time.
fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or_else(wall_s, |ns| ns as f64 * 1e-9)
}

fn f(n: u8) -> FReg {
    FReg::new(n)
}

/// The timed ops: a name and the body instructions.
fn ops() -> Vec<(&'static str, Vec<Instr>)> {
    let (h, s, b) = (FpFmt::H, FpFmt::S, FpFmt::B);
    let body = |name, build: &dyn Fn(&mut Assembler)| {
        let mut asm = Assembler::new();
        build(&mut asm);
        (name, asm.assemble().expect("straight-line body"))
    };
    vec![
        body("addi", &|a| {
            a.addi(XReg::t(1), XReg::t(2), 3);
        }),
        body("addi x3", &|a| {
            a.addi(XReg::t(1), XReg::t(2), 3);
            a.addi(XReg::t(3), XReg::t(1), 5);
            a.addi(XReg::t(4), XReg::t(3), -2);
        }),
        body("slli; add", &|a| {
            a.slli(XReg::t(1), XReg::t(2), 2);
            a.add(XReg::t(3), XReg::t(1), XReg::t(4));
        }),
        body("flh", &|a| {
            a.fload(h, f(1), XReg::a(1), 0);
        }),
        body("fsgnj.s", &|a| {
            a.fsgnj(s, SgnjKind::Sgnj, f(1), f(2), f(3));
        }),
        body("fadd.s", &|a| {
            a.fadd(s, f(1), f(2), f(3));
        }),
        body("fadd.h", &|a| {
            a.fadd(h, f(1), f(4), f(5));
        }),
        body("fmul.h", &|a| {
            a.fmul(h, f(1), f(4), f(5));
        }),
        body("fcvt.s.h", &|a| {
            a.fcvt(s, h, f(1), f(4));
        }),
        // The lane-accumulate idiom: a binary16 value from an integer
        // register widened into a binary32 sum.
        body("fmv;fcvt;fadd", &|a| {
            a.fmv_f(h, f(1), XReg::t(5));
            a.fcvt(s, h, f(2), f(1));
            a.fadd(s, f(11), f(11), f(2));
        }),
        body("vfmul.h", &|a| {
            a.vfmul(h, f(1), f(6), f(7));
        }),
        body("vfsdotpex.s.h", &|a| {
            a.push(Instr::VFSdotpEx {
                fmt: h,
                rd: f(1),
                rs1: f(6),
                rs2: f(7),
                rep: false,
            });
        }),
        body("vfsdotpex.h.b", &|a| {
            a.push(Instr::VFSdotpEx {
                fmt: b,
                rd: f(8),
                rs1: f(9),
                rs2: f(10),
                rep: false,
            });
        }),
        body("fsh", &|a| {
            a.fstore(h, f(4), XReg::a(1), 0);
        }),
    ]
}

/// The loop program around `body`: operands set up once (scalars
/// NaN-boxed, packed lanes of small normal values), then `iters`
/// iterations. Every result is a normal number on every iteration.
fn program(body: &[Instr], iters: i32) -> Vec<Instr> {
    let (t, cnt) = (XReg::t(0), XReg::a(0));
    let mut asm = Assembler::new();
    asm.li(XReg::a(1), DATA as i32);
    for (reg, fmt, bits) in [
        (2, FpFmt::S, 1.5f32.to_bits()),
        (3, FpFmt::S, 2.25f32.to_bits()),
        (4, FpFmt::H, 0x3e00), // 1.5
        (5, FpFmt::H, 0x4080), // 2.25
        // binary16 lanes [1.5, 2.25] and [0.75, -0.5]: the two products
        // cancel, so a dot product's accumulator keeps its value.
        (6, FpFmt::S, 0x4080_3e00),
        (7, FpFmt::S, 0xb800_3a00),
        // A binary16 accumulator pair [1, 1], binary8 lanes [1, 1, 1, 1]
        // and [1.5, -1.5, 1.25, -1.25].
        (8, FpFmt::S, 0x3c00_3c00),
        (9, FpFmt::S, 0x3c3c_3c3c),
        (10, FpFmt::S, 0xbd3d_be3e),
    ] {
        asm.li(t, bits as i32);
        asm.fmv_f(fmt, f(reg), t);
    }
    asm.li(XReg::t(5), 0x3e00); // binary16 1.5, for `fmv.h.x`
    asm.li(cnt, iters);
    asm.label("loop");
    for _ in 0..COPIES {
        for &op in body {
            asm.push(op);
        }
    }
    asm.addi(cnt, cnt, -1);
    asm.bnez("loop", cnt);
    asm.ecall();
    asm.assemble().expect("loop assembles")
}

/// Seconds of host time per retired instruction of one run, measured by
/// `clock`.
fn time_once(cpu: &mut Cpu, prog: &[Instr], clock: fn() -> f64) -> f64 {
    cpu.reset();
    cpu.load_program(TEXT, prog);
    let t0 = clock();
    let exit = cpu.run(u64::MAX).expect("loop runs");
    let dt = clock() - t0;
    assert_eq!(exit, ExitReason::Ecall);
    dt / cpu.stats().instret as f64
}

fn wall_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn main() {
    let ops = ops();
    let mut cpu = Cpu::new(SimConfig::default());
    let progs: Vec<Vec<Instr>> = ops
        .iter()
        .map(|(_, body)| {
            let per_instr = time_once(&mut cpu, &program(body, WARMUP_ITERS), wall_s);
            let per_iter = per_instr * (COPIES * body.len() + 2) as f64;
            program(body, (RUN_S / per_iter).ceil().min(i32::MAX as f64) as i32)
        })
        .collect();
    let mut best = vec![f64::INFINITY; ops.len()];
    for _ in 0..ROUNDS {
        for (i, prog) in progs.iter().enumerate() {
            best[i] = best[i].min(time_once(&mut cpu, prog, thread_cpu_s));
        }
    }
    println!("op                ns/instr (min of {ROUNDS} interleaved rounds)");
    for ((name, _), t) in ops.iter().zip(best) {
        println!("{name:<16} {:>8.2}", t * 1e9);
    }
}
