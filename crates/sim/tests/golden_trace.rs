//! Golden-trace regression: a fixed program exercising integer control
//! flow, scalar binary16 arithmetic, SIMD ops and cast-and-pack is run
//! under [`Cpu::run_traced`] and the disassembled trace is compared
//! line-for-line against `tests/data/golden_trace.txt`.
//!
//! Any change to decode, disassembly, pc sequencing or the dispatch fast
//! path shows up here as a readable diff. To re-bless after an intended
//! change, run `SMALLFLOAT_BLESS=1 cargo test -p smallfloat-sim --test
//! golden_trace` and review the file diff.

use smallfloat_asm::Assembler;
use smallfloat_isa::{FReg, FpFmt, XReg};
use smallfloat_sim::{Cpu, ExitReason, SimConfig};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;

fn program() -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, t0, ptr) = (XReg::s(0), XReg::t(0), XReg::t(1));
    let (f0, f1, f2, f3, f4) = (
        FReg::new(0),
        FReg::new(1),
        FReg::new(2),
        FReg::new(3),
        FReg::new(4),
    );

    // Scalar binary16: accumulate 1.0h three times around a branch loop.
    asm.li(t0, 0x3c00); // 1.0 in binary16
    asm.fmv_f(FpFmt::H, f0, t0);
    asm.fmv_f(FpFmt::H, f1, t0);
    asm.li(i, 3);
    asm.label("loop");
    asm.fadd(FpFmt::H, f1, f1, f0);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);

    // SIMD binary16: two lanes of 1.0h, one vector multiply-accumulate.
    asm.li(t0, 0x3c003c00u32 as i32);
    asm.fmv_f(FpFmt::S, f2, t0);
    asm.vfmac(FpFmt::H, f2, f2, f2);

    // Widen the scalar result and cast-and-pack it into a binary16 pair.
    asm.fcvt(FpFmt::S, FpFmt::H, f3, f1);
    asm.vfcpk_a(FpFmt::H, f4, f3, f3);

    // Store both vector results and read one back.
    asm.la(ptr, DATA);
    asm.fstore(FpFmt::S, f2, ptr, 0);
    asm.fstore(FpFmt::S, f4, ptr, 4);
    asm.lw(t0, ptr, 4);
    asm.ecall();
    asm.assemble().expect("fixed program assembles")
}

#[test]
fn trace_matches_golden_file() {
    let mut cpu = Cpu::new(SimConfig::default());
    cpu.load_program(TEXT, &program());
    let mut trace = String::new();
    let exit = cpu
        .run_traced(1000, |pc, instr| {
            trace.push_str(&format!("{pc:08x}  {instr}\n"));
        })
        .expect("golden program must not trap");
    assert_eq!(exit, ExitReason::Ecall);

    // Pin a little architectural state too, so the trace can't silently
    // desynchronise from semantics: 1 + 3*1 = 4.0h, packed twice.
    assert_eq!(cpu.freg(FReg::new(1)) & 0xffff, 0x4400, "f1 = 4.0 binary16");
    assert_eq!(cpu.xreg(XReg::t(0)), 0x4400_4400, "packed pair read back");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_trace.txt");
    if smallfloat_sim::env::bless() {
        std::fs::write(path, &trace).expect("write blessed trace");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden trace file missing; run with SMALLFLOAT_BLESS=1 to create it");
    assert!(
        trace == want,
        "execution trace diverged from {path}\n--- expected ---\n{want}\n--- actual ---\n{trace}"
    );
}

/// The same golden program executed through [`Cpu::run`] with the block
/// cache on must land in exactly the state the per-instruction traced
/// reference produces: registers, pc, `fflags` and statistics (energy
/// included). This is the golden-trace gate for the block-dispatch path
/// (`run_traced` never uses blocks, so it *is* the reference).
#[test]
fn block_path_matches_traced_reference() {
    let program = program();

    let mut reference = Cpu::new(SimConfig::default());
    reference.load_program(TEXT, &program);
    let ref_exit = reference
        .run_traced(1000, |_, _| {})
        .expect("reference run must not trap");

    let mut blocked = Cpu::new(SimConfig::default());
    blocked.set_block_cache(true);
    blocked.load_program(TEXT, &program);
    let exit = blocked.run(1000).expect("block-path run must not trap");

    assert_eq!(exit, ref_exit);
    assert_eq!(exit, ExitReason::Ecall);
    assert!(
        !blocked.hot_blocks(1).is_empty(),
        "the golden program must actually dispatch through blocks"
    );
    assert_eq!(blocked.pc(), reference.pc(), "pc");
    for r in 0..32u8 {
        assert_eq!(
            blocked.xreg(XReg::new(r)),
            reference.xreg(XReg::new(r)),
            "x{r}"
        );
        assert_eq!(
            blocked.freg(FReg::new(r)),
            reference.freg(FReg::new(r)),
            "f{r}"
        );
    }
    assert_eq!(blocked.fflags(), reference.fflags(), "fflags");
    assert_eq!(blocked.stats(), reference.stats(), "stats");
    // And the trace-pinned architectural anchors hold on the block path.
    assert_eq!(blocked.freg(FReg::new(1)) & 0xffff, 0x4400);
    assert_eq!(blocked.xreg(XReg::t(0)), 0x4400_4400);
}
