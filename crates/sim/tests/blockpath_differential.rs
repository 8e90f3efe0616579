//! Differential gate for the cached execution engine: every benchmark
//! kernel (the paper's Polybench suite + SVM), at every precision variant
//! and vectorization mode, is executed on both tiers — reference
//! interpreter and basic-block micro-op cache — and the runs must be
//! *bit-identical*: same final memory image,
//! register files, pc, `fflags` and statistics (energy included, which is
//! derived from the per-class counters).
//!
//! A rotating one-variant-per-workload subset runs in every profile; the
//! full precision × mode grid is release-only (`scripts/check.sh` runs it
//! via the release test pass).
//!
//! Block-invalidation regressions ride along: a loop whose own body is
//! patched by a store inside the block (invalidation + mid-block abort),
//! the contract for taking a block out of the cache while it executes
//! (a block killing itself or another block, a budget ending right after
//! a self-kill), a snapshot-restore rewind landing inside a lowered
//! block, and replay determinism with the block engine on.

use smallfloat_asm::Assembler;
use smallfloat_isa::{encode, AluOp, FpFmt, Instr, XReg};
use smallfloat_kernels::bench::{build, suite, Precision, VecMode, Workload};
use smallfloat_kernels::runner::load_workload;
use smallfloat_sim::replay::record_run;
use smallfloat_sim::{Cpu, ExitReason, SimConfig};
use smallfloat_xcc::codegen::Compiled;

/// The execution tier under test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Per-instruction interpreter (block cache off).
    Reference,
    /// Basic-block micro-op cache.
    Blocks,
}

impl Engine {
    fn label(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Blocks => "blocks",
        }
    }

    fn apply(self, cpu: &mut Cpu) {
        cpu.set_block_cache(self == Engine::Blocks);
    }
}

/// Load inputs + program and run to `ecall`, exactly as the kernels
/// runner does, on the given engine tier.
fn run_path(
    cpu: &mut Cpu,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    engine: Engine,
    label: &str,
) {
    cpu.reset();
    engine.apply(cpu);
    load_workload(cpu, compiled, inputs);
    let exit = cpu
        .run(200_000_000)
        .unwrap_or_else(|e| panic!("{label} [{}]: kernel trapped: {e}", engine.label()));
    assert_eq!(
        exit,
        ExitReason::Ecall,
        "{label} [{}]: must exit via ecall",
        engine.label()
    );
    if engine == Engine::Blocks {
        assert!(
            !cpu.hot_blocks(1).is_empty(),
            "{label} [blocks]: block cache was on but dispatched no blocks"
        );
    }
}

/// Assert the two CPUs are architecturally and statistically identical.
fn assert_identical(label: &str, on: &Cpu, off: &Cpu) {
    assert_eq!(on.pc(), off.pc(), "{label}: pc");
    for r in 0..32u8 {
        assert_eq!(
            on.xreg(smallfloat_isa::XReg::new(r)),
            off.xreg(smallfloat_isa::XReg::new(r)),
            "{label}: x{r}"
        );
        assert_eq!(
            on.freg(smallfloat_isa::FReg::new(r)),
            off.freg(smallfloat_isa::FReg::new(r)),
            "{label}: f{r}"
        );
    }
    assert_eq!(on.fflags(), off.fflags(), "{label}: fflags");
    assert_eq!(on.stats(), off.stats(), "{label}: stats");
    assert!(
        on.mem().bytes_eq(off.mem()),
        "{label}: final memory images diverged"
    );
}

/// Run one grid cell on both tiers and compare the block tier against
/// the reference.
fn check(w: &dyn Workload, prec: &Precision, mode: VecMode) {
    let (_typed, compiled) = build(w, prec, mode);
    let inputs = w.inputs();
    let label = format!("{} {} {}", w.name(), prec.label(), mode.label());
    let config = SimConfig::default();
    let mut reference = Cpu::new(config.clone());
    let mut blocks = Cpu::new(config);
    run_path(
        &mut reference,
        &compiled,
        &inputs,
        Engine::Reference,
        &label,
    );
    run_path(&mut blocks, &compiled, &inputs, Engine::Blocks, &label);
    assert_identical(&format!("{label} [blocks]"), &blocks, &reference);
}

/// The precision variants under test: the five uniform ones plus one
/// mixed assignment (first array widened to binary32 over a binary16
/// default), which exercises cross-format conversion uops.
fn precisions(w: &dyn Workload) -> Vec<Precision> {
    let mut v = Precision::UNIFORM.to_vec();
    if let Some(a) = w.base_kernel().arrays.first() {
        v.push(Precision::Mixed {
            default: FpFmt::H,
            assignment: vec![(a.name.clone(), FpFmt::S)],
        });
    }
    v
}

/// Fast rotating subset: one (precision, mode) pair per workload, chosen
/// so all six precisions and all three modes appear across the suite.
#[test]
fn engine_tiers_match_reference_subset() {
    for (i, w) in suite().iter().enumerate() {
        let precs = precisions(w.as_ref());
        let prec = &precs[i % precs.len()];
        let mode = VecMode::ALL[i % VecMode::ALL.len()];
        check(w.as_ref(), prec, mode);
    }
}

/// The full grid: every workload × every precision × every mode, both
/// tiers. Release-only (the debug build runs the subset above).
#[cfg(not(debug_assertions))]
#[test]
fn engine_tiers_match_reference_full_grid() {
    for w in suite() {
        for prec in precisions(w.as_ref()) {
            for mode in VecMode::ALL {
                check(w.as_ref(), &prec, mode);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block-invalidation regressions
// ---------------------------------------------------------------------------

const TEXT: u32 = 0x1000;

fn small_config() -> SimConfig {
    SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    }
}

/// The expanding sum-of-dot-products on both tiers: a hot loop walks
/// a deterministic bit-pattern generator through both `vfsdotpex`
/// operand registers (hitting normals, subnormals, infinities and NaNs in
/// the packed lanes) at every packed format — 2×16-bit lanes expanding to
/// binary32 and 4×8-bit lanes (both banks) expanding to packed binary16 —
/// in plain and replicated forms. The block tier must stay bit-identical
/// to the reference, including `fflags` and energy.
#[test]
fn vfsdotpex_all_formats_stay_bit_identical() {
    for fmt in FpFmt::SMALL {
        let (s0, t0, t1, t2, t3) = (XReg::s(0), XReg::t(0), XReg::t(1), XReg::t(2), XReg::t(3));
        let (f0, f1, f2, f3) = (
            smallfloat_isa::FReg::new(0),
            smallfloat_isa::FReg::new(1),
            smallfloat_isa::FReg::new(2),
            smallfloat_isa::FReg::new(3),
        );
        let mut asm = Assembler::new();
        asm.li(s0, 600);
        asm.li(t0, 0x1357_9bdfu32 as i32); // pattern seed
        asm.li(t2, 0x0101_4047); // odd step: lanes sweep exponent fields
        asm.li(t3, 0x5a5a_7c3cu32 as i32); // xor mask: second operand stream
        asm.li(t1, 0);
        asm.fmv_f(FpFmt::S, f0, t1); // accumulators start at +0 lanes
        asm.fmv_f(FpFmt::S, f3, t1);
        asm.label("loop");
        asm.push(Instr::Op {
            op: AluOp::Add,
            rd: t0,
            rs1: t0,
            rs2: t2,
        });
        asm.push(Instr::Op {
            op: AluOp::Xor,
            rd: t1,
            rs1: t0,
            rs2: t3,
        });
        asm.fmv_f(FpFmt::S, f1, t0);
        asm.fmv_f(FpFmt::S, f2, t1);
        asm.vfsdotpex(fmt, f0, f1, f2);
        asm.vfsdotpex_r(fmt, f3, f1, f2);
        asm.addi(s0, s0, -1);
        asm.bnez("loop", s0);
        asm.ecall();
        let prog = asm.assemble().expect("vfsdotpex loop assembles");

        let run = |engine: Engine| -> Cpu {
            let mut cpu = Cpu::new(small_config());
            engine.apply(&mut cpu);
            cpu.load_program(TEXT, &prog);
            let exit = cpu.run(1_000_000).expect("vfsdotpex loop must not trap");
            assert_eq!(exit, ExitReason::Ecall, "{fmt:?}");
            cpu
        };
        let reference = run(Engine::Reference);
        assert_ne!(
            reference.freg(f0),
            0,
            "{fmt:?}: the accumulator must have moved"
        );
        let blocks = run(Engine::Blocks);
        assert_identical(&format!("vfsdotpex {fmt:?} [blocks]"), &blocks, &reference);
        assert!(
            blocks.hot_blocks(1).first().is_some_and(|b| b.execs > 1),
            "{fmt:?}: the hot loop must replay a cached block"
        );
    }
}

/// A hot loop whose own body is rewritten by a store *inside the loop*:
/// the payload instruction toggles between `addi a2, a2, 1` and
/// `addi a2, a2, 2` every iteration. The block engine must abort at the
/// store (generation re-check), kill the overlapped block byte-precisely,
/// and re-lower it on the next entry — while staying bit-identical to the
/// per-instruction path throughout.
#[test]
fn store_into_own_block_body_stays_bit_identical() {
    let iters = 400;
    let (s0, t0, t1, t2, a2) = (XReg::s(0), XReg::t(0), XReg::t(1), XReg::t(2), XReg::a(2));
    let mut asm = Assembler::new();
    asm.li(s0, iters);
    asm.label("loop");
    let payload_index = asm.len();
    asm.addi(a2, a2, 1); // the patch target
    asm.sw(t0, t1, 0); // patch the payload for the NEXT iteration
    asm.push(Instr::Op {
        op: AluOp::Xor,
        rd: t0,
        rs1: t0,
        rs2: t2,
    });
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    // `load_program` encodes each instruction at 4 bytes.
    let payload_addr = TEXT + 4 * payload_index as u32;
    let (enc1, enc2) = (addi_word(a2, 1), addi_word(a2, 2));

    let run = |engine: Engine| -> Cpu {
        let mut cpu = Cpu::new(small_config());
        engine.apply(&mut cpu);
        cpu.load_program(TEXT, &prog);
        // The patch-target address and toggle words come in from the host:
        // the first store writes enc2 (flipping the payload to +2), each
        // later one alternates.
        cpu.set_xreg(t1, payload_addr);
        cpu.set_xreg(t0, enc2);
        cpu.set_xreg(t2, enc1 ^ enc2);
        let exit = cpu
            .run(1_000_000)
            .expect("self-patching loop must not trap");
        assert_eq!(exit, ExitReason::Ecall);
        cpu
    };
    let reference = run(Engine::Reference);
    // The payload alternates +1, +2, +1, ... over `iters` iterations.
    let expect = (iters as u32).div_ceil(2) + (iters as u32 / 2) * 2;
    assert_eq!(reference.xreg(a2), expect, "self-patching loop semantics");
    let blocks = run(Engine::Blocks);
    assert_identical("self-patch [blocks]", &blocks, &reference);
    // Every store kills the block holding the payload, so none survives,
    // while the block after the payload replays undisturbed
    // (the payload itself re-decodes on the per-instruction path).
    let hot = blocks.hot_blocks(usize::MAX);
    assert!(
        hot.iter()
            .all(|b| !(b.start <= payload_addr && payload_addr < b.end)),
        "the store must kill the block holding its own payload"
    );
    assert!(
        hot.iter()
            .any(|b| b.start > payload_addr && b.execs + 1 >= iters as u64),
        "the block after the payload must stay cached across iterations"
    );
}

// ---------------------------------------------------------------------------
// Taking a block out of the cache while it executes
// ---------------------------------------------------------------------------
//
// The engine takes a block out of its arena entry while the block runs
// and puts it back only if the entry is still live afterwards. These
// programs kill blocks from inside a running block and compare every
// outcome with the per-instruction path.

const DATA: u32 = 0x8000;

fn addi_word(rd: XReg, imm: i32) -> u32 {
    encode(&Instr::OpImm {
        op: AluOp::Add,
        rd,
        rs1: rd,
        imm,
    })
}

/// A loop whose first trip patches its own block: the store rewrites
/// the `j next` at `payload` into `addi a2, a2, 2`, which makes the
/// block led by the next instruction longer than the rest of the killed
/// one. Later trips store to `DATA` and leave the code alone. Returns
/// the program and the payload address; [`self_kill_setup`] sets the
/// registers.
fn self_killing_loop() -> (Vec<Instr>, u32) {
    let (s0, s1, t0, t1) = (XReg::s(0), XReg::s(1), XReg::t(0), XReg::t(1));
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.sw(t0, t1, 0); // trip 1: patches `payload`; later: DATA
    asm.addi(t1, s1, 0);
    let payload_index = asm.len();
    asm.j("next"); // becomes `addi a2, a2, 2`
    asm.label("next");
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    (prog, TEXT + 4 * payload_index as u32)
}

fn self_kill_setup(cpu: &mut Cpu, iters: u32, payload_addr: u32) {
    cpu.set_xreg(XReg::s(0), iters);
    cpu.set_xreg(XReg::s(1), DATA);
    cpu.set_xreg(XReg::t(0), addi_word(XReg::a(2), 2));
    cpu.set_xreg(XReg::t(1), payload_addr);
}

/// A block whose store kills the block itself: the rest of the trip runs
/// on fresh lowering (the freed arena index is reused at once), the same
/// leader re-lowers within the same `run` call, and the stale body — the
/// unpatched jump — never executes again.
#[test]
fn self_killing_block_relowers_within_the_run() {
    let iters = 50;
    let (prog, payload_addr) = self_killing_loop();
    let run = |engine: Engine| -> Cpu {
        let mut cpu = Cpu::new(small_config());
        engine.apply(&mut cpu);
        cpu.load_program(TEXT, &prog);
        self_kill_setup(&mut cpu, iters, payload_addr);
        let exit = cpu.run(1_000_000).expect("self-killing loop must not trap");
        assert_eq!(exit, ExitReason::Ecall);
        cpu
    };
    let reference = run(Engine::Reference);
    assert_eq!(
        reference.xreg(XReg::a(2)),
        2 * iters,
        "patched payload runs"
    );
    let blocks = run(Engine::Blocks);
    assert_identical("self-kill [blocks]", &blocks, &reference);
    // One live block leads at the loop head: the re-lowered one, with
    // the patched payload, dispatched on every trip after the first.
    let hot = blocks.hot_blocks(usize::MAX);
    let at_head: Vec<_> = hot.iter().filter(|b| b.start == TEXT).collect();
    assert_eq!(at_head.len(), 1, "{hot:?}");
    assert_eq!(
        (at_head[0].instrs, at_head[0].execs),
        (5, u64::from(iters) - 1),
        "{hot:?}"
    );
}

/// A block whose store kills a *different* live block: the storing block
/// stops after the store and stays cached, and the killed block
/// re-lowers on its next dispatch (into the arena index the kill freed).
#[test]
fn store_killing_another_block_relowers_it() {
    let iters = 40;
    let (s0, t0, t1, t2, a2) = (XReg::s(0), XReg::t(0), XReg::t(1), XReg::t(2), XReg::a(2));
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.sw(t0, t1, 0); // patch the callee's payload
    asm.push(Instr::Op {
        op: AluOp::Xor,
        rd: t0,
        rs1: t0,
        rs2: t2,
    });
    asm.call("sub");
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    asm.label("sub");
    let payload_index = asm.len();
    asm.addi(a2, a2, 1); // toggled between +1 and +2 by the caller
    asm.ret();
    let prog = asm.assemble().expect("fixed program assembles");
    let sub = TEXT + 4 * payload_index as u32;
    let (enc1, enc2) = (addi_word(a2, 1), addi_word(a2, 2));

    let run = |engine: Engine| -> Cpu {
        let mut cpu = Cpu::new(small_config());
        engine.apply(&mut cpu);
        cpu.load_program(TEXT, &prog);
        cpu.set_xreg(s0, iters);
        cpu.set_xreg(t0, enc2);
        cpu.set_xreg(t1, sub);
        cpu.set_xreg(t2, enc1 ^ enc2);
        let exit = cpu.run(1_000_000).expect("patching loop must not trap");
        assert_eq!(exit, ExitReason::Ecall);
        cpu
    };
    let reference = run(Engine::Reference);
    // The callee adds 2, 1, 2, 1, ... over the trips.
    assert_eq!(reference.xreg(a2), iters.div_ceil(2) * 2 + iters / 2);
    let blocks = run(Engine::Blocks);
    assert_identical("cross-kill [blocks]", &blocks, &reference);
    let hot = blocks.hot_blocks(usize::MAX);
    let execs_at = |pc: u32| -> Vec<u64> {
        hot.iter()
            .filter(|b| b.start == pc)
            .map(|b| b.execs)
            .collect()
    };
    // The storing block survives every trip; the callee's block is
    // killed by every trip after the first and re-lowered each time.
    assert_eq!(execs_at(TEXT), [u64::from(iters)], "{hot:?}");
    assert_eq!(execs_at(sub), [1], "{hot:?}");
}

/// Every budget from 1 up through the first trips of the self-killing
/// loop, including one that ends mid-block right after the self-kill:
/// the stop point and every counter match the per-instruction path,
/// and so does the run resumed from there.
#[test]
fn budget_ending_after_a_self_kill_matches_reference() {
    let iters = 4;
    let (prog, payload_addr) = self_killing_loop();
    for budget in 1..=16u64 {
        let start = |engine: Engine| -> Cpu {
            let mut cpu = Cpu::new(small_config());
            engine.apply(&mut cpu);
            cpu.load_program(TEXT, &prog);
            self_kill_setup(&mut cpu, iters, payload_addr);
            let exit = cpu.run(budget).expect("no trap");
            assert_eq!(exit, ExitReason::InstructionLimit, "budget {budget}");
            assert_eq!(cpu.stats().instret, budget, "budget {budget}");
            cpu
        };
        let mut reference = start(Engine::Reference);
        let mut blocks = start(Engine::Blocks);
        let label = format!("budget {budget} [blocks]");
        assert_identical(&label, &blocks, &reference);
        if budget == 3 {
            // The first block (store, `addi`, jump) self-kills after the
            // store; the longer block the patch created does not fit
            // the two instructions left, so the run stops inside it.
            assert_eq!(blocks.pc(), payload_addr + 4, "{label}");
        }
        for cpu in [&mut reference, &mut blocks] {
            assert_eq!(cpu.run(1_000_000), Ok(ExitReason::Ecall), "{label}");
        }
        assert_identical(&format!("{label} resumed"), &blocks, &reference);
    }
}

/// A clean hot loop for the snapshot/replay regressions: scalar +
/// SIMD binary16 math, memory traffic and control flow.
fn hot_loop(iters: i32) -> Vec<Instr> {
    let mut asm = Assembler::new();
    let (i, t0, ptr) = (XReg::s(0), XReg::t(0), XReg::t(1));
    let (f0, f1, f2) = (
        smallfloat_isa::FReg::new(0),
        smallfloat_isa::FReg::new(1),
        smallfloat_isa::FReg::new(2),
    );
    asm.li(t0, 0x3c00);
    asm.fmv_f(FpFmt::H, f0, t0);
    asm.fmv_f(FpFmt::H, f1, t0);
    asm.li(t0, 0x3c003c00u32 as i32);
    asm.fmv_f(FpFmt::S, f2, t0);
    asm.la(ptr, 0x8000);
    asm.li(i, iters);
    asm.label("loop");
    asm.fload(FpFmt::S, f2, ptr, 0);
    asm.vfmac(FpFmt::H, f2, f0, f1);
    asm.fstore(FpFmt::S, f2, ptr, 0);
    asm.addi(ptr, ptr, 4);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("fixed program assembles")
}

/// Stop mid-run with the loop block lowered, snapshot, finish; then
/// rewind via restore — landing on a PC inside the lowered block's
/// footprint — and finish again. Both completions (and a reference
/// completion from the same snapshot) must be bit-identical.
#[test]
fn snapshot_restore_rewind_lands_inside_lowered_block() {
    let mut cpu = Cpu::new(small_config());
    Engine::Blocks.apply(&mut cpu);
    cpu.load_program(TEXT, &hot_loop(2_000));
    // Odd budget so the stop lands mid-loop-body, well past warmup.
    let exit = cpu.run(4_321).expect("no trap");
    assert_eq!(exit, ExitReason::InstructionLimit);
    let pc = cpu.pc();
    assert!(
        cpu.hot_blocks(usize::MAX)
            .iter()
            .any(|b| b.execs > 1 && b.start < pc && pc < b.end),
        "the stop must land inside a hot lowered block"
    );
    let mid = cpu.snapshot();
    let exit = cpu.run(1_000_000).expect("no trap");
    assert_eq!(exit, ExitReason::Ecall);
    let finished_a = cpu.snapshot();

    // Rewind the same CPU into the middle of the (now re-dropped) block.
    cpu.restore(&mid);
    let exit = cpu.run(1_000_000).expect("no trap");
    assert_eq!(exit, ExitReason::Ecall);
    let finished_b = cpu.snapshot();
    assert!(
        finished_a.state_eq(&finished_b),
        "rewound block-engine run diverged in {}",
        finished_a.first_difference(&finished_b).unwrap_or("?")
    );

    // And the per-instruction path from the same snapshot.
    let mut reference = Cpu::new(small_config());
    Engine::Reference.apply(&mut reference);
    reference.restore(&mid);
    let exit = reference.run(1_000_000).expect("no trap");
    assert_eq!(exit, ExitReason::Ecall);
    let finished_c = reference.snapshot();
    assert!(
        finished_a.state_eq(&finished_c),
        "block engine diverged from reference after restore in {}",
        finished_a.first_difference(&finished_c).unwrap_or("?")
    );
}

/// Recording a run on the block engine is deterministic and produces the
/// same log and snapshots as a reference-interpreter recording.
#[test]
fn replay_recording_is_identical_with_blocks_on() {
    let record = |engine: Engine| {
        let mut cpu = Cpu::new(small_config());
        engine.apply(&mut cpu);
        cpu.load_program(TEXT, &hot_loop(300));
        record_run(&mut cpu, 1_000_000, 128).expect("recording must not trap")
    };
    let a = record(Engine::Blocks);
    let b = record(Engine::Blocks);
    let r = record(Engine::Reference);
    assert_eq!(a.exit, ExitReason::Ecall);
    assert_eq!(a.log, b.log, "block-engine recording must be deterministic");
    assert_eq!(a.log.to_bytes(), b.log.to_bytes());
    assert_eq!(
        a.log, r.log,
        "block-engine recording must match the per-instruction path"
    );
    assert_eq!(a.snaps.len(), r.snaps.len());
    for (i, (sa, sr)) in a.snaps.iter().zip(&r.snaps).enumerate() {
        assert!(
            sa.state_eq(sr),
            "snapshot {i} differs from reference in {}",
            sa.first_difference(sr).unwrap_or("nothing?!")
        );
    }
}
