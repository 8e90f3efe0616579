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
//! block, and replay determinism with the block engine on. So do the
//! cases of blocks that follow direct jumps and of successor links, and
//! the per-class stats after every way a block exits (they are folded in
//! from per-block tallies rather than counted per dispatch).

use smallfloat_asm::Assembler;
use smallfloat_isa::{csr, encode, AluOp, BranchCond, FpFmt, Instr, InstrClass, XReg};
use smallfloat_kernels::bench::{build, suite, Precision, VecMode, Workload};
use smallfloat_kernels::runner::load_workload;
use smallfloat_sim::replay::record_run;
use smallfloat_sim::{hot_block_report, Cpu, ExitReason, SimConfig, SimError};
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
/// the never-taken `bne zero, zero, next` at `payload` into
/// `addi a2, a2, 2`. A branch ends a block (a jump would not: blocks
/// follow direct jumps), so the patch makes the block led by the next
/// instruction longer than the rest of the killed one. Later trips store
/// to `DATA` and leave the code alone. Returns the program and the
/// payload address; [`self_kill_setup`] sets the registers.
fn self_killing_loop() -> (Vec<Instr>, u32) {
    let (s0, s1, t0, t1) = (XReg::s(0), XReg::s(1), XReg::t(0), XReg::t(1));
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.sw(t0, t1, 0); // trip 1: patches `payload`; later: DATA
    asm.addi(t1, s1, 0);
    let payload_index = asm.len();
    asm.branch(BranchCond::Ne, XReg::ZERO, XReg::ZERO, "next"); // becomes `addi a2, a2, 2`
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
/// unpatched branch — never executes again.
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
    let at_head: Vec<_> = hot.iter().filter(|b| b.leader == TEXT).collect();
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
            .filter(|b| b.leader == pc)
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
            // The first block (store, `addi`, branch) self-kills after
            // the store; the longer block the patch created does not fit
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

// ---------------------------------------------------------------------------
// Jump-following and successor links
// ---------------------------------------------------------------------------

/// Run `prog` (loaded at [`TEXT`]) on `engine`: `setup` sets registers
/// or patches memory, then one `run(budget)`.
fn run_on(
    engine: Engine,
    prog: &[Instr],
    budget: u64,
    setup: impl Fn(&mut Cpu),
) -> (Cpu, Result<ExitReason, SimError>) {
    let mut cpu = Cpu::new(small_config());
    engine.apply(&mut cpu);
    cpu.load_program(TEXT, prog);
    setup(&mut cpu);
    let result = cpu.run(budget);
    (cpu, result)
}

/// Run `prog` on both tiers and assert the same outcome and state;
/// returns the block-tier CPU.
fn differential(label: &str, prog: &[Instr], budget: u64, setup: impl Fn(&mut Cpu)) -> Cpu {
    let (reference, expect) = run_on(Engine::Reference, prog, budget, &setup);
    let (blocks, got) = run_on(Engine::Blocks, prog, budget, &setup);
    assert_eq!(got, expect, "{label}: run outcome");
    assert_identical(&format!("{label} [blocks]"), &blocks, &reference);
    assert_class_stats(label, &blocks, &reference);
    blocks
}

/// The per-class view of the stats — [`smallfloat_sim::Stats::breakdown`]
/// and every class's cycles — on the block tier against the reference.
fn assert_class_stats(label: &str, on: &Cpu, off: &Cpu) {
    assert_eq!(
        on.stats().breakdown(),
        off.stats().breakdown(),
        "{label}: breakdown"
    );
    for &class in InstrClass::ALL.iter() {
        assert_eq!(
            on.stats().class_cycles(class),
            off.stats().class_cycles(class),
            "{label}: {class:?} cycles"
        );
    }
}

fn pc_at(asm: &Assembler) -> u32 {
    TEXT + 4 * asm.len() as u32
}

/// A top-tested loop as xcc lays it out: the header `bge` leaves the
/// loop and the body ends in `j header`. Returns the program and the
/// header and body addresses.
fn top_tested_loop(iters: i32) -> (Vec<Instr>, u32, u32) {
    let (i, n, acc) = (XReg::t(0), XReg::s(0), XReg::a(0));
    let mut asm = Assembler::new();
    asm.li(n, iters);
    asm.li(i, 0);
    let header = pc_at(&asm);
    asm.label("header");
    asm.branch(BranchCond::Ge, i, n, "exit");
    let body = pc_at(&asm);
    asm.addi(acc, acc, 3);
    asm.addi(i, i, 1);
    asm.j("header");
    asm.label("exit");
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    (prog, header, body)
}

/// Following `j header` puts the header's `bge` into the body's block,
/// so each iteration is one dispatch: the block led by the body runs
/// once per iteration, the entry block (whose tail is the header `bge`)
/// once for the loop entry, and no block is led by the header. The
/// profile reports the body block's hull — from the header up — with
/// the jump counted in `instrs`.
#[test]
fn top_tested_loop_runs_one_block_per_iteration() {
    let iters = 100;
    let (prog, header, body) = top_tested_loop(iters);
    let blocks = differential("top-tested loop", &prog, 1_000_000, |_| {});
    assert_eq!(blocks.xreg(XReg::a(0)), 3 * iters as u32);
    let hot = blocks.hot_blocks(usize::MAX);
    let led_by = |pc: u32| hot.iter().find(|b| b.leader == pc).copied();
    let body_block = led_by(body).expect("a block is led by the body");
    assert_eq!(
        (body_block.start, body_block.end, body_block.instrs),
        (header, body + 12, 4),
        "hull from the header's bge to the jump; addi, addi, j, bge"
    );
    assert_eq!(body_block.execs, iters as u64, "one dispatch per iteration");
    assert_eq!(
        led_by(TEXT).map(|b| b.execs),
        Some(1),
        "the entry block, ending in the header bge, runs for the loop entry only"
    );
    assert_eq!(led_by(header), None, "no block is led by the header");
    assert_eq!(
        hot.iter().map(|b| b.execs).sum::<u64>(),
        iters as u64 + 2,
        "{hot:?}"
    );
    let report = hot_block_report(&hot, blocks.stats().instret);
    // One micro-op per iteration: the two `addi`s fuse and the jump
    // retires with them; the `bge` tail is no micro-op.
    let row = format!(
        "0x{header:08x}-0x{:08x}  0x{body:08x}  {:>6}  {:>5}  {:>12}",
        body + 12,
        4,
        1,
        iters
    );
    assert!(report.contains(&row), "{report}");
}

/// Every budget through a loop whose blocks follow a jump — including
/// ones that end between the jump and the header it leads to — stops at
/// the per-instruction path's state, and the run resumed from there
/// ends the same way.
#[test]
fn every_budget_through_a_followed_jump_matches_reference() {
    let (prog, _, _) = top_tested_loop(3);
    // li, li, 4 × bge, 3 × (addi, addi, j), ecall.
    let total = 2 + 4 + 9 + 1;
    for budget in 0..total {
        let start = |engine: Engine| {
            let (cpu, exit) = run_on(engine, &prog, budget, |_| {});
            assert_eq!(exit, Ok(ExitReason::InstructionLimit), "budget {budget}");
            assert_eq!(cpu.stats().instret, budget, "budget {budget}");
            cpu
        };
        let mut reference = start(Engine::Reference);
        let mut blocks = start(Engine::Blocks);
        let label = format!("budget {budget}");
        assert_identical(&label, &blocks, &reference);
        assert_class_stats(&label, &blocks, &reference);
        for cpu in [&mut reference, &mut blocks] {
            assert_eq!(cpu.run(1_000), Ok(ExitReason::Ecall), "{label}");
        }
        assert_identical(&format!("{label} resumed"), &blocks, &reference);
        assert_class_stats(&format!("{label} resumed"), &blocks, &reference);
    }
}

/// A store that patches an instruction on the jump-target side of a
/// block — outside the bytes between its leader and its jump — kills the
/// block, because its invalidation extent is the hull of everything it
/// lowered. A stale block would keep adding the first payload.
#[test]
fn store_patching_the_jump_target_side_kills_the_block() {
    let iters = 40;
    let (s0, t0, t1, t2, a2) = (XReg::s(0), XReg::t(0), XReg::t(1), XReg::t(2), XReg::a(2));
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.sw(t0, t1, 0); // patch `payload` for this trip
    asm.push(Instr::Op {
        op: AluOp::Xor,
        rd: t0,
        rs1: t0,
        rs2: t2,
    });
    asm.j("far");
    asm.label("back");
    asm.ecall();
    asm.label("far");
    let payload = pc_at(&asm);
    asm.addi(a2, a2, 1); // toggled between +1 and +2 by the store
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.j("back");
    let prog = asm.assemble().expect("fixed program assembles");
    let (enc1, enc2) = (addi_word(a2, 1), addi_word(a2, 2));
    let blocks = differential("jump-target patch", &prog, 1_000_000, |cpu| {
        cpu.set_xreg(s0, iters);
        cpu.set_xreg(t0, enc2);
        cpu.set_xreg(t1, payload);
        cpu.set_xreg(t2, enc1 ^ enc2);
    });
    // Trips add 2, 1, 2, 1, ...
    assert_eq!(blocks.xreg(a2), iters.div_ceil(2) * 2 + iters / 2);
}

/// `j .` never reaches a tail: lowering stops at the body cap (128
/// micro-ops), so each dispatch retires 128 jumps and a budget that is
/// not a multiple of 128 ends on the per-instruction path.
#[test]
fn self_loop_is_bounded_by_the_body_cap() {
    let mut asm = Assembler::new();
    asm.label("spin");
    asm.j("spin");
    let prog = asm.assemble().expect("fixed program assembles");
    let budget = 1_000;
    let blocks = differential("j .", &prog, budget, |_| {});
    assert_eq!(blocks.pc(), TEXT);
    assert_eq!(blocks.stats().instret, budget);
    let hot = blocks.hot_blocks(usize::MAX);
    assert_eq!(hot.len(), 1, "{hot:?}");
    assert_eq!(
        (hot[0].leader, hot[0].start, hot[0].end, hot[0].instrs),
        (TEXT, TEXT, TEXT + 4, 128)
    );
    assert_eq!(hot[0].execs, budget / 128);
}

/// A `jal x0` whose target lies outside the window — in memory or past
/// its end — or inside it but undecodable retires the jump and then
/// faults at the target, as on the per-instruction path.
#[test]
fn jump_to_an_unlowerable_target_retires_then_faults_there() {
    let a0 = XReg::a(0);
    for offset in [0x800, 0xf_fffc] {
        let mut asm = Assembler::new();
        asm.addi(a0, a0, 1);
        asm.push(Instr::Jal {
            rd: XReg::ZERO,
            offset,
        });
        let prog = asm.assemble().expect("fixed program assembles");
        let target = TEXT + 4 + offset as u32;
        let label = format!("jal to 0x{target:x}");
        let blocks = differential(&label, &prog, 1_000, |_| {});
        assert_eq!(
            (blocks.pc(), blocks.stats().instret),
            (target, 2),
            "{label}"
        );
    }
    let mut asm = Assembler::new();
    asm.addi(a0, a0, 1);
    asm.j("target");
    asm.ecall();
    asm.label("target");
    let target = pc_at(&asm);
    asm.nop(); // overwritten with an illegal word
    let prog = asm.assemble().expect("fixed program assembles");
    let (_, outcome) = run_on(Engine::Reference, &prog, 1_000, |cpu| {
        cpu.write_data(target, &u32::MAX.to_le_bytes())
    });
    assert!(
        matches!(outcome, Err(SimError::IllegalInstruction { pc, .. }) if pc == target),
        "{outcome:?}"
    );
    let blocks = differential("jal to an undecodable target", &prog, 1_000, |cpu| {
        cpu.write_data(target, &u32::MAX.to_le_bytes())
    });
    assert_eq!((blocks.pc(), blocks.stats().instret), (target, 2));
    let hot = blocks.hot_blocks(usize::MAX);
    assert_eq!(
        hot.iter().map(|b| (b.leader, b.instrs)).collect::<Vec<_>>(),
        [(TEXT, 2)],
        "the block ends where lowering fails: addi and the jump"
    );
}

/// A successor link names an arena index. When its target is killed and
/// the index is reused by a block led elsewhere, the link must not be
/// followed: the target re-lowers at another index. Block `a` links to
/// `b` in the first run; the host then patches `b`, and the second run
/// lowers `c` first (into `b`'s freed index) before `a` reaches `b`.
#[test]
fn link_to_a_relowered_block_is_not_followed() {
    let (a0, a1, a2) = (XReg::a(0), XReg::a(1), XReg::a(2));
    let mut asm = Assembler::new();
    asm.addi(a1, a1, 1); // c
    asm.branch(BranchCond::Eq, XReg::ZERO, XReg::ZERO, "a");
    asm.ecall();
    asm.label("a");
    let a = pc_at(&asm);
    asm.addi(a0, a0, 1);
    asm.branch(BranchCond::Eq, XReg::ZERO, XReg::ZERO, "b");
    asm.label("b");
    let b = pc_at(&asm);
    asm.addi(a2, a2, 1); // patched to +5 between the runs
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    let two_runs = |engine: Engine| {
        let (mut cpu, first) = run_on(engine, &prog, 1_000, |cpu| cpu.set_pc(a));
        assert_eq!(first, Ok(ExitReason::Ecall));
        cpu.write_data(b, &addi_word(a2, 5).to_le_bytes());
        cpu.set_pc(TEXT);
        assert_eq!(cpu.run(1_000), Ok(ExitReason::Ecall));
        cpu
    };
    let reference = two_runs(Engine::Reference);
    let blocks = two_runs(Engine::Blocks);
    assert_eq!(
        (blocks.xreg(a0), blocks.xreg(a1), blocks.xreg(a2)),
        (2, 1, 6),
        "c ran once, a twice, b once unpatched and once patched"
    );
    assert_identical("stale link [blocks]", &blocks, &reference);
    assert_class_stats("stale link", &blocks, &reference);
}

// ---------------------------------------------------------------------------
// Deferred per-class stats
// ---------------------------------------------------------------------------
//
// A completed block dispatch adds to `instret` and `cycles` only; its
// per-class counts are tallied on the block and folded into `Stats` when
// `run` returns or the block is killed. These runs end blocks in every
// way there is and compare `breakdown()` and `class_cycles` with the
// per-instruction path.

/// A loop that exits through `ecall`.
#[test]
fn class_stats_after_ecall() {
    differential("ecall", &hot_loop(50), 1_000_000, |_| {});
}

/// A loop whose load walks off the end of memory: the trap comes in the
/// middle of a block that already completed several times.
#[test]
fn class_stats_after_a_mid_block_trap() {
    let (s0, t0, t1, a0) = (XReg::s(0), XReg::t(0), XReg::t(1), XReg::a(0));
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.addi(a0, a0, 1);
    asm.lw(t0, t1, 0);
    asm.addi(t1, t1, 4);
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    let end = small_config().mem_size as u32;
    let blocks = differential("mid-block trap", &prog, 1_000_000, |cpu| {
        cpu.set_xreg(s0, 100);
        cpu.set_xreg(t1, end - 16);
    });
    assert_eq!(blocks.xreg(a0), 5, "four clean trips, the fifth traps");
}

/// A hot loop, then a block whose tail is `ebreak` (a trap known at
/// decode time): the body before it retires, the tail does not.
#[test]
fn class_stats_after_a_decode_time_trap_tail() {
    let (s0, a0, a1) = (XReg::s(0), XReg::a(0), XReg::a(1));
    let mut asm = Assembler::new();
    asm.li(s0, 20);
    asm.label("loop");
    asm.addi(a0, a0, 1);
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.addi(a1, a1, 1);
    asm.push(Instr::Ebreak);
    let prog = asm.assemble().expect("fixed program assembles");
    let blocks = differential("ebreak tail", &prog, 1_000_000, |_| {});
    assert_eq!(blocks.xreg(a1), 1);
}

/// A budget that runs out in the middle of a hot loop.
#[test]
fn class_stats_after_the_instruction_limit() {
    differential("instruction limit", &hot_loop(2_000), 4_321, |_| {});
}

/// A loop whose store, on its last trip, rewrites the loop's first
/// instruction (with the same word): the kill drops a block with every
/// earlier trip still tallied, and the kill must fold those counts.
#[test]
fn class_stats_after_a_self_invalidating_store() {
    let (s0, t1, t3, t4, t5, t6) = (
        XReg::s(0),
        XReg::t(1),
        XReg::t(3),
        XReg::t(4),
        XReg::t(5),
        XReg::t(6),
    );
    let last_trip = Instr::OpImm {
        op: AluOp::Sltu,
        rd: t4,
        rs1: s0,
        imm: 2,
    };
    let mut asm = Assembler::new();
    asm.label("loop");
    asm.push(last_trip); // t4 = (s0 == 1)
    asm.mul(t4, t4, t5);
    asm.add(t1, t6, t4); // DATA, or the loop head on the last trip
    asm.sw(t3, t1, 0);
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    let blocks = differential("self-invalidating store", &prog, 1_000_000, |cpu| {
        cpu.set_xreg(s0, 30);
        cpu.set_xreg(t3, encode(&last_trip));
        cpu.set_xreg(t5, TEXT.wrapping_sub(DATA));
        cpu.set_xreg(t6, DATA);
    });
    assert!(
        blocks
            .hot_blocks(usize::MAX)
            .iter()
            .all(|b| b.leader != TEXT),
        "the last trip's store killed the loop block"
    );
}

/// `csrr instret` / `csrr cycle` inside a hot loop read the live
/// counters, which a block dispatch keeps current.
#[test]
fn class_stats_and_counter_reads_mid_run() {
    let (s0, t0, t1, a0, a1, a2) = (
        XReg::s(0),
        XReg::t(0),
        XReg::t(1),
        XReg::a(0),
        XReg::a(1),
        XReg::a(2),
    );
    let mut asm = Assembler::new();
    asm.li(s0, 30);
    asm.label("loop");
    asm.addi(a0, a0, 1);
    asm.csrr(t0, csr::INSTRET);
    asm.csrr(t1, csr::CYCLE);
    asm.add(a1, a1, t0);
    asm.add(a2, a2, t1);
    asm.addi(s0, s0, -1);
    asm.bnez("loop", s0);
    asm.ecall();
    let prog = asm.assemble().expect("fixed program assembles");
    let blocks = differential("counter reads", &prog, 1_000_000, |_| {});
    assert_ne!(blocks.xreg(a2), 0, "the cycle reads were summed");
}

/// A second `run` after `reset_stats`, and after `restore` to a snapshot
/// that keeps the warm window: nothing counted in one run leaks into the
/// next.
#[test]
fn class_stats_of_a_second_run_after_reset_stats_or_restore() {
    let prog = hot_loop(500);
    let after_reset = |engine: Engine| {
        let (mut cpu, first) = run_on(engine, &prog, 1_234, |_| {});
        assert_eq!(first, Ok(ExitReason::InstructionLimit));
        cpu.reset_stats();
        assert_eq!(cpu.run(1_000_000), Ok(ExitReason::Ecall));
        cpu
    };
    let (blocks, reference) = (after_reset(Engine::Blocks), after_reset(Engine::Reference));
    assert_identical("after reset_stats", &blocks, &reference);
    assert_class_stats("after reset_stats", &blocks, &reference);

    let twice = |engine: Engine| {
        let mut cpu = Cpu::new(small_config());
        engine.apply(&mut cpu);
        cpu.load_program(TEXT, &prog);
        let start = cpu.snapshot();
        assert_eq!(cpu.run(1_000_000), Ok(ExitReason::Ecall));
        let first = cpu.stats().clone();
        cpu.restore(&start);
        assert_eq!(cpu.run(1_000_000), Ok(ExitReason::Ecall));
        assert_eq!(
            cpu.stats(),
            &first,
            "the second run counts what the first did"
        );
        cpu
    };
    let (blocks, reference) = (twice(Engine::Blocks), twice(Engine::Reference));
    assert_identical("after restore", &blocks, &reference);
    assert_class_stats("after restore", &blocks, &reference);
}
