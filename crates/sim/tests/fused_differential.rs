//! Differential tests for micro-op fusion at lowering. Every pattern of
//! the fusion table runs through `Cpu::run` with blocks on, where block
//! lowering fuses it, and through `Cpu::step`, which runs one unfused op
//! per instruction; the two must agree on how the run ended, the pc,
//! every register, `fflags`, memory and `Stats`.
//!
//! Around the patterns: register aliasing between constituents (a read
//! of the previous `rd`, `rd` = `x0`, an overwritten source, a shared
//! `rd`), every rounding path of the lane-accumulate idiom, a trap inside
//! a fused op (dynamic rounding while `frm` holds a reserved value), a
//! misaligned load right after one, stores that kill their own block next
//! to fused ops and folded jumps, and every instruction budget through
//! each program, so budgets end just before, inside and just after each
//! block. Each case also checks, through the hot-block profile, that its
//! pattern did fuse: fusion that silently stops matching fails here.

use smallfloat_asm::Assembler;
use smallfloat_isa::{csr, encode, AluOp, BranchCond, FReg, FpFmt, FpOp, Instr, Rm, XReg};
use smallfloat_sim::{Cpu, ExitReason, HotBlock, SimConfig, SimError};
use smallfloat_softfp::Rounding;

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;

fn config() -> SimConfig {
    SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    }
}

/// How a run ended.
type Outcome = Result<ExitReason, SimError>;

/// `prog` for at most `budget` instructions through `Cpu::run`, blocks on.
fn run_blocks(cpu: &mut Cpu, prog: &[Instr], budget: u64) -> Outcome {
    cpu.reset();
    cpu.set_block_cache(true);
    cpu.load_program(TEXT, prog);
    cpu.run(budget)
}

/// The same through `Cpu::step`: one unfused op per instruction.
fn run_steps(cpu: &mut Cpu, prog: &[Instr], budget: u64) -> Outcome {
    cpu.reset();
    cpu.load_program(TEXT, prog);
    for _ in 0..budget {
        if let Some(reason) = cpu.step()? {
            return Ok(reason);
        }
    }
    Ok(ExitReason::InstructionLimit)
}

fn assert_same(label: &str, blocks: (&Cpu, &Outcome), steps: (&Cpu, &Outcome)) {
    let ((b, bo), (s, so)) = (blocks, steps);
    assert_eq!(bo, so, "{label}: outcome");
    assert_eq!(b.pc(), s.pc(), "{label}: pc");
    for r in 0..32u8 {
        assert_eq!(b.xreg(XReg::new(r)), s.xreg(XReg::new(r)), "{label}: x{r}");
        assert_eq!(b.freg(FReg::new(r)), s.freg(FReg::new(r)), "{label}: f{r}");
    }
    assert_eq!(b.fflags(), s.fflags(), "{label}: fflags");
    assert_eq!(b.stats(), s.stats(), "{label}: stats");
    assert!(b.mem().bytes_eq(s.mem()), "{label}: memory");
}

/// Run `prog` on both paths and compare, under every budget from 0 to
/// one past the instructions it retires, then without a budget. Returns
/// the block-path CPU of the last run, for its profile, and its outcome.
fn differential(label: &str, prog: &[Instr]) -> (Cpu, Outcome) {
    let mut blocks = Cpu::new(config());
    let mut steps = Cpu::new(config());
    let _ = run_steps(&mut steps, prog, u64::MAX);
    let total = steps.stats().instret;
    let mut outcome = Ok(ExitReason::InstructionLimit);
    for budget in (0..=total + 1).chain([u64::MAX]) {
        outcome = run_blocks(&mut blocks, prog, budget);
        let so = run_steps(&mut steps, prog, budget);
        let label = format!("{label}, budget {budget}");
        assert_same(&label, (&blocks, &outcome), (&steps, &so));
    }
    (blocks, outcome)
}

/// The profile row of the block led by `leader`.
fn block_at(cpu: &Cpu, leader: u32) -> HotBlock {
    cpu.hot_blocks(usize::MAX)
        .into_iter()
        .find(|b| b.leader == leader)
        .unwrap_or_else(|| panic!("no block led by 0x{leader:x}"))
}

/// The address of instruction `index` of a program loaded at [`TEXT`].
fn at(index: usize) -> u32 {
    TEXT + 4 * index as u32
}

// ---------------------------------------------------------------------------
// Integer patterns
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Addi,
    Slli,
    Add,
    Mul,
    /// Not in the table: breaks a run.
    Xor,
}

/// The fusion table's integer patterns.
const TABLE: [&[Op]; 11] = {
    use Op::{Add, Addi, Mul, Slli};
    [
        &[Addi, Addi, Addi],
        &[Addi, Addi],
        &[Addi, Mul],
        &[Add, Addi],
        &[Add, Slli],
        &[Slli, Add],
        &[Add, Add],
        &[Addi, Slli],
        &[Slli, Slli],
        &[Addi, Add],
        &[Mul, Add],
    ]
};

/// Emit `op rd, rs1, rs2` (register ops) or `op rd, rs1, imm`.
fn emit(asm: &mut Assembler, op: Op, rd: XReg, rs1: XReg, rs2: XReg, imm: i32) {
    match op {
        Op::Addi => asm.addi(rd, rs1, imm),
        Op::Slli => asm.slli(rd, rs1, imm & 31),
        Op::Add => asm.add(rd, rs1, rs2),
        Op::Mul => asm.mul(rd, rs1, rs2),
        Op::Xor => asm.push(Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        }),
    };
}

/// Registers the integer cases compute in, seeded with distinct values.
const POOL: [u8; 10] = [5, 6, 7, 28, 29, 30, 31, 18, 19, 20];

fn pool(i: usize) -> XReg {
    XReg::new(POOL[i % POOL.len()])
}

/// Seed the pool registers with distinct values that keep every bit
/// position busy.
fn seed(asm: &mut Assembler) {
    for i in 0..POOL.len() {
        asm.li(pool(i), (0x9e37_79b9u32.wrapping_mul(i as u32 + 1)) as i32);
    }
}

/// The operands `(rd, rs1, rs2)` of constituent `k` of a run.
type Layout = fn(usize) -> (XReg, XReg, XReg);

/// Named operand layouts of a run's constituents.
const ALIASING: [(&str, Layout); 5] = [
    ("independent", |k| {
        (pool(3 * k), pool(3 * k + 1), pool(3 * k + 2))
    }),
    ("reads the previous rd", |k| {
        // rd: p0, p4, p5.
        let prev = if k == 1 { pool(0) } else { pool(k + 2) };
        match k {
            0 => (pool(0), pool(1), pool(2)),
            _ => (pool(k + 3), prev, prev),
        }
    }),
    ("rd = x0", |k| {
        if k == 0 {
            (XReg::ZERO, pool(1), pool(2))
        } else {
            (pool(k + 3), XReg::ZERO, pool(k))
        }
    }),
    ("overwrites the previous source", |k| {
        (pool(k), pool(k + 1), pool(k + 2))
    }),
    ("same rd", |k| (pool(0), pool(k + 1), pool(k + 4))),
];

/// Immediates of constituent `k`: the 12-bit extremes, so a packed
/// constituent's sign extension shows.
const IMMS: [i32; 3] = [-2048, 2047, -7];

/// A loop of `iters` trips over `ops` (constituent operands from
/// `layout`), a breaker and the counter update. Returns the program and
/// the loop head.
fn int_loop(ops: &[Op], layout: Layout, iters: i32) -> (Vec<Instr>, u32) {
    let cnt = XReg::a(0);
    let mut asm = Assembler::new();
    seed(&mut asm);
    asm.li(cnt, iters);
    let head = at(asm.len());
    asm.label("loop");
    for (k, &op) in ops.iter().enumerate() {
        let (rd, rs1, rs2) = layout(k);
        emit(&mut asm, op, rd, rs1, rs2, IMMS[k]);
    }
    emit(&mut asm, Op::Xor, XReg::a(1), XReg::a(1), pool(0), 0);
    asm.addi(cnt, cnt, -1);
    asm.bnez("loop", cnt);
    asm.ecall();
    (asm.assemble().expect("loop assembles"), head)
}

/// Every integer pattern under every aliasing layout.
#[test]
fn integer_patterns_match_the_per_instruction_path() {
    for ops in TABLE {
        for (name, layout) in ALIASING {
            let label = format!("{ops:?}, {name}");
            let (prog, head) = int_loop(ops, layout, 3);
            let (cpu, outcome) = differential(&label, &prog);
            assert_eq!(outcome, Ok(ExitReason::Ecall), "{label}");
            let b = block_at(&cpu, head);
            // The run fuses into one op; the breaker and the counter
            // update stay single; the `bnez` tail is no micro-op.
            assert_eq!(
                (b.instrs, b.uops),
                (ops.len() as u32 + 3, 3),
                "{label}: the pattern fused"
            );
        }
    }
}

/// Long runs of table and non-table integer ops with a handful of
/// registers, `x0` among them, so constituents alias in every way and
/// runs overlap several patterns (greedy matching, longest first).
#[test]
fn random_integer_runs_match_the_per_instruction_path() {
    let regs = [0u8, 5, 6, 7];
    let ops = [Op::Addi, Op::Slli, Op::Add, Op::Mul, Op::Xor];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut fused = 0;
    for case in 0..40 {
        let mut asm = Assembler::new();
        seed(&mut asm);
        for r in &regs[1..] {
            asm.li(
                XReg::new(*r),
                (0x7f4a_7c15u32.wrapping_mul(u32::from(*r))) as i32,
            );
        }
        asm.li(XReg::a(0), 2);
        let head = at(asm.len());
        asm.label("loop");
        for _ in 0..12 {
            let reg = |i: usize| XReg::new(regs[i]);
            let op = ops[next(ops.len())];
            let imm = next(4096) as i32 - 2048;
            emit(&mut asm, op, reg(next(4)), reg(next(4)), reg(next(4)), imm);
        }
        asm.addi(XReg::a(0), XReg::a(0), -1);
        asm.bnez("loop", XReg::a(0));
        asm.ecall();
        let prog = asm.assemble().expect("run assembles");
        let (cpu, _) = differential(&format!("random run {case}"), &prog);
        let b = block_at(&cpu, head);
        fused += b.instrs - 1 - b.uops;
    }
    assert!(fused > 40, "the random runs fuse ({fused} ops saved)");
}

// ---------------------------------------------------------------------------
// The lane-accumulate idiom: fmv.{h,b}.x → fcvt.s.{h,b} → fadd.s
// ---------------------------------------------------------------------------

fn f(n: u8) -> FReg {
    FReg::new(n)
}

/// Which constituents of the idiom a loop holds.
#[derive(Clone, Copy, Debug)]
enum Form {
    Triple,
    /// `fmv; fcvt`, then a `fsub.s` (not in the table).
    MoveConvert,
    /// A `fmv.w.x` (not in the table), then `fcvt; fadd`.
    ConvertAdd,
}

/// Register layouts of the idiom: `(fmv rd, fcvt rd, fcvt rs1, fadd rd,
/// fadd rs1, fadd rs2)`.
const LANE_ALIASING: [(&str, [u8; 6]); 5] = [
    ("chain into an accumulator", [1, 2, 1, 3, 3, 2]),
    ("independent sum", [1, 2, 1, 3, 5, 2]),
    ("in place", [1, 1, 1, 1, 1, 4]),
    ("convert reads another register", [1, 2, 4, 2, 2, 1]),
    ("add reads the move", [1, 2, 1, 3, 1, 2]),
];

/// The idiom in a loop that walks the narrow encodings by a fixed stride
/// (200 trips reach normals, subnormals and NaNs in both formats, and
/// binary8 infinities); both rounding constituents use `rm`.
fn lane_loop(
    fmt: FpFmt,
    form: Form,
    regs: [u8; 6],
    rm: Rm,
    frm: u32,
    iters: i32,
) -> (Vec<Instr>, u32) {
    let [mv, cd, cs, ad, a1, a2] = regs;
    let (cnt, val, stride, boxed, frm_reg) =
        (XReg::a(0), XReg::a(1), XReg::a(2), XReg::a(3), XReg::a(4));
    let mut asm = Assembler::new();
    asm.li(frm_reg, frm as i32);
    asm.csrw(csr::FRM, frm_reg);
    for (r, bits) in [(3u8, 0x3fc0_0000u32), (4, 0xffff_3c00), (5, 0x4049_0fdb)] {
        asm.li(boxed, bits as i32);
        asm.fmv_f(FpFmt::S, f(r), boxed);
    }
    asm.li(val, 0x3555);
    asm.li(stride, 0x0b3d);
    let nan_box: u32 = if fmt == FpFmt::H {
        0xffff_0000
    } else {
        0xffff_ff00
    };
    asm.li(boxed, nan_box as i32);
    asm.li(cnt, iters);
    let head = at(asm.len());
    asm.label("loop");
    let convert = Instr::FCvtFF {
        dst: FpFmt::S,
        src: fmt,
        rd: f(cd),
        rs1: f(cs),
        rm,
    };
    let add = |op| Instr::FOp {
        op,
        fmt: FpFmt::S,
        rd: f(ad),
        rs1: f(a1),
        rs2: f(a2),
        rm,
    };
    match form {
        Form::Triple | Form::MoveConvert => {
            asm.fmv_f(fmt, f(mv), val);
            asm.push(convert);
        }
        Form::ConvertAdd => {
            // A NaN-boxed narrow value, moved in whole.
            asm.push(Instr::Op {
                op: AluOp::Or,
                rd: XReg::a(5),
                rs1: val,
                rs2: boxed,
            });
            asm.fmv_f(FpFmt::S, f(mv), XReg::a(5));
            asm.push(convert);
        }
    }
    asm.push(add(match form {
        Form::MoveConvert => FpOp::Sub,
        _ => FpOp::Add,
    }));
    asm.add(val, val, stride);
    emit(&mut asm, Op::Xor, XReg::a(6), XReg::a(6), val, 0);
    asm.addi(cnt, cnt, -1);
    asm.bnez("loop", cnt);
    asm.ecall();
    (asm.assemble().expect("loop assembles"), head)
}

/// Every fused form of the idiom, both narrow formats, every register
/// layout and every rounding path: round-to-nearest (the host leaves,
/// static and through `frm`), dynamic round-toward-zero (the fallback
/// through each constituent's handler) and a static round-toward-zero.
#[test]
fn lane_accumulate_matches_the_per_instruction_path() {
    let rne = u32::from(Rounding::Rne.to_frm());
    let rtz = u32::from(Rounding::Rtz.to_frm());
    for fmt in [FpFmt::H, FpFmt::B] {
        for form in [Form::Triple, Form::MoveConvert, Form::ConvertAdd] {
            for (name, regs) in LANE_ALIASING {
                for (rm, frm) in [
                    (Rm::Dyn, rne),
                    (Rm::Rne, rtz),
                    (Rm::Dyn, rtz),
                    (Rm::Rtz, rne),
                ] {
                    let label = format!("{fmt:?} {form:?}, {name}, {rm:?} with frm {frm}");
                    let (prog, head) = lane_loop(fmt, form, regs, rm, frm, 3);
                    let _ = differential(&label, &prog);
                    // Many trips for the values.
                    let (prog, _) = lane_loop(fmt, form, regs, rm, frm, 200);
                    let mut blocks = Cpu::new(config());
                    let mut steps = Cpu::new(config());
                    let bo = run_blocks(&mut blocks, &prog, u64::MAX);
                    let so = run_steps(&mut steps, &prog, u64::MAX);
                    assert_same(&label, (&blocks, &bo), (&steps, &so));
                    let b = block_at(&blocks, head);
                    // All three of the idiom fuse into one op, or two of
                    // them; the rest of the loop (`or` and `fmv.w.x`, the
                    // `fsub.s`, add, xor, addi) stays single.
                    let want = match form {
                        Form::Triple => (7, 4),
                        Form::MoveConvert => (7, 5),
                        Form::ConvertAdd => (8, 6),
                    };
                    assert_eq!((b.instrs, b.uops), want, "{label}: the idiom fused");
                }
            }
        }
    }
}

/// The conversion and the add fuse only with equal rounding modes: with
/// different ones the triple splits into `fmv; fcvt` and a lone `fadd`.
#[test]
fn lane_accumulate_with_mixed_rounding_splits() {
    let mut asm = Assembler::new();
    asm.li(XReg::a(1), 0x3c1);
    asm.fmv_f(FpFmt::H, f(1), XReg::a(1));
    asm.push(Instr::FCvtFF {
        dst: FpFmt::S,
        src: FpFmt::H,
        rd: f(2),
        rs1: f(1),
        rm: Rm::Rne,
    });
    asm.push(Instr::FOp {
        op: FpOp::Add,
        fmt: FpFmt::S,
        rd: f(3),
        rs1: f(3),
        rs2: f(2),
        rm: Rm::Rtz,
    });
    asm.ecall();
    let prog = asm.assemble().expect("assembles");
    let (cpu, _) = differential("mixed rounding", &prog);
    let b = block_at(&cpu, TEXT);
    assert_eq!((b.instrs, b.uops), (5, 3), "li, fmv+fcvt, fadd; ecall tail");
}

// ---------------------------------------------------------------------------
// Traps, kills and folded jumps
// ---------------------------------------------------------------------------

/// A reserved `frm` traps the dynamic-rounding conversion inside a fused
/// op: the move before it retires, the conversion and the add do not, and
/// the pc stays at the conversion — whether the fused op leads its block
/// or follows a fused integer pair, and in every form of the idiom.
#[test]
fn reserved_frm_traps_inside_a_fused_op() {
    for lead in [false, true] {
        for form in [Form::Triple, Form::MoveConvert, Form::ConvertAdd] {
            let mut asm = Assembler::new();
            asm.li(XReg::t(0), 5); // a reserved rounding mode
            asm.csrw(csr::FRM, XReg::t(0));
            let leader = at(asm.len());
            asm.li(XReg::a(1), 0xffff_3c01u32 as i32); // lui, addi
            if lead {
                asm.addi(XReg::a(2), XReg::a(2), 3);
                asm.addi(XReg::a(3), XReg::a(2), 4);
            }
            match form {
                Form::ConvertAdd => asm.fmv_f(FpFmt::S, f(1), XReg::a(1)),
                _ => asm.fmv_f(FpFmt::H, f(1), XReg::a(1)),
            };
            let convert = at(asm.len());
            asm.fcvt(FpFmt::S, FpFmt::H, f(2), f(1));
            match form {
                Form::MoveConvert => asm.fsub(FpFmt::S, f(3), f(3), f(2)),
                _ => asm.fadd(FpFmt::S, f(3), f(3), f(2)),
            };
            asm.ecall();
            let prog = asm.assemble().expect("assembles");
            let label = format!("{form:?}, after a fused pair: {lead}");
            let (cpu, outcome) = differential(&label, &prog);
            assert_eq!(
                outcome,
                Err(SimError::InvalidRounding { pc: convert }),
                "{label}"
            );
            assert_eq!(cpu.pc(), convert, "{label}");
            assert_ne!(cpu.freg(f(1)), 0, "{label}: the move retired");
            assert_eq!(cpu.freg(f(2)), 0, "{label}: the conversion did not");
            // The `li`'s `addi` fuses with the two leading ones; the
            // idiom fuses whole, or as a pair next to a single op.
            let b = block_at(&cpu, leader);
            let want = match (lead, form) {
                (false, Form::Triple) => (6, 3),
                (false, _) => (6, 4),
                (true, Form::Triple) => (8, 3),
                (true, _) => (8, 4),
            };
            assert_eq!((b.instrs, b.uops), want, "{label}: fused");
        }
    }
}

/// A misaligned load right after a fused op traps at the load, with every
/// instruction before it retired at its own class and cost: after an
/// integer pair, a pair of two classes (`addi; mul`), the lane-accumulate
/// triple, and a pair with a jump folded into it.
#[test]
fn misaligned_load_after_a_fused_op() {
    type Prelude = fn(&mut Assembler);
    let preludes: [(&str, Prelude, (u32, u32)); 4] = [
        (
            "addi; slli",
            |a| {
                a.addi(XReg::a(1), XReg::a(0), 8);
                a.slli(XReg::a(2), XReg::a(1), 2);
            },
            (7, 5),
        ),
        (
            "addi; mul",
            |a| {
                a.addi(XReg::a(1), XReg::a(0), 8);
                a.mul(XReg::a(2), XReg::a(1), XReg::a(1));
            },
            (7, 5),
        ),
        (
            "fmv.h.x; fcvt.s.h; fadd.s",
            |a| {
                a.fmv_f(FpFmt::H, f(1), XReg::a(0));
                a.fcvt(FpFmt::S, FpFmt::H, f(2), f(1));
                a.fadd(FpFmt::S, f(3), f(3), f(2));
            },
            (8, 5),
        ),
        (
            "addi; addi; j",
            |a| {
                a.addi(XReg::a(1), XReg::a(0), 8);
                a.addi(XReg::a(2), XReg::a(1), 1);
                a.j("load");
                a.label("load");
            },
            (8, 5),
        ),
    ];
    for (name, prelude, want) in preludes {
        let mut asm = Assembler::new();
        asm.li(XReg::a(0), DATA as i32 + 1); // lui, addi
        emit(&mut asm, Op::Xor, XReg::a(5), XReg::a(5), XReg::a(5), 0);
        prelude(&mut asm);
        let load = at(asm.len());
        asm.lw(XReg::t(0), XReg::a(0), 0);
        asm.ecall();
        let prog = asm.assemble().expect("assembles");
        let label = format!("misaligned load after {name}");
        let (cpu, outcome) = differential(&label, &prog);
        assert_eq!(
            outcome,
            Err(SimError::Misaligned { addr: DATA + 1 }),
            "{label}"
        );
        assert_eq!(cpu.pc(), load, "{label}");
        let b = block_at(&cpu, TEXT);
        assert_eq!(
            (b.instrs, b.uops),
            want,
            "{label}: lui, addi, xor, the fused op, lw"
        );
    }
}

/// A loop whose first trip stores over an instruction of its own block:
/// `target` names which one. The block holds fused pairs before and after
/// the store, and the store is followed by a jump, folded into its op.
/// `Patch::Payload` rewrites a never-taken branch further down into an
/// `addi`; `Patch::Jump` rewrites the folded jump itself, so the next
/// instruction must be fetched afresh, not retired with the store.
#[derive(Clone, Copy, Debug)]
enum Patch {
    Payload,
    Jump,
}

fn self_killing_loop(patch: Patch) -> Vec<Instr> {
    let (t0, t1, s1) = (XReg::t(0), XReg::t(1), XReg::s(1));
    let cnt = XReg::a(0);
    let mut asm = Assembler::new();
    asm.li(cnt, 4);
    asm.li(s1, DATA as i32);
    let setup_words = asm.len();
    // t0/t1: the patch word and its address, set below once the layout
    // is known.
    asm.nop();
    asm.nop();
    asm.nop();
    asm.nop();
    asm.label("loop");
    asm.addi(XReg::s(2), XReg::s(2), 1);
    asm.addi(XReg::s(3), XReg::s(2), 2);
    asm.sw(t0, t1, 0);
    let jump = asm.len();
    asm.j("over");
    asm.addi(XReg::a(4), XReg::a(4), 7); // runs only once `j over` is rewritten
    asm.label("over");
    asm.addi(t1, s1, 0); // later trips store to DATA
    asm.slli(XReg::s(4), XReg::s(3), 3);
    asm.add(XReg::s(4), XReg::s(4), XReg::s(2));
    let payload = asm.len();
    asm.branch(BranchCond::Ne, XReg::ZERO, XReg::ZERO, "next");
    asm.label("next");
    asm.addi(cnt, cnt, -1);
    asm.bnez("loop", cnt);
    asm.ecall();
    let mut prog = asm.assemble().expect("assembles");
    let word = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: XReg::a(3),
        rs1: XReg::a(3),
        imm: 5,
    });
    let target = at(match patch {
        Patch::Payload => payload,
        Patch::Jump => jump,
    });
    let mut setup = Assembler::new();
    setup.li(t0, word as i32);
    setup.li(t1, target as i32);
    let setup = setup.assemble().expect("assembles");
    assert!(setup.len() <= 4);
    for (i, instr) in setup.into_iter().enumerate() {
        prog[setup_words + i] = instr;
    }
    prog
}

#[test]
fn self_killing_store_next_to_fused_ops() {
    for patch in [Patch::Payload, Patch::Jump] {
        let prog = self_killing_loop(patch);
        let label = format!("self-kill {patch:?}");
        let (cpu, outcome) = differential(&label, &prog);
        assert_eq!(outcome, Ok(ExitReason::Ecall), "{label}");
        assert_eq!(
            cpu.xreg(XReg::a(3)),
            5 * 4,
            "{label}: the patch ran every trip"
        );
        let after_jump = match patch {
            Patch::Payload => 0,
            Patch::Jump => 7 * 4,
        };
        assert_eq!(cpu.xreg(XReg::a(4)), after_jump, "{label}");
    }
}

/// Followed jumps retire with the micro-op before them, one or several in
/// a row, and a jump that leads a block stays a no-op of its own.
#[test]
fn followed_jumps_fold_into_the_previous_op() {
    let mut asm = Assembler::new();
    asm.li(XReg::a(0), 3);
    asm.label("loop");
    asm.j("a");
    asm.label("b");
    asm.mul(XReg::a(2), XReg::a(1), XReg::a(1));
    asm.j("c");
    asm.label("a");
    asm.addi(XReg::a(1), XReg::a(1), 1);
    asm.addi(XReg::a(1), XReg::a(1), 2);
    asm.j("d");
    asm.label("d");
    asm.j("b");
    asm.label("c");
    asm.add(XReg::a(3), XReg::a(3), XReg::a(2));
    asm.addi(XReg::a(0), XReg::a(0), -1);
    asm.bnez("loop", XReg::a(0));
    asm.ecall();
    let prog = asm.assemble().expect("assembles");
    let (cpu, outcome) = differential("followed jumps", &prog);
    assert_eq!(outcome, Ok(ExitReason::Ecall));
    let b = block_at(&cpu, at(1));
    // j a | addi+addi, j d, j b | mul, j c | add+addi | bnez
    assert_eq!((b.instrs, b.uops), (10, 4), "{b:?}");
}

/// A fused `mul` keeps the low word of the product, as its own handler
/// does.
#[test]
fn mul_constituents_use_the_m_extension() {
    let mut asm = Assembler::new();
    asm.li(XReg::a(1), 0x7fff_ffff);
    asm.li(XReg::a(2), 0x1234_5679);
    asm.addi(XReg::a(1), XReg::a(1), 3);
    asm.mul(XReg::a(3), XReg::a(1), XReg::a(2));
    asm.add(XReg::a(4), XReg::a(3), XReg::a(3));
    asm.ecall();
    let prog = asm.assemble().expect("assembles");
    let (cpu, _) = differential("mul", &prog);
    let want = 0x8000_0002u32.wrapping_mul(0x1234_5679);
    assert_eq!(cpu.xreg(XReg::a(3)), want);
    assert_eq!(cpu.xreg(XReg::a(4)), want.wrapping_add(want));
}
