//! Handler-level differential for the FP handlers that try a host-FPU
//! leaf first (`fop`, `ffma`, `fcvt_ff`, `fmulex`/`fmacex`, `vfop`,
//! `vfdotpex`/`vfsdotpex`): every case runs through `Cpu::run` with blocks
//! on and through `Cpu::step`, and the destination register and `fflags`
//! must match the generic `ops::` chain, computed here from the same
//! register values (NaN-boxing included).
//!
//! Operands are seeded random draws (uniform bits, a narrow window around
//! 1 where the leaves apply, special values, `b = ±a` pairs) plus built
//! edge cases: subnormal results, binary32 fma midpoints with a nonzero
//! TwoSum error, overflow to infinity, exact zeros of both signs, signaling
//! and quiet NaNs, and 16- and 8-bit scalar operands that are not
//! NaN-boxed. Each case runs under five rounding setups: static RNE (with
//! `frm` = RUP, which it must ignore), static RDN, and dynamic rounding
//! with `frm` = RNE, RTZ and the reserved value 5, which must trap with
//! nothing retired.

use smallfloat_asm::Assembler;
use smallfloat_devtools::Rng;
use smallfloat_isa::{csr, FReg, FmaOp, FpFmt, FpOp, Instr, Rm, VfOp, XReg};
use smallfloat_sim::{Cpu, ExitReason, SimConfig, SimError};
use smallfloat_softfp::{nanbox, ops, Env, Flags, Format, Rounding};

const TEXT: u32 = 0x1000;
/// Random cases per (op, format); the built edge cases come on top.
const CASES: usize = if cfg!(debug_assertions) { 48 } else { 4000 };

/// The registers every case uses: `rd` (also the accumulator / `Mac`
/// addend), the three sources, and the integer register holding `frm`.
const RD: u8 = 1;
const RS: [u8; 3] = [2, 3, 4];
const FRM_X: u8 = 5;

#[derive(Clone, Copy, Debug)]
enum Kind {
    FOp(FpOp),
    Fma(FmaOp),
    /// `fcvt.fmt.src`.
    Cvt(FpFmt),
    MulEx,
    MacEx,
    VfOp(VfOp),
    Dotp,
    Sdotp,
}

#[derive(Clone, Copy, Debug)]
struct Spec {
    kind: Kind,
    fmt: FpFmt,
    rep: bool,
}

impl Spec {
    fn is_vector(self) -> bool {
        matches!(self.kind, Kind::VfOp(_) | Kind::Dotp | Kind::Sdotp)
    }

    /// Whether the encoding has no `rm` field: the vector ops, and the
    /// alt-bank format binary8alt, whose selector takes the `rm` slot.
    fn dynamic_only(self) -> bool {
        self.is_vector() || self.fmt.alt_bank()
    }

    /// The format of a scalar op's source operands.
    fn src(self) -> FpFmt {
        match self.kind {
            Kind::Cvt(src) => src,
            _ => self.fmt,
        }
    }

    fn instr(self, rm: Rm) -> Instr {
        let (rd, rs1, rs2, rs3) = (f(RD), f(RS[0]), f(RS[1]), f(RS[2]));
        let (fmt, rep) = (self.fmt, self.rep);
        match self.kind {
            Kind::FOp(op) => Instr::FOp {
                op,
                fmt,
                rd,
                rs1,
                rs2,
                rm,
            },
            Kind::Fma(op) => Instr::FFma {
                op,
                fmt,
                rd,
                rs1,
                rs2,
                rs3,
                rm,
            },
            Kind::Cvt(src) => Instr::FCvtFF {
                dst: fmt,
                src,
                rd,
                rs1,
                rm,
            },
            Kind::MulEx => Instr::FMulEx {
                fmt,
                rd,
                rs1,
                rs2,
                rm,
            },
            Kind::MacEx => Instr::FMacEx {
                fmt,
                rd,
                rs1,
                rs2,
                rm,
            },
            Kind::VfOp(op) => Instr::VFOp {
                op,
                fmt,
                rd,
                rs1,
                rs2,
                rep,
            },
            Kind::Dotp => Instr::VFDotpEx {
                fmt,
                rd,
                rs1,
                rs2,
                rep,
            },
            Kind::Sdotp => Instr::VFSdotpEx {
                fmt,
                rd,
                rs1,
                rs2,
                rep,
            },
        }
    }
}

fn f(n: u8) -> FReg {
    FReg::new(n)
}

const B32: Format = Format::BINARY32;

fn unbox(fmt: FpFmt, reg: u32) -> u64 {
    nanbox::unboxed(fmt.format(), u64::from(reg), 32)
}

fn boxed(fmt: FpFmt, bits: u64) -> u32 {
    nanbox::boxed(fmt.format(), bits, 32) as u32
}

/// Exact widening of a `src` value into `dst`, flags discarded (the
/// expanding ops' lane conversion).
fn up(dst: Format, src: Format, bits: u64) -> u64 {
    ops::cvt_f_f(dst, src, bits, &mut Env::new(Rounding::Rne))
}

/// Lane `i` of a packed register with `w`-bit lanes.
fn lane(v: u32, i: u32, w: u32) -> u64 {
    u64::from(v >> (i * w)) & ((1 << w) - 1)
}

/// The generic `ops::` result for `spec` on registers `rd0` (the old
/// destination) and `src`, rounded per `rm`: the new destination register
/// and the raised flags.
fn reference(spec: Spec, rm: Rounding, rd0: u32, src: [u32; 3]) -> (u32, Flags) {
    let mut env = Env::new(rm);
    let e = &mut env;
    let (fmt, ff) = (spec.fmt, spec.fmt.format());
    let out = match spec.kind {
        Kind::FOp(op) => {
            let (a, b) = (unbox(fmt, src[0]), unbox(fmt, src[1]));
            let r = match op {
                FpOp::Add => ops::add(ff, a, b, e),
                FpOp::Sub => ops::sub(ff, a, b, e),
                FpOp::Mul => ops::mul(ff, a, b, e),
                FpOp::Div => ops::div(ff, a, b, e),
            };
            boxed(fmt, r)
        }
        Kind::Fma(op) => {
            let [a, b, c] = src.map(|r| unbox(fmt, r));
            let r = match op {
                FmaOp::Madd => ops::fmadd(ff, a, b, c, e),
                FmaOp::Msub => ops::fmsub(ff, a, b, c, e),
                FmaOp::Nmsub => ops::fnmsub(ff, a, b, c, e),
                FmaOp::Nmadd => ops::fnmadd(ff, a, b, c, e),
            };
            boxed(fmt, r)
        }
        Kind::Cvt(from) => {
            let r = ops::cvt_f_f(ff, from.format(), unbox(from, src[0]), e);
            boxed(fmt, r)
        }
        Kind::MulEx | Kind::MacEx => {
            let a = up(B32, ff, unbox(fmt, src[0]));
            let b = up(B32, ff, unbox(fmt, src[1]));
            let r = if matches!(spec.kind, Kind::MulEx) {
                ops::mul(B32, a, b, e)
            } else {
                ops::fmadd(B32, a, b, u64::from(rd0), e)
            };
            r as u32
        }
        Kind::VfOp(op) => {
            let w = fmt.width();
            let mut out = 0u32;
            for i in 0..32 / w {
                let a = lane(src[0], i, w);
                let b = lane(src[1], if spec.rep { 0 } else { i }, w);
                let d = lane(rd0, i, w);
                let r = match op {
                    VfOp::Add => ops::add(ff, a, b, e),
                    VfOp::Sub => ops::sub(ff, a, b, e),
                    VfOp::Mul => ops::mul(ff, a, b, e),
                    VfOp::Div => ops::div(ff, a, b, e),
                    VfOp::Min => ops::fmin(ff, a, b, e),
                    VfOp::Max => ops::fmax(ff, a, b, e),
                    VfOp::Mac => ops::fmadd(ff, a, b, d, e),
                    VfOp::Sgnj => ops::fsgnj(ff, a, b),
                    VfOp::Sgnjn => ops::fsgnjn(ff, a, b),
                    VfOp::Sgnjx => ops::fsgnjx(ff, a, b),
                };
                out |= ((r & ((1 << w) - 1)) as u32) << (i * w);
            }
            out
        }
        Kind::Dotp | Kind::Sdotp => {
            let w = fmt.width();
            // vfdotpex, and vfsdotpex on 16-bit lanes, accumulate every
            // lane into the one binary32 lane; vfsdotpex on 8-bit lanes
            // accumulates lanes 2j, 2j + 1 into binary16 lane j.
            let wide = match spec.kind {
                Kind::Sdotp if w == 8 => fmt.widen().expect("8-bit formats widen"),
                _ => FpFmt::S,
            };
            let (dw, per) = (wide.width(), wide.width() / w);
            let mut out = 0u32;
            for j in 0..32 / dw {
                let mut acc = lane(rd0, j, dw);
                for i in j * per..(j + 1) * per {
                    let a = up(wide.format(), ff, lane(src[0], i, w));
                    let b = up(
                        wide.format(),
                        ff,
                        lane(src[1], if spec.rep { 0 } else { i }, w),
                    );
                    acc = ops::fmadd(wide.format(), a, b, acc, e);
                }
                out |= (acc as u32) << (j * dw);
            }
            out
        }
    };
    (out, env.flags)
}

/// Special encodings of `fmt`: signed zeros, the smallest and largest
/// subnormals, the smallest normal, one, the largest finite, infinities,
/// a quiet and a signaling NaN.
fn specials(fmt: Format) -> Vec<u64> {
    let m = fmt.man_bits();
    let sign = fmt.sign_bit();
    let pos = [
        0,
        1,
        (1 << m) - 1,
        1 << m,
        fmt.one(),
        fmt.one() + 1,
        fmt.max_finite(false),
        fmt.infinity(false),
        fmt.quiet_nan(),
        fmt.infinity(false) | 1,
    ];
    pos.iter().flat_map(|&v| [v, v | sign]).collect()
}

/// A random encoding of `fmt`: uniform bits, a value within ±4 binades of
/// one (where the leaves apply), or a special value.
fn draw(rng: &mut Rng, fmt: Format) -> u64 {
    match rng.below(8) {
        0 | 1 => rng.u64() & fmt.mask(),
        2 => rng.pick(&specials(fmt)),
        _ => {
            let exp = (fmt.bias() + rng.range_i32(-4, 5)) as u64;
            let man = rng.u64() & ((1 << fmt.man_bits()) - 1);
            (u64::from(rng.bool()) << (fmt.width() - 1)) | exp << fmt.man_bits() | man
        }
    }
}

/// A scalar operand register holding a `fmt` value: NaN-boxed, except
/// one draw in 16 for the narrow formats, whose upper bits are then not
/// all ones (the register reads as the canonical NaN).
fn scalar_reg(rng: &mut Rng, fmt: FpFmt, bits: u64) -> u32 {
    if fmt.width() < 32 && rng.below(16) == 0 {
        let upper = rng.u32() & !(u32::MAX >> (32 - fmt.width())) & 0x7fff_ffff;
        (bits as u32) | upper
    } else {
        boxed(fmt, bits)
    }
}

/// A packed register of `fmt` lanes drawn by [`draw`].
fn packed_reg(rng: &mut Rng, fmt: FpFmt) -> u32 {
    let w = fmt.width();
    (0..32 / w).fold(0, |v, i| v | (draw(rng, fmt.format()) as u32) << (i * w))
}

/// Random cases for `spec`: the old destination register and the three
/// source registers.
fn random_cases(spec: Spec, rng: &mut Rng) -> Vec<(u32, [u32; 3])> {
    (0..CASES)
        .map(|_| {
            if spec.is_vector() {
                let acc = match spec.kind {
                    Kind::VfOp(_) => packed_reg(rng, spec.fmt),
                    Kind::Sdotp if spec.fmt.width() == 8 => packed_reg(rng, FpFmt::H),
                    _ => draw(rng, B32) as u32,
                };
                let a = packed_reg(rng, spec.fmt);
                let b = if rng.below(8) == 0 {
                    a ^ 0x8080_8080 // products that cancel lane by lane
                } else {
                    packed_reg(rng, spec.fmt)
                };
                return (acc, [a, b, 0]);
            }
            let (src, ff) = (spec.src(), spec.src().format());
            let mut v = [0; 3].map(|_| draw(rng, ff));
            match rng.below(8) {
                0 => v[1] = v[0] ^ ff.sign_bit(), // x + (-x), x * (-x)
                1 => v[1] = v[0],                 // x - x
                _ => {}
            }
            let acc = draw(rng, B32) as u32;
            (acc, v.map(|x| scalar_reg(rng, src, x)))
        })
        .collect()
}

/// Built cases for `spec`: subnormal results, binary32 midpoints with a
/// nonzero TwoSum error, overflow, exact zeros of both signs, NaNs and
/// unboxed operands.
fn edge_cases(spec: Spec) -> Vec<(u32, [u32; 3])> {
    let ff = spec.src().format();
    let src = spec.src();
    let r = |v: u64| boxed(src, v);
    let (one, min_normal) = (ff.one(), 1u64 << ff.man_bits());
    let half = ff.one() - (1 << ff.man_bits()); // 0.5
    let (max, sign) = (ff.max_finite(false), ff.sign_bit());
    let (qnan, snan) = (ff.quiet_nan(), ff.infinity(false) | 1);
    let mut cases = vec![
        // Subnormal results: 2^emin * 0.5, 2^emin - tiny.
        (0, [r(min_normal), r(half), r(0)]),
        (0, [r(min_normal), r(1 | sign), r(min_normal | sign)]),
        // Overflow: max + max, max * max.
        (0, [r(max), r(max), r(max)]),
        (0, [r(max | sign), r(max), r(max | sign)]),
        // Exact zeros of both signs.
        (0, [r(one), r(one | sign), r(0)]),
        (0, [r(sign), r(sign), r(sign)]),
        (0, [r(0), r(one | sign), r(sign)]),
        // NaNs.
        (0, [r(snan), r(one), r(one)]),
        (0, [r(one), r(qnan), r(snan)]),
    ];
    if src.width() < 32 {
        // 1.0 and its negation without the NaN box.
        cases.push((0, [one as u32, r(one), r(one)]));
        cases.push((0, [r(one), (one | sign) as u32 | 0x0100_0000, r(one)]));
    }
    if matches!(spec.kind, Kind::Fma(_)) && spec.fmt == FpFmt::S {
        // a * b = 2^-24 - 2^-70: the host sum with 1 + 2^-23 rounds to the
        // binary32 midpoint 1 + 2^-23 + 2^-24 with a nonzero TwoSum error,
        // and the exact result rounds down to 1 + 2^-23.
        let (a, b, c) = (0x3380_0001u32, 0x3f7f_fffeu32, 0x3f80_0001u32);
        let n = 0x8000_0000u32;
        cases.extend([
            (0, [a, b, c]),
            (0, [a | n, b, c | n]),
            (0, [a, b | n, c | n]),
            // The exact midpoint (no error): ties to even.
            (0, [0x3380_0000, 0x3f80_0000, c]),
        ]);
    }
    if spec.is_vector() {
        // Lanes of the largest finite value (products overflow the
        // accumulator), signed zeros, NaNs and cancelling products.
        let w = spec.fmt.width();
        let vf = spec.fmt.format();
        let fill = |v: u64| (0..32 / w).fold(0u32, |r, i| r | (v as u32) << (i * w));
        let (vmax, vsign) = (vf.max_finite(false), vf.sign_bit());
        cases = vec![
            (0, [fill(vmax), fill(vmax), 0]),
            (fill(vsign), [fill(vsign), fill(0), 0]),
            (0, [fill(vf.one()), fill(vf.one() | vsign), 0]),
            (0, [fill(vf.infinity(false) | 1), fill(vf.one()), 0]),
            (0, [fill(1), fill(1), 0]),
            (0, [fill(vf.one()), fill(vf.quiet_nan()), 0]),
        ];
    }
    cases
}

/// One rounding setup: the instruction's `rm` field and the `frm` value
/// written before it.
const SETUPS: [(Rm, u32); 5] = [
    (Rm::Rne, 3),
    (Rm::Rdn, 0),
    (Rm::Dyn, 0),
    (Rm::Dyn, 1),
    (Rm::Dyn, 5),
];

/// The program for `spec` under `rm`: write `frm` from `x5`, run the op,
/// stop.
fn program(spec: Spec, rm: Rm) -> Vec<Instr> {
    let mut asm = Assembler::new();
    asm.csrw(csr::FRM, XReg::new(FRM_X));
    asm.push(spec.instr(rm));
    asm.ecall();
    asm.assemble().expect("assembles")
}

struct Machine {
    cpu: Cpu,
    blocks: bool,
}

impl Machine {
    /// Run one case; `Ok(())` at the `ecall`, the trap otherwise.
    fn run(&mut self, frm: u32, fflags: Flags, rd0: u32, src: [u32; 3]) -> Result<(), SimError> {
        let cpu = &mut self.cpu;
        cpu.set_pc(TEXT);
        cpu.set_xreg(XReg::new(FRM_X), frm);
        cpu.set_fflags(fflags);
        cpu.set_freg(f(RD), rd0);
        for (r, v) in RS.iter().zip(src) {
            cpu.set_freg(f(*r), v);
        }
        if self.blocks {
            assert_eq!(cpu.run(u64::MAX)?, ExitReason::Ecall);
        } else {
            assert_eq!(cpu.step()?, None);
            assert_eq!(cpu.step()?, None);
        }
        Ok(())
    }
}

fn check(spec: Spec, rng: &mut Rng) {
    let mut machines = [true, false].map(|blocks| {
        let mut cpu = Cpu::new(SimConfig::default());
        cpu.set_block_cache(blocks);
        Machine { cpu, blocks }
    });
    let mut cases = edge_cases(spec);
    cases.extend(random_cases(spec, rng));
    let setups = SETUPS
        .iter()
        .filter(|(rm, _)| !spec.dynamic_only() || *rm == Rm::Dyn);
    for &(rm, frm) in setups {
        let prog = program(spec, rm);
        for m in &mut machines {
            m.cpu.load_program(TEXT, &prog);
        }
        let mode = match rm {
            Rm::Dyn => Rounding::from_frm(frm as u8),
            Rm::Rne => Some(Rounding::Rne),
            _ => Some(Rounding::Rdn),
        };
        for &(rd0, src) in &cases {
            let fflags = Flags::from_bits(rng.u32() as u8);
            for m in &mut machines {
                let label = format!(
                    "{spec:?} rm={rm:?} frm={frm} blocks={} rd={rd0:#010x} src={src:08x?}",
                    m.blocks
                );
                let instret = m.cpu.stats().instret;
                let got = m.run(frm, fflags, rd0, src);
                let (rd, flags) = (m.cpu.freg(f(RD)), m.cpu.fflags());
                match mode {
                    Some(rm) => {
                        got.unwrap_or_else(|e| panic!("{label}: {e}"));
                        let (want, raised) = reference(spec, rm, rd0, src);
                        assert_eq!(
                            (rd, flags),
                            (want, fflags | raised),
                            "{label}: result and fflags"
                        );
                    }
                    None => {
                        // Reserved frm: the op traps at its own pc having
                        // retired nothing (only the csrw before it).
                        assert_eq!(
                            got,
                            Err(SimError::InvalidRounding { pc: TEXT + 4 }),
                            "{label}"
                        );
                        assert_eq!((rd, flags), (rd0, fflags), "{label}: state");
                        assert_eq!(m.cpu.pc(), TEXT + 4, "{label}: pc");
                        assert_eq!(m.cpu.stats().instret, instret + 1, "{label}: instret");
                    }
                }
            }
        }
    }
}

const ALL: [FpFmt; 5] = [FpFmt::S, FpFmt::H, FpFmt::Ah, FpFmt::B, FpFmt::Ab];
const LANES: [FpFmt; 4] = [FpFmt::H, FpFmt::Ah, FpFmt::B, FpFmt::Ab];

fn spec(kind: Kind, fmt: FpFmt) -> Spec {
    Spec {
        kind,
        fmt,
        rep: false,
    }
}

#[test]
fn scalar_arithmetic_matches_reference() {
    let mut rng = Rng::new(0xf0_1eaf);
    for fmt in ALL {
        for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div] {
            check(spec(Kind::FOp(op), fmt), &mut rng);
        }
        for op in [FmaOp::Madd, FmaOp::Msub, FmaOp::Nmsub, FmaOp::Nmadd] {
            check(spec(Kind::Fma(op), fmt), &mut rng);
        }
    }
}

#[test]
fn conversions_match_reference() {
    let mut rng = Rng::new(0xc0_1eaf);
    for dst in ALL {
        for src in ALL {
            check(spec(Kind::Cvt(src), dst), &mut rng);
        }
    }
}

#[test]
fn expanding_scalars_match_reference() {
    let mut rng = Rng::new(0xe8_1eaf);
    for fmt in ALL {
        check(spec(Kind::MulEx, fmt), &mut rng);
        check(spec(Kind::MacEx, fmt), &mut rng);
    }
}

#[test]
fn vector_ops_match_reference() {
    let mut rng = Rng::new(0x7f_1eaf);
    for fmt in LANES {
        for rep in [false, true] {
            for op in [
                VfOp::Add,
                VfOp::Sub,
                VfOp::Mul,
                VfOp::Div,
                VfOp::Min,
                VfOp::Max,
                VfOp::Mac,
                VfOp::Sgnj,
            ] {
                check(
                    Spec {
                        kind: Kind::VfOp(op),
                        fmt,
                        rep,
                    },
                    &mut rng,
                );
            }
            for kind in [Kind::Dotp, Kind::Sdotp] {
                check(Spec { kind, fmt, rep }, &mut rng);
            }
        }
    }
}
