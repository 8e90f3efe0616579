//! Text → instruction parsing: the inverse of the disassembler.
//!
//! [`parse_line`] accepts exactly the syntax `Instr`'s `Display` emits
//! (GNU-as-like), so `parse_line(&instr.to_string()) == instr` holds for
//! every instruction — property-tested over the whole decodable opcode
//! space. Register operands accept both ABI names (`a0`, `ft3`) and
//! numeric names (`x10`, `f3`).

use smallfloat_isa::{
    AluOp, BranchCond, CmpOp, CpkHalf, CsrOp, CsrSrc, FReg, FmaOp, FpFmt, FpOp, Instr, MemWidth,
    MinMaxOp, Rm, SgnjKind, VCmpOp, VfOp, XReg,
};
use std::fmt;

/// Parse error with the offending fragment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn xreg(tok: &str) -> PResult<XReg> {
    const ABI: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    if let Some(pos) = ABI.iter().position(|&n| n == tok) {
        return Ok(XReg::new(pos as u8));
    }
    if let Some(num) = tok.strip_prefix('x') {
        if let Ok(n) = num.parse::<u8>() {
            if n < 32 {
                return Ok(XReg::new(n));
            }
        }
    }
    Err(ParseError::new(format!("unknown integer register `{tok}`")))
}

fn freg(tok: &str) -> PResult<FReg> {
    const ABI: [&str; 32] = [
        "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
        "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
        "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
    ];
    if let Some(pos) = ABI.iter().position(|&n| n == tok) {
        return Ok(FReg::new(pos as u8));
    }
    if let Some(num) = tok.strip_prefix('f') {
        if let Ok(n) = num.parse::<u8>() {
            if n < 32 {
                return Ok(FReg::new(n));
            }
        }
    }
    Err(ParseError::new(format!("unknown FP register `{tok}`")))
}

fn imm(tok: &str) -> PResult<i32> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let (radix, digits) = match body.strip_prefix("0x") {
        Some(hex) => (16, hex),
        None => (10, body),
    };
    // Digits only: `from_str_radix` would also accept a second sign.
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return Err(ParseError::new(format!("bad immediate `{tok}`")));
    }
    let out_of_range = || ParseError::new(format!("immediate `{tok}` out of range"));
    let v = i64::from_str_radix(digits, radix).map_err(|_| out_of_range())?;
    i32::try_from(if neg { -v } else { v }).map_err(|_| out_of_range())
}

/// An immediate the encoder can represent: within `lo..=hi` and, for
/// branch and jump offsets, even. These are exactly the values `decode`
/// produces.
fn imm_in(tok: &str, lo: i32, hi: i32, even: bool) -> PResult<i32> {
    let v = imm(tok)?;
    if v < lo || v > hi {
        return Err(ParseError::new(format!(
            "immediate `{tok}` outside {lo}..={hi}"
        )));
    }
    if even && v % 2 != 0 {
        return Err(ParseError::new(format!("offset `{tok}` is odd")));
    }
    Ok(v)
}

/// 12-bit signed I/S-type immediate.
fn imm12(tok: &str) -> PResult<i32> {
    imm_in(tok, -2048, 2047, false)
}

/// `offset(base)` memory operand.
fn mem_operand(tok: &str) -> PResult<(i32, XReg)> {
    let open = tok
        .find('(')
        .ok_or_else(|| ParseError::new(format!("expected offset(base), got `{tok}`")))?;
    let close = tok
        .strip_suffix(')')
        .ok_or_else(|| ParseError::new(format!("missing `)` in `{tok}`")))?;
    let offset = imm12(&tok[..open])?;
    let base = xreg(&close[open + 1..])?;
    Ok((offset, base))
}

fn fmt_suffix(tok: &str) -> PResult<FpFmt> {
    FpFmt::from_suffix(tok)
        .ok_or_else(|| ParseError::new(format!("unknown format suffix `.{tok}`")))
}

fn rm_operand(tok: &str) -> PResult<Rm> {
    match tok {
        "rne" => Ok(Rm::Rne),
        "rtz" => Ok(Rm::Rtz),
        "rdn" => Ok(Rm::Rdn),
        "rup" => Ok(Rm::Rup),
        "rmm" => Ok(Rm::Rmm),
        _ => Err(ParseError::new(format!("unknown rounding mode `{tok}`"))),
    }
}

/// Split trailing optional rounding-mode operand. A static mode on an
/// alt-bank `fmt` has no encoding (those formats carry their bank
/// selector in the rm field), so it is an error there.
fn take_rm(ops: &mut Vec<&str>, fmt: FpFmt) -> PResult<Rm> {
    let Some(rm) = ops.last().and_then(|last| rm_operand(last).ok()) else {
        return Ok(Rm::Dyn);
    };
    if fmt.alt_bank() {
        return Err(ParseError::new(format!(
            "`.{}` takes no static rounding mode",
            fmt.suffix()
        )));
    }
    ops.pop();
    Ok(rm)
}

fn expect_operands(ops: &[&str], n: usize, mnem: &str) -> PResult<()> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(ParseError::new(format!(
            "`{mnem}` expects {n} operands, got {}",
            ops.len()
        )))
    }
}

/// Parse one instruction in the disassembler's syntax.
///
/// # Errors
///
/// Returns [`ParseError`] for unknown mnemonics, malformed operands or
/// wrong operand counts.
pub fn parse_line(line: &str) -> PResult<Instr> {
    let line = line.split(['#', ';']).next().unwrap_or("").trim();
    let (mnem, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    if mnem.is_empty() {
        return Err(ParseError::new("empty line"));
    }
    let mut ops: Vec<&str> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();

    // Mnemonic base + dot-suffixes.
    let mut parts = mnem.split('.');
    let base = parts.next().expect("split yields at least one part");
    let suffixes: Vec<&str> = parts.collect();

    match (base, suffixes.as_slice()) {
        ("lui", []) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::Lui {
                rd: xreg(ops[0])?,
                imm20: imm_in(ops[1], 0, 0xf_ffff, false)?,
            })
        }
        ("auipc", []) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::Auipc {
                rd: xreg(ops[0])?,
                imm20: imm_in(ops[1], 0, 0xf_ffff, false)?,
            })
        }
        ("jal", []) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::Jal {
                rd: xreg(ops[0])?,
                offset: imm_in(ops[1], -(1 << 20), (1 << 20) - 1, true)?,
            })
        }
        ("jalr", []) => {
            expect_operands(&ops, 2, mnem)?;
            let (offset, rs1) = mem_operand(ops[1])?;
            Ok(Instr::Jalr {
                rd: xreg(ops[0])?,
                rs1,
                offset,
            })
        }
        ("beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu", []) => {
            expect_operands(&ops, 3, mnem)?;
            let cond = match base {
                "beq" => BranchCond::Eq,
                "bne" => BranchCond::Ne,
                "blt" => BranchCond::Lt,
                "bge" => BranchCond::Ge,
                "bltu" => BranchCond::Ltu,
                _ => BranchCond::Geu,
            };
            Ok(Instr::Branch {
                cond,
                rs1: xreg(ops[0])?,
                rs2: xreg(ops[1])?,
                offset: imm_in(ops[2], -4096, 4095, true)?,
            })
        }
        ("lb" | "lh" | "lw" | "lbu" | "lhu", []) => {
            expect_operands(&ops, 2, mnem)?;
            let (width, unsigned) = match base {
                "lb" => (MemWidth::B, false),
                "lh" => (MemWidth::H, false),
                "lw" => (MemWidth::W, false),
                "lbu" => (MemWidth::B, true),
                _ => (MemWidth::H, true),
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            Ok(Instr::Load {
                width,
                unsigned,
                rd: xreg(ops[0])?,
                rs1,
                offset,
            })
        }
        ("sb" | "sh" | "sw", []) => {
            expect_operands(&ops, 2, mnem)?;
            let width = match base {
                "sb" => MemWidth::B,
                "sh" => MemWidth::H,
                _ => MemWidth::W,
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            Ok(Instr::Store {
                width,
                rs2: xreg(ops[0])?,
                rs1,
                offset,
            })
        }
        ("addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" | "slli" | "srli" | "srai", []) => {
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "addi" => AluOp::Add,
                "slti" => AluOp::Slt,
                "sltiu" => AluOp::Sltu,
                "xori" => AluOp::Xor,
                "ori" => AluOp::Or,
                "andi" => AluOp::And,
                "slli" => AluOp::Sll,
                "srli" => AluOp::Srl,
                _ => AluOp::Sra,
            };
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => imm_in(ops[2], 0, 31, false)?,
                _ => imm12(ops[2])?,
            };
            Ok(Instr::OpImm {
                op,
                rd: xreg(ops[0])?,
                rs1: xreg(ops[1])?,
                imm,
            })
        }
        ("add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or" | "and", []) => {
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "add" => AluOp::Add,
                "sub" => AluOp::Sub,
                "sll" => AluOp::Sll,
                "slt" => AluOp::Slt,
                "sltu" => AluOp::Sltu,
                "xor" => AluOp::Xor,
                "srl" => AluOp::Srl,
                "sra" => AluOp::Sra,
                "or" => AluOp::Or,
                _ => AluOp::And,
            };
            Ok(Instr::Op {
                op,
                rd: xreg(ops[0])?,
                rs1: xreg(ops[1])?,
                rs2: xreg(ops[2])?,
            })
        }
        ("mul" | "mulh" | "mulhsu" | "mulhu" | "div" | "divu" | "rem" | "remu", []) => {
            use smallfloat_isa::MulDivOp as M;
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "mul" => M::Mul,
                "mulh" => M::Mulh,
                "mulhsu" => M::Mulhsu,
                "mulhu" => M::Mulhu,
                "div" => M::Div,
                "divu" => M::Divu,
                "rem" => M::Rem,
                _ => M::Remu,
            };
            Ok(Instr::MulDiv {
                op,
                rd: xreg(ops[0])?,
                rs1: xreg(ops[1])?,
                rs2: xreg(ops[2])?,
            })
        }
        ("fence", []) => Ok(Instr::Fence),
        ("ecall", []) => Ok(Instr::Ecall),
        ("ebreak", []) => Ok(Instr::Ebreak),
        ("csrrw" | "csrrs" | "csrrc" | "csrrwi" | "csrrsi" | "csrrci", []) => {
            expect_operands(&ops, 3, mnem)?;
            let csr = csr_name(ops[1])?;
            let op = match &base[..5] {
                "csrrw" => CsrOp::Rw,
                "csrrs" => CsrOp::Rs,
                _ => CsrOp::Rc,
            };
            let src = if base.ends_with('i') {
                CsrSrc::Imm(imm_in(ops[2], 0, 31, false)? as u8)
            } else {
                CsrSrc::Reg(xreg(ops[2])?)
            };
            Ok(Instr::Csr {
                op,
                rd: xreg(ops[0])?,
                src,
                csr,
            })
        }
        ("flw" | "flh" | "flb", []) => {
            expect_operands(&ops, 2, mnem)?;
            let fmt = match base {
                "flw" => FpFmt::S,
                "flh" => FpFmt::H,
                _ => FpFmt::B,
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            Ok(Instr::FLoad {
                fmt,
                rd: freg(ops[0])?,
                rs1,
                offset,
            })
        }
        ("fsw" | "fsh" | "fsb", []) => {
            expect_operands(&ops, 2, mnem)?;
            let fmt = match base {
                "fsw" => FpFmt::S,
                "fsh" => FpFmt::H,
                _ => FpFmt::B,
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            Ok(Instr::FStore {
                fmt,
                rs2: freg(ops[0])?,
                rs1,
                offset,
            })
        }
        ("fadd" | "fsub" | "fmul" | "fdiv", [f]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "fadd" => FpOp::Add,
                "fsub" => FpOp::Sub,
                "fmul" => FpOp::Mul,
                _ => FpOp::Div,
            };
            Ok(Instr::FOp {
                op,
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rm,
            })
        }
        ("fsqrt", [f]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FSqrt {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rm,
            })
        }
        ("fsgnj" | "fsgnjn" | "fsgnjx", [f]) => {
            expect_operands(&ops, 3, mnem)?;
            let kind = match base {
                "fsgnj" => SgnjKind::Sgnj,
                "fsgnjn" => SgnjKind::Sgnjn,
                _ => SgnjKind::Sgnjx,
            };
            Ok(Instr::FSgnj {
                kind,
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
            })
        }
        ("fmin" | "fmax", [f]) => {
            expect_operands(&ops, 3, mnem)?;
            let op = if base == "fmin" {
                MinMaxOp::Min
            } else {
                MinMaxOp::Max
            };
            Ok(Instr::FMinMax {
                op,
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
            })
        }
        ("fmadd" | "fmsub" | "fnmsub" | "fnmadd", [f]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 4, mnem)?;
            let op = match base {
                "fmadd" => FmaOp::Madd,
                "fmsub" => FmaOp::Msub,
                "fnmsub" => FmaOp::Nmsub,
                _ => FmaOp::Nmadd,
            };
            Ok(Instr::FFma {
                op,
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rs3: freg(ops[3])?,
                rm,
            })
        }
        ("feq" | "flt" | "fle", [f]) => {
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "feq" => CmpOp::Eq,
                "flt" => CmpOp::Lt,
                _ => CmpOp::Le,
            };
            Ok(Instr::FCmp {
                op,
                fmt: fmt_suffix(f)?,
                rd: xreg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
            })
        }
        ("fclass", [f]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FClass {
                fmt: fmt_suffix(f)?,
                rd: xreg(ops[0])?,
                rs1: freg(ops[1])?,
            })
        }
        ("fmv", ["x", f]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FMvXF {
                fmt: fmt_suffix(f)?,
                rd: xreg(ops[0])?,
                rs1: freg(ops[1])?,
            })
        }
        ("fmv", [f, "x"]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FMvFX {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: xreg(ops[1])?,
            })
        }
        ("fcvt", [w @ ("w" | "wu"), f]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FCvtFI {
                fmt: fmt_suffix(f)?,
                rd: xreg(ops[0])?,
                rs1: freg(ops[1])?,
                signed: *w == "w",
                rm,
            })
        }
        ("fcvt", [f, w @ ("w" | "wu")]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FCvtIF {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: xreg(ops[1])?,
                signed: *w == "w",
                rm,
            })
        }
        ("fcvt", [dst, src]) => {
            let rm = take_rm(&mut ops, fmt_suffix(dst)?)?;
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::FCvtFF {
                dst: fmt_suffix(dst)?,
                src: fmt_suffix(src)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rm,
            })
        }
        ("fmulex" | "fmacex", ["s", f]) => {
            let rm = take_rm(&mut ops, fmt_suffix(f)?)?;
            expect_operands(&ops, 3, mnem)?;
            let fmt = fmt_suffix(f)?;
            let (rd, rs1, rs2) = (freg(ops[0])?, freg(ops[1])?, freg(ops[2])?);
            Ok(if base == "fmulex" {
                Instr::FMulEx {
                    fmt,
                    rd,
                    rs1,
                    rs2,
                    rm,
                }
            } else {
                Instr::FMacEx {
                    fmt,
                    rd,
                    rs1,
                    rs2,
                    rm,
                }
            })
        }
        (
            "vfadd" | "vfsub" | "vfmul" | "vfdiv" | "vfmin" | "vfmax" | "vfmac" | "vfsgnj"
            | "vfsgnjn" | "vfsgnjx",
            rest_suffix,
        ) => {
            let (rep, f) = match rest_suffix {
                ["r", f] => (true, f),
                [f] => (false, f),
                _ => return Err(ParseError::new(format!("bad suffixes on `{mnem}`"))),
            };
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "vfadd" => VfOp::Add,
                "vfsub" => VfOp::Sub,
                "vfmul" => VfOp::Mul,
                "vfdiv" => VfOp::Div,
                "vfmin" => VfOp::Min,
                "vfmax" => VfOp::Max,
                "vfmac" => VfOp::Mac,
                "vfsgnj" => VfOp::Sgnj,
                "vfsgnjn" => VfOp::Sgnjn,
                _ => VfOp::Sgnjx,
            };
            Ok(Instr::VFOp {
                op,
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rep,
            })
        }
        ("vfsqrt", [f]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::VFSqrt {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
            })
        }
        ("vfeq" | "vfne" | "vflt" | "vfle" | "vfgt" | "vfge", rest_suffix) => {
            let (rep, f) = match rest_suffix {
                ["r", f] => (true, f),
                [f] => (false, f),
                _ => return Err(ParseError::new(format!("bad suffixes on `{mnem}`"))),
            };
            expect_operands(&ops, 3, mnem)?;
            let op = match base {
                "vfeq" => VCmpOp::Eq,
                "vfne" => VCmpOp::Ne,
                "vflt" => VCmpOp::Lt,
                "vfle" => VCmpOp::Le,
                "vfgt" => VCmpOp::Gt,
                _ => VCmpOp::Ge,
            };
            Ok(Instr::VFCmp {
                op,
                fmt: fmt_suffix(f)?,
                rd: xreg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rep,
            })
        }
        ("vfcvt", [x @ ("x" | "xu"), f]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::VFCvtXF {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                signed: *x == "x",
            })
        }
        ("vfcvt", [f, x @ ("x" | "xu")]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::VFCvtFX {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                signed: *x == "x",
            })
        }
        ("vfcvt", [dst, src]) => {
            expect_operands(&ops, 2, mnem)?;
            Ok(Instr::VFCvtFF {
                dst: fmt_suffix(dst)?,
                src: fmt_suffix(src)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
            })
        }
        ("vfcpk", [half @ ("a" | "b"), f, "s"]) => {
            expect_operands(&ops, 3, mnem)?;
            Ok(Instr::VFCpk {
                fmt: fmt_suffix(f)?,
                half: if *half == "a" { CpkHalf::A } else { CpkHalf::B },
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
            })
        }
        ("vfdotpex", rest_suffix) => {
            let (rep, f) = match rest_suffix {
                ["r", "s", f] => (true, f),
                ["s", f] => (false, f),
                _ => return Err(ParseError::new(format!("bad suffixes on `{mnem}`"))),
            };
            expect_operands(&ops, 3, mnem)?;
            Ok(Instr::VFDotpEx {
                fmt: fmt_suffix(f)?,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rep,
            })
        }
        ("vfsdotpex", rest_suffix) => {
            // `vfsdotpex[.r].{wide}.{fmt}`: the destination-format infix
            // must be the source format's exact widening.
            let (rep, wide, f) = match rest_suffix {
                ["r", w, f] => (true, w, f),
                [w, f] => (false, w, f),
                _ => return Err(ParseError::new(format!("bad suffixes on `{mnem}`"))),
            };
            expect_operands(&ops, 3, mnem)?;
            let fmt = fmt_suffix(f)?;
            match fmt.widen() {
                Some(exp) if exp.suffix() == *wide => {}
                _ => {
                    return Err(ParseError::new(format!(
                        "`.{wide}` is not the widening of `.{f}` in `{mnem}`"
                    )))
                }
            }
            Ok(Instr::VFSdotpEx {
                fmt,
                rd: freg(ops[0])?,
                rs1: freg(ops[1])?,
                rs2: freg(ops[2])?,
                rep,
            })
        }
        _ => Err(ParseError::new(format!("unknown mnemonic `{mnem}`"))),
    }
}

fn csr_name(tok: &str) -> PResult<u16> {
    use smallfloat_isa::csr;
    Ok(match tok {
        "fflags" => csr::FFLAGS,
        "frm" => csr::FRM,
        "fcsr" => csr::FCSR,
        "cycle" => csr::CYCLE,
        "time" => csr::TIME,
        "instret" => csr::INSTRET,
        "cycleh" => csr::CYCLEH,
        "instreth" => csr::INSTRETH,
        "mcycle" => csr::MCYCLE,
        "minstret" => csr::MINSTRET,
        other => {
            let hex = other
                .strip_prefix("0x")
                .ok_or_else(|| ParseError::new(format!("unknown CSR `{tok}`")))?;
            u16::from_str_radix(hex, 16)
                .ok()
                .filter(|&n| n <= 0xfff)
                .ok_or_else(|| ParseError::new(format!("bad CSR number `{tok}`")))?
        }
    })
}

/// Parse a whole program: one instruction per line; blank lines and
/// `#`/`;` comments are skipped.
///
/// # Errors
///
/// Returns the first [`ParseError`] with its line number prepended.
pub fn parse_program(text: &str) -> PResult<Vec<Instr>> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let stripped = line.split(['#', ';']).next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let instr = parse_line(stripped)
            .map_err(|e| ParseError::new(format!("line {}: {}", lineno + 1, e)))?;
        out.push(instr);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_core_forms() {
        assert_eq!(
            parse_line("addi a0, a1, -42").unwrap(),
            Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::a(0),
                rs1: XReg::a(1),
                imm: -42
            }
        );
        assert_eq!(
            parse_line("lw a0, 8(sp)").unwrap(),
            Instr::Load {
                width: MemWidth::W,
                unsigned: false,
                rd: XReg::a(0),
                rs1: XReg::SP,
                offset: 8
            }
        );
        assert_eq!(
            parse_line("fmadd.h fa0, fa1, fa2, fa3, rtz").unwrap(),
            Instr::FFma {
                op: FmaOp::Madd,
                fmt: FpFmt::H,
                rd: FReg::a(0),
                rs1: FReg::a(1),
                rs2: FReg::a(2),
                rs3: FReg::a(3),
                rm: Rm::Rtz,
            }
        );
        assert_eq!(
            parse_line("vfdotpex.s.h ft0, ft1, ft2").unwrap(),
            Instr::VFDotpEx {
                fmt: FpFmt::H,
                rd: FReg::new(0),
                rs1: FReg::new(1),
                rs2: FReg::new(2),
                rep: false,
            }
        );
        assert_eq!(
            parse_line("vfcpk.a.b.s f1, f2, f3").unwrap(),
            Instr::VFCpk {
                fmt: FpFmt::B,
                half: CpkHalf::A,
                rd: FReg::new(1),
                rs1: FReg::new(2),
                rs2: FReg::new(3),
            }
        );
    }

    #[test]
    fn parses_ab_and_vfsdotpex_forms() {
        // binary8alt scalar ops: the `.ab` suffix selects the alt bank.
        assert_eq!(
            parse_line("fadd.ab ft0, ft1, ft2").unwrap(),
            Instr::FOp {
                op: FpOp::Add,
                fmt: FpFmt::Ab,
                rd: FReg::new(0),
                rs1: FReg::new(1),
                rs2: FReg::new(2),
                rm: Rm::Dyn,
            }
        );
        // Cross-bank 8-bit conversion mnemonics in both directions.
        assert_eq!(
            parse_line("fcvt.ab.b ft0, ft1").unwrap(),
            Instr::FCvtFF {
                dst: FpFmt::Ab,
                src: FpFmt::B,
                rd: FReg::new(0),
                rs1: FReg::new(1),
                rm: Rm::Dyn,
            }
        );
        // vfsdotpex names both the wide destination and the lane format;
        // plain and replicated forms at a 16-bit and an alt-bank 8-bit
        // lane format.
        for (text, fmt, rep) in [
            ("vfsdotpex.s.h ft0, ft1, ft2", FpFmt::H, false),
            ("vfsdotpex.r.h.b ft0, ft1, ft2", FpFmt::B, true),
            ("vfsdotpex.h.ab ft0, ft1, ft2", FpFmt::Ab, false),
        ] {
            assert_eq!(
                parse_line(text).unwrap(),
                Instr::VFSdotpEx {
                    fmt,
                    rd: FReg::new(0),
                    rs1: FReg::new(1),
                    rs2: FReg::new(2),
                    rep,
                },
                "{text}"
            );
        }
        // Display → parse closes the loop for the alt-bank form.
        let i = parse_line("vfsdotpex.r.h.ab fa0, fa1, fa2").unwrap();
        assert_eq!(parse_line(&i.to_string()).unwrap(), i);
    }

    #[test]
    fn numeric_register_names() {
        assert_eq!(
            parse_line("add x1, x2, x31").unwrap().to_string(),
            "add ra, sp, t6"
        );
        assert_eq!(
            parse_line("fadd.s f0, f1, f2").unwrap().to_string(),
            "fadd.s ft0, ft1, ft2"
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_line("frobnicate a0")
            .unwrap_err()
            .to_string()
            .contains("unknown mnemonic"));
        assert!(parse_line("addi a0, a1")
            .unwrap_err()
            .to_string()
            .contains("expects 3"));
        assert!(parse_line("lw a0, nope")
            .unwrap_err()
            .to_string()
            .contains("offset(base)"));
        assert!(parse_line("addi a0, q7, 1")
            .unwrap_err()
            .to_string()
            .contains("register"));
    }

    #[test]
    fn program_with_comments() {
        let text = "\n# setup\naddi a0, zero, 1\n  ; comment\nadd a0, a0, a0 # double\necall\n";
        let prog = parse_program(text).unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!(prog[2], Instr::Ecall);
    }

    #[test]
    fn program_error_carries_line_number() {
        let err = parse_program("addi a0, zero, 1\nbogus x0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn display_parse_round_trip_over_decodable_space() {
        // Sweep a slice of the opcode space: every word that decodes must
        // re-parse from its own disassembly.
        use smallfloat_isa::decode;
        let mut checked = 0u32;
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let word = (state >> 16) as u32 | 0b11;
            if let Ok(instr) = decode(word) {
                let text = instr.to_string();
                let back =
                    parse_line(&text).unwrap_or_else(|e| panic!("cannot re-parse `{text}`: {e}"));
                assert_eq!(back, instr, "`{text}`");
                checked += 1;
            }
        }
        assert!(
            checked > 10_000,
            "sweep must hit plenty of valid words ({checked})"
        );
    }
}
