//! Boundary fuzzing of the text parser: whatever the input, `parse_line`
//! and `parse_program` return instead of panicking, and every instruction
//! they accept is one the encoder can represent — it encodes without a
//! panic, decodes back to itself, and re-parses from its own disassembly.

use smallfloat_asm::{parse_line, parse_program};
use smallfloat_devtools::{prop, Rng};
use smallfloat_isa::{decode, decode_compressed, encode};

/// The accepted-instruction contract for one parsed instruction.
fn check_instr(text: &str, instr: smallfloat_isa::Instr) {
    let word = encode(&instr);
    assert_eq!(decode(word), Ok(instr), "`{text}` encodes as {word:#010x}");
    let shown = instr.to_string();
    assert_eq!(parse_line(&shown), Ok(instr), "`{text}` shows as `{shown}`");
}

/// Parse `text` as a line and as a program; check whatever is accepted.
fn check(text: &str) {
    if let Ok(instr) = parse_line(text) {
        check_instr(text, instr);
    }
    if let Ok(prog) = parse_program(text) {
        for instr in prog {
            check_instr(text, instr);
        }
    }
}

/// Immediates at and just past every encoding edge, plus sign and radix
/// oddities.
const IMMEDIATES: &[&str] = &[
    "0",
    "1",
    "-1",
    "3",
    "31",
    "32",
    "40",
    "99",
    "2047",
    "2048",
    "-2048",
    "-2049",
    "4094",
    "4095",
    "4096",
    "-4096",
    "-4098",
    "5000",
    "0x7ff",
    "0x800",
    "0xfff",
    "0x1000",
    "0xfffff",
    "0x100000",
    "0x1fffff",
    "-0x100000",
    "0xffffe",
    "1048574",
    "1048575",
    "1048576",
    "-1048576",
    "-1048578",
    "2147483647",
    "2147483648",
    "-2147483648",
    "-2147483649",
    "9223372036854775807",
    "-9223372036854775808",
    "--9223372036854775808",
    "-0x-8000000000000000",
    "0x-1",
    "--5",
    "+5",
    "-",
    "0x",
    "",
];

const MNEMONICS: &[&str] = &[
    "lui",
    "auipc",
    "jal",
    "jalr",
    "beq",
    "bgeu",
    "lb",
    "lhu",
    "lw",
    "sb",
    "sw",
    "addi",
    "sltiu",
    "slli",
    "srai",
    "add",
    "sub",
    "mul",
    "remu",
    "fence",
    "ecall",
    "ebreak",
    "csrrw",
    "csrrs",
    "csrrwi",
    "csrrci",
    "flw",
    "flh",
    "fsb",
    "fadd.s",
    "fadd.ab",
    "fdiv.ah",
    "fsqrt.h",
    "fsqrt.ab",
    "fsgnjx.b",
    "fmin.ah",
    "fmadd.ab",
    "fnmsub.h",
    "feq.b",
    "fclass.ab",
    "fmv.x.h",
    "fmv.ab.x",
    "fcvt.w.ab",
    "fcvt.ah.wu",
    "fcvt.s.ab",
    "fcvt.ab.b",
    "fcvt.b.h",
    "fmulex.s.ab",
    "fmacex.s.h",
    "vfadd.h",
    "vfmac.r.ab",
    "vfsqrt.b",
    "vflt.r.ah",
    "vfcvt.x.b",
    "vfcvt.ah.xu",
    "vfcvt.h.ah",
    "vfcvt.b.h",
    "vfcpk.a.h.s",
    "vfcpk.b.b.s",
    "vfdotpex.s.ab",
    "vfdotpex.r.s.h",
    "vfsdotpex.s.h",
    "vfsdotpex.r.h.ab",
    "vfsdotpex.h.s",
];

const OPERANDS: &[&str] = &[
    "zero", "ra", "sp", "a0", "t6", "x0", "x31", "x32", "ft0", "fa5", "f31", "f32", "fflags",
    "frm", "fcsr", "cycle", "instret", "0x123", "0xfff", "0x1000", "0xffff", "0x10000", "rne",
    "rtz", "rdn", "rup", "rmm", "dyn",
];

/// A random operand: a register, CSR or rounding-mode name, an immediate,
/// or an `offset(base)` memory operand.
fn operand(rng: &mut Rng) -> String {
    match rng.below(3) {
        0 => rng.pick(OPERANDS).to_string(),
        1 => rng.pick(IMMEDIATES).to_string(),
        _ => format!("{}({})", rng.pick(IMMEDIATES), rng.pick(OPERANDS)),
    }
}

/// One token-soup line: a mnemonic and up to five operands.
fn soup(rng: &mut Rng) -> String {
    let n = rng.below(6) as usize;
    let ops: Vec<String> = (0..n).map(|_| operand(rng)).collect();
    format!("{} {}", rng.pick(MNEMONICS), ops.join(", "))
}

/// The disassembly of a random decodable word (32-bit or compressed).
fn disassembly(rng: &mut Rng) -> String {
    loop {
        let decoded = if rng.bool() {
            decode(rng.u32() | 0b11)
        } else {
            decode_compressed(rng.u16())
        };
        if let Ok(instr) = decoded {
            return instr.to_string();
        }
    }
}

/// Mutate one comma- or space-separated field of `text`, or one byte.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut fields: Vec<String> = text.split(", ").map(str::to_string).collect();
    match rng.below(5) {
        0 => {
            let i = rng.below(fields.len() as u64) as usize;
            fields[i] = rng.pick(IMMEDIATES).to_string();
        }
        1 => {
            let i = rng.below(fields.len() as u64) as usize;
            fields[i] = operand(rng);
        }
        2 => fields.push(rng.pick(&["rtz", "rne", "rmm", "dyn"]).to_string()),
        3 => {
            // Swap the mnemonic, keeping the operands.
            let (_, rest) = fields[0].split_once(' ').unwrap_or(("", ""));
            fields[0] = format!("{} {rest}", rng.pick(MNEMONICS));
        }
        _ => {
            let mut bytes = text.as_bytes().to_vec();
            if bytes.is_empty() {
                return operand(rng);
            }
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = rng.pick(b"-+0x19fa(), .#;");
            return String::from_utf8_lossy(&bytes).into_owned();
        }
    }
    fields.join(", ")
}

/// The inputs that used to parse and then panic in `encode`, encode a
/// different instruction, or overflow in the immediate parser.
#[test]
fn unrepresentable_operands_are_parse_errors() {
    for text in [
        "addi a0, a0, 5000",
        "sw a0, 4096(sp)",
        "beq a0, a1, 3",
        "jal ra, 3",
        "fadd.ab ft0, ft1, ft2, rtz",
        "slli a0, a0, 40",
        "csrrwi a0, fcsr, 99",
        "lui a0, 0x1fffff",
        "lui a0, -1",
        "addi a0, a0, --9223372036854775808",
        "addi a0, a0, -0x-8000000000000000",
        "csrrw a0, 0x1000, a1",
    ] {
        assert!(parse_line(text).is_err(), "`{text}` must not parse");
    }
    // The edges themselves stay accepted.
    for text in [
        "addi a0, a0, -2048",
        "sw a0, 2047(sp)",
        "beq a0, a1, -4096",
        "jal ra, 1048574",
        "fadd.ab ft0, ft1, ft2",
        "slli a0, a0, 31",
        "csrrwi a0, fcsr, 31",
        "lui a0, 0xfffff",
        "csrrw a0, 0xfff, a1",
    ] {
        check(text);
        assert!(parse_line(text).is_ok(), "`{text}` must parse");
    }
}

#[test]
fn random_bytes_never_panic() {
    prop::cases("parse_random_bytes", 4096, |rng| {
        let n = rng.below(48) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.u32() as u8).collect();
        check(&String::from_utf8_lossy(&bytes));
    });
}

#[test]
fn token_soup_never_panics() {
    prop::cases("parse_token_soup", 8192, |rng| {
        let lines: Vec<String> = (0..1 + rng.below(3)).map(|_| soup(rng)).collect();
        check(&lines[0]);
        check(&lines.join("\n"));
    });
}

#[test]
fn mutated_disassembly_never_panics() {
    prop::cases("parse_mutated_disassembly", 8192, |rng| {
        let text = disassembly(rng);
        check(&text);
        let mutated = mutate(rng, &text);
        check(&mutated);
        check(&mutate(rng, &mutated));
    });
}
