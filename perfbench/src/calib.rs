//! A fixed calibration loop that measures how fast the host runs right
//! now. It is the benchmark's own code, so no change to the crates can
//! move it.
//!
//! The loop is a small register-machine interpreter — a `match` dispatch
//! over a fixed program of integer, shift, multiply, load/store, branch
//! and `f64` operations on a 32 KiB memory — the same kind of work the
//! simulator does per instruction.

use std::hint::black_box;
use std::time::Instant;

const MEM_WORDS: usize = 4096;
const REGS: usize = 16;

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u32),
    Shr(u8, u8, u32),
    Mul(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    MulAdd(u8, u8, u8),
    /// Jump back by the offset while the register is nonzero; decrement it.
    Loop(u8, u16),
}

fn program() -> Vec<Op> {
    use Op::*;
    vec![
        Add(1, 1, 2),
        Xor(3, 1, 4),
        Shl(5, 3, 7),
        Shr(6, 5, 11),
        Load(7, 6),
        Mul(8, 7, 1),
        Add(9, 8, 3),
        Store(9, 5),
        MulAdd(10, 11, 12),
        Xor(2, 2, 9),
        Shr(13, 2, 3),
        Load(14, 13),
        Add(4, 4, 14),
        MulAdd(11, 10, 12),
        Mul(15, 4, 13),
        Store(15, 1),
        Loop(0, 16),
    ]
}

/// Run the program for `rounds` loop trips; returns a checksum.
pub fn work(rounds: u64) -> u64 {
    let prog = black_box(program());
    let mut mem = vec![0u64; MEM_WORDS];
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut r = [0u64; REGS];
    let mut f = [0.0f64; REGS];
    r[0] = rounds;
    r[1] = 1;
    r[2] = 0x2545_F491_4F6C_DD1D;
    f[10] = 0.5;
    f[11] = 0.25;
    f[12] = 0.999;
    let mut pc = 0usize;
    while pc < prog.len() {
        match prog[pc] {
            Op::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            Op::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
            Op::Shl(d, a, s) => r[d as usize] = r[a as usize] << s,
            Op::Shr(d, a, s) => r[d as usize] = r[a as usize] >> s,
            Op::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize] | 1),
            Op::Load(d, a) => r[d as usize] = mem[r[a as usize] as usize % MEM_WORDS],
            Op::Store(s, a) => mem[r[a as usize] as usize % MEM_WORDS] = r[s as usize],
            Op::MulAdd(d, a, b) => {
                let x = f[a as usize] * f[b as usize] + 0.125;
                f[d as usize] = if x > 4.0 { x - 4.0 } else { x };
            }
            Op::Loop(c, back) => {
                r[c as usize] = r[c as usize].saturating_sub(1);
                if r[c as usize] != 0 {
                    pc -= back as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }
    r.iter().fold(f[10].to_bits() ^ f[11].to_bits(), |a, &x| {
        a.rotate_left(5) ^ x
    })
}

/// Host seconds one calibration takes.
pub fn sample(rounds: u64) -> f64 {
    let t0 = Instant::now();
    black_box(work(black_box(rounds)));
    t0.elapsed().as_secs_f64()
}
