//! Properties of the code window: for *any* memory contents, fetching
//! through its lazily decoded slots must be indistinguishable from
//! decoding fresh out of `smallfloat_isa` — same instruction, same length,
//! same trap — across lazy fill by either tier, byte-precise invalidation
//! (simulated stores and `Cpu::write_data`) and snapshot restore.

use smallfloat_devtools::{prop, Rng};
use smallfloat_isa::{decode, decode_compressed, encode, AluOp, Instr, MemWidth, XReg};
use smallfloat_sim::{Cpu, ExitReason, SimConfig, SimError};

const BASE: u32 = 0x1000;

/// The specification: decode straight from the bytes in memory, exactly
/// as `smallfloat_isa` defines it.
fn reference(cpu: &Cpu, pc: u32) -> Result<(Instr, u32), SimError> {
    if !pc.is_multiple_of(2) {
        return Err(SimError::FetchFault { pc });
    }
    let low = cpu
        .mem()
        .load(pc, 2)
        .map_err(|_| SimError::FetchFault { pc })? as u16;
    if low & 0b11 != 0b11 {
        match decode_compressed(low) {
            Ok(i) => Ok((i, 2)),
            Err(e) => Err(SimError::IllegalInstruction { word: e.word(), pc }),
        }
    } else {
        let high = cpu
            .mem()
            .load(pc + 2, 2)
            .map_err(|_| SimError::FetchFault { pc })? as u16;
        let word = (low as u32) | ((high as u32) << 16);
        match decode(word) {
            Ok(i) => Ok((i, 4)),
            Err(_) => Err(SimError::IllegalInstruction { word, pc }),
        }
    }
}

/// A word biased across the interesting encodings: valid 32-bit
/// instructions, valid compressed pairs, and raw garbage.
fn arbitrary_word(rng: &mut Rng) -> u32 {
    match rng.below(4) {
        // Valid full-width instruction.
        0 => encode(&Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::new(rng.below(32) as u8),
            rs1: XReg::new(rng.below(32) as u8),
            imm: rng.range_i32(-2048, 2048),
        }),
        // Two halves with compressed-looking opcodes (low bits != 0b11).
        1 => rng.u32() & !0b11 & !(0b11 << 16),
        // Force a 32-bit-encoding prefix with random payload.
        2 => rng.u32() | 0b11,
        _ => rng.u32(),
    }
}

/// Arbitrary code bytes: the fast path must agree with the reference on
/// every even (and odd) pc, on the first fetch (miss/lazy-fill) and the
/// second (hit).
#[test]
fn fetch_matches_fresh_decode_on_arbitrary_words() {
    prop::cases(
        "fetch_matches_fresh_decode_on_arbitrary_words",
        512,
        |rng| {
            let mut cpu = Cpu::new(SimConfig {
                mem_size: 1 << 20,
                ..SimConfig::default()
            });
            // Establish a code window, then rewrite it through write_data
            // so the invalidation and lazy refill paths get exercised too.
            let filler = vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(1),
                    rs1: XReg::new(1),
                    imm: 1
                };
                16
            ];
            cpu.load_program(BASE, &filler);
            let words: Vec<u32> = (0..16).map(|_| arbitrary_word(rng)).collect();
            for (i, w) in words.iter().enumerate() {
                cpu.write_data(BASE + 4 * i as u32, &w.to_le_bytes());
            }
            for _ in 0..48 {
                // Even and odd pcs, inside and slightly outside the window.
                let pc = BASE.wrapping_add(rng.below(72) as u32).wrapping_sub(4);
                cpu.set_pc(pc);
                let want = reference(&cpu, pc);
                let first = cpu.peek_decoded();
                let second = cpu.peek_decoded();
                assert_eq!(first, want, "first fetch at {pc:#x} (miss path)");
                assert_eq!(second, want, "second fetch at {pc:#x} (hit path)");
            }
        },
    );
}

/// Slots fill lazily, from either tier: at every half-word boundary
/// (mid-instruction pcs included) the window agrees with a fresh
/// `decode_at`, both before and after a block run that lowered over the
/// same window — whether the fetches or the lowering filled it first.
#[test]
fn lazy_fill_agrees_everywhere() {
    prop::cases("lazy_fill_agrees_everywhere", 256, |rng| {
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        let mut program: Vec<Instr> = (0..12)
            .map(|_| Instr::OpImm {
                op: rng.pick(&[AluOp::Add, AluOp::Xor, AluOp::And, AluOp::Sltu]),
                rd: XReg::new(rng.below(32) as u8),
                rs1: XReg::new(rng.below(32) as u8),
                imm: rng.range_i32(-2048, 2048),
            })
            .collect();
        program.push(Instr::Ecall);
        let check_all = |cpu: &mut Cpu, when: &str| {
            for half in 0..(program.len() as u32 * 2) {
                let pc = BASE + half * 2;
                cpu.set_pc(pc);
                assert_eq!(cpu.peek_decoded(), cpu.decode_at(pc), "pc {pc:#x} {when}");
            }
        };
        for fetch_first in [true, false] {
            cpu.load_program(BASE, &program);
            if fetch_first {
                check_all(&mut cpu, "before the run");
                cpu.set_pc(BASE);
            }
            assert_eq!(cpu.run(100), Ok(ExitReason::Ecall));
            assert!(
                cpu.hot_blocks(1).first().is_some_and(|b| b.leader == BASE),
                "the run lowered a block over the window"
            );
            check_all(&mut cpu, "after the run");
        }
    });
}

/// A leader whose bytes do not decode traps, and lowering there is
/// declined. Making it decodable — through `write_data`, or through a
/// simulated store — must clear that verdict: the next run executes the
/// new instruction as a block led by that pc.
#[test]
fn declined_leader_retries_after_invalidation() {
    let a0 = XReg::new(10);
    let new_word = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    let illegal = 0xffff_ffffu32;
    for by_store in [false, true] {
        // Five setup words that store `new_word` over the victim (run only
        // in the store case), the victim, then ecall.
        let victim = BASE + 5 * 4;
        let mut program = store_word_program(victim, new_word);
        program.push(Instr::Ecall); // victim, overwritten below
        program.push(Instr::Ecall);
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        cpu.load_program(BASE, &program);
        cpu.write_data(victim, &illegal.to_le_bytes());
        assert!(cpu.decode_at(victim).is_err(), "the victim must not decode");

        cpu.set_pc(victim);
        assert_eq!(
            cpu.run(100),
            Err(SimError::IllegalInstruction {
                word: illegal,
                pc: victim
            }),
            "by_store={by_store}"
        );

        if by_store {
            cpu.set_pc(BASE);
        } else {
            cpu.write_data(victim, &new_word.to_le_bytes());
        }
        assert_eq!(cpu.run(100), Ok(ExitReason::Ecall), "by_store={by_store}");
        assert_eq!(
            cpu.xreg(a0),
            7,
            "the new instruction ran (by_store={by_store})"
        );
        assert!(
            cpu.hot_blocks(usize::MAX)
                .iter()
                .any(|b| b.leader == victim && b.execs > 0),
            "a block led by the once-declined pc ran (by_store={by_store})"
        );
    }
}

fn store_word_program(target: u32, word: u32) -> Vec<Instr> {
    // t0 = word; t1 = target; sw t0, 0(t1)
    let (t0, t1) = (XReg::new(5), XReg::new(6));
    vec![
        Instr::Lui {
            rd: t0,
            imm20: ((word.wrapping_add(0x800)) >> 12) as i32,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: t0,
            rs1: t0,
            imm: ((word & 0xfff) as i32) << 20 >> 20,
        },
        Instr::Lui {
            rd: t1,
            imm20: ((target.wrapping_add(0x800)) >> 12) as i32,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: t1,
            rs1: t1,
            imm: ((target & 0xfff) as i32) << 20 >> 20,
        },
        Instr::Store {
            width: MemWidth::W,
            rs2: t0,
            rs1: t1,
            offset: 0,
        },
    ]
}

/// A program that overwrites its own upcoming instruction executes the
/// *new* instruction: executed stores invalidate decoded slots.
#[test]
fn self_modifying_store_executes_new_code() {
    let a0 = XReg::new(10);
    let new_word = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    // Layout: 5 setup instructions, then the victim, then ecall.
    let target = BASE + 5 * 4;
    let mut program = store_word_program(target, new_word);
    program.push(Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 1,
    }); // victim
    program.push(Instr::Ecall);
    let mut cpu = Cpu::new(SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    });
    cpu.load_program(BASE, &program);
    cpu.run(100).expect("runs to ecall");
    assert_eq!(
        cpu.xreg(a0),
        7,
        "the stored instruction must execute, not the stale one"
    );
}

/// A half-word store two bytes *into* a 32-bit instruction also
/// invalidates it (the slot starts before the stored range).
#[test]
fn halfword_store_into_upper_half_invalidates_spanning_instr() {
    let a0 = XReg::new(10);
    let old = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 1,
    });
    let new = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    assert_eq!(
        old & 0xffff,
        new & 0xffff,
        "these encodings differ only in the upper half"
    );
    let target = BASE + 5 * 4;
    // Store only the upper half of the new encoding at target + 2.
    let (t0, t1) = (XReg::new(5), XReg::new(6));
    let upper = new >> 16;
    let program = vec![
        Instr::Lui {
            rd: t0,
            imm20: ((upper.wrapping_add(0x800)) >> 12) as i32,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: t0,
            rs1: t0,
            imm: ((upper & 0xfff) as i32) << 20 >> 20,
        },
        Instr::Lui {
            rd: t1,
            imm20: (((target + 2).wrapping_add(0x800)) >> 12) as i32,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: t1,
            rs1: t1,
            imm: (((target + 2) & 0xfff) as i32) << 20 >> 20,
        },
        Instr::Store {
            width: MemWidth::H,
            rs2: t0,
            rs1: t1,
            offset: 0,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        }, // victim at `target`
        Instr::Ecall,
    ];
    let mut cpu = Cpu::new(SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    });
    cpu.load_program(BASE, &program);
    assert_eq!(cpu.mem().load(target, 4).unwrap(), old);
    cpu.run(100).expect("runs to ecall");
    assert_eq!(cpu.mem().load(target, 4).unwrap(), new);
    assert_eq!(cpu.xreg(a0), 7, "the patched upper half must take effect");
}

/// A word store whose four bytes end exactly at the code window end —
/// covering the *last* half-word slot — must invalidate that slot.
/// This pins the `hi == win_end` boundary of the window's invalidation (the last
/// slot is indexed through `hi - 1`; an off-by-one would leave it stale),
/// on both the block-dispatch and the per-instruction paths.
#[test]
fn word_store_covering_last_window_slot_invalidates() {
    let a0 = XReg::new(10);
    let new = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    for blocks in [true, false] {
        // Five setup words, then the victim as the *final* word of the
        // window, patched in place by the executed store.
        let target = BASE + 5 * 4;
        let mut program = store_word_program(target, new);
        program.push(Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        }); // victim, occupying the window's last two slots
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        cpu.set_block_cache(blocks);
        cpu.load_program(BASE, &program);
        let win_end = BASE + program.len() as u32 * 4;
        // After the (patched) victim the pc falls off the window onto
        // zeroed memory, which decodes as an illegal compressed word.
        let err = cpu.run(100).expect_err("falls off the window end");
        assert_eq!(
            err,
            SimError::IllegalInstruction {
                word: 0,
                pc: win_end
            },
            "blocks={blocks}"
        );
        assert_eq!(
            cpu.xreg(a0),
            7,
            "stale final slot must not execute (blocks={blocks})"
        );
    }
}

/// The window's last slot may cache an instruction that *spans* two bytes
/// past the window end (decode reads straight from memory, not from the
/// window). A word store entirely outside the window that rewrites those
/// spanned bytes must still drop the slot — the backward −2 extension of
/// the window's invalidation reaches it even though `addr ≥ win_end`.
#[test]
fn store_past_window_end_invalidates_spanning_last_slot() {
    let a0 = XReg::new(10);
    let old = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 1,
    });
    let new = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    assert_eq!(
        old & 0xffff,
        new & 0xffff,
        "these encodings differ only in the upper half"
    );
    for blocks in [true, false] {
        // Window: 4 setup words, the store, a jal into the last slot, and
        // one padding word (never executed) whose upper half will hold the
        // spanning instruction's low half.
        let win_end = BASE + 7 * 4;
        let mut program = store_word_program(win_end, new >> 16);
        program.push(Instr::Jal {
            rd: XReg::ZERO,
            offset: 6,
        }); // from BASE+20 into the mid-word slot at win_end-2
        program.push(Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            imm: 0,
        }); // padding
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        cpu.set_block_cache(blocks);
        cpu.load_program(BASE, &program);
        assert_eq!(win_end, BASE + program.len() as u32 * 4);
        // Plant the spanning instruction: low half in the window's last
        // slot, high half in the two bytes just past the window.
        cpu.write_data(win_end - 2, &old.to_le_bytes());
        // Warm that slot so the store has something stale to invalidate.
        cpu.set_pc(win_end - 2);
        let victim = Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        };
        assert_eq!(cpu.peek_decoded(), Ok((victim, 4)));
        cpu.set_pc(BASE);
        // The store at `win_end` patches the spanned high half to imm=7;
        // the jal then lands on the slot, which must re-decode.
        let err = cpu.run(100).expect_err("falls off past the spanning instr");
        assert_eq!(
            err,
            SimError::IllegalInstruction {
                word: 0,
                pc: win_end + 2
            },
            "blocks={blocks}"
        );
        assert_eq!(
            cpu.xreg(a0),
            7,
            "stale spanning slot must not execute (blocks={blocks})"
        );
    }
}

/// Rewriting already-decoded code through `write_data` between steps is
/// picked up by the next fetch (byte-precise invalidation).
#[test]
fn write_data_rewrites_decoded_code() {
    let a0 = XReg::new(10);
    let mut cpu = Cpu::new(SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    });
    let program = vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        },
        Instr::Ecall,
    ];
    cpu.load_program(BASE, &program);
    cpu.step().expect("first step");
    // Decode the second instruction into its slot, then patch it.
    assert_eq!(cpu.peek(), Ok(program[1]));
    let patched = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 40,
    });
    cpu.write_data(BASE + 4, &patched.to_le_bytes());
    cpu.run(10).expect("finishes");
    assert_eq!(cpu.xreg(a0), 41);
}

/// Restoring a snapshot taken *before* a self-modifying store must kill
/// the decoded slot (and any cached block) the store refilled: after
/// the restore, memory holds the OLD victim bytes again, and executing at
/// the victim address must run the old instruction — a stale slot from
/// the post-store world would run the new one.
#[test]
fn restore_before_self_modifying_store_executes_old_code() {
    let a0 = XReg::new(10);
    let new_word = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    for blocks in [true, false] {
        let target = BASE + 5 * 4;
        let mut program = store_word_program(target, new_word);
        program.push(Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        }); // victim: old says +1, the store patches it to +7
        program.push(Instr::Ecall);
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        cpu.set_block_cache(blocks);
        cpu.load_program(BASE, &program);
        let snap = cpu.snapshot();

        // First run: the store patches the victim; caches now hold +7.
        cpu.run(100).expect("first run to ecall");
        assert_eq!(cpu.xreg(a0), 7, "patched victim ran (blocks={blocks})");

        // Rewind to before the store ever executed, jump straight to the
        // victim: the restored memory says +1, and so must execution.
        cpu.restore(&snap);
        cpu.set_pc(target);
        cpu.run(2).expect("victim + ecall");
        assert_eq!(
            cpu.xreg(a0),
            1,
            "restore must invalidate the stale patched slot (blocks={blocks})"
        );
    }
}

/// The PR 3 straddle hazard across a restore boundary: the window's last
/// slot caches an instruction *spanning* two bytes past the window end.
/// The program patches those spanned bytes (killing the slot, which then
/// refills with the NEW spanning instruction). Restoring a pre-patch
/// snapshot must bring back the OLD spanning instruction — in decode
/// (`peek_decoded`) and in execution, on both engines.
#[test]
fn restore_rewinds_patched_spanning_last_slot() {
    let a0 = XReg::new(10);
    let old = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 1,
    });
    let new = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 7,
    });
    for blocks in [true, false] {
        let win_end = BASE + 7 * 4;
        let mut program = store_word_program(win_end, new >> 16);
        program.push(Instr::Jal {
            rd: XReg::ZERO,
            offset: 6,
        });
        program.push(Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            imm: 0,
        });
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        cpu.set_block_cache(blocks);
        cpu.load_program(BASE, &program);
        // Plant the OLD spanning instruction across the window end and
        // warm its slot, exactly like the non-restore straddle test.
        cpu.write_data(win_end - 2, &old.to_le_bytes());
        cpu.set_pc(win_end - 2);
        let victim = Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        };
        assert_eq!(cpu.peek_decoded(), Ok((victim, 4)));
        cpu.set_pc(BASE);
        let snap = cpu.snapshot();

        // Run: the store patches the spanned high half, the jal lands on
        // the slot, the NEW instruction executes.
        let err = cpu.run(100).expect_err("falls off past the spanning instr");
        assert_eq!(
            err,
            SimError::IllegalInstruction {
                word: 0,
                pc: win_end + 2
            },
            "blocks={blocks}"
        );
        assert_eq!(
            cpu.xreg(a0),
            7,
            "patched spanning instr ran (blocks={blocks})"
        );

        // Rewind. The spanned bytes are OLD again; the warm slot from the
        // patched world must not survive the restore.
        cpu.restore(&snap);
        cpu.set_pc(win_end - 2);
        assert_eq!(
            cpu.peek_decoded(),
            Ok((victim, 4)),
            "restored slot must re-decode the old spanning bytes (blocks={blocks})"
        );
        let err = cpu.run(100).expect_err("falls off past the spanning instr");
        assert_eq!(
            err,
            SimError::IllegalInstruction {
                word: 0,
                pc: win_end + 2
            },
            "blocks={blocks}"
        );
        assert_eq!(
            cpu.xreg(a0),
            1,
            "restore must rewind the spanning patch (blocks={blocks})"
        );
    }
}

/// Restoring across a `write_data` rewrite: a snapshot taken before the
/// rewrite, restored after it, must execute the original code.
#[test]
fn restore_rewinds_write_data_rewrite() {
    let a0 = XReg::new(10);
    let mut cpu = Cpu::new(SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    });
    let program = vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: a0,
            rs1: a0,
            imm: 1,
        },
        Instr::Ecall,
    ];
    cpu.load_program(BASE, &program);
    let snap = cpu.snapshot();
    let patched = encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 40,
    });
    cpu.write_data(BASE, &patched.to_le_bytes());
    cpu.run(10).expect("patched run");
    assert_eq!(cpu.xreg(a0), 40);
    cpu.restore(&snap);
    cpu.run(10).expect("restored run");
    assert_eq!(cpu.xreg(a0), 1, "restored code must be the original");
}

/// Misaligned pcs fault identically with a warm or cold window, and never
/// alias a neighbouring slot.
#[test]
fn odd_pc_always_faults() {
    prop::cases("odd_pc_always_faults", 128, |rng| {
        let mut cpu = Cpu::new(SimConfig {
            mem_size: 1 << 20,
            ..SimConfig::default()
        });
        let filler = vec![
            Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::new(1),
                rs1: XReg::new(1),
                imm: 1
            };
            8
        ];
        cpu.load_program(BASE, &filler);
        let pc = BASE + 1 + 2 * rng.below(16) as u32;
        cpu.set_pc(pc);
        assert_eq!(cpu.peek_decoded(), Err(SimError::FetchFault { pc }));
    });
}
