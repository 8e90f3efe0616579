//! Property tests for `Cpu::snapshot`/`Cpu::restore`: any reachable CPU
//! state — random register files, `fcsr`, scattered memory pages, and
//! statistics accrued by real execution — must survive
//! snapshot → serialize → deserialize → restore **bit-identically**, and
//! the restored machine must execute exactly like the original from there
//! on. Energy is not part of a snapshot: the restoring engine derives it
//! from the counters under its own energy model.

use smallfloat_asm::Assembler;
use smallfloat_devtools::{prop, Rng};
use smallfloat_isa::{FReg, FpFmt, XReg};
use smallfloat_sim::{Cpu, CpuSnapshot, EnergyModel, MemLevel, SimConfig, SnapshotError};
use smallfloat_softfp::{Flags, Rounding};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;
const MEM: usize = 1 << 20;

fn config() -> SimConfig {
    SimConfig {
        mem_size: MEM,
        ..SimConfig::default()
    }
}

/// A small program mixing integer control flow, scalar/SIMD smallFloat
/// arithmetic and memory traffic — enough to accrue every kind of
/// statistic (cycles, per-class counts, energy, fflags).
fn program(iters: i32) -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, t0, ptr) = (XReg::s(0), XReg::t(0), XReg::t(1));
    let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(t0, 0x3c00); // 1.0 binary16
    asm.fmv_f(FpFmt::H, f0, t0);
    asm.fmv_f(FpFmt::H, f1, t0);
    asm.li(t0, 0x3c003c00u32 as i32);
    asm.fmv_f(FpFmt::S, f2, t0);
    asm.la(ptr, DATA);
    asm.li(i, iters);
    asm.label("loop");
    asm.fmadd(FpFmt::H, f1, f0, f1, f1);
    asm.vfmac(FpFmt::H, f2, f2, f2);
    asm.fstore(FpFmt::S, f2, ptr, 0);
    asm.lw(t0, ptr, 0);
    asm.addi(ptr, ptr, 4);
    asm.addi(i, i, -1);
    asm.bnez("loop", i);
    asm.ecall();
    asm.assemble().expect("fixed program assembles")
}

/// Build a CPU in a random reachable state: scrambled registers and
/// `fcsr`, writes scattered across memory pages, then a random number of
/// executed instructions so stats/energy/fflags hold real accrued values.
fn random_cpu(rng: &mut Rng) -> Cpu {
    let mut cpu = Cpu::new(config());
    for r in 1..32u8 {
        cpu.set_xreg(XReg::new(r), rng.u32());
    }
    for r in 0..32u8 {
        cpu.set_freg(FReg::new(r), rng.u32());
    }
    cpu.set_frm(rng.pick(&Rounding::ALL));
    cpu.set_fflags(Flags::from_bits(rng.below(32) as u8));
    for _ in 0..rng.below(8) {
        let addr = rng.below((MEM - 4) as u64) as u32;
        cpu.write_data(addr, &rng.u32().to_le_bytes());
    }
    let prog = program(1 + rng.below(6) as i32);
    cpu.load_program(TEXT, &prog);
    for _ in 0..rng.below(40) {
        // Stop *before* the final ecall retires: the continuation tests run
        // further from this state, and stepping past program exit would
        // fall off the end of the text section.
        if matches!(cpu.peek_decoded(), Ok((smallfloat_isa::Instr::Ecall, _))) {
            break;
        }
        cpu.step().expect("program must not trap");
    }
    cpu
}

fn assert_state_eq(label: &str, a: &CpuSnapshot, b: &CpuSnapshot) {
    assert!(
        a.state_eq(b),
        "{label}: snapshots differ in {}",
        a.first_difference(b).unwrap_or("nothing?!")
    );
}

/// snapshot → to_bytes → from_bytes → restore into a *fresh* CPU must be
/// bit-identical: registers, pc, fcsr, stats counters, memory — and the
/// fresh CPU reports the same energy as the original.
#[test]
fn snapshot_roundtrips_through_serialization() {
    prop::cases("snapshot_roundtrips_through_serialization", 64, |rng| {
        let cpu = random_cpu(rng);
        let snap = cpu.snapshot();
        let bytes = snap.to_bytes();
        let parsed = CpuSnapshot::from_bytes(&bytes).expect("own serialization parses");
        assert_state_eq("serialize/deserialize", &snap, &parsed);
        assert_eq!(snap.instret(), parsed.instret());

        let mut fresh = Cpu::new(config());
        fresh.restore(&parsed);
        assert_state_eq("restore into fresh cpu", &snap, &fresh.snapshot());
        assert_eq!(fresh.stats(), cpu.stats(), "restored stats incl. energy");
    });
}

/// The restored machine is not just state-identical but *behaviorally*
/// identical: original and restored copies execute the remainder of the
/// program in lockstep, landing on equal snapshots — on both engines
/// (restored CPU runs with the block cache, the original stepwise).
#[test]
fn restored_cpu_executes_identically() {
    prop::cases("restored_cpu_executes_identically", 32, |rng| {
        let mut original = random_cpu(rng);
        let snap = original.snapshot();
        let mut restored = Cpu::new(config());
        restored.restore(&snap);

        let steps = 1 + rng.below(60);
        let a = original.run(steps).expect("original continues");
        let b = restored.run(steps).expect("restored continues");
        assert_eq!(a, b, "exit reasons");
        assert_state_eq(
            "lockstep continuation",
            &original.snapshot(),
            &restored.snapshot(),
        );
    });
}

/// Post-snapshot execution must never leak into a held snapshot (the
/// copy-on-write guarantee at the whole-CPU level): run past the
/// snapshot, restore, and the machine is exactly back.
#[test]
fn restore_rewinds_divergent_execution() {
    prop::cases("restore_rewinds_divergent_execution", 32, |rng| {
        let mut cpu = random_cpu(rng);
        let snap = cpu.snapshot();
        // Run ahead — this dirties memory pages shared with `snap`.
        let _ = cpu.run(1 + rng.below(100)).expect("runs");
        cpu.restore(&snap);
        assert_state_eq("rewind", &snap, &cpu.snapshot());
    });
}

/// Malformed images are rejected, never mis-parsed: truncation at any
/// point and magic corruption both error.
#[test]
fn corrupted_images_are_rejected() {
    prop::cases("corrupted_images_are_rejected", 32, |rng| {
        let cpu = random_cpu(rng);
        let bytes = cpu.snapshot().to_bytes();

        let cut = rng.below(bytes.len() as u64) as usize;
        match CpuSnapshot::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut}/{} bytes must not parse", bytes.len()),
        }

        let mut magic = bytes.clone();
        magic[rng.below(8) as usize] ^= 0xff;
        assert_eq!(
            CpuSnapshot::from_bytes(&magic).err(),
            Some(SnapshotError::BadMagic)
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            CpuSnapshot::from_bytes(&trailing).err(),
            Some(SnapshotError::Truncated),
            "trailing garbage must be rejected"
        );
    });
}

/// Energy follows the engine, not the snapshot: counters accrued at L1 and
/// restored into an engine configured for L3 report the L3 model's energy
/// for those counters.
#[test]
fn restore_derives_energy_under_the_restoring_engine() {
    let at = |mem_level| SimConfig {
        mem_level,
        ..config()
    };
    let mut l1 = Cpu::new(at(MemLevel::L1));
    l1.load_program(TEXT, &program(4));
    l1.run(1_000).expect("program runs");
    let snap = l1.snapshot();
    assert_eq!(snap.stats().energy_pj, 0.0, "counters only");

    let mut l3 = Cpu::new(at(MemLevel::L3));
    l3.restore(&CpuSnapshot::from_bytes(&snap.to_bytes()).expect("parses"));
    let model = EnergyModel::umc65();
    let want = model.energy_pj(snap.stats(), MemLevel::L3);
    assert_eq!(l3.stats().energy_pj.to_bits(), want.to_bits());
    assert_eq!(l3.snapshot().stats(), snap.stats(), "counters as captured");
    assert_eq!(
        l1.stats().energy_pj.to_bits(),
        model.energy_pj(snap.stats(), MemLevel::L1).to_bits()
    );
    assert!(
        l3.stats().energy_pj > l1.stats().energy_pj,
        "L3 accesses cost more"
    );
}
