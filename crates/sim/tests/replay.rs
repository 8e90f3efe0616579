//! Record-replay gates at the simulator level: determinism of the
//! recording itself, bit-identical segment replay on the block-cache
//! engine, exact bisection of a synthetic divergence, and a golden replay
//! log pinned on disk (re-bless with `SMALLFLOAT_BLESS=1 cargo test -p
//! smallfloat-sim --test replay`).

use smallfloat_asm::Assembler;
use smallfloat_devtools::prop;
use smallfloat_isa::{FReg, FpFmt, XReg};
use smallfloat_sim::replay::{bisect_divergence, record_run, run_fork, verify_segment, ReplayLog};
use smallfloat_sim::{Cpu, ExitReason, SimConfig};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x8000;

fn config() -> SimConfig {
    SimConfig {
        mem_size: 1 << 20,
        ..SimConfig::default()
    }
}

/// A loop mixing integer control flow, scalar and SIMD binary16 math and
/// memory traffic — long enough to span several snapshot segments.
fn program(iters: i32) -> Vec<smallfloat_isa::Instr> {
    let mut asm = Assembler::new();
    let (i, t0, ptr) = (XReg::s(0), XReg::t(0), XReg::t(1));
    let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));
    asm.li(t0, 0x3c00);
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

fn record(iters: i32, snap_every: u64) -> smallfloat_sim::replay::Recording {
    let mut cpu = Cpu::new(config());
    cpu.set_block_cache(false);
    cpu.load_program(TEXT, &program(iters));
    record_run(&mut cpu, 1_000_000, snap_every).expect("recording must not trap")
}

/// Two back-to-back recordings of the same program are byte-identical:
/// same serialized log, pairwise bit-identical snapshots.
#[test]
fn recording_is_deterministic() {
    let a = record(40, 64);
    let b = record(40, 64);
    assert_eq!(a.exit, ExitReason::Ecall);
    assert_eq!(a.log, b.log);
    assert_eq!(a.log.to_bytes(), b.log.to_bytes());
    assert_eq!(a.snaps.len(), b.snaps.len());
    for (i, (sa, sb)) in a.snaps.iter().zip(&b.snaps).enumerate() {
        assert!(
            sa.state_eq(sb),
            "snapshot {i} differs in {}",
            sa.first_difference(sb).unwrap_or("nothing?!")
        );
    }
}

/// Every segment, replayed on the block-cache engine from its start
/// snapshot, lands bit-identically on its end snapshot — and the segment
/// record slices tile the whole log.
#[test]
fn segments_replay_bit_identically_on_block_engine() {
    let recording = record(60, 100);
    let segments = recording.segments();
    assert!(
        segments.len() > 3,
        "want several segments, got {}",
        segments.len()
    );
    let mut engine = Cpu::new(config());
    assert!(engine.block_cache_enabled());
    let mut tiled = 0u64;
    for seg in &segments {
        let outcome = verify_segment(&mut engine, seg);
        assert!(outcome.is_match(), "segment {}: {outcome:?}", seg.index);
        tiled += recording.segment_records(seg).len() as u64;
    }
    assert_eq!(
        tiled,
        recording.instructions(),
        "segments must tile the log"
    );
}

/// The serialized log round-trips, and stripping detail shrinks it while
/// preserving the (pc, word) stream.
#[test]
fn log_roundtrips_and_strips() {
    let recording = record(10, 1_000);
    let log = &recording.log;
    assert!(log.detail);
    let bytes = log.to_bytes();
    let parsed = ReplayLog::from_bytes(&bytes).expect("own serialization parses");
    assert_eq!(&parsed, log);

    let stripped = log.strip_detail();
    let sbytes = stripped.to_bytes();
    assert!(sbytes.len() < bytes.len());
    let sparsed = ReplayLog::from_bytes(&sbytes).expect("stripped log parses");
    assert_eq!(sparsed, stripped);
    for (a, b) in log.records.iter().zip(&sparsed.records) {
        assert_eq!((a.pc, a.word), (b.pc, b.word));
    }
    assert!(ReplayLog::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    assert!(ReplayLog::from_bytes(b"not a log").is_none());
}

/// A synthetic divergence — a register corrupted after a known retirement
/// on one of two otherwise identical forks — is bisected to *exactly*
/// that retirement. `x31` is never written by the program, so the
/// corruption persists (the bisection's monotonicity precondition).
#[test]
fn bisection_finds_the_exact_faulted_instruction() {
    let recording = record(60, 1_000_000); // one big segment
    let segments = recording.segments();
    let seg = &segments[0];
    let n = seg.instructions();
    assert!(n > 50);

    for fault_at in [1, 17, n / 2, n - 1, n] {
        let mut reference = Cpu::new(config());
        reference.set_block_cache(false);
        let mut engine = Cpu::new(config());
        let found = bisect_divergence(
            n,
            |m| run_fork(&mut reference, seg.start, m).expect("reference fork"),
            |m| {
                // Faulted engine: corrupt x31 right after `fault_at`
                // retirements, then continue on the block path.
                engine.restore(seg.start);
                let pre = fault_at.min(m);
                if pre > 0 {
                    engine.run(pre).expect("engine fork");
                }
                if m >= fault_at {
                    let r = XReg::new(31);
                    engine.set_xreg(r, engine.xreg(r) ^ 0x5a5a_5a5a);
                }
                if m > pre {
                    engine.run(m - pre).expect("engine fork");
                }
                engine.snapshot()
            },
        );
        assert_eq!(found, Some(fault_at), "fault injected after {fault_at}");
    }

    // No fault → no divergence reported.
    let mut reference = Cpu::new(config());
    reference.set_block_cache(false);
    let mut engine = Cpu::new(config());
    let clean = bisect_divergence(
        n,
        |m| run_fork(&mut reference, seg.start, m).expect("reference fork"),
        |m| run_fork(&mut engine, seg.start, m).expect("engine fork"),
    );
    assert_eq!(clean, None);
}

/// The replay log of a fixed program is pinned byte-for-byte on disk:
/// any change to decode, canonical encoding or timing shows up as a
/// golden-file diff.
#[test]
fn replay_log_matches_golden_file() {
    let recording = record(3, 50);
    assert_eq!(recording.exit, ExitReason::Ecall);
    let bytes = recording.log.to_bytes();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/replay_log.bin");
    if smallfloat_sim::env::bless() {
        std::fs::write(path, &bytes).expect("write blessed replay log");
        return;
    }
    let want = std::fs::read(path)
        .expect("golden replay log missing; run with SMALLFLOAT_BLESS=1 to create it");
    if bytes != want {
        let got = ReplayLog::from_bytes(&bytes).expect("own log parses");
        let old = ReplayLog::from_bytes(&want).expect("golden log parses");
        let first = got
            .records
            .iter()
            .zip(&old.records)
            .position(|(a, b)| a != b);
        panic!(
            "replay log diverged from {path}: {} vs {} records, first differing record {first:?}",
            got.records.len(),
            old.records.len()
        );
    }
}

/// Malformed `SFRLOG02` images are rejected, never mis-parsed and never a
/// panic: truncation at every point, a corrupted magic, a detail byte
/// other than 0/1, a record count that disagrees with the payload, and
/// trailing bytes all give `None`.
#[test]
fn corrupted_logs_are_rejected() {
    prop::cases("corrupted_logs_are_rejected", 16, |rng| {
        let recording = record(1 + rng.below(4) as i32, 1_000);
        let log = if rng.below(2) == 0 {
            recording.log
        } else {
            recording.log.strip_detail()
        };
        let bytes = log.to_bytes();
        assert_eq!(ReplayLog::from_bytes(&bytes).as_ref(), Some(&log));

        for cut in 0..bytes.len() {
            assert!(
                ReplayLog::from_bytes(&bytes[..cut]).is_none(),
                "truncation to {cut}/{} bytes must not parse",
                bytes.len()
            );
        }

        let mut magic = bytes.clone();
        magic[rng.below(8) as usize] ^= 1 << rng.below(8);
        assert!(ReplayLog::from_bytes(&magic).is_none(), "bad magic");

        let mut detail = bytes.clone();
        detail[8] = 2 + rng.below(254) as u8;
        assert!(ReplayLog::from_bytes(&detail).is_none(), "detail byte");

        let mut count = bytes.clone();
        let n = match rng.below(3) {
            0 => log.records.len() as u64 + 1 + rng.below(8),
            1 => u64::MAX - rng.below(8),
            _ => rng.below(log.records.len() as u64),
        };
        count[9..17].copy_from_slice(&n.to_le_bytes());
        assert!(ReplayLog::from_bytes(&count).is_none(), "count {n}");

        let mut trailing = bytes.clone();
        trailing.extend((0..1 + rng.below(24)).map(|_| rng.u32() as u8));
        assert!(ReplayLog::from_bytes(&trailing).is_none(), "trailing bytes");
    });
}
