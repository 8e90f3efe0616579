//! Deterministic record-replay of simulated runs.
//!
//! [`record_run`] drives the per-instruction path ([`Cpu::step`], which
//! never dispatches a cached block) and
//! produces a [`Recording`]: one [`Record`] per retired instruction — pc,
//! the canonical re-encoding of the decoded instruction and the
//! instruction's cycle cost — plus a [`CpuSnapshot`] every `snap_every`
//! retirements. Energy is not logged: it is a function of the counters
//! the snapshots carry. The snapshots cut the run into *segments*, and
//! each segment is an independent replay unit: a second engine can
//! [`Cpu::restore`] the segment's start snapshot, run
//! exactly the segment's instruction count, and must land bit-identically
//! on the end snapshot ([`verify_segment`]). Because segments are
//! self-contained they verify in parallel, which is what the fleet
//! testrunner in `crates/bench` does across the whole kernel grid.
//!
//! When a segment diverges, [`bisect_divergence`] binary-searches
//! restore-forks down to the first retired instruction at which the two
//! engines disagree — turning "segment 7 is wrong" into "instruction
//! 23 941, `fmadd.s` at 0x0001_0a14, diverged in f registers".
//!
//! Logs serialize to a compact binary format (`SFRLOG02`, DESIGN.md §14)
//! and support the repo's bless flow: `SMALLFLOAT_BLESS=1` regenerates
//! golden logs under `tests/data/`.

use crate::cpu::{Cpu, ExitReason};
use crate::mem::read_u64;
use crate::snapshot::CpuSnapshot;
use crate::SimError;
use smallfloat_isa::encode;
use std::fmt;

/// Magic + version prefix of a serialized replay log.
const LOG_MAGIC: &[u8; 8] = b"SFRLOG02";

/// One retired instruction in a replay log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// PC the instruction retired at.
    pub pc: u32,
    /// Canonical 32-bit encoding of the decoded instruction (compressed
    /// instructions appear in their expanded canonical encoding).
    pub word: u32,
    /// Cycles this instruction cost (including memory stalls). Zero in a
    /// detail-stripped log.
    pub cycles: u32,
}

/// The retired-instruction stream of one recorded run.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ReplayLog {
    /// One entry per retired instruction, in retirement order.
    pub records: Vec<Record>,
    /// Whether per-op cycle detail is present (`false` after
    /// [`ReplayLog::strip_detail`]).
    pub detail: bool,
}

impl ReplayLog {
    /// A copy without per-op cycle detail — two thirds of the serialized
    /// size, for archives that only need the (pc, word) stream.
    pub fn strip_detail(&self) -> ReplayLog {
        ReplayLog {
            records: self
                .records
                .iter()
                .map(|r| Record {
                    pc: r.pc,
                    word: r.word,
                    cycles: 0,
                })
                .collect(),
            detail: false,
        }
    }

    /// Serialize to the compact binary format (DESIGN.md §14).
    pub fn to_bytes(&self) -> Vec<u8> {
        let per = if self.detail { 12 } else { 8 };
        let mut out = Vec::with_capacity(LOG_MAGIC.len() + 9 + self.records.len() * per);
        out.extend_from_slice(LOG_MAGIC);
        out.push(u8::from(self.detail));
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.pc.to_le_bytes());
            out.extend_from_slice(&r.word.to_le_bytes());
            if self.detail {
                out.extend_from_slice(&r.cycles.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize a [`ReplayLog::to_bytes`] image; `None` on malformed
    /// input.
    pub fn from_bytes(buf: &[u8]) -> Option<ReplayLog> {
        if buf.len() < LOG_MAGIC.len() + 1 || &buf[..LOG_MAGIC.len()] != LOG_MAGIC {
            return None;
        }
        let detail = match buf[LOG_MAGIC.len()] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let mut pos = LOG_MAGIC.len() + 1;
        let count = read_u64(buf, &mut pos)?;
        let per = if detail { 12usize } else { 8 };
        if buf.len() - pos != (count as usize).checked_mul(per)? {
            return None;
        }
        let read_u32 = |pos: &mut usize| -> u32 {
            let v = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap());
            *pos += 4;
            v
        };
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let pc = read_u32(&mut pos);
            let word = read_u32(&mut pos);
            let cycles = if detail { read_u32(&mut pos) } else { 0 };
            records.push(Record { pc, word, cycles });
        }
        Some(ReplayLog { records, detail })
    }
}

/// A recorded run: the retired-instruction log plus the snapshot chain
/// that cuts it into independently replayable segments.
#[derive(Clone, Debug)]
pub struct Recording {
    /// Per-instruction log (reference-path retirement order).
    pub log: ReplayLog,
    /// Snapshots at segment boundaries: index 0 is the pre-run state, the
    /// last is the post-run state, interior ones are `snap_every`
    /// retirements apart.
    pub snaps: Vec<CpuSnapshot>,
    /// Requested snapshot interval in retired instructions.
    pub snap_every: u64,
    /// How the recorded run ended.
    pub exit: ExitReason,
}

/// One replayable slice of a [`Recording`]: run from `start`, retire
/// [`Segment::instructions`] instructions, land exactly on `end`.
#[derive(Clone, Copy, Debug)]
pub struct Segment<'a> {
    /// Position in [`Recording::segments`] order.
    pub index: usize,
    /// State at the segment's first instruction.
    pub start: &'a CpuSnapshot,
    /// State after the segment's last instruction.
    pub end: &'a CpuSnapshot,
}

impl Segment<'_> {
    /// Retired instructions between the two snapshots.
    pub fn instructions(&self) -> u64 {
        self.end.instret() - self.start.instret()
    }
}

impl Recording {
    /// Retired instructions in the recorded run.
    pub fn instructions(&self) -> u64 {
        self.log.records.len() as u64
    }

    /// The run's replayable segments, in execution order.
    pub fn segments(&self) -> Vec<Segment<'_>> {
        self.snaps
            .windows(2)
            .enumerate()
            .map(|(index, pair)| Segment {
                index,
                start: &pair[0],
                end: &pair[1],
            })
            .collect()
    }

    /// The records belonging to `segment`, in retirement order.
    pub fn segment_records(&self, segment: &Segment<'_>) -> &[Record] {
        let base = self.snaps[0].instret();
        let lo = (segment.start.instret() - base) as usize;
        let hi = (segment.end.instret() - base) as usize;
        &self.log.records[lo..hi]
    }
}

/// Run `cpu` on the per-instruction path until exit, a trap, or
/// `max_instructions` retirements, recording every retired instruction
/// and snapshotting every `snap_every` retirements (clamped to ≥ 1).
///
/// No cached block runs — each instruction retires on its own, which
/// is what a replaying block engine is checked against. `energy_pj` is
/// derived once, when the recording ends, not after every step.
///
/// # Errors
///
/// Any [`SimError`] trap from the simulated program.
pub fn record_run(
    cpu: &mut Cpu,
    max_instructions: u64,
    snap_every: u64,
) -> Result<Recording, SimError> {
    let snap_every = snap_every.max(1);
    let mut snaps = vec![cpu.snapshot()];
    let mut records = Vec::new();
    let base_instret = cpu.stats().instret;
    let mut since_snap = 0u64;
    let mut record = || loop {
        if cpu.stats().instret - base_instret >= max_instructions {
            return Ok(ExitReason::InstructionLimit);
        }
        let pc = cpu.pc();
        let (instr, _len) = cpu.peek_decoded()?;
        let word = encode(&instr);
        let cycles_before = cpu.stats().cycles;
        let done = crate::block::step(cpu)?;
        records.push(Record {
            pc,
            word,
            cycles: (cpu.stats().cycles - cycles_before) as u32,
        });
        since_snap += 1;
        if let Some(reason) = done {
            return Ok(reason);
        }
        if since_snap == snap_every {
            snaps.push(cpu.snapshot());
            since_snap = 0;
        }
    };
    let exit: Result<ExitReason, SimError> = record();
    cpu.derive_energy();
    let exit = exit?;
    if snaps
        .last()
        .map(|s| s.instret() != cpu.stats().instret)
        .unwrap_or(true)
    {
        snaps.push(cpu.snapshot());
    }
    Ok(Recording {
        log: ReplayLog {
            records,
            detail: true,
        },
        snaps,
        snap_every,
        exit,
    })
}

/// Restore `snap` into `cpu`, run `instructions` retirements, and return
/// the resulting snapshot — the fork-and-run primitive of segment
/// verification and bisection.
///
/// # Errors
///
/// Any [`SimError`] trap during the replay.
pub fn run_fork(
    cpu: &mut Cpu,
    snap: &CpuSnapshot,
    instructions: u64,
) -> Result<CpuSnapshot, SimError> {
    cpu.restore(snap);
    if instructions > 0 {
        cpu.run(instructions)?;
    }
    Ok(cpu.snapshot())
}

/// The outcome of replaying one segment on an engine.
#[derive(Clone, Debug)]
pub enum SegmentOutcome {
    /// The engine landed bit-identically on the segment's end snapshot.
    Match,
    /// The engine's end state differs from the recording.
    Diverged(Divergence),
    /// The engine trapped mid-segment where the recording did not.
    Trapped(SimError),
}

impl SegmentOutcome {
    /// `true` for [`SegmentOutcome::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, SegmentOutcome::Match)
    }
}

/// A located replay divergence.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Segment index within the recording.
    pub segment: usize,
    /// Which state component differed at the segment end (first of pc,
    /// registers, fcsr, stats, memory).
    pub component: &'static str,
    /// Absolute retired-instruction number (1-based within the whole
    /// recording) of the first instruction after which the engines
    /// disagree, when bisection ran; `None` for an unbisected divergence.
    pub first_bad_instret: Option<u64>,
    /// The log record of the first diverging instruction, if available.
    pub record: Option<Record>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment {} diverged in {}", self.segment, self.component)?;
        if let Some(n) = self.first_bad_instret {
            write!(f, " at retired instruction {n}")?;
        }
        if let Some(r) = &self.record {
            write!(f, " (pc 0x{:08x}, word 0x{:08x})", r.pc, r.word)?;
        }
        Ok(())
    }
}

/// Replay `segment` on `engine` (restore → run → snapshot) and compare
/// the landing state bit-for-bit against the recording.
pub fn verify_segment(engine: &mut Cpu, segment: &Segment<'_>) -> SegmentOutcome {
    let got = match run_fork(engine, segment.start, segment.instructions()) {
        Ok(s) => s,
        Err(e) => return SegmentOutcome::Trapped(e),
    };
    match got.first_difference(segment.end) {
        None => SegmentOutcome::Match,
        Some(component) => SegmentOutcome::Diverged(Divergence {
            segment: segment.index,
            component,
            first_bad_instret: None,
            record: None,
        }),
    }
}

/// Binary-search the first point of disagreement between two engines over
/// `instructions` retirements from a common start state.
///
/// `reference(m)` and `engine(m)` must each return the state after `m`
/// retirements from the segment start (typically via [`run_fork`] — each
/// probe is a cheap snapshot fork, which is the whole point). Requires the
/// divergence to be *persistent*: once the states differ at `m`, they
/// differ at every later point. Returns the 1-based retirement count (from
/// the segment start) of the first instruction after which the states
/// differ, or `None` if they agree at `instructions`.
pub fn bisect_divergence(
    instructions: u64,
    mut reference: impl FnMut(u64) -> CpuSnapshot,
    mut engine: impl FnMut(u64) -> CpuSnapshot,
) -> Option<u64> {
    if reference(instructions).state_eq(&engine(instructions)) {
        return None;
    }
    // Invariant: equal after `lo` retirements, different after `hi`.
    let (mut lo, mut hi) = (0u64, instructions);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reference(mid).state_eq(&engine(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// [`verify_segment`], bisecting any divergence down to the exact retired
/// instruction. `reference` must be a block-cache-free engine (the
/// recording's semantics); `engine` is the one under test. Both are used
/// as fork scratchpads and end in an unspecified state.
pub fn verify_segment_bisecting(
    recording: &Recording,
    segment: &Segment<'_>,
    reference: &mut Cpu,
    engine: &mut Cpu,
) -> SegmentOutcome {
    let outcome = verify_segment(engine, segment);
    let SegmentOutcome::Diverged(mut div) = outcome else {
        return outcome;
    };
    let first = bisect_divergence(
        segment.instructions(),
        |m| run_fork(reference, segment.start, m).expect("reference replay trapped"),
        |m| run_fork(engine, segment.start, m).expect("engine replay trapped"),
    );
    if let Some(offset) = first {
        let absolute = segment.start.instret() - recording.snaps[0].instret() + offset;
        div.record = recording.log.records.get((absolute - 1) as usize).copied();
        div.first_bad_instret = Some(absolute);
    }
    SegmentOutcome::Diverged(div)
}
