//! Serializable point-in-time CPU snapshots.
//!
//! A [`CpuSnapshot`] captures everything `Cpu::run` can observe or modify:
//! the architectural state (integer/FP register files, pc, `fcsr`), the
//! statistics counters (cycles, instret, per-class counts and cycles), the
//! code-window geometry, and memory as a shared copy-on-write page
//! table (see `mem.rs`). Taking one is O(registers +
//! pages) — no memory data is copied — so harnesses can snapshot every few
//! thousand instructions and fork any snapshot into an independent replay
//! (`replay.rs`) far cheaper than re-running from reset.
//!
//! Energy is not machine state: it is the restoring engine's energy model
//! applied to the counters, so a snapshot holds `energy_pj` as zero and
//! [`Cpu::restore`] derives it. Snapshots serialize to a compact binary
//! image (`to_bytes`/`from_bytes`; layout in DESIGN.md §14) in which only
//! non-zero memory pages are written.

use crate::cpu::Cpu;
use crate::mem::{read_u64, MemSnapshot};
use crate::stats::Stats;
use smallfloat_isa::InstrClass;
use smallfloat_softfp::Flags;
use std::fmt;

/// Magic + version prefix of a serialized snapshot.
const MAGIC: &[u8; 8] = b"SFSNAP02";

/// A point-in-time copy of a [`Cpu`]'s executable state.
///
/// Cheap to take and to hold: memory pages are shared copy-on-write with
/// the live CPU and with every other snapshot of the same lineage.
/// `Send + Sync`, so a fleet can fan snapshots out across host threads.
#[derive(Clone)]
pub struct CpuSnapshot {
    pub(crate) x: [u32; 32],
    pub(crate) f: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) frm_raw: u8,
    pub(crate) fflags: Flags,
    pub(crate) stats: Stats,
    /// Code-window geometry: `Cpu::restore` keeps the live window when it
    /// covers the same bytes, and otherwise starts a fresh one over this
    /// range.
    pub(crate) code_base: u32,
    pub(crate) code_len_bytes: u32,
    pub(crate) mem: MemSnapshot,
}

impl fmt::Debug for CpuSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CpuSnapshot {{ pc: 0x{:08x}, instret: {}, mem: {} bytes }}",
            self.pc,
            self.stats.instret,
            self.mem.size()
        )
    }
}

/// Why [`CpuSnapshot::from_bytes`] rejected an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing/wrong magic or version prefix.
    BadMagic,
    /// The image ended early or a field failed validation.
    Truncated,
    /// The per-class counter table length does not match this build's
    /// [`InstrClass`] set.
    ClassCountMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a smallfloat snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot image truncated or malformed"),
            SnapshotError::ClassCountMismatch => {
                write!(
                    f,
                    "snapshot instruction-class table does not match this build"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl CpuSnapshot {
    /// Retired-instruction count at the moment the snapshot was taken.
    pub fn instret(&self) -> u64 {
        self.stats.instret
    }

    /// The captured program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The captured counters. `energy_pj` is always zero: energy depends
    /// on the energy model of the engine that restores the snapshot.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Captured memory image.
    pub fn mem(&self) -> &MemSnapshot {
        &self.mem
    }

    /// Full-state equality: registers, pc, `fcsr`, statistics counters and
    /// the whole memory image. This is the
    /// divergence predicate of the replay testrunner — two engines that
    /// agree here are indistinguishable to any later execution.
    pub fn state_eq(&self, other: &CpuSnapshot) -> bool {
        self.x == other.x
            && self.f == other.f
            && self.pc == other.pc
            && self.frm_raw == other.frm_raw
            && self.fflags == other.fflags
            && self.stats == other.stats
            && self.mem.bytes_eq(&other.mem)
    }

    /// First state component that differs from `other`, as a short label
    /// (`None` when [`CpuSnapshot::state_eq`]). Diagnostics for divergence
    /// reports.
    pub fn first_difference(&self, other: &CpuSnapshot) -> Option<&'static str> {
        if self.pc != other.pc {
            return Some("pc");
        }
        if self.x != other.x {
            return Some("x registers");
        }
        if self.f != other.f {
            return Some("f registers");
        }
        if self.frm_raw != other.frm_raw || self.fflags != other.fflags {
            return Some("fcsr");
        }
        if self.stats != other.stats {
            return Some("stats");
        }
        if !self.mem.bytes_eq(&other.mem) {
            return Some("memory");
        }
        None
    }

    /// Serialize to the compact binary image (DESIGN.md §14).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        for v in self.x.iter().chain(self.f.iter()) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.pc.to_le_bytes());
        out.push(self.frm_raw);
        out.push(self.fflags.bits());
        out.extend_from_slice(&self.code_base.to_le_bytes());
        out.extend_from_slice(&self.code_len_bytes.to_le_bytes());
        out.extend_from_slice(&self.stats.cycles.to_le_bytes());
        out.extend_from_slice(&self.stats.instret.to_le_bytes());
        out.extend_from_slice(&(InstrClass::ALL.len() as u64).to_le_bytes());
        for v in self
            .stats
            .counts
            .iter()
            .chain(self.stats.cycles_by_class.iter())
        {
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.mem.write_to(&mut out);
        out
    }

    /// Deserialize a [`CpuSnapshot::to_bytes`] image.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<CpuSnapshot, SnapshotError> {
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let read_u32 = |pos: &mut usize| -> Result<u32, SnapshotError> {
            let bytes = buf.get(*pos..*pos + 4).ok_or(SnapshotError::Truncated)?;
            *pos += 4;
            Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
        };
        let mut x = [0u32; 32];
        let mut f = [0u32; 32];
        for v in x.iter_mut() {
            *v = read_u32(&mut pos)?;
        }
        for v in f.iter_mut() {
            *v = read_u32(&mut pos)?;
        }
        let pc = read_u32(&mut pos)?;
        let bytes2 = buf.get(pos..pos + 2).ok_or(SnapshotError::Truncated)?;
        let (frm_raw, fflags_bits) = (bytes2[0], bytes2[1]);
        pos += 2;
        let code_base = read_u32(&mut pos)?;
        let code_len_bytes = read_u32(&mut pos)?;
        let cycles = read_u64(buf, &mut pos).ok_or(SnapshotError::Truncated)?;
        let instret = read_u64(buf, &mut pos).ok_or(SnapshotError::Truncated)?;
        let classes = read_u64(buf, &mut pos).ok_or(SnapshotError::Truncated)? as usize;
        if classes != InstrClass::ALL.len() {
            return Err(SnapshotError::ClassCountMismatch);
        }
        let mut stats = Stats::new();
        stats.cycles = cycles;
        stats.instret = instret;
        for v in stats
            .counts
            .iter_mut()
            .chain(stats.cycles_by_class.iter_mut())
        {
            *v = read_u64(buf, &mut pos).ok_or(SnapshotError::Truncated)?;
        }
        let mem = MemSnapshot::read_from(buf, &mut pos).ok_or(SnapshotError::Truncated)?;
        if pos != buf.len() {
            return Err(SnapshotError::Truncated);
        }
        Ok(CpuSnapshot {
            x,
            f,
            pc,
            frm_raw,
            fflags: Flags::from_bits(fflags_bits),
            stats,
            code_base,
            code_len_bytes,
            mem,
        })
    }
}

impl Cpu {
    /// Capture the CPU's executable state: registers, pc, `fcsr`,
    /// statistics, code-window geometry and a copy-on-write memory
    /// snapshot. O(registers + page-table) — no memory bytes are copied;
    /// the first post-snapshot store to any shared page pays one page
    /// copy.
    pub fn snapshot(&self) -> CpuSnapshot {
        CpuSnapshot {
            x: self.x,
            f: self.f,
            pc: self.pc,
            frm_raw: self.frm_raw as u8,
            fflags: self.fflags,
            stats: Stats {
                energy_pj: 0.0,
                ..self.stats.clone()
            },
            code_base: self.blocks.base(),
            code_len_bytes: self.blocks.len_bytes(),
            mem: self.mem.snapshot(),
        }
    }

    /// Restore a snapshot taken by [`Cpu::snapshot`] (possibly on a
    /// different `Cpu`). Architectural state, counters and memory become
    /// exactly the captured ones, and `energy_pj` is derived from the
    /// counters under this engine's energy model. The live code window
    /// survives only when it covers byte-identical code (see below);
    /// otherwise a fresh, empty window starts over the captured range and
    /// every cached block is dropped, so decoded slots or lowered blocks
    /// from a different code image can never execute.
    ///
    /// The simulator configuration (timing/energy models, memory level,
    /// block-cache enablement) is engine state, not machine state: it is
    /// deliberately left as-is, which is what lets one recorded run be
    /// replayed on a differently-configured engine.
    pub fn restore(&mut self, snap: &CpuSnapshot) {
        self.x = snap.x;
        self.f = snap.f;
        self.pc = snap.pc;
        self.frm_raw = snap.frm_raw.into();
        self.fflags = snap.fflags;
        self.stats = snap.stats.clone();
        // Warm-restore probe *before* the memory swap: the live caches
        // describe the live memory, so if the snapshot's code window holds
        // the same bytes (cheap to check — code pages of a fork are still
        // pointer-shared with the snapshot), they describe the restored
        // memory too and survive. Typical for request forks off one
        // warmed image; anything else falls through to the conservative
        // rebuild.
        let keep = self.window_matches(snap.code_base, snap.code_len_bytes, &snap.mem);
        self.mem.restore(&snap.mem);
        if !keep {
            // A fresh window over the captured range decodes the restored
            // bytes on use; dropping every block is what makes restore
            // safe against self-modifying-code history.
            self.blocks.reset(snap.code_base, snap.code_len_bytes);
        }
        self.derive_energy();
    }
}
