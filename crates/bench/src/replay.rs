//! Fleet-scale differential replay testrunner.
//!
//! One grid point = one benchmark kernel at one precision and one
//! vectorization mode (the same grid as every figure driver), replayed on
//! the block micro-op cache. For each point the runner records a
//! reference execution — the per-instruction
//! interpreter path, block cache off — with a [`CpuSnapshot`] every
//! `snap_every` retirements, then replays every segment on the chosen
//! engine **in parallel** (via [`crate::par::par_map`], so
//! `SMALLFLOAT_SERIAL=1` serializes it) and requires each segment to land
//! bit-identically on its end snapshot. A diverging segment is bisected
//! by restore-forks down to the first differing retired instruction.
//!
//! The grid replays with zero divergences on a correct engine; the
//! [`FaultSpec`] hook exists to prove the harness *would* catch one — it
//! corrupts a register at a chosen retirement, and the report must name
//! exactly that instruction.

use crate::par::par_map;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::bench::{build, suite, Precision, VecMode, Workload};
use smallfloat_kernels::runner::load_workload;
use smallfloat_sim::replay::{
    bisect_divergence, record_run, run_fork, verify_segment_bisecting, Recording, SegmentOutcome,
};
use smallfloat_sim::{Cpu, CpuSnapshot, SimConfig};
use std::fmt::Write as _;

/// Default snapshot interval (retired instructions) for fleet recordings.
pub const SNAP_EVERY: u64 = 5_000;

/// Instruction cap per grid point (same as the kernels runner).
const MAX_INSTRUCTIONS: u64 = 200_000_000;

/// An intentionally injected fault: XOR `xor` into `x[xreg]` immediately
/// after the retirement numbered `after_instret` (1-based over the whole
/// recording). Testing-only: it exists so the fleet's bisection can be
/// demonstrated to locate a known-bad instruction exactly.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Fire right after this retirement (1-based recording-wide index).
    pub after_instret: u64,
    /// Integer register to corrupt. Pick one the kernel never writes
    /// (e.g. `x4`/`tp` — generated kernels do not touch it) so the
    /// corruption persists to the segment end.
    pub xreg: usize,
    /// Value XORed into the register.
    pub xor: u32,
}

impl FaultSpec {
    /// Fork from `snap` and run `m` retirements, applying the fault if its
    /// firing point falls inside the window — the faulted counterpart of
    /// [`run_fork`].
    pub fn run_fork(&self, cpu: &mut Cpu, snap: &CpuSnapshot, m: u64) -> CpuSnapshot {
        let start = snap.instret();
        if self.after_instret <= start || self.after_instret > start + m {
            return run_fork(cpu, snap, m).expect("replay trapped");
        }
        cpu.restore(snap);
        let pre = self.after_instret - start;
        if pre > 0 {
            cpu.run(pre).expect("replay trapped");
        }
        let r = smallfloat_isa::XReg::new(self.xreg as u8);
        cpu.set_xreg(r, cpu.xreg(r) ^ self.xor);
        if m > pre {
            cpu.run(m - pre).expect("replay trapped");
        }
        cpu.snapshot()
    }
}

/// Replay verdict for one grid point.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// `"GEMM float16 auto"`-style label.
    pub label: String,
    /// Retired instructions in the recording.
    pub instructions: u64,
    /// Segments replayed.
    pub segments: usize,
    /// Rendered divergence reports (empty on a clean point).
    pub divergences: Vec<String>,
    /// FNV-1a hash of the serialized replay log (determinism witness:
    /// identical runs must produce identical hashes).
    pub log_hash: u64,
}

/// Aggregate over the whole grid.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-point verdicts, in grid order.
    pub points: Vec<PointOutcome>,
}

impl FleetReport {
    /// Total retired instructions replayed.
    pub fn instructions(&self) -> u64 {
        self.points.iter().map(|p| p.instructions).sum()
    }

    /// Total segments replayed.
    pub fn segments(&self) -> usize {
        self.points.iter().map(|p| p.segments).sum()
    }

    /// All divergence reports across the grid.
    pub fn divergences(&self) -> Vec<&str> {
        self.points
            .iter()
            .flat_map(|p| p.divergences.iter().map(String::as_str))
            .collect()
    }

    /// `true` when every segment of every point replayed bit-identically.
    pub fn is_clean(&self) -> bool {
        self.points.iter().all(|p| p.divergences.is_empty())
    }

    /// Human-readable table plus verdict line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>9} {:>11}",
            "grid point", "instrs", "segments", "divergences"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>9} {:>11}",
                p.label,
                p.instructions,
                p.segments,
                p.divergences.len()
            );
            for d in &p.divergences {
                let _ = writeln!(out, "    !! {d}");
            }
        }
        let _ = writeln!(
            out,
            "total: {} instructions in {} segments across {} points — {}",
            self.instructions(),
            self.segments(),
            self.points.len(),
            if self.is_clean() {
                "all replays bit-identical"
            } else {
                "DIVERGENCES FOUND"
            }
        );
        out
    }
}

/// The precision variants the fleet covers: the five uniform ones plus a
/// mixed assignment (first array widened to binary32 over a binary16
/// default), matching the block-path differential gate.
pub fn precisions(w: &dyn Workload) -> Vec<Precision> {
    let mut v = Precision::UNIFORM.to_vec();
    if let Some(a) = w.base_kernel().arrays.first() {
        v.push(Precision::Mixed {
            default: FpFmt::H,
            assignment: vec![(a.name.clone(), FpFmt::S)],
        });
    }
    v
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record one grid point on the per-instruction path (block cache off).
pub fn record_point(
    w: &dyn Workload,
    prec: &Precision,
    mode: VecMode,
    snap_every: u64,
) -> Recording {
    let (_typed, compiled) = build(w, prec, mode);
    let mut cpu = Cpu::new(SimConfig::default());
    cpu.set_block_cache(false);
    load_workload(&mut cpu, &compiled, &w.inputs());
    record_run(&mut cpu, MAX_INSTRUCTIONS, snap_every).expect("reference recording trapped")
}

/// Record one grid point, then replay every segment in parallel on the
/// block engine, bisecting divergences. `fault` optionally corrupts the
/// engine mid-run to exercise the bisection path.
pub fn verify_point(
    w: &dyn Workload,
    prec: &Precision,
    mode: VecMode,
    snap_every: u64,
    fault: Option<FaultSpec>,
) -> PointOutcome {
    let label = format!("{} {} {}", w.name(), prec.label(), mode.label());
    let recording = record_point(w, prec, mode, snap_every);
    let segments = recording.segments();
    let outcomes = par_map(segments.len(), |i| {
        let seg = &segments[i];
        let mut engine = Cpu::new(SimConfig::default());
        engine.set_block_cache(true);
        match fault {
            None => {
                let mut reference = Cpu::new(SimConfig::default());
                reference.set_block_cache(false);
                verify_segment_bisecting(&recording, seg, &mut reference, &mut engine)
            }
            Some(f) => verify_faulted_segment(&recording, seg, &mut engine, f),
        }
    });
    let divergences = outcomes
        .iter()
        .filter_map(|o| match o {
            SegmentOutcome::Match => None,
            SegmentOutcome::Diverged(d) => Some(d.to_string()),
            SegmentOutcome::Trapped(e) => Some(format!("replay trapped: {e}")),
        })
        .collect();
    PointOutcome {
        label,
        instructions: recording.instructions(),
        segments: segments.len(),
        divergences,
        log_hash: fnv1a(&recording.log.to_bytes()),
    }
}

/// Replay `seg` on an engine corrupted by `fault`, bisecting any
/// divergence against a clean reference fork.
fn verify_faulted_segment(
    recording: &Recording,
    seg: &smallfloat_sim::replay::Segment<'_>,
    engine: &mut Cpu,
    fault: FaultSpec,
) -> SegmentOutcome {
    let got = fault.run_fork(engine, seg.start, seg.instructions());
    let Some(component) = got.first_difference(seg.end) else {
        return SegmentOutcome::Match;
    };
    let mut reference = Cpu::new(SimConfig::default());
    reference.set_block_cache(false);
    let first = bisect_divergence(
        seg.instructions(),
        |m| run_fork(&mut reference, seg.start, m).expect("reference replay trapped"),
        |m| fault.run_fork(engine, seg.start, m),
    );
    let mut div = smallfloat_sim::replay::Divergence {
        segment: seg.index,
        component,
        first_bad_instret: None,
        record: None,
    };
    if let Some(offset) = first {
        let absolute = seg.start.instret() - recording.snaps[0].instret() + offset;
        div.record = recording.log.records.get((absolute - 1) as usize).copied();
        div.first_bad_instret = Some(absolute);
    }
    SegmentOutcome::Diverged(div)
}

/// Run the replay fleet over the grid. `full` replays every workload ×
/// precision × mode point; otherwise a rotating one-point-per-workload
/// subset (all precisions and modes still appear across the suite).
pub fn run_fleet(full: bool, snap_every: u64) -> FleetReport {
    let mut points = Vec::new();
    for (i, w) in suite().iter().enumerate() {
        let precs = precisions(w.as_ref());
        if full {
            for prec in &precs {
                for mode in VecMode::ALL {
                    points.push(verify_point(w.as_ref(), prec, mode, snap_every, None));
                }
            }
        } else {
            let prec = &precs[i % precs.len()];
            let mode = VecMode::ALL[i % VecMode::ALL.len()];
            points.push(verify_point(w.as_ref(), prec, mode, snap_every, None));
        }
    }
    FleetReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bisection must name exactly the injected retirement, and the
    /// corrupted register must be identified via the divergence component.
    #[test]
    fn injected_fault_is_bisected_to_the_exact_instruction() {
        let w = &suite()[1]; // GEMM
        let fault = FaultSpec {
            after_instret: 7_321,
            xreg: 4, // tp: never written by generated kernels
            xor: 0xdead_beef,
        };
        let outcome = verify_point(
            w.as_ref(),
            &Precision::F16,
            VecMode::Auto,
            2_000,
            Some(fault),
        );
        assert!(
            outcome.instructions > fault.after_instret,
            "fault must land inside the run ({} instrs)",
            outcome.instructions
        );
        // Exactly one segment contains the fault; all others replay clean.
        assert_eq!(outcome.divergences.len(), 1, "{:?}", outcome.divergences);
        let report = &outcome.divergences[0];
        assert!(
            report.contains(&format!("at retired instruction {}", fault.after_instret)),
            "bisection must locate retirement {} exactly: {report}",
            fault.after_instret
        );
        assert!(report.contains("x registers"), "component: {report}");
    }

    /// A clean engine replays the rotating subset with zero divergences.
    #[test]
    fn fleet_subset_replays_clean() {
        let report = run_fleet(false, SNAP_EVERY);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.instructions() > 0);
    }

    /// Replay is deterministic across scheduling: back-to-back runs of the
    /// same grid point produce byte-identical logs (witnessed by the FNV
    /// hash of the serialized log), whether segment verification runs
    /// serially (`SMALLFLOAT_SERIAL=1` equivalent) or fanned out.
    #[test]
    fn fleet_logs_identical_serial_and_parallel() {
        let suite = suite();
        let w = &suite[2]; // ATAX
        let point =
            |snap: u64| verify_point(w.as_ref(), &Precision::F16Alt, VecMode::Scalar, snap, None);
        crate::par::set_workers(1);
        let serial = point(3_000);
        crate::par::set_workers(0);
        let parallel = point(3_000);
        let again = point(3_000);
        assert!(serial.divergences.is_empty(), "{:?}", serial.divergences);
        assert!(
            parallel.divergences.is_empty(),
            "{:?}",
            parallel.divergences
        );
        assert_eq!(serial.log_hash, parallel.log_hash, "serial vs parallel");
        assert_eq!(parallel.log_hash, again.log_hash, "back-to-back");
        // The log is a property of the program, not of the segmentation.
        let coarser = point(50_000);
        assert_eq!(serial.log_hash, coarser.log_hash, "snapshot interval");
    }
}
