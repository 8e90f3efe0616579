//! Execution statistics: cycles, per-class instruction counts, and the
//! energy derived from them.

use smallfloat_isa::InstrClass;
use std::fmt;

/// Counters accumulated during execution.
///
/// `counts` is indexed by [`InstrClass`]; the breakdown feeds the paper's
/// Figure 4 (instruction-count breakdown under mixed precision).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Total energy in picojoules: the engine's energy model applied to
    /// the counters below (`EnergyModel::energy_pj`). A `Cpu` refreshes it
    /// whenever control returns to the caller; no engine tier accumulates
    /// it per instruction.
    pub energy_pj: f64,
    pub(crate) counts: [u64; InstrClass::ALL.len()],
    pub(crate) cycles_by_class: [u64; InstrClass::ALL.len()],
}

impl Stats {
    /// A zeroed statistics block.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Commit `n` instructions of one class in a single update: one from
    /// the per-instruction path, a whole block body's worth from the
    /// block path (the counters are integers, so commit order does not
    /// matter).
    pub(crate) fn bulk_count(&mut self, class_idx: usize, n: u64, cycles: u64) {
        self.counts[class_idx] += n;
        self.cycles_by_class[class_idx] += cycles;
    }

    /// Accumulate another statistics block into this one, field by field:
    /// counter addition plus `energy_pj` float addition. The float sum
    /// depends on merge order, so callers that need bit-exact totals must
    /// merge in a fixed order. This is the rollup primitive for multi-run
    /// and multi-core aggregation.
    pub fn merge(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.instret += other.instret;
        self.energy_pj += other.energy_pj;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.cycles_by_class.iter_mut().zip(&other.cycles_by_class) {
            *a += b;
        }
    }

    /// Instructions retired in a class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        self.counts[class_index(class)]
    }

    /// Cycles attributed to a class (each instruction's full cost,
    /// including its memory stall cycles).
    pub fn class_cycles(&self, class: InstrClass) -> u64 {
        self.cycles_by_class[class_index(class)]
    }

    /// Fraction of total cycles spent in memory operations — the knob the
    /// paper's Figure 2/3 latency sweep turns.
    pub fn mem_cycle_fraction(&self) -> f64 {
        let mem: u64 = [
            InstrClass::Load,
            InstrClass::Store,
            InstrClass::FpLoad,
            InstrClass::FpStore,
        ]
        .iter()
        .map(|&c| self.class_cycles(c))
        .sum();
        if self.cycles == 0 {
            0.0
        } else {
            mem as f64 / self.cycles as f64
        }
    }

    /// All (class, count) pairs with nonzero counts, in display order.
    pub fn breakdown(&self) -> Vec<(InstrClass, u64)> {
        InstrClass::ALL
            .iter()
            .map(|&c| (c, self.class_count(c)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Total memory operations (integer + FP, loads + stores).
    pub fn mem_ops(&self) -> u64 {
        self.class_count(InstrClass::Load)
            + self.class_count(InstrClass::Store)
            + self.class_count(InstrClass::FpLoad)
            + self.class_count(InstrClass::FpStore)
    }

    /// Total FP operations of any kind.
    pub fn fp_ops(&self) -> u64 {
        use InstrClass::*;
        [
            FpS, FpH, FpAh, FpB, FpVecH, FpVecAh, FpVecB, FpCvt, FpCpk, FpExpand, FpCmp, FpMove,
        ]
        .iter()
        .map(|&c| self.class_count(c))
        .sum()
    }

    /// Energy in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_pj / 1000.0
    }
}

fn class_index(class: InstrClass) -> usize {
    class.index()
}

/// One entry of the basic-block profile: a cached block and how often it
/// was dispatched. Produced by `Cpu::hot_blocks`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotBlock {
    /// First byte of the block's byte hull: the lowest address of any
    /// instruction lowered into it. Below [`HotBlock::leader`] when the
    /// block follows a jump backwards.
    pub start: u32,
    /// Exclusive end of the byte hull: the highest instruction end.
    pub end: u32,
    /// Leader PC: where execution enters the block.
    pub leader: u32,
    /// Instructions retired by one full execution of the block, followed
    /// jumps included.
    pub instrs: u32,
    /// Micro-ops one full execution dispatches: the body's handler calls,
    /// after fusion and with followed jumps folded in (the tail is not
    /// counted). Below [`HotBlock::instrs`] by what fusion saved.
    pub uops: u32,
    /// Times the block was dispatched.
    pub execs: u64,
}

impl HotBlock {
    /// Dynamic instruction count attributed to this block.
    pub fn dynamic_instrs(&self) -> u64 {
        self.execs * u64::from(self.instrs)
    }
}

/// Render a hot-block profile as a table: byte hull (`pc range`), leader
/// PC, static length (followed jumps included), micro-ops dispatched per
/// execution, execution count and share of `instret` (the run's total
/// retired instructions).
pub fn hot_block_report(blocks: &[HotBlock], instret: u64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>21}  {:>10}  {:>6}  {:>5}  {:>12}  {:>14}  {:>6}",
        "#", "pc range", "leader", "instrs", "uops", "execs", "dyn instrs", "%dyn"
    );
    for (i, b) in blocks.iter().enumerate() {
        let share = if instret == 0 {
            0.0
        } else {
            100.0 * b.dynamic_instrs() as f64 / instret as f64
        };
        let _ = writeln!(
            out,
            "{:>4}  0x{:08x}-0x{:08x}  0x{:08x}  {:>6}  {:>5}  {:>12}  {:>14}  {:>5.1}%",
            i + 1,
            b.start,
            b.end,
            b.leader,
            b.instrs,
            b.uops,
            b.execs,
            b.dynamic_instrs(),
            share
        );
    }
    out
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles: {}  instret: {}  energy: {:.1} nJ",
            self.cycles,
            self.instret,
            self.energy_nj()
        )?;
        for (class, n) in self.breakdown() {
            writeln!(
                f,
                "  {:>12}: {:>10} instrs {:>10} cycles",
                class.label(),
                n,
                self.class_cycles(class)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut s = Stats::new();
        s.bulk_count(InstrClass::IntAlu.index(), 1, 1);
        s.bulk_count(InstrClass::IntAlu.index(), 1, 1);
        s.bulk_count(InstrClass::FpVecH.index(), 1, 1);
        assert_eq!(s.class_count(InstrClass::IntAlu), 2);
        assert_eq!(s.class_count(InstrClass::FpVecH), 1);
        assert_eq!(s.class_count(InstrClass::FpS), 0);
        assert_eq!(s.breakdown().len(), 2);
    }

    #[test]
    fn aggregates() {
        let mut s = Stats::new();
        s.bulk_count(InstrClass::Load.index(), 1, 10);
        s.bulk_count(InstrClass::FpStore.index(), 1, 10);
        s.bulk_count(InstrClass::FpVecB.index(), 1, 1);
        assert_eq!(s.mem_ops(), 2);
        assert_eq!(s.fp_ops(), 1);
        assert_eq!(s.class_cycles(InstrClass::Load), 10);
        s.cycles = 21;
        assert!((s.mem_cycle_fraction() - 20.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_labels() {
        let mut s = Stats::new();
        s.bulk_count(InstrClass::FpExpand.index(), 1, 1);
        s.cycles = 10;
        let text = s.to_string();
        assert!(text.contains("fp-expand"));
        assert!(text.contains("cycles: 10"));
    }
}
