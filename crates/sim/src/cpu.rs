//! CPU state, configuration and the fetch/execute loop.

use crate::block::{BlockCache, Decoded};
use crate::energy::EnergyModel;
use crate::mem::{MemSnapshot, Memory};
use crate::stats::{HotBlock, Stats};
use crate::timing::{MemLevel, TimingModel};
use smallfloat_isa::{decode, decode_compressed, encode, FReg, Instr, XReg};
use smallfloat_softfp::{Flags, Rounding};
use std::fmt;

/// Simulator errors (traps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimError {
    /// Misaligned data access.
    Misaligned { addr: u32 },
    /// Data access beyond the end of memory.
    OutOfBounds { addr: u32 },
    /// Undecodable instruction word.
    IllegalInstruction { word: u32, pc: u32 },
    /// Access to an unimplemented CSR.
    UnknownCsr { csr: u16, pc: u32 },
    /// Dynamic rounding selected while `fcsr.frm` holds a reserved value.
    InvalidRounding { pc: u32 },
    /// `ebreak` executed.
    Breakpoint { pc: u32 },
    /// A vector operation on a format with no SIMD lanes at FLEN=32, or a
    /// lane selector (e.g. `vfcpk.b`) outside the format's lane count.
    VectorUnsupported { pc: u32 },
    /// Misaligned instruction fetch or fetch outside memory.
    FetchFault { pc: u32 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Misaligned { addr } => write!(f, "misaligned access at 0x{addr:08x}"),
            SimError::OutOfBounds { addr } => write!(f, "access out of bounds at 0x{addr:08x}"),
            SimError::IllegalInstruction { word, pc } => {
                write!(f, "illegal instruction 0x{word:08x} at pc 0x{pc:08x}")
            }
            SimError::UnknownCsr { csr, pc } => {
                write!(f, "unknown csr 0x{csr:03x} at pc 0x{pc:08x}")
            }
            SimError::InvalidRounding { pc } => {
                write!(f, "reserved dynamic rounding mode at pc 0x{pc:08x}")
            }
            SimError::Breakpoint { pc } => write!(f, "breakpoint at pc 0x{pc:08x}"),
            SimError::VectorUnsupported { pc } => {
                write!(f, "unsupported vector operation at pc 0x{pc:08x}")
            }
            SimError::FetchFault { pc } => write!(f, "fetch fault at pc 0x{pc:08x}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why [`Cpu::run`] returned successfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// The program executed `ecall` (the simulator's exit convention).
    Ecall,
    /// The instruction limit was reached before the program exited.
    InstructionLimit,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Memory size in bytes.
    pub mem_size: usize,
    /// Load/store latency level (the Fig. 2/3 experiment knob).
    pub mem_level: MemLevel,
    /// Cycle-cost model.
    pub timing: TimingModel,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            mem_size: 16 << 20,
            mem_level: MemLevel::L1,
            timing: TimingModel::riscy(),
            energy: EnergyModel::umc65(),
        }
    }
}

/// The simulated RV32IMFC + smallFloat core.
pub struct Cpu {
    pub(crate) config: SimConfig,
    pub(crate) mem: Memory,
    pub(crate) x: [u32; 32],
    pub(crate) f: [u32; 32],
    pub(crate) pc: u32,
    /// Raw `fcsr.frm` field (may hold reserved values until used). A
    /// whole word, so the FP handlers' rounding-mode test loads it without
    /// overlapping the `fflags` byte the previous FP op just wrote: a load
    /// that partly overlaps a pending narrower store cannot be forwarded
    /// from it and waits for the store to retire.
    pub(crate) frm_raw: u32,
    pub(crate) fflags: Flags,
    pub(crate) stats: Stats,
    /// The code window — lazily decoded half-word slots over the loaded
    /// program plus the basic-block micro-op cache lowered from them (see
    /// `block.rs`). Everything cached from code bytes lives here: both
    /// tiers fetch through it and [`Cpu::run`] dispatches whole blocks
    /// through it.
    pub(crate) blocks: BlockCache,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cpu {{ pc: 0x{:08x}, cycles: {} }}",
            self.pc, self.stats.cycles
        )
    }
}

/// Decode the instruction at `pc` straight from `mem`: the reference
/// decode behind [`Cpu::decode_at`] and every code-window slot fill.
pub(crate) fn decode_at(mem: &Memory, pc: u32) -> Result<(Instr, u32), SimError> {
    if !pc.is_multiple_of(2) {
        return Err(SimError::FetchFault { pc });
    }
    let low = mem.load(pc, 2).map_err(|_| SimError::FetchFault { pc })? as u16;
    if low & 0b11 != 0b11 {
        let instr = decode_compressed(low)
            .map_err(|e| SimError::IllegalInstruction { word: e.word(), pc })?;
        Ok((instr, 2))
    } else {
        let high = mem
            .load(pc + 2, 2)
            .map_err(|_| SimError::FetchFault { pc })? as u16;
        let word = (low as u32) | ((high as u32) << 16);
        let instr = decode(word).map_err(|_| SimError::IllegalInstruction { word, pc })?;
        Ok((instr, 4))
    }
}

impl Cpu {
    /// Create a CPU with zeroed registers and memory.
    pub fn new(config: SimConfig) -> Cpu {
        let mem = Memory::new(config.mem_size);
        Cpu {
            config,
            mem,
            x: [0; 32],
            f: [0; 32],
            pc: 0,
            frm_raw: Rounding::Rne.to_frm().into(),
            fflags: Flags::NONE,
            stats: Stats::new(),
            blocks: BlockCache::new(),
        }
    }

    /// Write `stats.energy_pj` from the counters under the configured
    /// energy model — the only place a `Cpu` sets it. Called whenever
    /// control returns to the caller ([`Cpu::run`], [`Cpu::run_traced`],
    /// [`Cpu::step`], [`Cpu::restore`], on success and trap alike), never
    /// per retired instruction.
    pub(crate) fn derive_energy(&mut self) {
        self.stats.energy_pj = self
            .config
            .energy
            .energy_pj(&self.stats, self.config.mem_level);
    }

    /// Reset architectural state — registers, PC, `fcsr`, statistics,
    /// memory contents and the code window — without reallocating.
    ///
    /// Memory zeroing is proportional to the bytes actually written, so a
    /// reset-and-reload cycle costs microseconds where constructing a new
    /// [`Cpu`] pays for the full memory allocation. Experiment harnesses
    /// that run many programs should reuse one `Cpu` through this.
    pub fn reset(&mut self) {
        self.x = [0; 32];
        self.f = [0; 32];
        self.pc = 0;
        self.frm_raw = Rounding::Rne.to_frm().into();
        self.fflags = Flags::NONE;
        self.stats = Stats::new();
        self.mem.clear();
        self.blocks.reset(0, 0);
    }

    /// [`Cpu::reset`] plus a configuration swap, reusing the memory
    /// allocation when the configured size is unchanged.
    pub fn reset_with(&mut self, config: SimConfig) {
        if config.mem_size != self.mem.size() {
            self.mem = Memory::new(config.mem_size);
        }
        self.config = config;
        self.reset();
    }

    /// Encode `program` into memory at `base`, point the PC there, and
    /// start a fresh code window over it. Nothing is decoded here: each
    /// half-word slot decodes on first fetch or block lowering.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit in memory.
    pub fn load_program(&mut self, base: u32, program: &[Instr]) {
        let mut addr = base;
        for instr in program {
            let word = encode(instr);
            self.mem.write_bytes(addr, &word.to_le_bytes());
            addr += 4;
        }
        self.pc = base;
        self.blocks.reset(base, addr - base);
    }

    /// Whether the live code window — its decoded slots and every cached
    /// block, all derived from the live memory — still describes `mem`'s
    /// contents over `[base, base + len_bytes)` exactly. True only when
    /// the geometry matches and the code bytes (plus the up-to-two bytes
    /// a final instruction may span past the window) are identical. This
    /// is the warm-restore probe: forks off one warmed snapshot keep their
    /// decoded slots and lowered blocks.
    pub(crate) fn window_matches(&self, base: u32, len_bytes: u32, mem: &MemSnapshot) -> bool {
        len_bytes > 0
            && self.blocks.base() == base
            && self.blocks.len_bytes() == len_bytes
            && self.mem.range_eq(
                mem,
                base,
                (len_bytes as usize + 2).min(self.mem.size().saturating_sub(base as usize)),
            )
    }

    /// Copy bytes into memory with byte-precise code invalidation — the
    /// same invalidation stores executed by the simulated program get, so
    /// decoded slots and lowered blocks are dropped only where actually
    /// overwritten. Writes that never touch the code window (input
    /// arrays, descriptors) leave it warm; writes that rewrite code take
    /// effect at the next fetch. This is the only host-side write into
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write_data(&mut self, addr: u32, data: &[u8]) {
        self.mem.write_bytes(addr, data);
        self.blocks
            .invalidate(&mut self.stats, addr, data.len() as u32);
    }

    /// Read an integer register (`x0` reads as 0).
    pub fn xreg(&self, r: XReg) -> u32 {
        self.x[usize::from(r)]
    }

    /// Write an integer register (writes to `x0` are ignored).
    pub fn set_xreg(&mut self, r: XReg, v: u32) {
        if r.num() != 0 {
            self.x[usize::from(r)] = v;
        }
    }

    /// Read an FP register (raw 32 bits).
    pub fn freg(&self, r: FReg) -> u32 {
        self.f[usize::from(r)]
    }

    /// Write an FP register (raw 32 bits).
    pub fn set_freg(&mut self, r: FReg, v: u32) {
        self.f[usize::from(r)] = v;
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Set the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// The accrued FP exception flags (`fcsr.fflags`).
    pub fn fflags(&self) -> Flags {
        self.fflags
    }

    /// The dynamic rounding mode, if `fcsr.frm` holds a valid value.
    pub fn frm(&self) -> Option<Rounding> {
        Rounding::from_frm(self.frm_raw as u8)
    }

    /// Set the dynamic rounding mode.
    pub fn set_frm(&mut self, rm: Rounding) {
        self.frm_raw = rm.to_frm().into();
    }

    /// Overwrite the accrued FP exception flags. Harness-level state
    /// surgery (snapshot property tests, debugger frontends); simulated
    /// programs accrue flags through execution instead.
    pub fn set_fflags(&mut self, flags: Flags) {
        self.fflags = flags;
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset statistics (registers and memory are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new();
    }

    /// Shared access to memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Decode the instruction at `pc` directly from memory, bypassing the
    /// code window. Returns the instruction and its length in bytes.
    /// This is the reference decode the window's slots must agree with
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`SimError::FetchFault`] / [`SimError::IllegalInstruction`].
    pub fn decode_at(&self, pc: u32) -> Result<(Instr, u32), SimError> {
        decode_at(&self.mem, pc)
    }

    fn fetch(&mut self) -> Result<Decoded, SimError> {
        self.blocks.decode(&self.mem, &self.config, self.pc)
    }

    /// Decode the instruction at the current PC without executing it.
    ///
    /// # Errors
    ///
    /// [`SimError::FetchFault`] / [`SimError::IllegalInstruction`].
    pub fn peek(&mut self) -> Result<Instr, SimError> {
        self.fetch().map(|d| d.instr)
    }

    /// Like [`Cpu::peek`], but also returns the instruction length in
    /// bytes, going through the code window (filling its slot on miss).
    ///
    /// # Errors
    ///
    /// [`SimError::FetchFault`] / [`SimError::IllegalInstruction`].
    pub fn peek_decoded(&mut self) -> Result<(Instr, u32), SimError> {
        self.fetch().map(|d| (d.instr, d.len))
    }

    /// Execute one instruction: the code window's lowered op for the
    /// current PC with per-instruction accounting, exactly what a block
    /// of length 1 would do.
    ///
    /// Returns `Ok(Some(reason))` when the program exits.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] trap.
    pub fn step(&mut self) -> Result<Option<ExitReason>, SimError> {
        let result = crate::block::step(self);
        self.derive_energy();
        result
    }

    /// Run like [`Cpu::run`], invoking `observer(pc, &instr)` before every
    /// instruction — the execution-trace hook (disassembly via the
    /// instruction's `Display`).
    ///
    /// # Errors
    ///
    /// Any [`SimError`] trap.
    pub fn run_traced(
        &mut self,
        max_instructions: u64,
        mut observer: impl FnMut(u32, &Instr),
    ) -> Result<ExitReason, SimError> {
        let limit = self.stats.instret.saturating_add(max_instructions);
        let result = (|| {
            while self.stats.instret < limit {
                observer(self.pc, &self.fetch()?.instr);
                if let Some(reason) = crate::block::step(self)? {
                    return Ok(reason);
                }
            }
            Ok(ExitReason::InstructionLimit)
        })();
        self.derive_energy();
        result
    }

    /// Run until `ecall`, a trap, or `max_instructions` more retired (a
    /// budget past `u64::MAX` total instructions saturates: the run is
    /// then unbounded).
    ///
    /// The run loop is `block.rs`'s: hot code executes through the
    /// basic-block micro-op cache, and leaders it declines to lower (CSR
    /// accesses, undecodable bytes, code outside the window, blocks that
    /// would overshoot the budget) take the per-instruction path
    /// ([`Cpu::step`]) one instruction at a time. Both tiers run the same
    /// lowered ops, so they are bit-identical in architectural state and
    /// counters, and energy is derived from the counters on return.
    /// `SMALLFLOAT_NOBLOCKS=1` (or [`Cpu::set_block_cache`]`(false)`)
    /// forces the per-instruction path.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] trap.
    pub fn run(&mut self, max_instructions: u64) -> Result<ExitReason, SimError> {
        let result = crate::block::run(self, max_instructions);
        self.derive_energy();
        result
    }

    /// Enable or disable the basic-block micro-op cache (enabled by
    /// default unless `SMALLFLOAT_NOBLOCKS=1`). Disabling also drops every
    /// cached block, so re-enabling starts cold.
    pub fn set_block_cache(&mut self, enabled: bool) {
        self.blocks.set_enabled(enabled);
    }

    /// Whether the basic-block micro-op cache is enabled.
    pub fn block_cache_enabled(&self) -> bool {
        self.blocks.enabled()
    }

    /// Top-`n` cached blocks by dynamic instruction count
    /// (`execs × block length`) — the hot-block profile. A block that
    /// follows a jump reports its byte hull as `start..end` and counts the
    /// jump in `instrs`; `leader` is where it is entered. Counts cover
    /// currently cached blocks: [`Cpu::reset`], [`Cpu::load_program`], a
    /// restore that does not keep the window, and code invalidation drop
    /// blocks along with their counters, so harvest the profile right
    /// after the run of interest.
    pub fn hot_blocks(&self, n: usize) -> Vec<HotBlock> {
        self.blocks.hot(n)
    }

    /// Always empty. Exists only because the benchmark harness still
    /// calls it; goes with the next benchmark change.
    pub fn hot_traces(&self, _n: usize) -> Vec<HotBlock> {
        Vec::new()
    }

    /// Always the empty `TraceStats`. Exists only because the benchmark
    /// harness still calls it; goes with the next benchmark change.
    pub fn trace_stats(&self) -> &TraceStats {
        &TraceStats {}
    }
}

/// The field-less return type of `Cpu::trace_stats`; goes with it.
#[derive(Clone, Debug)]
pub struct TraceStats {}
