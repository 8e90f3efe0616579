//! The code window, its basic-block micro-op cache, and the only
//! definition of instruction semantics: everything the simulator derives
//! from code bytes lives here.
//!
//! The window is one slot per half-word of the loaded program. A slot
//! holds the instruction starting there, decoded from memory on first use
//! by either tier (the per-instruction fetch or block lowering), its
//! lowered form, and the tag of the block led by that half-word.
//! [`BlockCache::reset`] starts a new window with every slot empty;
//! [`BlockCache::invalidate`] forgets what was derived from a byte range.
//! Those two are the only ways anything leaves the window.
//!
//! Lowering turns an instruction into either a *micro-op* — pre-resolved
//! operand indices, a pre-bound (monomorphized) semantic function and a
//! pre-computed cycle cost — or a control-transfer *tail* (`jal`, `jalr`,
//! branches, `ecall`, and the traps known at decode time: `ebreak` and
//! vector ops with no lanes). Each instruction is lowered once, when its
//! slot fills, and both tiers run that one lowered form:
//!
//! * The per-instruction path ([`step`]) runs a slot's op with
//!   per-instruction accounting — the block path at block length 1. It
//!   serves `Cpu::step`, `Cpu::run_traced`, `replay::record_run`,
//!   `SMALLFLOAT_NOBLOCKS=1`, and every leader the block tier declines.
//! * Blocks copy the ops of a run of code out of its slots, up to the
//!   next tail, and replay the array. A direct jump (`jal x0`) to an even
//!   PC inside the window does not end a block: it retires with the
//!   micro-op before it and lowering continues at its target, so a
//!   top-tested loop runs as one block per iteration.
//! * Lowering a block also fuses: adjacent ops that match the fixed
//!   fusion table ([`fuse`]) become one micro-op whose packed operands
//!   run a straight-line handler. Slots keep one op per instruction, so
//!   the per-instruction path never runs a fused handler and is a
//!   differential for every one of them. Each micro-op carries the
//!   number of instructions it retires; a block keeps a cold
//!   per-instruction record ([`Retired`]) for the rare partial execution.
//!
//! [`run`] is the engine's one run loop (`Cpu::run` is `run` plus energy
//! derivation): it executes the block led by the current PC when it fits
//! the budget and takes one [`step`] otherwise. A block is taken out of
//! its arena entry while it executes and put back only while that entry
//! is live, so dispatch costs no reference count, and each entry's
//! successor links find the next block without the slot-tag lookup.
//!
//! The two tiers agree bit for bit because they share the handlers; what
//! remains tier-specific is accounting and control:
//!
//! * A block dispatch adds to `instret` and `cycles` only: CSR reads and
//!   the budget need those live. Per-class counts are associative, so
//!   they are deferred: each entry tallies its completed executions and
//!   taken branch tails, and the tallies fold into `Stats` when [`run`]
//!   returns and when a block is killed. Energy is derived from the
//!   counters when `Cpu::run` returns, so it needs nothing from here.
//! * Trapping instructions retire nothing and leave `fflags`/`pc`
//!   untouched: handlers check every trap before their first write, and
//!   a trap in a block commits only the preceding prefix and restores
//!   the trapping PC. A trap inside a fused op retires the constituents
//!   before it ([`BlockCache::partial`]) and none after.
//! * CSR instructions read live `cycle`/`instret` counters, which would
//!   be stale before the block commit, so they terminate block discovery
//!   and always execute on the per-instruction path.
//! * Stores (and `Cpu::write_data`) invalidate overlapping slots and
//!   blocks byte-precisely. A store that killed a block says so in its
//!   [`Status`], so a block that invalidates *itself* stops after that
//!   micro-op.
//!
//! `SMALLFLOAT_NOBLOCKS=1` disables the block tier for bisection; the
//! per-instruction path still fetches through the window.

use crate::cpu::{decode_at, Cpu, ExitReason, SimConfig, SimError};
use crate::exec;
use crate::mem::Memory;
use crate::stats::{HotBlock, Stats};
use smallfloat_isa::{
    vector_lanes, AluOp, BranchCond, CmpOp, CpkHalf, CsrOp, CsrSrc, FReg, FmaOp, FpFmt, FpOp,
    Instr, InstrClass, MemWidth, MinMaxOp, MulDivOp, Rm, SgnjKind, VCmpOp, VfOp,
};
use smallfloat_softfp::{batch, fast, host, ops, Env, Format, Rounding};

const FLEN: u32 = 32;

/// Longest body (micro-ops, followed jumps included) lowered into one
/// block. Caps lowering cost for degenerate branch-free code and bounds a
/// `j .` self-loop; runs past the cap chain into the block at the PC
/// where lowering stopped.
const MAX_BODY: usize = 128;

// A micro-op's retire count is a byte; every instruction of a body may
// fold into one op (a `j .` self-loop lowers to one no-op retiring all).
const _: () = assert!(MAX_BODY <= u8::MAX as usize);

/// Slot tag: no block lowered at this leader yet.
const SLOT_EMPTY: u32 = u32::MAX;
/// Slot tag: lowering declined (undecodable leader, CSR leader); dispatch
/// falls through to the per-instruction path without retrying until
/// [`BlockCache::invalidate`] reports the slot's bytes changed.
const SLOT_NO_BLOCK: u32 = u32::MAX - 1;

/// Successor link: no successor recorded yet (never an arena index).
const NO_LINK: u32 = u32::MAX;

/// `MicroOp::rm` value selecting the dynamic rounding mode at run time;
/// static modes are resolved to their `frm` encoding at lowering.
const RM_DYN: u8 = 0xff;

/// `csr` handler op id for an access that only reads (`csrrs`/`csrrc`
/// with `x0` or a zero immediate): no write, so read-only CSRs do not
/// trap.
const CSR_READ: u8 = u8::MAX;

fn default_enabled() -> bool {
    !crate::env::noblocks()
}

/// What a handler reports to the code running it, in one register. The
/// trap itself, the rare case, waits in `BlockCache::trap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Status {
    /// The instruction retired.
    Ok,
    /// The instruction (a store) retired and killed at least one cached
    /// block, possibly the running one: a block stops after it.
    Killed,
    /// The instruction trapped without retiring; [`take_trap`] has it.
    Trap,
}

type UopFn = fn(&mut Cpu, &MicroOp) -> Status;

/// Record `trap` for the caller and report [`Status::Trap`].
#[cold]
#[inline(never)]
fn raise(cpu: &mut Cpu, trap: SimError) -> Status {
    cpu.blocks.trap = Some(trap);
    Status::Trap
}

/// The trap recorded by the handler that just returned [`Status::Trap`].
fn take_trap(cpu: &mut Cpu) -> SimError {
    cpu.blocks
        .trap
        .take()
        .expect("a trapping handler records its trap")
}

/// `?` for handlers: the `Ok` value, or return the raised trap.
macro_rules! tri {
    ($cpu:ident, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(trap) => return raise($cpu, trap),
        }
    };
}

/// One lowered instruction: semantic function plus pre-resolved operands
/// and pre-computed retirement costs. A fused op (see [`fuse`]) packs its
/// later constituents' operands into `rs2`, `rs3`, `rm`, `imm` and `aux`;
/// its `pc` is its first constituent's.
#[derive(Clone, Copy)]
struct MicroOp {
    run: UopFn,
    rd: u8,
    rs1: u8,
    rs2: u8,
    rs3: u8,
    /// Static rounding mode (`frm` encoding) or [`RM_DYN`].
    rm: u8,
    /// `InstrClass::index()` of the source instruction.
    class: u8,
    /// Instructions a completed run retires: 1, or a fused op's
    /// constituent count, plus the followed jumps folded into it.
    n: u8,
    imm: i32,
    /// Per-op payload: replicate-scalar flag for vector ops, base lane
    /// for `vfcpk`, CSR number for `csr*`.
    aux: u32,
    pc: u32,
    cycles: u32,
}

impl MicroOp {
    /// An op at `pc` that changes no register and retires one instruction
    /// as `class` for `cycles`: the template `lower` fills in, and the
    /// whole form of a followed jump that leads a block.
    fn bare(pc: u32, class: u8, cycles: u32) -> MicroOp {
        MicroOp {
            run: nop,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            rm: 0,
            class,
            n: 1,
            imm: 0,
            aux: 0,
            pc,
            cycles,
        }
    }
}

/// One instruction a block body retires, in program order: what a partial
/// execution ([`stop`], [`commit_prefix`]) accounts per instruction, and
/// what lowering sums into the entry's per-class totals. Never read by a
/// completed execution.
#[derive(Clone, Copy)]
struct Retired {
    pc: u32,
    class: u8,
    cycles: u32,
}

/// Control transfer terminating a block. Branch direction is the one
/// genuinely data-dependent cost, so taken and not-taken cycles are both
/// pre-computed.
#[derive(Clone, Copy)]
enum TailKind {
    Jal {
        rd: u8,
        target: u32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        offset: i32,
    },
    Branch {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: u32,
        not_cycles: u32,
    },
    Ecall,
    /// A trap known at decode time (`ebreak`, a vector op on a format
    /// with no lanes): raised without retiring anything.
    Trap(SimError),
}

#[derive(Clone, Copy)]
struct Tail {
    kind: TailKind,
    pc: u32,
    /// Fall-through PC (`pc + len`); also the link value for jumps.
    next: u32,
    class: u8,
    /// Taken cycles for branches; fixed cost otherwise.
    cycles: u32,
}

/// An instruction's lowered form: a straight-line micro-op or a tail.
#[derive(Clone, Copy)]
enum Lowered {
    Op(MicroOp),
    Tail(Tail),
}

/// What a code-window slot caches about the instruction starting there.
#[derive(Clone, Copy)]
pub(crate) struct Decoded {
    pub(crate) instr: Instr,
    /// Length in bytes (2 or 4).
    pub(crate) len: u32,
    op: Lowered,
}

/// Decode the instruction at `pc` from `mem` and lower it under `cfg`.
fn decode_lowered(mem: &Memory, cfg: &SimConfig, pc: u32) -> Result<Decoded, SimError> {
    let (instr, len) = decode_at(mem, pc)?;
    Ok(Decoded {
        instr,
        len,
        op: lower(cfg, pc, instr, len),
    })
}

/// A lowered block: micro-ops (fused where the table matched, followed
/// jumps folded in) plus an optional control-transfer tail. What
/// accounting, invalidation and the budget check need lives in its
/// [`Entry`].
struct Block {
    uops: Box<[MicroOp]>,
    /// Every instruction the micro-ops retire, in order: their retire
    /// counts sum to its length.
    instrs: Box<[Retired]>,
    tail: Option<Tail>,
    /// Where a block without a tail continues: the PC after its last
    /// lowered instruction, or the target of a jump lowering followed
    /// last.
    next: u32,
    /// Total micro-op cycles; the tail adds its own (a branch's depend on
    /// its direction).
    body_cycles: u64,
}

/// An arena entry: a block plus what invalidation, the budget check, the
/// deferred per-class stats and the hot-block profile read without
/// touching the block itself.
struct Entry {
    /// Leader PC; its window slot's tag points at this entry until the
    /// block is killed.
    start: u32,
    /// Byte hull `[lo, hi)` of every instruction lowered into the block,
    /// followed jumps' targets included: the invalidation extent. `hi`
    /// may reach two bytes past the code window for a spanning final
    /// instruction.
    lo: u32,
    hi: u32,
    /// Instructions retired by a full execution (micro-ops + tail).
    retired: u64,
    /// The block; `None` only while [`run`] executes it. A block that
    /// kills itself leaves its arena slot `None` behind, so it is never
    /// put back.
    block: Option<Box<Block>>,
    /// Dispatch count, for the hot-block profile.
    execs: u64,
    /// Dispatches that stopped early (a trap, or a store that killed
    /// code). They commit their per-class counts as they stop.
    cut: u64,
    /// Completed executions already folded into `Stats`.
    folded: u64,
    /// Taken branch tails not yet folded into `Stats`.
    taken: u64,
    /// Per-class totals of one completed execution — every micro-op plus
    /// a tail that is neither a branch nor a trap: `(class index, count,
    /// cycles)`, non-zero classes only.
    classes: Box<[(u8, u32, u64)]>,
    /// A branch tail's class index and its taken / not-taken cycles.
    branch: Option<(u8, u32, u32)>,
    /// Successor links: the arena index of the block reached last by
    /// falling through or jumping (`[0]`) and by a taken branch (`[1]`),
    /// or [`NO_LINK`]. A link is only a hint, used while the entry it
    /// names is live and led by the current PC.
    succ: [u32; 2],
}

impl Entry {
    /// Add the completed executions not yet folded to `stats`' per-class
    /// counters.
    fn fold(&mut self, stats: &mut Stats) {
        let done = self.execs - self.cut;
        let n = done - self.folded;
        if n == 0 {
            return;
        }
        self.folded = done;
        for &(class, count, cycles) in self.classes.iter() {
            stats.bulk_count(class as usize, n * u64::from(count), n * cycles);
        }
        if let Some((class, taken_cycles, not_cycles)) = self.branch {
            let taken = std::mem::take(&mut self.taken);
            let cycles = taken * u64::from(taken_cycles) + (n - taken) * u64::from(not_cycles);
            stats.bulk_count(class as usize, n, cycles);
        }
    }
}

/// One half-word of the code window.
#[derive(Clone, Copy)]
struct Slot {
    /// The instruction starting here, decoded and lowered on first use;
    /// `None` until then, after invalidation, and while the bytes here do
    /// not decode.
    decoded: Option<Decoded>,
    /// Arena index of the block led by this half-word, or [`SLOT_EMPTY`]
    /// / [`SLOT_NO_BLOCK`].
    tag: u32,
}

// A micro-op is half a cache line and a window slot a whole one: both
// are copied on every lowering and the window is allocated per program,
// so growing either shows in lowering time and `peak_rss_mb`.
const _: () = assert!(std::mem::size_of::<MicroOp>() == 32);
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

const FRESH_SLOT: Slot = Slot {
    decoded: None,
    tag: SLOT_EMPTY,
};

/// The per-CPU code window: one [`Slot`] per half-word of
/// `[base, base + 2 * slots.len())`, indexed by `(pc - base) >> 1`, plus
/// the arena of lowered blocks the slot tags point into. Half-word
/// granularity covers RVC: a jump may legally land on any even address,
/// including the middle of a 32-bit instruction.
pub(crate) struct BlockCache {
    enabled: bool,
    base: u32,
    slots: Vec<Slot>,
    arena: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// The trap of the handler that last returned [`Status::Trap`], until
    /// [`take_trap`] takes it.
    trap: Option<SimError>,
    /// Constituents of a fused op that retired before its trap: set by a
    /// fused handler that returns [`Status::Trap`], taken by [`stop`];
    /// zero for every other trap.
    partial: u8,
}

impl BlockCache {
    pub(crate) fn new() -> BlockCache {
        BlockCache {
            enabled: default_enabled(),
            base: 0,
            slots: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
            trap: None,
            partial: 0,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch the block tier on or off, dropping every cached block (and,
    /// with them, the decoded slots, which refill on use).
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.reset(self.base, self.len_bytes());
    }

    /// Start a window over `[base, base + len_bytes)` with every slot
    /// undecoded and no blocks. An odd base can never be fetched (every
    /// fetch there faults), so it is rounded down to keep slot arithmetic
    /// alias-free. Called only between runs, when every entry's tallies
    /// are folded, so dropping the arena loses no count.
    pub(crate) fn reset(&mut self, base: u32, len_bytes: u32) {
        self.base = base & !1;
        self.slots.clear();
        self.slots
            .resize(((len_bytes + (base & 1)) >> 1) as usize, FRESH_SLOT);
        self.arena.clear();
        self.free.clear();
    }

    /// First byte of the window (always even).
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// Window length in bytes.
    pub(crate) fn len_bytes(&self) -> u32 {
        (self.slots.len() as u32) * 2
    }

    fn index(&self, pc: u32) -> usize {
        (pc.wrapping_sub(self.base) >> 1) as usize
    }

    fn in_window(&self, pc: u32) -> bool {
        self.index(pc) < self.slots.len()
    }

    /// The filled slot at `pc`, if there is one: the fetch fast path.
    #[inline(always)]
    fn filled(&self, pc: u32) -> Option<&Decoded> {
        // An odd PC's slot index aliases the preceding even address; it
        // must reach `decode_at`, which faults.
        if pc & 1 != 0 {
            return None;
        }
        self.slots.get(self.index(pc))?.decoded.as_ref()
    }

    /// The instruction at `pc`, its length and its lowered form, from its
    /// slot when inside the window — decoding and lowering under `cfg`
    /// and filling the slot on first use — or straight from `mem` outside
    /// it. The one routine that fills slots, shared by the
    /// per-instruction fetch and block lowering.
    ///
    /// # Errors
    ///
    /// [`SimError::FetchFault`] / [`SimError::IllegalInstruction`], as
    /// [`decode_at`] reports them; undecodable slots stay empty.
    pub(crate) fn decode(
        &mut self,
        mem: &Memory,
        cfg: &SimConfig,
        pc: u32,
    ) -> Result<Decoded, SimError> {
        if let Some(hit) = self.filled(pc) {
            return Ok(*hit);
        }
        let hit = decode_lowered(mem, cfg, pc)?;
        let idx = self.index(pc);
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.decoded = Some(hit);
        }
        Ok(hit)
    }

    /// Forget everything derived from the bytes `[addr, addr + len)`: the
    /// decoded slots whose instruction may cover them (a 32-bit
    /// instruction *starting* up to two bytes before `addr` spans into
    /// the range, so the slot range extends one slot backwards), the
    /// declined-leader markers there, and every block whose byte hull
    /// overlaps the range, folding a killed block's pending tallies into
    /// `stats`. Returns whether any block was killed. The only
    /// invalidation: simulated stores and `Cpu::write_data` both come
    /// here, and writes that miss the window exit after two compares.
    pub(crate) fn invalidate(&mut self, stats: &mut Stats, addr: u32, len: u32) -> bool {
        let hi = addr.saturating_add(len);
        let lo = addr.saturating_sub(2).max(self.base);
        let slots_hi = hi.min(self.base + self.len_bytes());
        // A block's hull ends at most two bytes past the window (a
        // spanning final instruction), so any write overlapping a block
        // also reaches a slot through the backward extension and passes
        // this test.
        if lo >= slots_hi {
            return false;
        }
        let first = self.index(lo);
        let last = self.index(slots_hi - 1);
        for slot in &mut self.slots[first..=last] {
            slot.decoded = None;
            if slot.tag == SLOT_NO_BLOCK {
                slot.tag = SLOT_EMPTY;
            }
        }
        let mut killed = false;
        for idx in 0..self.arena.len() {
            if matches!(&self.arena[idx], Some(e) if e.lo < hi && e.hi > addr) {
                self.kill(stats, idx);
                killed = true;
            }
        }
        killed
    }

    fn kill(&mut self, stats: &mut Stats, idx: usize) {
        if let Some(mut e) = self.arena[idx].take() {
            e.fold(stats);
            let leader = self.index(e.start);
            self.slots[leader].tag = SLOT_EMPTY;
            self.free.push(idx as u32);
        }
    }

    fn install(&mut self, slot: usize, entry: Entry) -> usize {
        let idx = match self.free.pop() {
            Some(i) => {
                self.arena[i as usize] = Some(entry);
                i
            }
            None => {
                self.arena.push(Some(entry));
                (self.arena.len() - 1) as u32
            }
        };
        self.slots[slot].tag = idx;
        idx as usize
    }

    /// Fold every live entry's pending tallies into `stats`: [`run`] calls
    /// this before it returns, so `stats` is complete outside a run.
    fn fold(&mut self, stats: &mut Stats) {
        for e in self.arena.iter_mut().flatten() {
            e.fold(stats);
        }
    }

    /// The live block that successor link `k` of the live entry `from`
    /// names, if it is led by `pc`.
    #[inline(always)]
    fn follow(&self, from: usize, k: usize, pc: u32) -> Option<usize> {
        let to = self.arena[from].as_ref()?.succ[k] as usize;
        match self.arena.get(to) {
            Some(Some(e)) if e.start == pc => Some(to),
            _ => None,
        }
    }

    fn link(&mut self, from: usize, k: usize, to: usize) {
        if let Some(e) = &mut self.arena[from] {
            e.succ[k] = to as u32;
        }
    }

    /// Top-`n` live blocks by dynamic instruction count.
    pub(crate) fn hot(&self, n: usize) -> Vec<HotBlock> {
        let mut v: Vec<HotBlock> = self
            .arena
            .iter()
            .flatten()
            .filter(|e| e.execs > 0)
            .map(|e| HotBlock {
                start: e.lo,
                end: e.hi,
                leader: e.start,
                instrs: e.retired as u32,
                uops: e.block.as_ref().map_or(0, |b| b.uops.len() as u32),
                execs: e.execs,
            })
            .collect();
        v.sort_by(|a, b| {
            b.dynamic_instrs()
                .cmp(&a.dynamic_instrs())
                .then(a.leader.cmp(&b.leader))
        });
        v.truncate(n);
        v
    }
}

/// How a block dispatch or a tail ended, short of a trap.
#[derive(Clone, Copy)]
enum Flow {
    /// Ran to the end; the current PC is the target of successor link
    /// `k` (`1` iff a branch tail was taken).
    Next(usize),
    /// Stopped after a store that killed cached code; the executed prefix
    /// is committed.
    Cut,
    /// Retired an `ecall` tail: the program exits.
    Exit,
}

/// Run until `ecall`, a trap, or `max_instructions` more retired: the
/// engine's one run loop plus the fold of the deferred per-class stats,
/// which leaves `cpu.stats` complete on every exit.
pub(crate) fn run(cpu: &mut Cpu, max_instructions: u64) -> Result<ExitReason, SimError> {
    let result = dispatch(cpu, max_instructions);
    cpu.blocks.fold(&mut cpu.stats);
    result
}

/// The run loop. Each iteration finds the block led by the current PC —
/// through the successor link the previous block left by, else the slot
/// tag (lowering and installing it on first use) — and executes it whole
/// when it fits the budget left; anything else — a declined leader, code
/// outside the window, a block that would overshoot the budget, the
/// block tier switched off — takes one [`step`], so instruction-limit
/// semantics match the per-instruction path exactly.
///
/// The block is taken out of its arena entry while it executes and put
/// back only if the entry is still live afterwards. Nothing installs a
/// block during [`exec_block`], so a live entry at that index is still
/// the same one; a block whose store killed it left `None` there and is
/// dropped here.
fn dispatch(cpu: &mut Cpu, max_instructions: u64) -> Result<ExitReason, SimError> {
    let limit = cpu.stats.instret.saturating_add(max_instructions);
    // The block that just completed and the successor link it left by.
    let mut from: Option<(usize, usize)> = None;
    while cpu.stats.instret < limit {
        let found = match from.take() {
            Some((idx, k)) => cpu.blocks.follow(idx, k, cpu.pc).or_else(|| {
                let to = leader_block(cpu)?;
                cpu.blocks.link(idx, k, to);
                Some(to)
            }),
            None => leader_block(cpu),
        };
        if let Some(idx) = found {
            let remaining = limit - cpu.stats.instret;
            let entry = cpu.blocks.arena[idx]
                .as_mut()
                .expect("slot tag points at a live block");
            if entry.retired <= remaining {
                let retired = entry.retired;
                let block = entry
                    .block
                    .take()
                    .expect("a block is not dispatched while it executes");
                let result = exec_block(cpu, &block, retired);
                if let Some(entry) = &mut cpu.blocks.arena[idx] {
                    entry.block = Some(block);
                    entry.execs += 1;
                    match result {
                        Ok(Flow::Next(k)) => {
                            entry.taken += k as u64;
                            from = Some((idx, k));
                        }
                        Ok(Flow::Exit) => {}
                        Ok(Flow::Cut) | Err(_) => entry.cut += 1,
                    }
                }
                match result? {
                    Flow::Exit => return Ok(ExitReason::Ecall),
                    Flow::Next(_) | Flow::Cut => continue,
                }
            }
        }
        if let Some(reason) = step(cpu)? {
            return Ok(reason);
        }
    }
    Ok(ExitReason::InstructionLimit)
}

/// Arena index of the block led by the current PC, lowering and
/// installing it on first use; `None` when the block tier is off or
/// declines this leader.
#[inline]
fn leader_block(cpu: &mut Cpu) -> Option<usize> {
    let pc = cpu.pc;
    if !cpu.blocks.enabled || pc & 1 != 0 {
        return None;
    }
    let slot = cpu.blocks.index(pc);
    match cpu.blocks.slots.get(slot)?.tag {
        SLOT_NO_BLOCK => None,
        SLOT_EMPTY => match lower_block(cpu, pc) {
            Some(entry) => Some(cpu.blocks.install(slot, entry)),
            None => {
                cpu.blocks.slots[slot].tag = SLOT_NO_BLOCK;
                None
            }
        },
        idx => Some(idx as usize),
    }
}

/// Execute `block`, which retires `retired` instructions when it
/// completes, from its first micro-op. A completed execution adds to
/// `instret` and `cycles` only; its per-class counts wait in the entry's
/// tallies.
#[inline(always)]
fn exec_block(cpu: &mut Cpu, block: &Block, retired: u64) -> Result<Flow, SimError> {
    for (i, u) in block.uops.iter().enumerate() {
        let status = (u.run)(cpu, u);
        if status != Status::Ok {
            return stop(cpu, block, i, status);
        }
    }
    let Some(t) = &block.tail else {
        retire(cpu, retired, block.body_cycles);
        cpu.pc = block.next;
        return Ok(Flow::Next(0));
    };
    match transfer(cpu, t) {
        Ok((pc, cycles, flow)) => {
            retire(cpu, retired, block.body_cycles + u64::from(cycles));
            cpu.pc = pc;
            Ok(flow)
        }
        Err(trap) => {
            // The body retired; the tail traps without retiring.
            commit_prefix(cpu, block, block.instrs.len());
            cpu.pc = t.pc;
            Err(trap)
        }
    }
}

/// Micro-op `i` of `block` returned `status` (a trap or a kill): commit
/// what retired with per-instruction accounting and leave the PC where
/// the per-instruction path would.
#[cold]
#[inline(never)]
fn stop(cpu: &mut Cpu, block: &Block, i: usize, status: Status) -> Result<Flow, SimError> {
    // The instructions of op `i` that retired. A trapping instruction
    // retires nothing, but the constituents of a fused op before it do.
    // A store that killed cached code (perhaps this very block) retired;
    // stores are never fused, and a jump folded into one is fetched
    // afresh, since the store may have rewritten it.
    let done = match status {
        Status::Trap => std::mem::take(&mut cpu.blocks.partial),
        _ => 1,
    };
    let n = block.uops[..i]
        .iter()
        .map(|u| usize::from(u.n))
        .sum::<usize>()
        + usize::from(done);
    commit_prefix(cpu, block, n);
    // Resume at the first instruction that did not retire: the trapping
    // one, or the next on fresh lowering and decoding after a kill.
    cpu.pc = match block.instrs.get(n) {
        Some(next) => next.pc,
        None => block.tail.as_ref().map_or(block.next, |t| t.pc),
    };
    if status == Status::Trap {
        return Err(take_trap(cpu));
    }
    Ok(Flow::Cut)
}

/// Execute the instruction at the current PC with per-instruction
/// accounting: the block path at block length 1, and the whole
/// per-instruction path. Returns `Some(reason)` when the program exits.
#[inline(always)]
pub(crate) fn step(cpu: &mut Cpu) -> Result<Option<ExitReason>, SimError> {
    // Copy a filled slot's op straight out of the slot: through
    // `decode`'s `Result` it is copied twice, which makes this path about
    // a quarter slower. Anything else goes through `decode`.
    let (op, len) = match cpu.blocks.filled(cpu.pc) {
        Some(d) => (d.op, d.len),
        None => {
            let d = cpu.blocks.decode(&cpu.mem, &cpu.config, cpu.pc)?;
            (d.op, d.len)
        }
    };
    match &op {
        Lowered::Op(u) => {
            if (u.run)(cpu, u) == Status::Trap {
                return Err(take_trap(cpu));
            }
            account(cpu, u.class, u.cycles);
            cpu.pc = u.pc.wrapping_add(len);
            Ok(None)
        }
        Lowered::Tail(t) => {
            let (pc, cycles, flow) = transfer(cpu, t)?;
            account(cpu, t.class, cycles);
            cpu.pc = pc;
            Ok(matches!(flow, Flow::Exit).then_some(ExitReason::Ecall))
        }
    }
}

/// Per-instruction accounting for the first `n` instructions of a
/// partially executed body (a trap or a kill).
fn commit_prefix(cpu: &mut Cpu, block: &Block, n: usize) {
    for r in &block.instrs[..n] {
        account(cpu, r.class, r.cycles);
    }
}

#[inline(always)]
fn retire(cpu: &mut Cpu, instrs: u64, cycles: u64) {
    cpu.stats.instret += instrs;
    cpu.stats.cycles += cycles;
}

#[inline]
fn account(cpu: &mut Cpu, class: u8, cycles: u32) {
    cpu.stats.bulk_count(class as usize, 1, u64::from(cycles));
    retire(cpu, 1, u64::from(cycles));
}

/// Execute tail `t`'s control transfer — the link register written, the
/// branch decided — and return the next PC, the cycles the tail costs
/// and how dispatch continues. A decode-time trap returns its trap
/// without side effects. Both tiers run tails through here.
#[inline(always)]
fn transfer(cpu: &mut Cpu, t: &Tail) -> Result<(u32, u32, Flow), SimError> {
    Ok(match t.kind {
        TailKind::Jal { rd, target } => {
            set_xr(cpu, rd, t.next);
            (target, t.cycles, Flow::Next(0))
        }
        TailKind::Jalr { rd, rs1, offset } => {
            // Read rs1 before linking: rd may alias rs1.
            let target = xr(cpu, rs1).wrapping_add(offset as u32) & !1;
            set_xr(cpu, rd, t.next);
            (target, t.cycles, Flow::Next(0))
        }
        TailKind::Branch {
            cond,
            rs1,
            rs2,
            target,
            not_cycles,
        } => {
            let a = xr(cpu, rs1);
            let b = xr(cpu, rs2);
            let taken = match cond {
                BranchCond::Eq => a == b,
                BranchCond::Ne => a != b,
                BranchCond::Lt => (a as i32) < (b as i32),
                BranchCond::Ge => (a as i32) >= (b as i32),
                BranchCond::Ltu => a < b,
                BranchCond::Geu => a >= b,
            };
            if taken {
                (target, t.cycles, Flow::Next(1))
            } else {
                (t.next, not_cycles, Flow::Next(0))
            }
        }
        TailKind::Ecall => (t.next, t.cycles, Flow::Exit),
        TailKind::Trap(trap) => return Err(trap),
    })
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Walk the code window from `leader`, copying lowered instructions out
/// of the slots until a tail, a CSR (barrier), an undecodable slot, the
/// window edge, or [`MAX_BODY`] body instructions. A `jal x0` to an even
/// PC inside the window is no tail here: it joins the body and the walk
/// continues at its target. Slots decode (and fill) on the way; the body
/// then becomes micro-ops through [`fuse_body`]. Returns `None` when
/// nothing at all can be lowered here.
fn lower_block(cpu: &mut Cpu, leader: u32) -> Option<Entry> {
    let mut body: Vec<Decoded> = Vec::new();
    let mut tail = None;
    let mut pc = leader;
    let (mut lo, mut hi) = (leader, leader);
    while body.len() < MAX_BODY && cpu.blocks.in_window(pc) {
        let Ok(d) = cpu.blocks.decode(&cpu.mem, &cpu.config, pc) else {
            break;
        };
        // CSR reads observe live cycle/instret counters, stale before the
        // block commit: always run them on the per-instruction path.
        if matches!(d.instr, Instr::Csr { .. }) {
            break;
        }
        lo = lo.min(pc);
        hi = hi.max(pc.wrapping_add(d.len));
        match d.op {
            Lowered::Op(_) => {
                body.push(d);
                pc = pc.wrapping_add(d.len);
            }
            Lowered::Tail(Tail {
                kind: TailKind::Jal { rd: 0, target },
                ..
            }) if target & 1 == 0 && cpu.blocks.in_window(target) => {
                body.push(d);
                pc = target;
            }
            Lowered::Tail(t) => {
                tail = Some(t);
                break;
            }
        }
    }
    if body.is_empty() && tail.is_none() {
        return None;
    }
    let (uops, instrs) = fuse_body(&body);
    let mut totals = [(0u32, 0u64); InstrClass::ALL.len()];
    let mut count = |class: u8, cycles: u32| {
        totals[class as usize].0 += 1;
        totals[class as usize].1 += u64::from(cycles);
    };
    for r in &instrs {
        count(r.class, r.cycles);
    }
    let mut branch = None;
    if let Some(t) = &tail {
        match t.kind {
            TailKind::Branch { not_cycles, .. } => branch = Some((t.class, t.cycles, not_cycles)),
            // A trap tail never completes: its body commits per op.
            TailKind::Trap(_) => {}
            _ => count(t.class, t.cycles),
        }
    }
    let classes: Box<[(u8, u32, u64)]> = totals
        .iter()
        .enumerate()
        .filter(|(_, &(n, _))| n > 0)
        .map(|(i, &(n, cycles))| (i as u8, n, cycles))
        .collect();
    Some(Entry {
        start: leader,
        lo,
        hi,
        retired: instrs.len() as u64 + u64::from(tail.is_some()),
        block: Some(Box::new(Block {
            body_cycles: instrs.iter().map(|r| u64::from(r.cycles)).sum(),
            uops: uops.into_boxed_slice(),
            instrs: instrs.into_boxed_slice(),
            tail,
            next: pc,
        })),
        execs: 0,
        cut: 0,
        folded: 0,
        taken: 0,
        classes,
        branch,
        succ: [NO_LINK; 2],
    })
}

/// Select the monomorphized handler instantiation for `$fmt`, appending
/// its format code as the trailing const parameter (optionally after a
/// leading const `$pre`).
macro_rules! by_fmt {
    ($fmt:expr, $name:ident) => {
        match $fmt {
            FpFmt::S => $name::<{ FpFmt::S as u8 }>,
            FpFmt::Ah => $name::<{ FpFmt::Ah as u8 }>,
            FpFmt::H => $name::<{ FpFmt::H as u8 }>,
            FpFmt::B => $name::<{ FpFmt::B as u8 }>,
            FpFmt::Ab => $name::<{ FpFmt::Ab as u8 }>,
        }
    };
    ($fmt:expr, $name:ident, $pre:expr) => {
        match $fmt {
            FpFmt::S => $name::<{ $pre }, { FpFmt::S as u8 }>,
            FpFmt::Ah => $name::<{ $pre }, { FpFmt::Ah as u8 }>,
            FpFmt::H => $name::<{ $pre }, { FpFmt::H as u8 }>,
            FpFmt::B => $name::<{ $pre }, { FpFmt::B as u8 }>,
            FpFmt::Ab => $name::<{ $pre }, { FpFmt::Ab as u8 }>,
        }
    };
}

/// Like [`by_fmt!`] for vector handlers: `.s` never reaches a handler
/// (lowering emits a trap tail first).
macro_rules! by_vec {
    ($fmt:expr, $name:ident) => {
        match $fmt {
            FpFmt::Ah => $name::<{ FpFmt::Ah as u8 }>,
            FpFmt::H => $name::<{ FpFmt::H as u8 }>,
            FpFmt::B => $name::<{ FpFmt::B as u8 }>,
            FpFmt::Ab => $name::<{ FpFmt::Ab as u8 }>,
            FpFmt::S => unreachable!("vector op on .s lowers to a trap tail"),
        }
    };
    ($fmt:expr, $name:ident, $pre:expr) => {
        match $fmt {
            FpFmt::Ah => $name::<{ $pre }, { FpFmt::Ah as u8 }>,
            FpFmt::H => $name::<{ $pre }, { FpFmt::H as u8 }>,
            FpFmt::B => $name::<{ $pre }, { FpFmt::B as u8 }>,
            FpFmt::Ab => $name::<{ $pre }, { FpFmt::Ab as u8 }>,
            FpFmt::S => unreachable!("vector op on .s lowers to a trap tail"),
        }
    };
}

/// `fn $fn_name(op, fmt) -> UopFn` dispatch tables: one arm per op
/// variant so the op id is a constant expression in each instantiation.
macro_rules! op_fmt_fn {
    ($fn_name:ident, $opty:ident, $handler:ident, $by:ident, [$($v:ident),+]) => {
        fn $fn_name(op: $opty, fmt: FpFmt) -> UopFn {
            match op {
                $($opty::$v => $by!(fmt, $handler, $opty::$v as u8),)+
            }
        }
    };
}

/// `fn $fn_name(op) -> UopFn` for integer op families.
macro_rules! op_fn {
    ($fn_name:ident, $opty:ident, $handler:ident, [$($v:ident),+]) => {
        fn $fn_name(op: $opty) -> UopFn {
            match op {
                $($opty::$v => $handler::<{ $opty::$v as u8 }>,)+
            }
        }
    };
}

/// Inverse of the `op as u8` const ids: folds to a constant inside each
/// monomorphized handler. Pinned by `const_ids_round_trip`.
macro_rules! from_u8_fn {
    ($name:ident, $opty:ident, [$first:ident $(, $rest:ident)*]) => {
        #[inline(always)]
        fn $name(x: u8) -> $opty {
            $(if x == $opty::$rest as u8 {
                return $opty::$rest;
            })*
            let _ = x;
            $opty::$first
        }
    };
}

from_u8_fn!(
    aluop_of,
    AluOp,
    [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And]
);
from_u8_fn!(
    muldivop_of,
    MulDivOp,
    [Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu]
);
from_u8_fn!(fpop_of, FpOp, [Add, Sub, Mul, Div]);
from_u8_fn!(sgnj_of, SgnjKind, [Sgnj, Sgnjn, Sgnjx]);
from_u8_fn!(minmax_of, MinMaxOp, [Min, Max]);
from_u8_fn!(fma_of, FmaOp, [Madd, Msub, Nmsub, Nmadd]);
from_u8_fn!(cmp_of, CmpOp, [Eq, Lt, Le]);
from_u8_fn!(vcmp_of, VCmpOp, [Eq, Ne, Lt, Le, Gt, Ge]);
from_u8_fn!(csrop_of, CsrOp, [Rw, Rs, Rc]);
from_u8_fn!(
    vfop_of,
    VfOp,
    [Add, Sub, Mul, Div, Min, Max, Mac, Sgnj, Sgnjn, Sgnjx]
);

/// Inverse of the `fmt as u8` const ids — the enum *discriminant*, not
/// the encoding `fmt` code (they diverge for `Ab`, which banks onto B's
/// code). Pinned by `const_ids_round_trip`.
#[inline(always)]
fn fmt_of(x: u8) -> FpFmt {
    match x {
        0 => FpFmt::S,
        1 => FpFmt::Ah,
        2 => FpFmt::H,
        4 => FpFmt::Ab,
        _ => FpFmt::B,
    }
}

op_fn!(
    alu_ri_fn,
    AluOp,
    alu_ri,
    [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And]
);
op_fn!(
    alu_rr_fn,
    AluOp,
    alu_rr,
    [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And]
);
op_fn!(
    muldiv_fn,
    MulDivOp,
    muldiv_rr,
    [Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu]
);
op_fmt_fn!(fop_fn, FpOp, fop, by_fmt, [Add, Sub, Mul, Div]);
op_fmt_fn!(fsgnj_fn, SgnjKind, fsgnj, by_fmt, [Sgnj, Sgnjn, Sgnjx]);
op_fmt_fn!(fminmax_fn, MinMaxOp, fminmax, by_fmt, [Min, Max]);
op_fmt_fn!(ffma_fn, FmaOp, ffma, by_fmt, [Madd, Msub, Nmsub, Nmadd]);
op_fmt_fn!(fcmp_fn, CmpOp, fcmp, by_fmt, [Eq, Lt, Le]);
op_fmt_fn!(
    vfop_fn,
    VfOp,
    vfop,
    by_vec,
    [Add, Sub, Mul, Div, Min, Max, Mac, Sgnj, Sgnjn, Sgnjx]
);
op_fmt_fn!(vfcmp_fn, VCmpOp, vfcmp, by_vec, [Eq, Ne, Lt, Le, Gt, Ge]);

/// Resolve a static rounding mode at lowering time; [`RM_DYN`] defers to
/// `fcsr.frm` at execution.
fn lower_rm(rm: Rm) -> u8 {
    match rm {
        Rm::Dyn => RM_DYN,
        other => other.resolve(Rounding::Rne).to_frm(),
    }
}

/// `u32::try_from` for cycle costs; lowered ops store them narrow to keep
/// code-window slots small.
fn cost(cycles: u64) -> u32 {
    u32::try_from(cycles).expect("per-instruction cycle cost fits in u32")
}

/// Lower one decoded instruction at `pc` under `cfg`'s timing. Static
/// rounding modes, cycle costs, branch targets and decode-time traps are
/// all resolved here, once per slot fill.
fn lower(cfg: &SimConfig, pc: u32, instr: Instr, len: u32) -> Lowered {
    let t = &cfg.timing;
    let mem_lat = cfg.mem_level.latency();
    let class = instr.class().index() as u8;
    let tail = |kind, cycles| {
        Lowered::Tail(Tail {
            kind,
            pc,
            next: pc.wrapping_add(len),
            class,
            cycles: cost(cycles),
        })
    };
    // A vector op on a format with no SIMD lanes (or a lane selector out
    // of range) traps without side effects.
    let unsupported = tail(TailKind::Trap(SimError::VectorUnsupported { pc }), 0);
    let mut u = MicroOp::bare(pc, class, 0);
    let mut cycles = t.int_alu;
    match instr {
        Instr::Jal { rd, offset } => {
            let (rd, target) = (rd.num(), pc.wrapping_add(offset as u32));
            return tail(TailKind::Jal { rd, target }, t.jump);
        }
        Instr::Jalr { rd, rs1, offset } => {
            let (rd, rs1) = (rd.num(), rs1.num());
            return tail(TailKind::Jalr { rd, rs1, offset }, t.jump);
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let kind = TailKind::Branch {
                cond,
                rs1: rs1.num(),
                rs2: rs2.num(),
                target: pc.wrapping_add(offset as u32),
                not_cycles: cost(t.branch_not_taken),
            };
            return tail(kind, t.branch_taken);
        }
        Instr::Ecall => return tail(TailKind::Ecall, t.int_alu),
        // `ebreak` traps without retiring; costs are never accounted.
        Instr::Ebreak => return tail(TailKind::Trap(SimError::Breakpoint { pc }), 0),
        Instr::Csr { op, rd, src, csr } => {
            // The source operand is `x[rs1] + imm`: a register with a zero
            // immediate, or `x0` plus the 5-bit immediate.
            let (rs1, imm) = match src {
                CsrSrc::Reg(r) => (r.num(), 0),
                CsrSrc::Imm(i) => (0, i),
            };
            u.rd = rd.num();
            u.rs1 = rs1;
            u.imm = i32::from(imm);
            u.aux = u32::from(csr);
            u.run = match op {
                CsrOp::Rw => csr_op::<{ CsrOp::Rw as u8 }>,
                _ if rs1 == 0 && imm == 0 => csr_op::<CSR_READ>,
                CsrOp::Rs => csr_op::<{ CsrOp::Rs as u8 }>,
                CsrOp::Rc => csr_op::<{ CsrOp::Rc as u8 }>,
            };
        }
        Instr::Lui { rd, imm20 } => {
            u.run = const_x;
            u.rd = rd.num();
            u.imm = ((imm20 as u32) << 12) as i32;
        }
        Instr::Auipc { rd, imm20 } => {
            u.run = const_x;
            u.rd = rd.num();
            u.imm = pc.wrapping_add((imm20 as u32) << 12) as i32;
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            u.run = alu_ri_fn(op);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.imm = imm;
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            u.run = alu_rr_fn(op);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
        }
        Instr::Fence => u.run = nop,
        Instr::MulDiv { op, rd, rs1, rs2 } => {
            u.run = muldiv_fn(op);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            cycles = match op {
                MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => t.int_mul,
                _ => t.int_div,
            };
        }
        Instr::Load {
            width,
            unsigned,
            rd,
            rs1,
            offset,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.imm = offset;
            cycles = mem_lat;
            u.run = match (width, unsigned || width == MemWidth::W) {
                (MemWidth::B, false) => load_int::<1, 1>,
                (MemWidth::B, true) => load_int::<1, 0>,
                (MemWidth::H, false) => load_int::<2, 1>,
                (MemWidth::H, true) => load_int::<2, 0>,
                (MemWidth::W, _) => load_int::<4, 0>,
            };
        }
        Instr::Store {
            width,
            rs2,
            rs1,
            offset,
        } => {
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.imm = offset;
            cycles = mem_lat;
            u.run = match width {
                MemWidth::B => store_int::<1>,
                MemWidth::H => store_int::<2>,
                MemWidth::W => store_int::<4>,
            };
        }
        Instr::FLoad {
            fmt,
            rd,
            rs1,
            offset,
        } => {
            u.run = by_fmt!(fmt, load_fp);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.imm = offset;
            cycles = mem_lat;
        }
        Instr::FStore {
            fmt,
            rs2,
            rs1,
            offset,
        } => {
            u.run = match fmt.width() / 8 {
                4 => store_fp::<4>,
                2 => store_fp::<2>,
                _ => store_fp::<1>,
            };
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.imm = offset;
            cycles = mem_lat;
        }
        Instr::FOp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            u.run = fop_fn(op, fmt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.rm = lower_rm(rm);
            cycles = if op == FpOp::Div { t.fp_div } else { t.fp_op };
        }
        Instr::FSqrt { fmt, rd, rs1, rm } => {
            u.run = by_fmt!(fmt, fsqrt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_sqrt;
        }
        Instr::FSgnj {
            kind,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            u.run = fsgnj_fn(kind, fmt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            cycles = t.fp_op;
        }
        Instr::FMinMax {
            op,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            u.run = fminmax_fn(op, fmt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            cycles = t.fp_op;
        }
        Instr::FFma {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rs3,
            rm,
        } => {
            u.run = ffma_fn(op, fmt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.rs3 = rs3.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::FCmp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
        } => {
            u.run = fcmp_fn(op, fmt);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            cycles = t.fp_op;
        }
        Instr::FClass { fmt, rd, rs1 } => {
            u.run = by_fmt!(fmt, fclass);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            cycles = t.fp_op;
        }
        Instr::FMvXF { fmt, rd, rs1 } => {
            u.run = by_fmt!(fmt, fmv_xf);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            cycles = t.fp_op;
        }
        Instr::FMvFX { fmt, rd, rs1 } => {
            u.run = by_fmt!(fmt, fmv_fx);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            cycles = t.fp_op;
        }
        Instr::FCvtFF {
            dst,
            src,
            rd,
            rs1,
            rm,
        } => {
            u.run = match dst {
                FpFmt::S => by_fmt!(src, fcvt_ff, FpFmt::S as u8),
                FpFmt::Ah => by_fmt!(src, fcvt_ff, FpFmt::Ah as u8),
                FpFmt::H => by_fmt!(src, fcvt_ff, FpFmt::H as u8),
                FpFmt::B => by_fmt!(src, fcvt_ff, FpFmt::B as u8),
                FpFmt::Ab => by_fmt!(src, fcvt_ff, FpFmt::Ab as u8),
            };
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::FCvtFI {
            fmt,
            rd,
            rs1,
            signed,
            rm,
        } => {
            u.run = if signed {
                by_fmt!(fmt, fcvt_fi, 1)
            } else {
                by_fmt!(fmt, fcvt_fi, 0)
            };
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::FCvtIF {
            fmt,
            rd,
            rs1,
            signed,
            rm,
        } => {
            u.run = if signed {
                by_fmt!(fmt, fcvt_if, 1)
            } else {
                by_fmt!(fmt, fcvt_if, 0)
            };
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::FMulEx {
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            u.run = by_fmt!(fmt, fmulex);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::FMacEx {
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            u.run = by_fmt!(fmt, fmacex);
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.rm = lower_rm(rm);
            cycles = t.fp_op;
        }
        Instr::VFOp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.aux = u32::from(rep);
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = vfop_fn(op, fmt);
                cycles = if op == VfOp::Div { t.fp_div } else { t.fp_op };
            }
        }
        Instr::VFSqrt { fmt, rd, rs1 } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = by_vec!(fmt, vfsqrt);
                cycles = t.fp_sqrt;
            }
        }
        Instr::VFCmp {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.aux = u32::from(rep);
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = vfcmp_fn(op, fmt);
                cycles = t.fp_op;
            }
        }
        Instr::VFCvtFF { dst, src, rd, rs1 } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = RM_DYN;
            if dst.width() != src.width() || dst == FpFmt::S {
                return unsupported;
            } else {
                u.run = match (dst, src) {
                    (FpFmt::H, FpFmt::H) => vfcvt_ff16::<{ FpFmt::H as u8 }, { FpFmt::H as u8 }>,
                    (FpFmt::H, FpFmt::Ah) => vfcvt_ff16::<{ FpFmt::H as u8 }, { FpFmt::Ah as u8 }>,
                    (FpFmt::Ah, FpFmt::H) => vfcvt_ff16::<{ FpFmt::Ah as u8 }, { FpFmt::H as u8 }>,
                    (FpFmt::Ah, FpFmt::Ah) => {
                        vfcvt_ff16::<{ FpFmt::Ah as u8 }, { FpFmt::Ah as u8 }>
                    }
                    (FpFmt::B, FpFmt::B) => vfcvt_ff8::<{ FpFmt::B as u8 }, { FpFmt::B as u8 }>,
                    (FpFmt::B, FpFmt::Ab) => vfcvt_ff8::<{ FpFmt::B as u8 }, { FpFmt::Ab as u8 }>,
                    (FpFmt::Ab, FpFmt::B) => vfcvt_ff8::<{ FpFmt::Ab as u8 }, { FpFmt::B as u8 }>,
                    (FpFmt::Ab, FpFmt::Ab) => vfcvt_ff8::<{ FpFmt::Ab as u8 }, { FpFmt::Ab as u8 }>,
                    _ => unreachable!("equal-width pairs only"),
                };
                cycles = t.fp_op;
            }
        }
        Instr::VFCvtXF {
            fmt,
            rd,
            rs1,
            signed,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = if signed {
                    by_vec!(fmt, vfcvt_xf, 1)
                } else {
                    by_vec!(fmt, vfcvt_xf, 0)
                };
                cycles = t.fp_op;
            }
        }
        Instr::VFCvtFX {
            fmt,
            rd,
            rs1,
            signed,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = if signed {
                    by_vec!(fmt, vfcvt_fx, 1)
                } else {
                    by_vec!(fmt, vfcvt_fx, 0)
                };
                cycles = t.fp_op;
            }
        }
        Instr::VFCpk {
            fmt,
            half,
            rd,
            rs1,
            rs2,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.rm = RM_DYN;
            let base = match half {
                CpkHalf::A => 0,
                CpkHalf::B => 2,
            };
            match vector_lanes(FLEN, fmt) {
                Some(n) if base + 1 < n => {
                    u.run = by_vec!(fmt, vfcpk);
                    u.aux = base;
                    cycles = t.fp_op;
                }
                _ => return unsupported,
            }
        }
        Instr::VFDotpEx {
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.aux = u32::from(rep);
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = by_vec!(fmt, vfdotpex);
                cycles = t.fp_op;
            }
        }
        Instr::VFSdotpEx {
            fmt,
            rd,
            rs1,
            rs2,
            rep,
        } => {
            u.rd = rd.num();
            u.rs1 = rs1.num();
            u.rs2 = rs2.num();
            u.aux = u32::from(rep);
            u.rm = RM_DYN;
            if fmt == FpFmt::S {
                return unsupported;
            } else {
                u.run = by_vec!(fmt, vfsdotpex);
                cycles = t.fp_op;
            }
        }
    }
    u.cycles = cost(cycles);
    Lowered::Op(u)
}

// ---------------------------------------------------------------------------
// Fusion at lowering
// ---------------------------------------------------------------------------

/// Turn a block body — its straight-line ops and followed jumps, in
/// program order — into micro-ops and the per-instruction record. A run
/// of ops that the fusion table names ([`fuse`]) becomes one micro-op,
/// and a followed jump, which changes no register, retires with the
/// micro-op before it (a jump leading the block stays a no-op of its
/// own).
fn fuse_body(body: &[Decoded]) -> (Vec<MicroOp>, Vec<Retired>) {
    let instrs = body
        .iter()
        .map(|d| match d.op {
            Lowered::Op(u) => Retired {
                pc: u.pc,
                class: u.class,
                cycles: u.cycles,
            },
            Lowered::Tail(t) => Retired {
                pc: t.pc,
                class: t.class,
                cycles: t.cycles,
            },
        })
        .collect();
    let mut uops: Vec<MicroOp> = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        let u = match body[i].op {
            Lowered::Op(u) => fuse(&body[i..]).unwrap_or(u),
            Lowered::Tail(t) => match uops.last_mut() {
                Some(last) => {
                    last.n += 1;
                    i += 1;
                    continue;
                }
                None => MicroOp::bare(t.pc, t.class, t.cycles),
            },
        };
        i += usize::from(u.n);
        uops.push(u);
    }
    (uops, instrs)
}

/// The fused micro-op for the longest run at the head of `body` that the
/// fusion table names, if any. The table is fixed, chosen by a census of
/// dynamic adjacent ops in the nn training and serving kernels
/// (EXPERIMENTS.md): integer address and index arithmetic
/// ([`int_fused_fn`]), and the lane-accumulate idiom `fmv.{h,b}.x;
/// fcvt.s.{h,b}; fadd.s`, which widens a narrow value into a binary32 sum
/// ([`fuse_lane`]). Loads and stores are never fused, so a fused op
/// neither faults on memory nor kills a block. A fused op keeps its first
/// constituent's `pc`, `class` and `cycles`; blocks account from their
/// [`Retired`] record, never from a fused op.
fn fuse(body: &[Decoded]) -> Option<MicroOp> {
    fuse_int(body).or_else(|| fuse_lane(body))
}

/// The integer ops of the fusion table, as const handler ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum IntOp {
    Addi,
    Slli,
    Add,
    Mul,
}

from_u8_fn!(intop_of, IntOp, [Addi, Slli, Add, Mul]);

/// Third-constituent id of a fused integer pair.
const PAIR: u8 = u8::MAX;

/// The integer half of the fusion table: the census's hot adjacent pairs
/// and one triple, `addi` thrice.
fn int_fused_fn(ops: &[IntOp]) -> Option<UopFn> {
    use IntOp::{Add, Addi, Mul, Slli};
    macro_rules! fused {
        ($a:ident, $b:ident) => {
            int_fused::<{ $a as u8 }, { $b as u8 }, PAIR>
        };
        ($a:ident, $b:ident, $c:ident) => {
            int_fused::<{ $a as u8 }, { $b as u8 }, { $c as u8 }>
        };
    }
    let run: UopFn = match ops {
        [Addi, Addi, Addi] => fused!(Addi, Addi, Addi),
        [Addi, Addi] => fused!(Addi, Addi),
        [Addi, Mul] => fused!(Addi, Mul),
        [Add, Addi] => fused!(Add, Addi),
        [Add, Slli] => fused!(Add, Slli),
        [Slli, Add] => fused!(Slli, Add),
        [Add, Add] => fused!(Add, Add),
        [Addi, Slli] => fused!(Addi, Slli),
        [Slli, Slli] => fused!(Slli, Slli),
        [Addi, Add] => fused!(Addi, Add),
        [Mul, Add] => fused!(Mul, Add),
        _ => return None,
    };
    Some(run)
}

/// An integer op of the fusion table as `(op, rd, rs1, b)`: `b` is the
/// immediate, or the `rs2` number of a register op. `None` for any other
/// instruction, and for an immediate wider than the 12 bits a packed
/// constituent holds.
fn int_operands(instr: &Instr) -> Option<(IntOp, u8, u8, i32)> {
    let (op, rd, rs1, b) = match *instr {
        Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        } => (IntOp::Addi, rd, rs1, imm),
        Instr::OpImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm,
        } => (IntOp::Slli, rd, rs1, imm),
        Instr::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        } => (IntOp::Add, rd, rs1, i32::from(rs2.num())),
        Instr::MulDiv {
            op: MulDivOp::Mul,
            rd,
            rs1,
            rs2,
        } => (IntOp::Mul, rd, rs1, i32::from(rs2.num())),
        _ => return None,
    };
    (-2048..2048)
        .contains(&b)
        .then_some((op, rd.num(), rs1.num(), b))
}

/// Fuse the longest run of two or three integer ops at the head of `body`
/// that [`int_fused_fn`] names. Constituent 0 keeps the plain fields
/// (`rd`, `rs1`, `imm` = `b`); 1 and 2 are packed as [`int_part`] reads
/// them.
fn fuse_int(body: &[Decoded]) -> Option<MicroOp> {
    let Lowered::Op(first) = body.first()?.op else {
        return None;
    };
    let mut parts = [(IntOp::Addi, 0, 0, 0); 3];
    let mut len = 0;
    for d in body.iter().take(3) {
        let Some(p) = int_operands(&d.instr) else {
            break;
        };
        parts[len] = p;
        len += 1;
    }
    let ops = parts.map(|p| p.0);
    let (run, len) = (2..=len)
        .rev()
        .find_map(|n| Some((int_fused_fn(&ops[..n])?, n)))?;
    let [(_, rd0, rs1_0, b0), (_, rd1, rs1_1, b1), (_, rd2, rs1_2, b2)] = parts;
    Some(MicroOp {
        run,
        rd: rd0,
        rs1: rs1_0,
        imm: b0,
        rs2: rd1,
        rs3: rs1_1,
        rm: rd2,
        aux: (b1 as u32 & 0xfff) | (b2 as u32 & 0xfff) << 12 | u32::from(rs1_2) << 24,
        n: len as u8,
        ..first
    })
}

/// A constituent of the lane-accumulate idiom: its position `k` (0
/// `fmv.F.x`, 1 `fcvt.s.F`, 2 `fadd.s`), its format (`F`; binary32 for the
/// `fadd.s`), its registers `[rd, rs1, rs2]` and its lowered rounding mode
/// (`None` for the move).
fn lane_operands(d: &Decoded) -> Option<(u8, FpFmt, [u8; 3], Option<u8>)> {
    if d.len != 4 {
        return None;
    }
    Some(match d.instr {
        Instr::FMvFX {
            fmt: fmt @ (FpFmt::H | FpFmt::B),
            rd,
            rs1,
        } => (0, fmt, [rd.num(), rs1.num(), 0], None),
        Instr::FCvtFF {
            dst: FpFmt::S,
            src: src @ (FpFmt::H | FpFmt::B),
            rd,
            rs1,
            rm,
        } => (1, src, [rd.num(), rs1.num(), 0], Some(lower_rm(rm))),
        Instr::FOp {
            op: FpOp::Add,
            fmt: FpFmt::S,
            rd,
            rs1,
            rs2,
            rm,
        } => (
            2,
            FpFmt::S,
            [rd.num(), rs1.num(), rs2.num()],
            Some(lower_rm(rm)),
        ),
        _ => return None,
    })
}

/// Fuse the lane-accumulate idiom at the head of `body`: the whole triple,
/// or the pair `fmv; fcvt` or `fcvt; fadd` where the idiom is cut short.
/// The move and the conversion share `F`, and the conversion and the add
/// their rounding mode. Constituent `j` of the fused op sits `4 * j` bytes
/// after its `pc`; [`lane_regs`] reads the packed registers.
fn fuse_lane(body: &[Decoded]) -> Option<MicroOp> {
    let Lowered::Op(first) = body.first()?.op else {
        return None;
    };
    let (lo, fmt, regs0, mut rm) = lane_operands(&body[0])?;
    let mut regs = [regs0, [0; 3], [0; 3]];
    let mut hi = lo + 1;
    for d in &body[1..] {
        match lane_operands(d) {
            Some((k, f, r, m)) if k == hi && (k == 2 || f == fmt) && (rm.is_none() || m == rm) => {
                regs[usize::from(k - lo)] = r;
                rm = m;
                hi += 1;
            }
            _ => break,
        }
    }
    const H: u8 = FpFmt::H as u8;
    const B: u8 = FpFmt::B as u8;
    let run: UopFn = match (fmt, lo, hi) {
        (FpFmt::H, 0, 3) => lane_acc::<H, 0, 3>,
        (FpFmt::H, 0, 2) => lane_acc::<H, 0, 2>,
        (FpFmt::H, 1, 3) => lane_acc::<H, 1, 3>,
        (FpFmt::B, 0, 3) => lane_acc::<B, 0, 3>,
        (FpFmt::B, 0, 2) => lane_acc::<B, 0, 2>,
        (FpFmt::B, 1, 3) => lane_acc::<B, 1, 3>,
        _ => return None,
    };
    let [[rd, rs1, rs2], r1, r2] = regs;
    Some(MicroOp {
        run,
        rd,
        rs1,
        rs2,
        rm: rm?,
        imm: i32::from_le_bytes([r1[0], r1[1], r1[2], 0]),
        aux: u32::from_le_bytes([r2[0], r2[1], r2[2], 0]),
        n: hi - lo,
        ..first
    })
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

#[inline(always)]
fn xr(cpu: &Cpu, r: u8) -> u32 {
    cpu.x[(r & 31) as usize]
}

#[inline(always)]
fn set_xr(cpu: &mut Cpu, r: u8, v: u32) {
    if r != 0 {
        cpu.x[(r & 31) as usize] = v;
    }
}

#[inline(always)]
fn fr(cpu: &Cpu, r: u8) -> u32 {
    cpu.f[(r & 31) as usize]
}

#[inline(always)]
fn set_fr(cpu: &mut Cpu, r: u8, v: u32) {
    cpu.f[(r & 31) as usize] = v;
}

#[inline(always)]
fn freg(r: u8) -> FReg {
    FReg::new(r & 31)
}

/// The op's rounding mode: its static mode, or `fcsr.frm` for [`RM_DYN`]
/// (trapping while `frm` holds a reserved value).
#[inline(always)]
fn uop_rm(cpu: &Cpu, u: &MicroOp) -> Result<Rounding, SimError> {
    if u.rm == RM_DYN {
        cpu.frm().ok_or(SimError::InvalidRounding { pc: u.pc })
    } else {
        Ok(Rounding::from_frm(u.rm).unwrap_or(Rounding::Rne))
    }
}

/// Whether the op rounds to nearest-even: a static RNE, or [`RM_DYN`]
/// while `fcsr.frm` holds RNE. Such ops first try a host leaf
/// ([`smallfloat_softfp::host`]); every other mode, a reserved `frm`
/// included (it traps there), takes the op's `Env` path.
#[inline(always)]
fn rne(cpu: &Cpu, u: &MicroOp) -> bool {
    let rne = Rounding::Rne.to_frm();
    if u.rm == RM_DYN {
        cpu.frm_raw == u32::from(rne)
    } else {
        u.rm == rne
    }
}

/// The sign bit of `fmt`'s encoding.
#[inline(always)]
fn sign_bit(fmt: FpFmt) -> u64 {
    1 << (fmt.width() - 1)
}

/// Call the host leaf `host::$f` at the `<E, M>` layout of `$fmt`, a
/// per-instantiation constant. The plain form serves the scalar
/// arithmetic ops, whose 8-bit formats keep their lookup tables (`None`);
/// `@narrow` serves the expanding ops, whose sources are the four narrow
/// formats.
macro_rules! leaf {
    ($fmt:expr, $f:ident($($arg:expr),*)) => {
        match $fmt {
            FpFmt::S => host::$f::<8, 23>($($arg),*),
            FpFmt::H => host::$f::<5, 10>($($arg),*),
            FpFmt::Ah => host::$f::<8, 7>($($arg),*),
            FpFmt::B | FpFmt::Ab => None,
        }
    };
    (@narrow $fmt:expr, $f:ident($($arg:expr),*)) => {
        match $fmt {
            FpFmt::H => host::$f::<5, 10>($($arg),*),
            FpFmt::Ah => host::$f::<8, 7>($($arg),*),
            FpFmt::B => host::$f::<5, 2>($($arg),*),
            FpFmt::Ab => host::$f::<4, 3>($($arg),*),
            FpFmt::S => None,
        }
    };
}

/// [`host::cvt`] from `$src` to `$dst` (both per-instantiation
/// constants) of `$bits`.
macro_rules! cvt_leaf {
    ($dst:expr, $src:expr, $bits:expr) => {
        match $src {
            FpFmt::S => cvt_leaf!(@to $dst, 8, 23, $bits),
            FpFmt::H => cvt_leaf!(@to $dst, 5, 10, $bits),
            FpFmt::Ah => cvt_leaf!(@to $dst, 8, 7, $bits),
            FpFmt::B => cvt_leaf!(@to $dst, 5, 2, $bits),
            FpFmt::Ab => cvt_leaf!(@to $dst, 4, 3, $bits),
        }
    };
    (@to $dst:expr, $se:literal, $sm:literal, $bits:expr) => {
        match $dst {
            FpFmt::S => host::cvt::<$se, $sm, 8, 23>($bits),
            FpFmt::H => host::cvt::<$se, $sm, 5, 10>($bits),
            FpFmt::Ah => host::cvt::<$se, $sm, 8, 7>($bits),
            FpFmt::B => host::cvt::<$se, $sm, 5, 2>($bits),
            FpFmt::Ab => host::cvt::<$se, $sm, 4, 3>($bits),
        }
    };
}

fn nop(_cpu: &mut Cpu, _u: &MicroOp) -> Status {
    Status::Ok
}

/// `csrr{w,s,c}[i]`: `aux` holds the CSR number and `OP` the `CsrOp` id,
/// or [`CSR_READ`]. The old value reaches `rd` only once the write (if
/// any) succeeded.
fn csr_op<const OP: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let num = u.aux as u16;
    let old = tri!(cpu, exec::read_csr(cpu, num, u.pc));
    if OP != CSR_READ {
        let src = xr(cpu, u.rs1).wrapping_add(u.imm as u32);
        let new = match csrop_of(OP) {
            CsrOp::Rw => src,
            CsrOp::Rs => old | src,
            CsrOp::Rc => old & !src,
        };
        tri!(cpu, exec::write_csr(cpu, num, new, u.pc));
    }
    set_xr(cpu, u.rd, old);
    Status::Ok
}

fn const_x(cpu: &mut Cpu, u: &MicroOp) -> Status {
    set_xr(cpu, u.rd, u.imm as u32);
    Status::Ok
}

fn alu_ri<const OP: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let v = exec::alu(aluop_of(OP), xr(cpu, u.rs1), u.imm as u32);
    set_xr(cpu, u.rd, v);
    Status::Ok
}

fn alu_rr<const OP: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let v = exec::alu(aluop_of(OP), xr(cpu, u.rs1), xr(cpu, u.rs2));
    set_xr(cpu, u.rd, v);
    Status::Ok
}

fn muldiv_rr<const OP: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let v = exec::muldiv(muldivop_of(OP), xr(cpu, u.rs1), xr(cpu, u.rs2));
    set_xr(cpu, u.rd, v);
    Status::Ok
}

fn load_int<const BYTES: u32, const SG: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let addr = xr(cpu, u.rs1).wrapping_add(u.imm as u32);
    let raw = tri!(cpu, cpu.mem.load(addr, BYTES));
    let v = if SG == 1 {
        exec::sext(raw, BYTES * 8)
    } else {
        raw
    };
    set_xr(cpu, u.rd, v);
    Status::Ok
}

/// Finish a store of `bytes` at `addr`: invalidate the cached code it
/// overwrote, and report a killed block so a running block stops.
#[inline(always)]
fn stored(cpu: &mut Cpu, addr: u32, bytes: u32) -> Status {
    if cpu.blocks.invalidate(&mut cpu.stats, addr, bytes) {
        Status::Killed
    } else {
        Status::Ok
    }
}

fn store_int<const BYTES: u32>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let addr = xr(cpu, u.rs1).wrapping_add(u.imm as u32);
    tri!(cpu, cpu.mem.store(addr, BYTES, xr(cpu, u.rs2)));
    stored(cpu, addr, BYTES)
}

fn load_fp<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let addr = xr(cpu, u.rs1).wrapping_add(u.imm as u32);
    let raw = u64::from(tri!(cpu, cpu.mem.load(addr, fmt.width() / 8)));
    exec::write_boxed(cpu, fmt, freg(u.rd), raw);
    Status::Ok
}

fn store_fp<const BYTES: u32>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let addr = xr(cpu, u.rs1).wrapping_add(u.imm as u32);
    tri!(cpu, cpu.mem.store(addr, BYTES, fr(cpu, u.rs2)));
    stored(cpu, addr, BYTES)
}

fn fop<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let a = exec::unbox(cpu, fmt, freg(u.rs1));
        let b = exec::unbox(cpu, fmt, freg(u.rs2));
        let leaf = match fpop_of(OP) {
            FpOp::Add => leaf!(fmt, add(a, b)),
            FpOp::Sub => leaf!(fmt, sub(a, b)),
            FpOp::Mul => leaf!(fmt, mul(a, b)),
            FpOp::Div => None,
        };
        if let Some((r, flags)) = leaf {
            exec::write_boxed(cpu, fmt, freg(u.rd), r);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    fop_env::<OP, F>(cpu, u)
}

/// [`fop`] through `Env` and [`fast`]: any rounding mode, every result.
#[inline(never)]
fn fop_env<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let f = fmt.format();
    let r = match fpop_of(OP) {
        FpOp::Add => fast::add(f, a, b, &mut env),
        FpOp::Sub => fast::sub(f, a, b, &mut env),
        FpOp::Mul => fast::mul(f, a, b, &mut env),
        FpOp::Div => fast::div(f, a, b, &mut env),
    };
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fsqrt<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let r = fast::sqrt(fmt.format(), exec::unbox(cpu, fmt, freg(u.rs1)), &mut env);
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fsgnj<const K: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let f = fmt.format();
    let r = match sgnj_of(K) {
        SgnjKind::Sgnj => fast::fsgnj(f, a, b),
        SgnjKind::Sgnjn => fast::fsgnjn(f, a, b),
        SgnjKind::Sgnjx => fast::fsgnjx(f, a, b),
    };
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    Status::Ok
}

fn fminmax<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(Rounding::Rne);
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let r = match minmax_of(OP) {
        MinMaxOp::Min => fast::fmin(fmt.format(), a, b, &mut env),
        MinMaxOp::Max => fast::fmax(fmt.format(), a, b, &mut env),
    };
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn ffma<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let a = exec::unbox(cpu, fmt, freg(u.rs1));
        let b = exec::unbox(cpu, fmt, freg(u.rs2));
        let c = exec::unbox(cpu, fmt, freg(u.rs3));
        let neg = sign_bit(fmt);
        let leaf = match fma_of(OP) {
            FmaOp::Madd => leaf!(fmt, fma(a, b, c)),
            FmaOp::Msub => leaf!(fmt, fma(a, b, c ^ neg)),
            FmaOp::Nmsub => leaf!(fmt, fma(a ^ neg, b, c)),
            FmaOp::Nmadd => leaf!(fmt, fma(a ^ neg, b, c ^ neg)),
        };
        if let Some((r, flags)) = leaf {
            exec::write_boxed(cpu, fmt, freg(u.rd), r);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    ffma_env::<OP, F>(cpu, u)
}

/// [`ffma`] through `Env` and [`fast`].
#[inline(never)]
fn ffma_env<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let c = exec::unbox(cpu, fmt, freg(u.rs3));
    let f = fmt.format();
    let r = match fma_of(OP) {
        FmaOp::Madd => fast::fmadd(f, a, b, c, &mut env),
        FmaOp::Msub => fast::fmsub(f, a, b, c, &mut env),
        FmaOp::Nmsub => fast::fnmsub(f, a, b, c, &mut env),
        FmaOp::Nmadd => fast::fnmadd(f, a, b, c, &mut env),
    };
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fcmp<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(Rounding::Rne);
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let f = fmt.format();
    let r = match cmp_of(OP) {
        CmpOp::Eq => fast::feq(f, a, b, &mut env),
        CmpOp::Lt => fast::flt(f, a, b, &mut env),
        CmpOp::Le => fast::fle(f, a, b, &mut env),
    };
    set_xr(cpu, u.rd, r as u32);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fclass<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let r = fast::classify(fmt.format(), exec::unbox(cpu, fmt, freg(u.rs1)));
    set_xr(cpu, u.rd, r);
    Status::Ok
}

fn fmv_xf<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let raw = (fr(cpu, u.rs1) as u64 & fmt.format().mask()) as u32;
    set_xr(cpu, u.rd, exec::sext(raw, fmt.width()));
    Status::Ok
}

fn fmv_fx<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    exec::write_boxed(
        cpu,
        fmt,
        freg(u.rd),
        xr(cpu, u.rs1) as u64 & fmt.format().mask(),
    );
    Status::Ok
}

fn fcvt_ff<const DST: u8, const SRC: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let (dst, src) = (fmt_of(DST), fmt_of(SRC));
    if rne(cpu, u) {
        let x = exec::unbox(cpu, src, freg(u.rs1));
        if let Some((r, flags)) = cvt_leaf!(dst, src, x) {
            exec::write_boxed(cpu, dst, freg(u.rd), r);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    fcvt_ff_env::<DST, SRC>(cpu, u)
}

/// [`fcvt_ff`] through `Env` and [`fast`].
#[inline(never)]
fn fcvt_ff_env<const DST: u8, const SRC: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let (dst, src) = (fmt_of(DST), fmt_of(SRC));
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let r = fast::cvt_f_f(
        dst.format(),
        src.format(),
        exec::unbox(cpu, src, freg(u.rs1)),
        &mut env,
    );
    exec::write_boxed(cpu, dst, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fcvt_fi<const SG: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let r = ops::to_int(
        fmt.format(),
        exec::unbox(cpu, fmt, freg(u.rs1)),
        SG == 1,
        32,
        &mut env,
    );
    set_xr(cpu, u.rd, r as u32);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fcvt_if<const SG: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let x = xr(cpu, u.rs1);
    let r = if SG == 1 {
        ops::from_i64(fmt.format(), x as i32 as i64, &mut env)
    } else {
        ops::from_u64(fmt.format(), x as u64, &mut env)
    };
    exec::write_boxed(cpu, fmt, freg(u.rd), r);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fmulex<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let a = exec::unbox(cpu, fmt, freg(u.rs1));
        let b = exec::unbox(cpu, fmt, freg(u.rs2));
        if let Some((r, flags)) = leaf!(@narrow fmt, mulex(a, b)) {
            set_fr(cpu, u.rd, r as u32);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    fmulex_env::<F>(cpu, u)
}

/// [`fmulex`] through `Env` and [`fast`].
#[inline(never)]
fn fmulex_env<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let r = fast::mulex(fmt.format(), a, b, &mut env);
    set_fr(cpu, u.rd, r as u32);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn fmacex<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let a = exec::unbox(cpu, fmt, freg(u.rs1));
        let b = exec::unbox(cpu, fmt, freg(u.rs2));
        let acc = u64::from(fr(cpu, u.rd));
        if let Some((r, flags)) = leaf!(@narrow fmt, macex(a, b, acc)) {
            set_fr(cpu, u.rd, r as u32);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    fmacex_env::<F>(cpu, u)
}

/// [`fmacex`] through `Env` and [`fast`].
#[inline(never)]
fn fmacex_env<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let a = exec::unbox(cpu, fmt, freg(u.rs1));
    let b = exec::unbox(cpu, fmt, freg(u.rs2));
    let acc = fr(cpu, u.rd) as u64;
    let r = fast::macex(fmt.format(), a, b, acc, &mut env);
    set_fr(cpu, u.rd, r as u32);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfop<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let (va, vb, vd) = (fr(cpu, u.rs1), fr(cpu, u.rs2), fr(cpu, u.rd));
        let (lop, rep) = (exec::lane_op(vfop_of(OP)), u.aux != 0);
        let leaf = match fmt {
            FpFmt::H => host::vfop2::<5, 10>(lop, va, vb, vd, rep),
            FpFmt::Ah => host::vfop2::<8, 7>(lop, va, vb, vd, rep),
            _ => None,
        };
        if let Some((out, flags)) = leaf {
            set_fr(cpu, u.rd, out);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    vfop_env::<OP, F>(cpu, u)
}

/// [`vfop`] through `Env` and [`batch`]: every op, format and mode.
#[inline(never)]
fn vfop_env<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let vb = fr(cpu, u.rs2);
    let vd = fr(cpu, u.rd);
    let rep = u.aux != 0;
    let lop = exec::lane_op(vfop_of(OP));
    let out = match fmt {
        FpFmt::H => batch::vfop2_f16(lop, va, vb, vd, rep, &mut env),
        FpFmt::Ah => batch::vfop2_f16alt(lop, va, vb, vd, rep, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vfop4_f8(fmt.format(), lop, va, vb, vd, rep, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfsqrt<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let out = match fmt {
        FpFmt::H => batch::vsqrt2_f16(va, &mut env),
        FpFmt::Ah => batch::vsqrt2_f16alt(va, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vsqrt4_f8(fmt.format(), va, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcmp<const OP: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(Rounding::Rne);
    let va = fr(cpu, u.rs1);
    let vb = fr(cpu, u.rs2);
    let rep = u.aux != 0;
    let lop = exec::lane_cmp(vcmp_of(OP));
    let mask = match fmt {
        FpFmt::H => batch::vcmp2_f16(lop, va, vb, rep, &mut env),
        FpFmt::Ah => batch::vcmp2_f16alt(lop, va, vb, rep, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vcmp4_f8(fmt.format(), lop, va, vb, rep, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_xr(cpu, u.rd, mask);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcvt_ff16<const DST: u8, const SRC: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let (dst, src) = (fmt_of(DST), fmt_of(SRC));
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let out = batch::vcvt2_ff(dst.format(), src.format(), fr(cpu, u.rs1), &mut env);
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcvt_ff8<const DST: u8, const SRC: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let (dst, src) = (fmt_of(DST), fmt_of(SRC));
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let out = batch::vcvt4_ff(dst.format(), src.format(), fr(cpu, u.rs1), &mut env);
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcvt_xf<const SG: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let out = match fmt {
        FpFmt::H | FpFmt::Ah => batch::vcvt2_x_f(fmt.format(), va, SG == 1, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vcvt4_x_f8(fmt.format(), va, SG == 1, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcvt_fx<const SG: u8, const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let out = match fmt {
        FpFmt::H | FpFmt::Ah => batch::vcvt2_f_x(fmt.format(), va, SG == 1, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vcvt4_f8_x(fmt.format(), va, SG == 1, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfcpk<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let w = fmt.width();
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let a = fast::cvt_f_f(
        fmt.format(),
        Format::BINARY32,
        fr(cpu, u.rs1) as u64,
        &mut env,
    );
    let b = fast::cvt_f_f(
        fmt.format(),
        Format::BINARY32,
        fr(cpu, u.rs2) as u64,
        &mut env,
    );
    let base = u.aux;
    let mut out = fr(cpu, u.rd);
    out = exec::set_lane(out, base, w, a);
    out = exec::set_lane(out, base + 1, w, b);
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfdotpex<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let (va, vb, acc) = (fr(cpu, u.rs1), fr(cpu, u.rs2), fr(cpu, u.rd));
        let rep = u.aux != 0;
        let leaf = match fmt {
            FpFmt::H => host::dotpex2::<5, 10>(acc, va, vb, rep),
            FpFmt::Ah => host::dotpex2::<8, 7>(acc, va, vb, rep),
            FpFmt::B => host::dotpex4::<5, 2>(acc, va, vb, rep),
            FpFmt::Ab => host::dotpex4::<4, 3>(acc, va, vb, rep),
            FpFmt::S => None,
        };
        if let Some((out, flags)) = leaf {
            set_fr(cpu, u.rd, out);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    vfdotpex_env::<F>(cpu, u)
}

/// [`vfdotpex`] through `Env` and [`batch`].
#[inline(never)]
fn vfdotpex_env<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let vb = fr(cpu, u.rs2);
    let rep = u.aux != 0;
    let acc = fr(cpu, u.rd);
    let out = match fmt {
        FpFmt::H => batch::vdotpex2_f16(acc, va, vb, rep, &mut env),
        FpFmt::Ah => batch::vdotpex2_f16alt(acc, va, vb, rep, &mut env),
        FpFmt::B | FpFmt::Ab => batch::vdotpex4_f8(fmt.format(), acc, va, vb, rep, &mut env),
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

fn vfsdotpex<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    if rne(cpu, u) {
        let (va, vb, acc) = (fr(cpu, u.rs1), fr(cpu, u.rs2), fr(cpu, u.rd));
        let rep = u.aux != 0;
        // The 8-bit formats widen to binary16 (`FpFmt::widen`).
        let leaf = match fmt {
            FpFmt::H => host::dotpex2::<5, 10>(acc, va, vb, rep),
            FpFmt::Ah => host::dotpex2::<8, 7>(acc, va, vb, rep),
            FpFmt::B => host::sdotp4::<5, 2, 5, 10>(acc, va, vb, rep),
            FpFmt::Ab => host::sdotp4::<4, 3, 5, 10>(acc, va, vb, rep),
            FpFmt::S => None,
        };
        if let Some((out, flags)) = leaf {
            set_fr(cpu, u.rd, out);
            cpu.fflags.set(flags);
            return Status::Ok;
        }
    }
    vfsdotpex_env::<F>(cpu, u)
}

/// [`vfsdotpex`] through `Env` and [`batch`].
#[inline(never)]
fn vfsdotpex_env<const F: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    let fmt = fmt_of(F);
    let mut env = Env::new(tri!(cpu, uop_rm(cpu, u)));
    let va = fr(cpu, u.rs1);
    let vb = fr(cpu, u.rs2);
    let rep = u.aux != 0;
    let acc = fr(cpu, u.rd);
    let out = match fmt {
        FpFmt::H => batch::vsdotp2_f16(acc, va, vb, rep, &mut env),
        FpFmt::Ah => batch::vsdotp2_f16alt(acc, va, vb, rep, &mut env),
        FpFmt::B | FpFmt::Ab => {
            let wide = fmt.widen().expect("8-bit formats widen").format();
            batch::vsdotp4_f8(fmt.format(), wide, acc, va, vb, rep, &mut env)
        }
        FpFmt::S => unreachable!(),
    };
    set_fr(cpu, u.rd, out);
    cpu.fflags.set(env.flags);
    Status::Ok
}

// ---------------------------------------------------------------------------
// Fused handlers: block-only, each constituent with its own handler's
// semantics, in program order
// ---------------------------------------------------------------------------

/// Constituent `k` of a fused integer op, as [`int_operands`] gave it:
/// `(rd, rs1, b)`, unpacked from where [`fuse_int`] put it.
#[inline(always)]
fn int_part(u: &MicroOp, k: usize) -> (u8, u8, i32) {
    match k {
        0 => (u.rd, u.rs1, u.imm),
        1 => (u.rs2, u.rs3, (u.aux << 20) as i32 >> 20),
        _ => (u.rm, (u.aux >> 24) as u8, (u.aux << 8) as i32 >> 20),
    }
}

/// One constituent of a fused integer op: `alu_ri`/`alu_rr`/`muldiv_rr`
/// on unpacked operands.
#[inline(always)]
fn int_step<const K: u8>(cpu: &mut Cpu, (rd, rs1, b): (u8, u8, i32)) {
    let a = xr(cpu, rs1);
    let v = match intop_of(K) {
        IntOp::Addi => exec::alu(AluOp::Add, a, b as u32),
        IntOp::Slli => exec::alu(AluOp::Sll, a, b as u32),
        IntOp::Add => exec::alu(AluOp::Add, a, xr(cpu, b as u8)),
        IntOp::Mul => exec::muldiv(MulDivOp::Mul, a, xr(cpu, b as u8)),
    };
    set_xr(cpu, rd, v);
}

/// A fused run of two (`C` = [`PAIR`]) or three integer ops.
fn int_fused<const A: u8, const B: u8, const C: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    int_step::<A>(cpu, int_part(u, 0));
    int_step::<B>(cpu, int_part(u, 1));
    if C != PAIR {
        int_step::<C>(cpu, int_part(u, 2));
    }
    Status::Ok
}

/// The registers `[rd, rs1, rs2]` of constituent `j` of a fused
/// lane-accumulate op, counted from its first, as [`fuse_lane`] packed
/// them.
#[inline(always)]
fn lane_regs(u: &MicroOp, j: u8) -> [u8; 3] {
    let [rd, rs1, rs2, _] = match j {
        0 => [u.rd, u.rs1, u.rs2, 0],
        1 => u.imm.to_le_bytes(),
        _ => u.aux.to_le_bytes(),
    };
    [rd, rs1, rs2]
}

/// The fused lane-accumulate idiom, constituents `LO..HI` of `fmv.F.x;
/// fcvt.s.F; fadd.s` (0, 1 and 2). At round-to-nearest-even it calls the
/// `cvt` and `add` leaves once each, writes every constituent's register
/// in program order and ORs their flags into `fflags` once. Off
/// round-to-nearest-even, and from a leaf that declines on, it hands the
/// rest to [`lane_acc_env`].
fn lane_acc<const F: u8, const LO: u8, const HI: u8>(cpu: &mut Cpu, u: &MicroOp) -> Status {
    if !rne(cpu, u) {
        return lane_acc_env::<F, LO, HI>(cpu, u, LO);
    }
    let fmt = fmt_of(F);
    if LO == 0 {
        let x = u64::from(xr(cpu, u.rs1)) & fmt.format().mask();
        exec::write_boxed(cpu, fmt, freg(u.rd), x);
    }
    // Every fused form holds the conversion.
    let [rd, rs1, _] = lane_regs(u, 1 - LO);
    let Some((r, cvt_flags)) = cvt_leaf!(FpFmt::S, fmt, exec::unbox(cpu, fmt, freg(rs1))) else {
        return lane_acc_env::<F, LO, HI>(cpu, u, 1);
    };
    exec::write_boxed(cpu, FpFmt::S, freg(rd), r);
    let mut flags = cvt_flags;
    if HI == 3 {
        let [rd, rs1, rs2] = lane_regs(u, 2 - LO);
        let a = exec::unbox(cpu, FpFmt::S, freg(rs1));
        let b = exec::unbox(cpu, FpFmt::S, freg(rs2));
        let Some((r, add_flags)) = host::add::<8, 23>(a, b) else {
            cpu.fflags.set(flags);
            return lane_acc_env::<F, LO, HI>(cpu, u, 2);
        };
        exec::write_boxed(cpu, FpFmt::S, freg(rd), r);
        flags |= add_flags;
    }
    cpu.fflags.set(flags);
    Status::Ok
}

/// Constituents `from..HI` of a [`lane_acc`] op, each as its own micro-op
/// through its own handler, in order. A trap (dynamic rounding while
/// `frm` holds a reserved value) leaves the constituents before it
/// retired.
#[cold]
#[inline(never)]
fn lane_acc_env<const F: u8, const LO: u8, const HI: u8>(
    cpu: &mut Cpu,
    u: &MicroOp,
    from: u8,
) -> Status {
    for k in from..HI {
        let j = k - LO;
        let [rd, rs1, rs2] = lane_regs(u, j);
        let part = MicroOp {
            rd,
            rs1,
            rs2,
            rm: u.rm,
            ..MicroOp::bare(u.pc.wrapping_add(4 * u32::from(j)), u.class, 0)
        };
        let status = match k {
            0 => fmv_fx::<F>(cpu, &part),
            1 => fcvt_ff::<{ FpFmt::S as u8 }, F>(cpu, &part),
            _ => fop::<{ FpOp::Add as u8 }, { FpFmt::S as u8 }>(cpu, &part),
        };
        if status == Status::Trap {
            cpu.blocks.partial = j;
            return status;
        }
    }
    Status::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `op as u8` const ids used by the monomorphized handlers must
    /// round-trip through the `*_of` inverses for every variant.
    #[test]
    fn const_ids_round_trip() {
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            assert_eq!(aluop_of(op as u8), op);
        }
        for op in [
            MulDivOp::Mul,
            MulDivOp::Mulh,
            MulDivOp::Mulhsu,
            MulDivOp::Mulhu,
            MulDivOp::Div,
            MulDivOp::Divu,
            MulDivOp::Rem,
            MulDivOp::Remu,
        ] {
            assert_eq!(muldivop_of(op as u8), op);
        }
        for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div] {
            assert_eq!(fpop_of(op as u8), op);
        }
        for op in [SgnjKind::Sgnj, SgnjKind::Sgnjn, SgnjKind::Sgnjx] {
            assert_eq!(sgnj_of(op as u8), op);
        }
        for op in [MinMaxOp::Min, MinMaxOp::Max] {
            assert_eq!(minmax_of(op as u8), op);
        }
        for op in [FmaOp::Madd, FmaOp::Msub, FmaOp::Nmsub, FmaOp::Nmadd] {
            assert_eq!(fma_of(op as u8), op);
        }
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le] {
            assert_eq!(cmp_of(op as u8), op);
        }
        for op in [
            VCmpOp::Eq,
            VCmpOp::Ne,
            VCmpOp::Lt,
            VCmpOp::Le,
            VCmpOp::Gt,
            VCmpOp::Ge,
        ] {
            assert_eq!(vcmp_of(op as u8), op);
        }
        for op in [
            VfOp::Add,
            VfOp::Sub,
            VfOp::Mul,
            VfOp::Div,
            VfOp::Min,
            VfOp::Max,
            VfOp::Mac,
            VfOp::Sgnj,
            VfOp::Sgnjn,
            VfOp::Sgnjx,
        ] {
            assert_eq!(vfop_of(op as u8), op);
        }
        for op in [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc] {
            assert_eq!(csrop_of(op as u8), op);
        }
        for fmt in FpFmt::ALL {
            assert_eq!(fmt_of(fmt as u8), fmt, "const id is the enum discriminant");
        }
    }

    /// Static rounding modes resolve at lowering; `Dyn` stays dynamic.
    #[test]
    fn rm_lowering() {
        assert_eq!(lower_rm(Rm::Dyn), RM_DYN);
        assert_eq!(lower_rm(Rm::Rne), Rounding::Rne.to_frm());
        assert_eq!(lower_rm(Rm::Rtz), Rounding::Rtz.to_frm());
        assert_eq!(lower_rm(Rm::Rmm), Rounding::Rmm.to_frm());
    }
}
