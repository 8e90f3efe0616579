//! Executing compiled kernels on the simulator.

use smallfloat_isa::Instr;
use smallfloat_sim::{
    hot_block_report, Cpu, CpuSnapshot, ExitReason, HotBlock, MemLevel, SimConfig, Stats,
};
use smallfloat_softfp::{ops, Env, Rounding};
use smallfloat_xcc::codegen::{Compiled, TEXT_BASE};
use smallfloat_xcc::ir::Kernel;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A warmed simulator: a `Cpu` whose decode caches (predecode window and
/// lowered blocks) were trained on `program`, plus the clean pre-run
/// snapshot every launch forks from. Re-launching the same kernel — a
/// conv layer runs once per sample, a server runs once per request, an
/// inference pipeline cycles through its layers once per call — restores
/// the snapshot instead of rebuilding from reset, and `Cpu::restore`
/// keeps the caches because the code window is byte-identical, so no
/// launch pays the per-program re-lowering cost again.
struct WarmSim {
    program: Vec<Instr>,
    level: MemLevel,
    snap: CpuSnapshot,
    cpu: Cpu,
    /// Last-use tick for LRU eviction.
    used: u64,
}

/// Warmed simulators kept per thread. A `Cpu`'s memory is a lazily
/// materialized page table (zero pages allocate nothing), so a pool slot
/// costs page-table plus caches, not the full simulated address space.
/// Sized for a training step's working set: one forward, one or two
/// backward and two update kernels per weighted layer cycle through
/// ~18 distinct programs per step, and LRU-thrashing them would retrain
/// every launch from reset.
const POOL_CAP: usize = 32;

/// Launches served by restoring a warmed snapshot (fork) vs. by training
/// a pool slot from reset. Process-global so harnesses running workers on
/// their own threads can still observe that re-launches forked a warmed
/// `Cpu` instead of rebuilding; monotone counters (snapshot before/after
/// and compare deltas — other threads only ever add).
static WARM_FORKS: AtomicU64 = AtomicU64::new(0);
static COLD_TRAINS: AtomicU64 = AtomicU64::new(0);

/// `(warm_forks, cold_trains)` across the process: how many
/// [`run_compiled`] launches forked a warmed snapshot vs. retrained a
/// simulator from reset.
pub fn pool_counters() -> (u64, u64) {
    (
        WARM_FORKS.load(Ordering::Relaxed),
        COLD_TRAINS.load(Ordering::Relaxed),
    )
}

thread_local! {
    /// Per-thread pool of warmed simulators, one per recent program
    /// (`POOL_CAP`-way, LRU-evicted). Thread-locality keeps the
    /// experiment grid trivially parallelizable.
    static POOL: RefCell<(u64, Vec<WarmSim>)> = const { RefCell::new((0, Vec::new())) };
}

/// Outcome of one simulated kernel execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle/energy/instruction statistics.
    pub stats: Stats,
    /// Final contents of every array, widened to `f64`.
    pub arrays: HashMap<String, Vec<f64>>,
    /// Final values of named scalars, widened to `f64`.
    pub scalars: HashMap<String, f64>,
    /// Top-10 basic blocks by dynamic instruction count, harvested right
    /// after the run (empty when the block cache is disabled). Set
    /// `SMALLFLOAT_HOT_BLOCKS=1` to also print the report, or use the
    /// `runner` example's `--hot-blocks` flag.
    pub hot_blocks: Vec<HotBlock>,
}

impl RunResult {
    /// Concatenate the named arrays into one signal vector (for SQNR).
    ///
    /// # Panics
    ///
    /// Panics if an array name is unknown.
    pub fn signal(&self, arrays: &[String]) -> Vec<f64> {
        let mut out = Vec::new();
        for name in arrays {
            out.extend_from_slice(&self.arrays[name]);
        }
        out
    }
}

/// Load `compiled` plus its input data into a freshly-reset CPU (reused
/// per thread across calls), run to completion, and read back every array
/// and scalar (`kernel` supplies the scalar storage types).
///
/// Inputs are given in `f64` and rounded into each array's storage type —
/// the same quantization the real system applies when data enters memory in
/// a smallFloat layout.
///
/// # Panics
///
/// Panics if the program traps or fails to exit within 200M instructions —
/// generated kernels are expected to be well-formed.
pub fn run_compiled(
    kernel: &Kernel,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    level: MemLevel,
) -> RunResult {
    POOL.with(|pool| {
        let (tick, sims) = &mut *pool.borrow_mut();
        *tick += 1;
        let slot = match sims
            .iter()
            .position(|w| w.level == level && w.program == compiled.program)
        {
            Some(i) => {
                // Warm hit: fork this launch off the trained simulator's
                // pre-run snapshot. `Cpu::restore` keeps the decode
                // caches because the code window is byte-identical.
                let w = &mut sims[i];
                w.cpu.restore(&w.snap);
                w.cpu.reset_stats();
                WARM_FORKS.fetch_add(1, Ordering::Relaxed);
                i
            }
            None => {
                COLD_TRAINS.fetch_add(1, Ordering::Relaxed);
                let config = SimConfig {
                    mem_level: level,
                    ..SimConfig::default()
                };
                if sims.len() < POOL_CAP {
                    let mut cpu = Cpu::new(config);
                    cpu.load_program(TEXT_BASE, &compiled.program);
                    let snap = cpu.snapshot();
                    sims.push(WarmSim {
                        program: compiled.program.clone(),
                        level,
                        snap,
                        cpu,
                        used: 0,
                    });
                    sims.len() - 1
                } else {
                    // Retrain the least-recently-used slot.
                    let i = sims
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.used)
                        .map(|(i, _)| i)
                        .expect("pool is non-empty at capacity");
                    let w = &mut sims[i];
                    w.cpu.reset_with(config);
                    w.cpu.load_program(TEXT_BASE, &compiled.program);
                    w.program.clone_from(&compiled.program);
                    w.level = level;
                    w.snap = w.cpu.snapshot();
                    i
                }
            }
        };
        let w = &mut sims[slot];
        w.used = *tick;
        write_inputs(&mut w.cpu, compiled, inputs);
        finish_run(&mut w.cpu, kernel, compiled)
    })
}

/// Quantize `inputs` into their array storage types and write them with
/// byte-precise code invalidation ([`Cpu::write_data`]), so a warmed
/// decode-cache image survives the data refresh.
///
/// # Panics
///
/// Panics on an unknown input name or a size mismatch.
fn write_inputs(cpu: &mut Cpu, compiled: &Compiled, inputs: &[(String, Vec<f64>)]) {
    let mut env = Env::new(Rounding::Rne);
    for (name, values) in inputs {
        let entry = compiled
            .layout
            .entry(name)
            .unwrap_or_else(|| panic!("input `{name}` is not a kernel array"));
        assert_eq!(entry.len, values.len(), "input size mismatch for `{name}`");
        let bytes = entry.ty.width() / 8;
        let mut raw = Vec::with_capacity(entry.len * bytes as usize);
        for v in values {
            let bits = ops::from_f64(entry.ty.format(), *v, &mut env) as u32;
            raw.extend_from_slice(&bits.to_le_bytes()[..bytes as usize]);
        }
        cpu.write_data(entry.addr, &raw);
    }
}

/// Load `compiled`'s input arrays and program text into `cpu`, leaving the
/// PC at the entry point — the exact pre-run state, ready for `Cpu::run`.
///
/// Inputs are quantized into each array's storage type, the same way
/// [`run_compiled`] does it (which is this function followed by a run and
/// read-back). Exposed so record-replay harnesses can set up a workload,
/// snapshot it, and drive execution themselves.
///
/// # Panics
///
/// Panics on an unknown input name or a size mismatch.
pub fn load_workload(cpu: &mut Cpu, compiled: &Compiled, inputs: &[(String, Vec<f64>)]) {
    write_inputs(cpu, compiled, inputs);
    cpu.load_program(TEXT_BASE, &compiled.program);
}

/// Base address and byte length of array `name` in `compiled`'s layout —
/// the read/write span a DMA-style work descriptor names.
///
/// # Panics
///
/// Panics on an unknown array name.
pub fn array_span(compiled: &Compiled, name: &str) -> (u32, usize) {
    let entry = compiled
        .layout
        .entry(name)
        .unwrap_or_else(|| panic!("`{name}` is not a kernel array"));
    (entry.addr, entry.len * (entry.ty.width() / 8) as usize)
}

/// Quantize `values` into array `name`'s storage type and return the
/// placed byte image `(addr, bytes)` — the write half of a work
/// descriptor, applying the same rounding [`run_compiled`] applies when
/// data enters simulated memory.
///
/// # Panics
///
/// Panics on an unknown array name or a size mismatch.
pub fn quantize_array(compiled: &Compiled, name: &str, values: &[f64]) -> (u32, Vec<u8>) {
    let entry = compiled
        .layout
        .entry(name)
        .unwrap_or_else(|| panic!("`{name}` is not a kernel array"));
    assert_eq!(entry.len, values.len(), "size mismatch for `{name}`");
    let bytes = entry.ty.width() / 8;
    let mut env = Env::new(Rounding::Rne);
    let mut raw = Vec::with_capacity(entry.len * bytes as usize);
    for v in values {
        let bits = ops::from_f64(entry.ty.format(), *v, &mut env) as u32;
        raw.extend_from_slice(&bits.to_le_bytes()[..bytes as usize]);
    }
    (entry.addr, raw)
}

/// Widen a raw byte image of array `name` (as read back over its
/// [`array_span`]) to `f64` values — the read half of a work descriptor.
///
/// # Panics
///
/// Panics on an unknown array name or a byte-length mismatch.
pub fn decode_array(compiled: &Compiled, name: &str, bytes: &[u8]) -> Vec<f64> {
    let entry = compiled
        .layout
        .entry(name)
        .unwrap_or_else(|| panic!("`{name}` is not a kernel array"));
    let width = (entry.ty.width() / 8) as usize;
    assert_eq!(
        bytes.len(),
        entry.len * width,
        "byte length mismatch for `{name}`"
    );
    bytes
        .chunks_exact(width)
        .map(|c| {
            let mut raw = [0u8; 4];
            raw[..width].copy_from_slice(c);
            ops::to_f64(entry.ty.format(), u32::from_le_bytes(raw) as u64)
        })
        .collect()
}

/// Run a loaded workload to its `ecall` exit and read back every array and
/// scalar. The setup half is [`load_workload`] (or the warmed-snapshot
/// restore in [`run_compiled`]).
fn finish_run(cpu: &mut Cpu, kernel: &Kernel, compiled: &Compiled) -> RunResult {
    let exit = cpu
        .run(200_000_000)
        .unwrap_or_else(|e| panic!("kernel trapped: {e}"));
    assert_eq!(exit, ExitReason::Ecall, "kernel must exit via ecall");
    // Harvest the block profile before anything can invalidate the cache.
    let hot_blocks = cpu.hot_blocks(10);
    if smallfloat_sim::env::hot_blocks() {
        eprintln!(
            "hot blocks for `{}`:\n{}",
            kernel.name,
            hot_block_report(&hot_blocks, cpu.stats().instret)
        );
    }

    let mut arrays = HashMap::new();
    for entry in &compiled.layout.entries {
        let bytes = entry.ty.width() / 8;
        let mut vals = Vec::with_capacity(entry.len);
        for i in 0..entry.len {
            let raw = cpu
                .mem()
                .load(entry.addr + (i as u32) * bytes, bytes)
                .expect("in range");
            vals.push(ops::to_f64(entry.ty.format(), raw as u64));
        }
        arrays.insert(entry.name.clone(), vals);
    }
    let mut scalars = HashMap::new();
    for (name, reg) in &compiled.scalar_regs {
        let ty = kernel.type_of(name).unwrap_or(smallfloat_isa::FpFmt::S);
        let raw = cpu.freg(*reg) as u64 & ty.format().mask();
        scalars.insert(name.clone(), ops::to_f64(ty.format(), raw));
    }
    RunResult {
        stats: cpu.stats().clone(),
        arrays,
        scalars,
        hot_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_isa::FpFmt;
    use smallfloat_xcc::codegen::{compile, CodegenOptions};
    use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Stmt};

    #[test]
    fn runs_and_reads_back() {
        let mut k = Kernel::new("double");
        k.array("x", FpFmt::H, 4);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::store(
                "x",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")) * Expr::lit(2.0),
            )],
        )];
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        let r = run_compiled(
            &k,
            &c,
            &[("x".to_string(), vec![1.0, 2.0, 3.0, 4.0])],
            MemLevel::L1,
        );
        assert_eq!(r.arrays["x"], vec![2.0, 4.0, 6.0, 8.0]);
        assert!(r.stats.cycles > 0);
        assert_eq!(r.signal(&["x".to_string()]), vec![2.0, 4.0, 6.0, 8.0]);
    }
}
