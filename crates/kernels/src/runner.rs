//! Executing compiled kernels on the simulator.
//!
//! Every launch goes through one path: find (or train) the warmed
//! simulator for the program in the per-thread pool, quantize and write
//! the inputs, run to the exit `ecall`, and read back. [`launch`] reads
//! back only the arrays the caller names; [`run_compiled`] is the same
//! launch reading every array and scalar.
//!
//! [`launch_each`] is a batch of independent launches of one program —
//! a conv layer's per-sample runs. It looks the slot up once and runs the
//! samples on the slot's own `Cpu` (on the calling thread) while up to
//! [`par::workers`]` − 1` of the thread's persistent helpers
//! ([`par::assist`]) claim samples too, each on a helper `Cpu` the slot
//! keeps. The calling thread waits only for samples a helper has already
//! claimed, so a helper the host schedules late does not hold it up. Results
//! come back in sample order and are bit-identical to sequential
//! [`launch`]es at any worker count, and so are the pool counters: a
//! batch of `N` counts as `N` launches — the slot lookup's one fork or
//! train, then `N − 1` warm forks — whichever `Cpu` ran each sample.

use smallfloat_isa::{FpFmt, Instr};
use smallfloat_sim::{par, Cpu, CpuSnapshot, ExitReason, HotBlock, MemLevel, SimConfig, Stats};
use smallfloat_softfp::{fast, Env, Rounding};
use smallfloat_xcc::codegen::{Compiled, DataLayout, LayoutEntry, TEXT_BASE};
use smallfloat_xcc::ir::Kernel;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A warmed simulator: a `Cpu` whose code window (decoded slots and
/// lowered blocks) was trained on `program`, plus the clean pre-run
/// snapshot every launch forks from. Re-launching the same kernel — a
/// conv layer runs once per sample, a server runs once per request, an
/// inference pipeline cycles through its layers once per call — restores
/// the snapshot instead of rebuilding from reset, and `Cpu::restore`
/// keeps the caches because the code window is byte-identical, so no
/// launch pays the per-program re-lowering cost again.
struct WarmSim {
    /// [`Compiled::program_hash`] of `program`: the lookup key.
    hash: u64,
    program: Vec<Instr>,
    level: MemLevel,
    snap: Arc<CpuSnapshot>,
    cpu: Cpu,
    /// [`launch_each`]'s helper `Cpu`s, restored from `snap` before each
    /// sample: empty `Cpu`s on first use, whose caches then stay warm the
    /// same way `cpu`'s do. Dropped when the slot is retrained.
    helpers: Vec<Cpu>,
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

/// Instruction budget of one launch.
const BUDGET: u64 = 200_000_000;

/// `(warm_forks, cold_trains)` of the calling thread's pool: how many of
/// this thread's launches forked a warmed snapshot vs. retrained a
/// simulator from reset. The counts describe the pool they count, so a
/// measurement on one thread is not disturbed by launches on others;
/// take the deltas around calls on one thread (perfbench and the nn
/// test `train_call_forks_warm_snapshots` do). A [`launch_each`] of `N`
/// samples counts as `N` sequential launches (one lookup, then `N − 1`
/// warm forks) at every worker count; its helper `Cpu`s' own first runs
/// are not counted.
pub fn pool_counters() -> (u64, u64) {
    POOL.with(|p| {
        let p = p.borrow();
        (p.warm_forks, p.cold_trains)
    })
}

/// The per-thread pool: a use clock, up to `POOL_CAP` warmed slots, and
/// the launches it served by fork and by training a slot from reset.
#[derive(Default)]
struct Pool {
    tick: u64,
    sims: Vec<WarmSim>,
    warm_forks: u64,
    cold_trains: u64,
}

thread_local! {
    /// Per-thread pool of warmed simulators, one per recent program
    /// (`POOL_CAP`-way, LRU-evicted). Thread-locality keeps the
    /// experiment grid trivially parallelizable.
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// The simulator configuration of a launch at `level`.
fn sim_config(level: MemLevel) -> SimConfig {
    SimConfig {
        mem_level: level,
        ..SimConfig::default()
    }
}

impl Pool {
    /// The slot holding `compiled` at `level`, its `Cpu` forked back to
    /// the pre-run snapshot — or a slot freshly trained on it (a new one
    /// below capacity, else the least recently used one).
    fn slot(&mut self, compiled: &Compiled, level: MemLevel) -> &mut WarmSim {
        self.tick += 1;
        let hash = compiled.program_hash();
        let i = match self
            .sims
            .iter()
            .position(|w| w.hash == hash && w.level == level && w.program == compiled.program)
        {
            Some(i) => {
                // Warm hit: fork this launch off the trained simulator's
                // pre-run snapshot. `Cpu::restore` keeps the decode
                // caches because the code window is byte-identical.
                let w = &mut self.sims[i];
                w.cpu.restore(&w.snap);
                w.cpu.reset_stats();
                self.warm_forks += 1;
                i
            }
            None => {
                self.cold_trains += 1;
                let config = sim_config(level);
                if self.sims.len() < POOL_CAP {
                    let mut cpu = Cpu::new(config);
                    cpu.load_program(TEXT_BASE, &compiled.program);
                    let snap = cpu.snapshot();
                    self.sims.push(WarmSim {
                        hash,
                        program: compiled.program.clone(),
                        level,
                        snap: Arc::new(snap),
                        cpu,
                        helpers: Vec::new(),
                        used: 0,
                    });
                    self.sims.len() - 1
                } else {
                    // Retrain the least-recently-used slot.
                    let i = self
                        .sims
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.used)
                        .map(|(i, _)| i)
                        .expect("pool is non-empty at capacity");
                    let w = &mut self.sims[i];
                    w.cpu.reset_with(config);
                    w.cpu.load_program(TEXT_BASE, &compiled.program);
                    w.hash = hash;
                    w.program.clone_from(&compiled.program);
                    w.level = level;
                    w.snap = Arc::new(w.cpu.snapshot());
                    w.helpers.clear();
                    i
                }
            }
        };
        let w = &mut self.sims[i];
        w.used = self.tick;
        w
    }
}

/// The one launch path: fork or train the pool slot for `compiled`,
/// run `inputs` on it ([`run_on`]), then hand the finished `Cpu` to
/// `read`.
fn launch_with<R>(
    kernel: &Kernel,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    level: MemLevel,
    read: impl FnOnce(&Cpu) -> R,
) -> R {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let cpu = &mut pool.slot(compiled, level).cpu;
        run_on(cpu, &kernel.name, &compiled.layout, inputs);
        read(cpu)
    })
}

/// Quantize and write `inputs` into `cpu` (at its pre-run state) and run
/// it to the exit `ecall`.
///
/// # Panics
///
/// Panics on an unknown input name or a size mismatch, or if the program
/// traps or fails to exit within 200M instructions — generated kernels are
/// expected to be well-formed.
fn run_on(cpu: &mut Cpu, kernel: &str, layout: &DataLayout, inputs: &[(String, Vec<f64>)]) {
    write_inputs(cpu, layout, inputs);
    let exit = cpu
        .run(BUDGET)
        .unwrap_or_else(|e| panic!("kernel `{kernel}` trapped: {e}"));
    assert_eq!(
        exit,
        ExitReason::Ecall,
        "kernel `{kernel}` must exit via ecall"
    );
}

/// The arrays named in `read`, in that order, and the run's statistics.
fn read_named<S: AsRef<str>>(cpu: &Cpu, layout: &DataLayout, read: &[S]) -> Run {
    let arrays = read
        .iter()
        .map(|name| read_array(cpu, entry(layout, name.as_ref())))
        .collect();
    (arrays, cpu.stats().clone())
}

/// One launch's read-back arrays and statistics.
type Run = (Vec<Vec<f64>>, Stats);

/// Launch `compiled` (the lowering of `kernel`) on `inputs` and read back
/// only the arrays named in `read`, in that order, with the run's
/// statistics. Inputs are given in `f64` and rounded into each array's
/// storage type — the same quantization the real system applies when data
/// enters memory in a smallFloat layout.
///
/// # Panics
///
/// Panics on an unknown array name or an input size mismatch, or if the
/// program traps or fails to exit within 200M instructions.
pub fn launch(
    kernel: &Kernel,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    level: MemLevel,
    read: &[&str],
) -> (Vec<Vec<f64>>, Stats) {
    launch_with(kernel, compiled, inputs, level, |cpu| {
        read_named(cpu, &compiled.layout, read)
    })
}

/// [`launch`] once per input set in `samples`, spread over up to
/// [`par::workers`]`(samples.len())` host workers; results in `samples`
/// order. Each result — arrays and statistics — is bit-identical to the
/// matching sequential [`launch`]'s, whichever worker ran it, and the
/// pool counters move as `samples.len()` launches would move them.
///
/// # Panics
///
/// As [`launch`], on the calling thread: a sample that traps panics with
/// the kernel's name, whichever worker ran it (the lowest-numbered
/// failing sample's message, once every claimed sample has finished).
pub fn launch_each(
    kernel: &Kernel,
    compiled: &Compiled,
    samples: Vec<Vec<(String, Vec<f64>)>>,
    level: MemLevel,
    read: &[&str],
) -> Vec<(Vec<Vec<f64>>, Stats)> {
    if samples.is_empty() {
        return Vec::new();
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.warm_forks += samples.len() as u64 - 1;
        let helpers = par::workers(samples.len()) - 1;
        let w = pool.slot(compiled, level);
        let batch = Arc::new(Batch {
            kernel: kernel.name.clone(),
            layout: compiled.layout.clone(),
            read: read.iter().map(|r| r.to_string()).collect(),
            level,
            snap: Arc::clone(&w.snap),
            next: AtomicUsize::new(0),
            done: Mutex::new(Done {
                runs: (0..samples.len()).map(|_| None).collect(),
                finished: 0,
                spare: std::mem::take(&mut w.helpers),
            }),
            all_done: Condvar::new(),
            samples,
        });
        if helpers > 0 {
            let job = Arc::clone(&batch);
            par::assist(helpers, &(Arc::new(move || job.help()) as par::Job));
        }
        batch.work(&mut w.cpu);
        let (runs, spare) = batch.wait();
        w.helpers = spare;
        runs.into_iter()
            .map(|run| run.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    })
}

/// One [`launch_each`] call, shared by the calling thread and its
/// helpers: samples are claimed off `next`, and each finished one lands in
/// `done`.
struct Batch {
    kernel: String,
    layout: DataLayout,
    read: Vec<String>,
    level: MemLevel,
    /// The slot's pre-run state: every sample but the calling thread's
    /// first starts from it.
    snap: Arc<CpuSnapshot>,
    samples: Vec<Vec<(String, Vec<f64>)>>,
    next: AtomicUsize,
    done: Mutex<Done>,
    all_done: Condvar,
}

struct Done {
    /// Each sample's run, or the payload of its panic.
    runs: Vec<Option<std::thread::Result<Run>>>,
    finished: usize,
    /// Helper `Cpu`s not in use: the slot's, then handed back to it.
    spare: Vec<Cpu>,
}

impl Batch {
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.samples.len()).then_some(i)
    }

    /// Run sample `i` on `cpu`, which is at the slot's pre-run state.
    fn run(&self, cpu: &mut Cpu, i: usize) -> std::thread::Result<Run> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            run_on(cpu, &self.kernel, &self.layout, &self.samples[i]);
            read_named(cpu, &self.layout, &self.read)
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Done> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record sample `i`'s run and hand the helper `cpu` that ran it back
    /// to the spares, in one step, so the spares are complete once every
    /// sample has finished.
    fn finish(&self, i: usize, run: std::thread::Result<Run>, cpu: Option<Cpu>) {
        let mut done = self.lock();
        done.spare.extend(cpu);
        done.runs[i] = Some(run);
        done.finished += 1;
        if done.finished == self.samples.len() {
            self.all_done.notify_all();
        }
    }

    /// The calling thread's share, on the slot's own `Cpu` (just forked,
    /// so its first sample needs no restore).
    fn work(&self, cpu: &mut Cpu) {
        let mut forked = true;
        while let Some(i) = self.claim() {
            if !forked {
                cpu.restore(&self.snap);
                cpu.reset_stats();
            }
            forked = false;
            let run = self.run(cpu, i);
            self.finish(i, run, None);
        }
    }

    /// A helper's share, each sample on a spare helper `Cpu` (a new one if
    /// none is free); a `Cpu` whose sample panicked is dropped.
    fn help(&self) {
        while let Some(i) = self.claim() {
            let spare = self.lock().spare.pop();
            let mut cpu = spare.unwrap_or_else(|| Cpu::new(sim_config(self.level)));
            cpu.restore(&self.snap);
            cpu.reset_stats();
            let run = self.run(&mut cpu, i);
            let keep = run.is_ok().then_some(cpu);
            self.finish(i, run, keep);
        }
    }

    /// Wait until every sample has finished; the runs in sample order and
    /// the spare helper `Cpu`s.
    fn wait(&self) -> (Vec<std::thread::Result<Run>>, Vec<Cpu>) {
        let mut done = self.lock();
        while done.finished < self.samples.len() {
            done = self
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let runs = std::mem::take(&mut done.runs)
            .into_iter()
            .map(|run| run.expect("every sample finished"))
            .collect();
        (runs, std::mem::take(&mut done.spare))
    }
}

/// Top-`n` hot blocks of the most recent launch on this thread — the
/// on-request block profile. Counts accumulate over every launch the
/// program's warmed simulator served since it was trained; of a
/// [`launch_each`] batch, only the samples the slot's own `Cpu` ran (its
/// helpers keep their own counts). Empty before the first launch.
pub fn last_hot_blocks(n: usize) -> Vec<HotBlock> {
    POOL.with(|pool| {
        pool.borrow()
            .sims
            .iter()
            .max_by_key(|w| w.used)
            .map(|w| w.cpu.hot_blocks(n))
            .unwrap_or_default()
    })
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

/// [`launch`] reading back every array and scalar (`kernel` supplies the
/// scalar storage types).
///
/// # Panics
///
/// As [`launch`].
pub fn run_compiled(
    kernel: &Kernel,
    compiled: &Compiled,
    inputs: &[(String, Vec<f64>)],
    level: MemLevel,
) -> RunResult {
    launch_with(kernel, compiled, inputs, level, |cpu| {
        let arrays = compiled
            .layout
            .entries
            .iter()
            .map(|e| (e.name.clone(), read_array(cpu, e)))
            .collect();
        let scalars = compiled
            .scalar_regs
            .iter()
            .map(|(name, reg)| {
                let ty = kernel.type_of(name).unwrap_or(FpFmt::S);
                let raw = cpu.freg(*reg) as u64 & ty.format().mask();
                (name.clone(), fast::to_f64(ty.format(), raw))
            })
            .collect();
        RunResult {
            stats: cpu.stats().clone(),
            arrays,
            scalars,
        }
    })
}

fn entry<'l>(layout: &'l DataLayout, name: &str) -> &'l LayoutEntry {
    layout
        .entry(name)
        .unwrap_or_else(|| panic!("`{name}` is not a kernel array"))
}

fn byte_width(ty: FpFmt) -> usize {
    (ty.width() / 8) as usize
}

/// One bulk read of an array's bytes, widened to `f64`.
fn read_array(cpu: &Cpu, entry: &LayoutEntry) -> Vec<f64> {
    let bytes = cpu
        .mem()
        .read_bytes(entry.addr, entry.len * byte_width(entry.ty));
    decode(entry.ty, &bytes)
}

/// Widen a little-endian byte image of `ty` values to `f64`.
fn decode(ty: FpFmt, bytes: &[u8]) -> Vec<f64> {
    let fmt = ty.format();
    match byte_width(ty) {
        1 => bytes.iter().map(|&b| fast::to_f64(fmt, b as u64)).collect(),
        2 => bytes
            .chunks_exact(2)
            .map(|c| fast::to_f64(fmt, u16::from_le_bytes([c[0], c[1]]) as u64))
            .collect(),
        _ => bytes
            .chunks_exact(4)
            .map(|c| fast::to_f64(fmt, u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64))
            .collect(),
    }
}

/// Quantize `inputs` into their array storage types and write them with
/// byte-precise code invalidation ([`Cpu::write_data`]), so a warmed
/// decode-cache image survives the data refresh.
///
/// # Panics
///
/// Panics on an unknown input name or a size mismatch.
fn write_inputs(cpu: &mut Cpu, layout: &DataLayout, inputs: &[(String, Vec<f64>)]) {
    for (name, values) in inputs {
        let (addr, bytes) = quantize(layout, name, values);
        cpu.write_data(addr, &bytes);
    }
}

/// Load `compiled`'s input arrays and program text into `cpu`, leaving the
/// PC at the entry point — the exact pre-run state, ready for `Cpu::run`.
///
/// Inputs are quantized into each array's storage type, the same way
/// [`launch`] does it (which is this setup on a pooled simulator followed
/// by a run and read-back). Exposed so record-replay harnesses can set up
/// a workload, snapshot it, and drive execution themselves.
///
/// # Panics
///
/// Panics on an unknown input name or a size mismatch.
pub fn load_workload(cpu: &mut Cpu, compiled: &Compiled, inputs: &[(String, Vec<f64>)]) {
    write_inputs(cpu, &compiled.layout, inputs);
    cpu.load_program(TEXT_BASE, &compiled.program);
}

/// Base address and byte length of array `name` in `compiled`'s layout —
/// the read/write span a DMA-style work descriptor names.
///
/// # Panics
///
/// Panics on an unknown array name.
pub fn array_span(compiled: &Compiled, name: &str) -> (u32, usize) {
    let entry = entry(&compiled.layout, name);
    (entry.addr, entry.len * byte_width(entry.ty))
}

/// Quantize `values` into array `name`'s storage type and return the
/// placed byte image `(addr, bytes)` — the write half of a work
/// descriptor, applying the same rounding [`launch`] applies when data
/// enters simulated memory.
///
/// # Panics
///
/// Panics on an unknown array name or a size mismatch.
pub fn quantize_array(compiled: &Compiled, name: &str, values: &[f64]) -> (u32, Vec<u8>) {
    quantize(&compiled.layout, name, values)
}

/// [`quantize_array`] against a bare layout.
fn quantize(layout: &DataLayout, name: &str, values: &[f64]) -> (u32, Vec<u8>) {
    let entry = entry(layout, name);
    assert_eq!(entry.len, values.len(), "input size mismatch for `{name}`");
    let fmt = entry.ty.format();
    let width = byte_width(entry.ty);
    let mut env = Env::new(Rounding::Rne);
    let mut raw = Vec::with_capacity(values.len() * width);
    for v in values {
        let bits = fast::from_f64(fmt, *v, &mut env) as u32;
        raw.extend_from_slice(&bits.to_le_bytes()[..width]);
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
    let entry = entry(&compiled.layout, name);
    assert_eq!(
        bytes.len(),
        entry.len * byte_width(entry.ty),
        "byte length mismatch for `{name}`"
    );
    decode(entry.ty, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_isa::FpFmt;
    use smallfloat_xcc::codegen::{compile, CodegenOptions};
    use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Stmt};

    /// Warmed slots in this thread's pool.
    fn thread_slots() -> usize {
        POOL.with(|p| p.borrow().sims.len())
    }

    /// Run `f` on a fresh thread, so it starts from an empty pool.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().unwrap();
    }

    /// `y[i] = x[i] <op> 2` at binary32.
    fn map_kernel(mul: bool) -> Kernel {
        let mut k = Kernel::new("map");
        k.array("x", FpFmt::S, 8).array("y", FpFmt::S, 8);
        let x = Expr::load("x", IdxExpr::var("i"));
        let value = if mul {
            x * Expr::lit(2.0)
        } else {
            x + Expr::lit(2.0)
        };
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(8),
            vec![Stmt::store("y", IdxExpr::var("i"), value)],
        )];
        k
    }

    fn x_input() -> Vec<(String, Vec<f64>)> {
        vec![("x".to_string(), (0..8).map(|i| i as f64 - 2.5).collect())]
    }

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

    #[test]
    fn selective_read_matches_full_read_for_every_array() {
        // One array per storage width and format, read back selectively in
        // a different order than the layout's, must equal the full read.
        let fmts = [FpFmt::S, FpFmt::Ah, FpFmt::H, FpFmt::B, FpFmt::Ab];
        let mut k = Kernel::new("mixed");
        for (j, f) in fmts.iter().enumerate() {
            k.array(&format!("a{j}"), *f, 9);
        }
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(9),
            (1..fmts.len())
                .map(|j| {
                    Stmt::store(
                        &format!("a{j}"),
                        IdxExpr::var("i"),
                        Expr::load(&format!("a{}", j - 1), IdxExpr::var("i")) * Expr::lit(0.75),
                    )
                })
                .collect(),
        )];
        let c = compile(&k, CodegenOptions::default()).unwrap();
        let inputs = vec![(
            "a0".to_string(),
            (0..9).map(|i| (i as f64 - 4.0) * 1.37).collect(),
        )];
        let full = run_compiled(&k, &c, &inputs, MemLevel::L1);
        let names: Vec<String> = (0..fmts.len()).rev().map(|j| format!("a{j}")).collect();
        let read: Vec<&str> = names.iter().map(String::as_str).collect();
        let (arrays, stats) = launch(&k, &c, &inputs, MemLevel::L1, &read);
        assert_eq!(stats.cycles, full.stats.cycles);
        for (name, values) in read.iter().zip(&arrays) {
            let want: Vec<u64> = full.arrays[*name].iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "`{name}`");
        }
        let (some, _) = launch(&k, &c, &inputs, MemLevel::L1, &["a3"]);
        assert_eq!(some, vec![full.arrays["a3"].clone()]);
    }

    #[test]
    fn relaunch_forks_the_warm_slot() {
        on_fresh_thread(|| {
            let k = map_kernel(true);
            let c = compile(&k, CodegenOptions::default()).unwrap();
            let (w0, c0) = pool_counters();
            let (first, s1) = launch(&k, &c, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(thread_slots(), 1, "first launch trains a slot");
            let (second, s2) = launch(&k, &c, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(thread_slots(), 1, "second launch forks it");
            let (w1, c1) = pool_counters();
            assert_eq!((w1 - w0, c1 - c0), (1, 1), "one fork, one train");
            assert_eq!(first, second);
            assert_eq!(s1.cycles, s2.cycles);
        });
    }

    #[test]
    fn programs_differing_in_one_instruction_never_share_a_slot() {
        on_fresh_thread(|| {
            // The loop body is unrolled twice: swapping only the first
            // fmul.s for fadd.s gives y = x+2 at even and x*2 at odd
            // indices, from a program of equal length one instruction off.
            let (km, ka) = (map_kernel(true), map_kernel(false));
            let cm = compile(&km, CodegenOptions::default()).unwrap();
            let add = compile(&ka, CodegenOptions::default()).unwrap().program;
            let at = (0..add.len())
                .find(|&i| cm.program[i] != add[i])
                .expect("fmul.s vs fadd.s");
            let mut program = cm.program.clone();
            program[at] = add[at];
            let one_off = |program: Vec<Instr>| {
                Compiled::new(program, cm.layout.clone(), Vec::new(), String::new(), 0)
            };
            let c1 = one_off(program.clone());
            assert_ne!(c1.program_hash(), cm.program_hash());

            // The same program carrying the multiply's hash (as after a
            // hash collision): the pool must confirm by full equality and
            // train a slot of its own.
            let mut forged = compile(&km, CodegenOptions::default()).unwrap();
            forged.program = program;
            assert_eq!(forged.program_hash(), cm.program_hash());

            let x = &x_input()[0].1;
            let mixed: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, v)| if i % 2 == 0 { v + 2.0 } else { v * 2.0 })
                .collect();
            let (ym, _) = launch(&km, &cm, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(ym[0], x.iter().map(|v| v * 2.0).collect::<Vec<_>>());
            let (y1, _) = launch(&km, &c1, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(thread_slots(), 2, "one instruction off: own slot");
            assert_eq!(y1[0], mixed);
            let (yf, _) = launch(&km, &forged, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(thread_slots(), 3, "hash match, program mismatch: no hit");
            assert_eq!(yf[0], mixed);
            let (ym2, _) = launch(&km, &cm, &x_input(), MemLevel::L1, &["y"]);
            assert_eq!(thread_slots(), 3, "the multiply's slot forks");
            assert_eq!(ym2, ym, "and was never overwritten");
        });
    }

    /// Serializes the tests that force a worker count: the override is
    /// process-wide.
    static FORCED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `f` on a fresh thread (an empty pool) at `workers` forced
    /// workers.
    fn at_workers(workers: usize, f: impl FnOnce() + Send + 'static) {
        let _turn = FORCED.lock().unwrap_or_else(|e| e.into_inner());
        par::set_workers(workers);
        let r = std::thread::spawn(f).join();
        par::set_workers(0);
        r.unwrap_or_else(|p| std::panic::resume_unwind(p));
    }

    /// `n` distinct input sets for [`map_kernel`].
    fn samples(n: usize) -> Vec<Vec<(String, Vec<f64>)>> {
        (0..n)
            .map(|s| {
                vec![(
                    "x".to_string(),
                    (0..8).map(|i| (i * s) as f64 - 2.5).collect(),
                )]
            })
            .collect()
    }

    #[test]
    fn launch_each_counts_and_returns_as_sequential_launches() {
        for workers in [1, 2, 3] {
            at_workers(workers, move || {
                let k = map_kernel(true);
                let c = compile(&k, CodegenOptions::default()).unwrap();
                let inputs = samples(5);
                let (w0, c0) = pool_counters();
                let batch = launch_each(&k, &c, inputs.clone(), MemLevel::L1, &["y"]);
                let (w1, c1) = pool_counters();
                assert_eq!((w1 - w0, c1 - c0), (4, 1), "N − 1 warm, 1 cold");
                let again = launch_each(&k, &c, inputs.clone(), MemLevel::L1, &["y"]);
                let (w2, c2) = pool_counters();
                assert_eq!((w2 - w1, c2 - c1), (5, 0), "a repeat forks all N");
                assert_eq!(thread_slots(), 1, "helpers are not pool slots");
                for (i, x) in inputs.iter().enumerate() {
                    let (y, stats) = launch(&k, &c, x, MemLevel::L1, &["y"]);
                    for got in [&batch[i], &again[i]] {
                        assert_eq!(got.0, y, "sample {i} at {workers} workers");
                        assert_eq!(got.1, stats, "sample {i} at {workers} workers");
                    }
                }
                assert!(launch_each(&k, &c, Vec::new(), MemLevel::L1, &["y"]).is_empty());
            });
        }
    }

    #[test]
    fn a_trap_in_launch_each_names_the_kernel() {
        at_workers(2, || {
            let k = map_kernel(true);
            let mut c = compile(&k, CodegenOptions::default()).unwrap();
            c.program[0] = Instr::Ebreak;
            let err =
                std::panic::catch_unwind(|| launch_each(&k, &c, samples(4), MemLevel::L1, &["y"]))
                    .expect_err("every sample traps");
            let msg = err.downcast_ref::<String>().expect("the runner's message");
            assert!(msg.starts_with("kernel `map` trapped: "), "{msg}");
        });
    }

    #[test]
    fn hot_blocks_are_read_on_request() {
        on_fresh_thread(|| {
            assert!(last_hot_blocks(10).is_empty(), "no launch yet");
            let k = map_kernel(true);
            let c = compile(&k, CodegenOptions::default()).unwrap();
            let (_, stats) = launch(&k, &c, &x_input(), MemLevel::L1, &["y"]);
            let hot = last_hot_blocks(10);
            assert!(!hot.is_empty());
            let attributed: u64 = hot.iter().map(|b| b.dynamic_instrs()).sum();
            assert!(attributed > 0 && attributed <= stats.instret);
        });
    }
}
