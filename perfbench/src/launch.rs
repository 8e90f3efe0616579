//! The runner's launch path, re-driven step by step through public
//! functions so a traced pass can split a launch into its layers.
//!
//! [`Launcher::launch`] does what `smallfloat_kernels::run_compiled` does,
//! in the same order and with the same per-thread warm pool (32 slots,
//! least-recently-used eviction, keyed on the program and memory level):
//! fork a warmed snapshot or train a fresh `Cpu`, quantize and write the
//! inputs, run, harvest the block/trace profiles, and widen every array of
//! the layout back to `f64`. The results and statistics are bit-identical
//! to `run_compiled`'s; the traced passes check that through the
//! workloads' outputs.

use crate::trace::{count, span};
use smallfloat_isa::Instr;
use smallfloat_kernels::{decode_array, quantize_array};
use smallfloat_sim::{Cpu, CpuSnapshot, ExitReason, MemLevel, SimConfig, Stats};
use smallfloat_xcc::codegen::{Compiled, TEXT_BASE};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Pool capacity of `smallfloat_kernels::runner`.
const POOL_CAP: usize = 32;

/// Instruction budget of `run_compiled`.
const BUDGET: u64 = 200_000_000;

struct WarmSim {
    program: Vec<Instr>,
    level: MemLevel,
    snap: CpuSnapshot,
    cpu: Cpu,
    used: u64,
}

/// A warm pool of simulators, empty when created, plus the pass's tally
/// of distinct compiled programs.
#[derive(Default)]
pub struct Launcher {
    tick: u64,
    sims: Vec<WarmSim>,
    programs: HashSet<u64>,
    /// Launches that forked a warmed snapshot / trained a slot from reset.
    pub warm_forks: u64,
    pub cold_trains: u64,
}

impl Launcher {
    /// Run the code generator `f` under the `xcc.compile_s` span and
    /// count the compile and its program.
    pub fn compile(&mut self, f: impl FnOnce() -> Compiled) -> Compiled {
        let compiled = span("xcc.compile_s", f);
        count("xcc.compiles", 1);
        let mut h = DefaultHasher::new();
        compiled.program.hash(&mut h);
        self.programs.insert(h.finish());
        compiled
    }

    /// Distinct programs compiled so far.
    pub fn distinct_programs(&self) -> u64 {
        self.programs.len() as u64
    }

    /// Launch `compiled` on `inputs` and return the arrays named in `read`
    /// (in that order) with the run's statistics. Records the
    /// `kernels.*`, `sim.*` and `softfp.*` spans and counters.
    ///
    /// # Panics
    ///
    /// Panics where `run_compiled` panics: a trap, a missed `ecall`, an
    /// unknown array name or a size mismatch.
    pub fn launch(
        &mut self,
        compiled: &Compiled,
        inputs: &[(String, Vec<f64>)],
        level: MemLevel,
        read: &[&str],
    ) -> (Vec<Vec<f64>>, Stats) {
        let t0 = Instant::now();
        count("kernels.launches", 1);
        self.tick += 1;
        let (slot, cold) = match self
            .sims
            .iter()
            .position(|w| w.level == level && w.program == compiled.program)
        {
            Some(i) => {
                let w = &mut self.sims[i];
                span("sim.restore_s", || {
                    w.cpu.restore(&w.snap);
                    w.cpu.reset_stats();
                });
                count("sim.restores", 1);
                count("kernels.warm_forks", 1);
                self.warm_forks += 1;
                (i, false)
            }
            None => {
                count("kernels.cold_trains", 1);
                self.cold_trains += 1;
                let config = SimConfig {
                    mem_level: level,
                    ..SimConfig::default()
                };
                if self.sims.len() < POOL_CAP {
                    let mut cpu = Cpu::new(config);
                    cpu.load_program(TEXT_BASE, &compiled.program);
                    let snap = cpu.snapshot();
                    self.sims.push(WarmSim {
                        program: compiled.program.clone(),
                        level,
                        snap,
                        cpu,
                        used: 0,
                    });
                    (self.sims.len() - 1, true)
                } else {
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
                    w.program.clone_from(&compiled.program);
                    w.level = level;
                    w.snap = w.cpu.snapshot();
                    (i, true)
                }
            }
        };
        let w = &mut self.sims[slot];
        w.used = self.tick;
        let cpu = &mut w.cpu;

        for (name, values) in inputs {
            let (addr, bytes) = span("softfp.quantize_s", || {
                quantize_array(compiled, name, values)
            });
            count("softfp.quantize_elems", values.len() as u64);
            cpu.write_data(addr, &bytes);
        }

        let t_run = Instant::now();
        let exit = cpu
            .run(BUDGET)
            .unwrap_or_else(|e| panic!("kernel trapped: {e}"));
        let run_s = t_run.elapsed().as_secs_f64();
        crate::trace::add_secs("sim.run_s", run_s);
        if cold {
            crate::trace::add_secs("sim.cold_run_s", run_s);
            count("sim.cold_runs", 1);
        }
        assert_eq!(exit, ExitReason::Ecall, "kernel must exit via ecall");
        let stats = cpu.stats().clone();
        count("sim.instret", stats.instret);

        // The runner harvests these after every launch, read or not.
        span("kernels.profile_s", || {
            std::hint::black_box((
                cpu.hot_blocks(10),
                cpu.hot_traces(10),
                cpu.trace_stats().clone(),
            ))
        });

        let mut out: Vec<Vec<f64>> = vec![Vec::new(); read.len()];
        for entry in &compiled.layout.entries {
            let width = (entry.ty.width() / 8) as usize;
            let values = span("softfp.readback_s", || {
                let bytes = cpu.mem().read_bytes(entry.addr, entry.len * width);
                decode_array(compiled, &entry.name, &bytes)
            });
            count("softfp.readback_elems", entry.len as u64);
            if let Some(k) = read.iter().position(|r| *r == entry.name) {
                count("softfp.readback_used_elems", entry.len as u64);
                out[k] = values;
            }
        }
        crate::trace::add_secs("kernels.launch_s", t0.elapsed().as_secs_f64());
        (out, stats)
    }
}
