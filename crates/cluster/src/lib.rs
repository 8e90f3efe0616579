//! Simulated multi-core cluster: snapshot-forked cores behind a mailbox.
//!
//! A [`Cluster`] models `N` identical simulated cores that share a set of
//! warmed program images ([`CpuSnapshot`]s, copy-on-write down to the page
//! table — see `smallfloat_sim::mem`) and consume [`WorkDescriptor`]s from
//! a common mailbox. A descriptor is a DMA-style request: byte images to
//! write into the forked memory, a program image to run, byte ranges to
//! read back. Multi-stage descriptors pipe one stage's read-back bytes
//! into the next stage's input region, which is how a layered inference
//! request rides one descriptor.
//!
//! # Determinism and the single-core reference
//!
//! Every stage executes on a private fork of its image: restore, write,
//! run, read. Forks share no mutable state — page tables are
//! copy-on-write and each core owns its `Cpu` — so a descriptor's outputs
//! ([`WorkResult::data`], accrued `fflags`, cycle/energy statistics) are a
//! pure function of the descriptor and the images. [`Cluster::run`]
//! exploits exactly that: it executes descriptors across a host thread
//! pool in arbitrary real-time order, then replays the *scheduling*
//! deterministically in the simulated clock domain (FIFO mailbox,
//! earliest-free core, lowest-id tie-break). The result is bit-identical
//! to [`reference_run`] on a single reference core — the property the
//! `cluster_reference` test and the serving harness's divergence gate
//! both enforce.
//!
//! Per-core seeds ([`Cluster::core_seed`]) are derived from the cluster
//! seed with SplitMix64, so load generators can give each core an
//! independent but reproducible stream.

use smallfloat_sim::{par, Cpu, CpuSnapshot, ExitReason, SimConfig, Stats};
use smallfloat_softfp::Flags;
use std::collections::VecDeque;

/// One stage of a work descriptor: fork `image`, apply the writes, run,
/// read back.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Index into the cluster's image table.
    pub image: usize,
    /// Byte images DMA'd into the fork before the run.
    pub writes: Vec<(u32, Vec<u8>)>,
    /// Pipes from the previous stage: `(dst_addr, src_read_idx)` copies
    /// the bytes of the previous stage's `reads[src_read_idx]` to
    /// `dst_addr`. Must be empty on the first stage.
    pub pipes: Vec<(u32, usize)>,
    /// Byte ranges `(addr, len)` read back after the run.
    pub reads: Vec<(u32, usize)>,
    /// Instruction budget for the run.
    pub max_instructions: u64,
}

/// A unit of work submitted to the cluster mailbox.
#[derive(Clone, Debug)]
pub struct WorkDescriptor {
    /// Caller-chosen request id, carried through to the result.
    pub id: u64,
    /// Stages executed in order on one core.
    pub stages: Vec<Stage>,
}

/// The completed form of a [`WorkDescriptor`].
#[derive(Clone, Debug)]
pub struct WorkResult {
    /// The descriptor's id.
    pub id: u64,
    /// Core the deterministic schedule assigned this request to.
    pub core: usize,
    /// Read-back bytes of the final stage.
    pub data: Vec<Vec<u8>>,
    /// Statistics summed over the stages (fixed stage order, so the
    /// floating-point energy total is reproducible).
    pub stats: Stats,
    /// Union of the exception flags raised by each stage.
    pub fflags: Flags,
    /// Simulated cycle the request started executing.
    pub start_cycle: u64,
    /// Simulated cycle the request completed (`start_cycle` + service
    /// cycles).
    pub end_cycle: u64,
}

/// Scheduling rollup for one simulated core.
#[derive(Clone, Debug)]
pub struct CoreReport {
    /// Core index.
    pub core: usize,
    /// The core's derived seed ([`Cluster::core_seed`]).
    pub seed: u64,
    /// Requests the schedule assigned to this core.
    pub requests: u64,
    /// Statistics summed over those requests.
    pub stats: Stats,
    /// Simulated cycle the core finished its last request.
    pub busy_until: u64,
}

/// Cluster-level rollup of one [`Cluster::run`].
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Per-core scheduling rollups.
    pub per_core: Vec<CoreReport>,
    /// Statistics summed over every request (mailbox order).
    pub total: Stats,
    /// Simulated completion time of the whole batch: the maximum
    /// per-core `busy_until`. Throughput in the simulated clock domain
    /// is `requests / makespan_cycles`.
    pub makespan_cycles: u64,
}

/// SplitMix64 — the same generator `smallfloat_devtools::Rng` uses,
/// duplicated here (three lines) rather than growing a dependency edge
/// from a library crate to the dev-tooling crate.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Execution pool for one host worker: a lazily-built `Cpu` per image, so
/// repeated stages on the same image fork warm (the restore keeps decode
/// caches — `Cpu::restore`'s window check).
struct WorkerPool {
    sims: Vec<Option<Cpu>>,
}

impl WorkerPool {
    fn new(images: usize) -> WorkerPool {
        WorkerPool {
            sims: (0..images).map(|_| None).collect(),
        }
    }

    /// Run every stage of `desc` and return the result *without* schedule
    /// fields (`core`/`start_cycle`/`end_cycle` are filled in by the
    /// deterministic scheduling pass).
    fn exec(
        &mut self,
        config: &SimConfig,
        images: &[CpuSnapshot],
        desc: &WorkDescriptor,
    ) -> WorkResult {
        let mut stats = Stats::new();
        let mut fflags = Flags::NONE;
        let mut data: Vec<Vec<u8>> = Vec::new();
        for (si, stage) in desc.stages.iter().enumerate() {
            let image = &images[stage.image];
            let cpu = self.sims[stage.image].get_or_insert_with(|| Cpu::new(config.clone()));
            cpu.restore(image);
            cpu.reset_stats();
            for (addr, bytes) in &stage.writes {
                cpu.write_data(*addr, bytes);
            }
            for (dst, src) in &stage.pipes {
                assert!(si > 0, "pipe on the first stage of request {}", desc.id);
                cpu.write_data(*dst, &data[*src]);
            }
            let exit = cpu
                .run(stage.max_instructions)
                .unwrap_or_else(|e| panic!("request {} stage {si} trapped: {e}", desc.id));
            assert_eq!(
                exit,
                ExitReason::Ecall,
                "request {} stage {si} must exit via ecall",
                desc.id
            );
            stats.merge(cpu.stats());
            fflags |= cpu.fflags();
            data = stage
                .reads
                .iter()
                .map(|&(addr, len)| cpu.mem().read_bytes(addr, len))
                .collect();
        }
        WorkResult {
            id: desc.id,
            core: usize::MAX,
            data,
            stats,
            fflags,
            start_cycle: 0,
            end_cycle: 0,
        }
    }
}

/// A simulated multi-core cluster around a FIFO mailbox.
pub struct Cluster {
    config: SimConfig,
    seed: u64,
    n_cores: usize,
    images: Vec<CpuSnapshot>,
    mailbox: VecDeque<WorkDescriptor>,
    /// Host-worker execution pools, kept across batches for cache warmth.
    pools: Vec<WorkerPool>,
    report: Option<ClusterReport>,
}

impl Cluster {
    /// A cluster of `n_cores` simulated cores sharing `images`. `config`
    /// is the per-core simulator configuration; `seed` roots the per-core
    /// seed derivation.
    ///
    /// # Panics
    ///
    /// Panics when `n_cores` is zero or `images` is empty.
    pub fn new(n_cores: usize, images: Vec<CpuSnapshot>, config: SimConfig, seed: u64) -> Cluster {
        assert!(n_cores > 0, "a cluster needs at least one core");
        assert!(!images.is_empty(), "a cluster needs at least one image");
        Cluster {
            config,
            seed,
            n_cores,
            images,
            mailbox: VecDeque::new(),
            pools: Vec::new(),
            report: None,
        }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.n_cores
    }

    /// Deterministic per-core seed: SplitMix64 of the cluster seed and
    /// the core index, so every core gets an independent reproducible
    /// stream and core `i`'s stream is the same in every cluster size.
    pub fn core_seed(&self, core: usize) -> u64 {
        splitmix(self.seed ^ splitmix(core as u64 + 1))
    }

    /// Enqueue a descriptor on the mailbox (FIFO).
    pub fn submit(&mut self, desc: WorkDescriptor) {
        self.mailbox.push_back(desc);
    }

    /// Drain the mailbox: execute every descriptor, schedule them onto
    /// the simulated cores, and return results in submission order.
    ///
    /// Execution fans out over at most `host_workers` host threads (1 =
    /// run on the calling thread). The schedule — and therefore every
    /// field of every result — does not depend on `host_workers`:
    /// requests are independent snapshot forks, and core assignment plus
    /// start/end cycles are computed afterwards in the simulated clock
    /// domain (FIFO order, earliest-free core, lowest-id tie-break).
    pub fn run(&mut self, host_workers: usize) -> Vec<WorkResult> {
        let descs: Vec<WorkDescriptor> = self.mailbox.drain(..).collect();
        let workers = host_workers.clamp(1, descs.len().max(1));
        while self.pools.len() < workers {
            self.pools.push(WorkerPool::new(self.images.len()));
        }
        let mut results = self.exec_all(&descs, workers);
        self.schedule(&mut results);
        results
    }

    /// Execute `descs` on `workers` host threads, results in `descs`
    /// order: one [`WorkerPool`] per worker, through the workspace's one
    /// fan-out ([`smallfloat_sim::par::fan_out`], so the calling thread is
    /// worker 0 and a serial run spawns no thread).
    fn exec_all(&mut self, descs: &[WorkDescriptor], workers: usize) -> Vec<WorkResult> {
        let (config, images) = (&self.config, &self.images);
        par::fan_out(&mut self.pools[..workers], descs.len(), |pool, i| {
            pool.exec(config, images, &descs[i])
        })
    }

    /// Deterministic simulated-time scheduling pass: assign results (in
    /// submission order) to the earliest-free core, fill in
    /// `core`/`start_cycle`/`end_cycle`, and build the cluster report.
    fn schedule(&mut self, results: &mut [WorkResult]) {
        let mut per_core: Vec<CoreReport> = (0..self.n_cores)
            .map(|c| CoreReport {
                core: c,
                seed: self.core_seed(c),
                requests: 0,
                stats: Stats::new(),
                busy_until: 0,
            })
            .collect();
        let mut total = Stats::new();
        for r in results.iter_mut() {
            let c = per_core
                .iter()
                .enumerate()
                .min_by_key(|(i, core)| (core.busy_until, *i))
                .map(|(i, _)| i)
                .expect("n_cores > 0");
            let core = &mut per_core[c];
            r.core = c;
            r.start_cycle = core.busy_until;
            r.end_cycle = core.busy_until + r.stats.cycles;
            core.busy_until = r.end_cycle;
            core.requests += 1;
            core.stats.merge(&r.stats);
            total.merge(&r.stats);
        }
        let makespan_cycles = per_core.iter().map(|c| c.busy_until).max().unwrap_or(0);
        self.report = Some(ClusterReport {
            per_core,
            total,
            makespan_cycles,
        });
    }

    /// Rollup of the most recent [`Cluster::run`] (`None` before the
    /// first run).
    pub fn report(&self) -> Option<&ClusterReport> {
        self.report.as_ref()
    }
}

/// Execute `desc` on a fresh single reference core (per-instruction
/// semantics identical to the cluster cores — the engine tiers are
/// bit-identical by construction, see DESIGN.md §15). The cluster's
/// outputs, flags, and statistics for the same descriptor must match this
/// bit for bit; schedule fields are left at core 0, cycle 0.
pub fn reference_run(
    images: &[CpuSnapshot],
    config: &SimConfig,
    desc: &WorkDescriptor,
) -> WorkResult {
    let mut pool = WorkerPool::new(images.len());
    let mut r = pool.exec(config, images, desc);
    r.core = 0;
    r.end_cycle = r.stats.cycles;
    r
}
