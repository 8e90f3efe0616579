//! Sharded batch-inference serving on the simulated cluster.
//!
//! The front end packages `smallfloat-nn` inference requests as cluster
//! [`WorkDescriptor`]s ([`ServingModel::request`]), coalesces them into a
//! batch, and shards the batch across an N-core
//! [`Cluster`](smallfloat_cluster::Cluster) whose cores
//! all fork from the model's warmed per-layer images. Because the host
//! machine may have a single CPU, throughput and latency are reported in
//! the **simulated clock domain** (cycles, at the [`CLOCK_GHZ`]
//! convention): the deterministic schedule pass assigns every request a
//! start/end cycle, and those are a pure function of the submitted work —
//! not of the host thread count or the engine tier. Host-side speed is
//! not part of the record; perfbench's `serve` workload measures it.
//!
//! Two load models share one execution pass per point (service cycles are
//! arrival-independent):
//!
//! * **closed-loop**: all requests arrive at cycle 0; latency is the
//!   completion cycle, throughput is `requests / makespan`.
//! * **open-loop**: seeded exponential arrivals at ~70 % utilization of
//!   the core count; latency is completion − arrival under the same
//!   earliest-free-core discipline.
//!
//! Every point samples requests and replays them on the single-core
//! [`reference`](ServingModel::reference): outputs, exception flags, and
//! cycle/energy statistics must be bit-identical (the `divergences`
//! column, gated to zero by `scripts/check.sh --smoke` and the sweep).

use crate::nn::fmt_name;
use smallfloat_cluster::WorkDescriptor;
use smallfloat_devtools::percentile;
use smallfloat_devtools::Rng;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::VecMode;
use smallfloat_nn::graph::{cnn, mlp, Dataset, Network};
use smallfloat_nn::ServingModel;
use smallfloat_sim::MemLevel;
use std::fmt::Write as _;

/// Simulated clock the cycle-domain rates are quoted at (PULP-class).
pub const CLOCK_GHZ: f64 = 1.0;

/// Root seed for the sweep (cluster seeds and open-loop arrivals).
const SEED: u64 = 0x5e47_1e5e_47d0_2019;

/// Sweep divergence-gate sampling interval (every Kth request replays on
/// the single-core reference).
const SAMPLE_EVERY: usize = 8;

/// Open-loop offered load as a fraction of the cluster's service capacity.
const OPEN_UTILIZATION: f64 = 0.7;

/// One serving measurement point.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingRow {
    /// Network name (`mlp` / `cnn`).
    pub net: &'static str,
    /// Uniform storage format served at.
    pub fmt: FpFmt,
    /// Simulated core count.
    pub cores: usize,
    /// Requests in the batch.
    pub requests: usize,
    /// Simulated completion cycle of the whole batch.
    pub makespan_cycles: u64,
    /// Closed-loop throughput, requests/second at [`CLOCK_GHZ`].
    pub rps: f64,
    /// Closed-loop p50 latency (completion cycle; arrivals at cycle 0).
    pub p50_cycles: u64,
    /// Closed-loop p99 latency.
    pub p99_cycles: u64,
    /// Open-loop offered rate, requests/second at [`CLOCK_GHZ`].
    pub open_rps: f64,
    /// Open-loop p50 latency (completion − arrival).
    pub open_p50_cycles: u64,
    /// Open-loop p99 latency.
    pub open_p99_cycles: u64,
    /// Sampled requests that failed the single-core bit-identity gate.
    pub divergences: usize,
}

/// Serve one batch on an N-core cluster and measure it. `sample_every`
/// controls the reference divergence gate (1 = replay every request on
/// the single-core reference).
pub fn serve_point(
    model: &ServingModel,
    net: &'static str,
    samples: &[Vec<f64>],
    cores: usize,
    seed: u64,
    sample_every: usize,
) -> ServingRow {
    let descs: Vec<WorkDescriptor> = samples
        .iter()
        .enumerate()
        .map(|(i, x)| model.request(i as u64, x))
        .collect();
    let mut cluster = model.cluster(cores, seed);
    for d in &descs {
        cluster.submit(d.clone());
    }
    let host_workers = if smallfloat_sim::env::serial() {
        1
    } else {
        cores.min(4)
    };
    let results = cluster.run(host_workers);
    let report = cluster.report().expect("cluster ran").clone();
    let mut divergences = 0;
    for i in (0..descs.len()).step_by(sample_every.max(1)) {
        let want = model.reference(&descs[i]);
        let got = &results[i];
        if got.data != want.data || got.fflags != want.fflags || got.stats != want.stats {
            divergences += 1;
        }
    }
    let completion: Vec<u64> = results.iter().map(|r| r.end_cycle).collect();
    let service: Vec<u64> = results.iter().map(|r| r.stats.cycles).collect();
    let (open_rps, open_lat) = open_loop(&service, cores, seed);
    ServingRow {
        net,
        fmt: model.fmt(),
        cores,
        requests: samples.len(),
        makespan_cycles: report.makespan_cycles,
        rps: samples.len() as f64 * CLOCK_GHZ * 1e9 / report.makespan_cycles as f64,
        p50_cycles: percentile(&completion, 50.0),
        p99_cycles: percentile(&completion, 99.0),
        open_rps,
        open_p50_cycles: percentile(&open_lat, 50.0),
        open_p99_cycles: percentile(&open_lat, 99.0),
        divergences,
    }
}

/// Open-loop load generator: seeded exponential inter-arrivals at
/// [`OPEN_UTILIZATION`] of the cluster's capacity, replayed through the
/// same earliest-free-core discipline the cluster schedule uses. Service
/// cycles are arrival-independent (pure snapshot forks), so this reuses
/// the closed-loop execution pass. Returns the offered rate (rps at
/// [`CLOCK_GHZ`]) and per-request latencies (completion − arrival).
fn open_loop(service: &[u64], cores: usize, seed: u64) -> (f64, Vec<u64>) {
    let mean = service.iter().sum::<u64>() as f64 / service.len() as f64;
    let mean_gap = mean / (OPEN_UTILIZATION * cores as f64);
    let mut rng = Rng::new(seed ^ 0x09e4_10ad);
    let mut arrival = 0.0f64;
    let mut free = vec![0u64; cores];
    let mut lat = Vec::with_capacity(service.len());
    for &s in service {
        // Exponential inter-arrival via inverse CDF on a 53-bit uniform.
        let u = (rng.u64() >> 11) as f64 / (1u64 << 53) as f64;
        arrival += -(1.0 - u).ln() * mean_gap;
        let a = arrival as u64;
        let c = (0..cores).min_by_key(|&i| (free[i], i)).expect("cores > 0");
        let end = a.max(free[c]) + s;
        free[c] = end;
        lat.push(end - a);
    }
    (CLOCK_GHZ * 1e9 / mean_gap, lat)
}

/// The committed sweep: MLP at binary32/binary16/binary8 and CNN at
/// binary16, each over core counts {1, 2, 4, 8}, `requests` requests per
/// point. Asserts that no sampled request diverged from the single-core
/// reference.
pub fn serving_sweep(requests: usize) -> Vec<ServingRow> {
    let cores = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    type NetBuilder = fn() -> (Network, Dataset);
    let nets: [(NetBuilder, Vec<FpFmt>); 2] = [
        (mlp, vec![FpFmt::S, FpFmt::H, FpFmt::B]),
        (cnn, vec![FpFmt::H]),
    ];
    for (build_net, fmts) in nets {
        let (net, ds) = build_net();
        let samples: Vec<Vec<f64>> = (0..requests)
            .map(|i| ds.inputs[i % ds.inputs.len()].clone())
            .collect();
        for &fmt in &fmts {
            let model = ServingModel::build(&net, fmt, VecMode::Auto, MemLevel::L1);
            for &c in &cores {
                rows.push(serve_point(
                    &model,
                    net.name,
                    &samples,
                    c,
                    SEED ^ c as u64,
                    SAMPLE_EVERY,
                ));
            }
        }
    }
    for r in &rows {
        assert_eq!(
            r.divergences,
            0,
            "{} {} x{}: sampled requests diverged from the single-core reference",
            r.net,
            fmt_name(r.fmt),
            r.cores
        );
    }
    rows
}

/// Human-readable sweep table with per-series scaling factors.
pub fn serving_render(rows: &[ServingRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Batch-inference serving on the simulated cluster ({} GHz clock domain)",
        CLOCK_GHZ
    )
    .unwrap();
    writeln!(
        out,
        "{:<5} {:<11} {:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>10} {:>4}",
        "net", "fmt", "cores", "req", "rps", "p50(cyc)", "p99(cyc)", "o-p50", "o-p99", "div"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<5} {:<11} {:>5} {:>4} {:>10.0} {:>10} {:>10} {:>10} {:>10} {:>4}",
            r.net,
            fmt_name(r.fmt),
            r.cores,
            r.requests,
            r.rps,
            r.p50_cycles,
            r.p99_cycles,
            r.open_p50_cycles,
            r.open_p99_cycles,
            r.divergences
        )
        .unwrap();
    }
    // Scaling lines: throughput at 4 cores vs 1 core per (net, fmt).
    for base in rows.iter().filter(|r| r.cores == 1) {
        if let Some(four) = rows
            .iter()
            .find(|r| r.cores == 4 && r.net == base.net && r.fmt == base.fmt)
        {
            writeln!(
                out,
                "{} {}: 4-core throughput {:.2}x of 1-core",
                base.net,
                fmt_name(base.fmt),
                four.rps / base.rps
            )
            .unwrap();
        }
    }
    out
}

/// JSON record for `BENCH_serving.json`.
pub fn serving_json(rows: &[ServingRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"serving\",\n");
    writeln!(out, "  \"clock_ghz\": {CLOCK_GHZ},").unwrap();
    out.push_str(
        "  \"unit\": \"requests/second and latency percentiles in the simulated clock domain\",\n",
    );
    out.push_str(
        "  \"methodology\": \"cargo run --release -p smallfloat-bench --bin serve_bench -- --json BENCH_serving.json. Each point serves a batch of nn inference requests as multi-stage cluster work descriptors (one stage per layer, activations piped as raw bytes) over {1,2,4,8} simulated cores on the block micro-op cache engine. Closed-loop latency is the completion cycle under arrivals at cycle 0; open-loop uses seeded exponential arrivals at 70% utilization replayed through the same earliest-free-core schedule. Every 8th request is replayed on a single-core reference and must match bit for bit (outputs, fflags, cycles, energy) — the divergences column. Simulated-domain numbers are identical across engine tiers and host thread counts; the file must regenerate byte-identically.\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"net\": \"{}\", \"fmt\": \"{}\", \"cores\": {}, \"requests\": {}, \"makespan_cycles\": {}, \"rps\": {:.0}, \"p50_cycles\": {}, \"p99_cycles\": {}, \"open_rps\": {:.0}, \"open_p50_cycles\": {}, \"open_p99_cycles\": {}, \"divergences\": {}}}{}",
            r.net,
            fmt_name(r.fmt),
            r.cores,
            r.requests,
            r.makespan_cycles,
            r.rps,
            r.p50_cycles,
            r.p99_cycles,
            r.open_rps,
            r.open_p50_cycles,
            r.open_p99_cycles,
            r.divergences,
            if i + 1 < rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

/// The check.sh smoke gate: a small MLP batch on 1 and 2 cores with
/// *every* request replayed on the single-core reference. Zero
/// divergences and a strictly smaller 2-core makespan are required.
///
/// # Errors
///
/// Returns a description of the first violated gate.
pub fn smoke() -> Result<String, String> {
    let (net, ds) = mlp();
    let samples: Vec<Vec<f64>> = ds.inputs[..12].to_vec();
    let model = ServingModel::build(&net, FpFmt::H, VecMode::Auto, MemLevel::L1);
    let one = serve_point(&model, net.name, &samples, 1, SEED, 1);
    let two = serve_point(&model, net.name, &samples, 2, SEED, 1);
    if one.divergences != 0 || two.divergences != 0 {
        return Err(format!(
            "cross-core divergence vs single-core reference: {} on 1 core, {} on 2 cores",
            one.divergences, two.divergences
        ));
    }
    if two.makespan_cycles >= one.makespan_cycles {
        return Err(format!(
            "2 cores must beat 1 core: makespan {} vs {}",
            two.makespan_cycles, one.makespan_cycles
        ));
    }
    Ok(format!(
        "serving smoke ok: {} requests, 0/{} divergences, 2-core speedup {:.2}x",
        samples.len(),
        2 * samples.len(),
        one.makespan_cycles as f64 / two.makespan_cycles as f64
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke gate passes, and its rows carry sane simulated-domain
    /// numbers (p99 ≥ p50 > 0, throughput > 0).
    #[test]
    fn smoke_gate_is_clean() {
        let msg = smoke().expect("smoke gate");
        assert!(msg.contains("0/24 divergences"), "{msg}");
    }

    /// A tiny two-core sweep point served twice: every field (all
    /// simulated, plus the open-loop generator's) is deterministic.
    #[test]
    fn simulated_metrics_are_deterministic() {
        let (net, ds) = mlp();
        let samples: Vec<Vec<f64>> = ds.inputs[..8].to_vec();
        let model = ServingModel::build(&net, FpFmt::H, VecMode::Auto, MemLevel::L1);
        let rows: Vec<ServingRow> = (0..2)
            .map(|_| serve_point(&model, net.name, &samples, 2, SEED, 4))
            .collect();
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0].divergences, 0);
        assert!(rows[0].rps > 0.0 && rows[0].p99_cycles >= rows[0].p50_cycles);
    }
}
