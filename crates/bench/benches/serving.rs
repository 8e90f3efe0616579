//! Host-side serving speed: wall-clock cost of serving one batch of nn
//! inference requests through the cluster.
//!
//! The simulated clock domain (rps, latency percentiles — the committed
//! `BENCH_serving.json`) is a pure function of the submitted work; this
//! bench records how fast the host simulates the batch, as simulated
//! instructions per host second, with a single host worker (thread
//! fan-out would only add scheduler noise on a one-CPU host).
//!
//! Run with `cargo bench --bench serving`; set
//! `SMALLFLOAT_BENCH_JSON=<path>` for the machine-readable report.

use smallfloat_devtools::bench::Harness;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::VecMode;
use smallfloat_nn::graph::{cnn, mlp};
use smallfloat_nn::ServingModel;
use smallfloat_sim::MemLevel;

const REQUESTS: usize = 16;
const CORES: usize = 4;

/// Serve one batch on a fresh cluster; returns total retired instructions
/// (the throughput denominator — simulated instructions per host second).
fn serve_batch(model: &ServingModel, samples: &[Vec<f64>]) -> u64 {
    let mut cluster = model.cluster(CORES, 7);
    for (i, x) in samples.iter().enumerate() {
        cluster.submit(model.request(i as u64, x));
    }
    let results = cluster.run(1);
    results.iter().map(|r| r.stats.instret).sum()
}

fn main() {
    let mut h = Harness::new("serving");
    for (net, ds) in [mlp(), cnn()] {
        let samples: Vec<Vec<f64>> = ds.inputs[..REQUESTS].to_vec();
        let model = ServingModel::build(&net, FpFmt::H, VecMode::Auto, MemLevel::L1);
        let instret = serve_batch(&model, &samples);
        h.throughput(instret);
        h.bench(&format!("serve_{}", net.name.to_lowercase()), || {
            serve_batch(&model, &samples)
        });
    }
    h.finish();
}
