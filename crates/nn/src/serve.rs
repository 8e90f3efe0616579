//! Batch-inference serving: a network packaged as cluster work
//! descriptors.
//!
//! [`ServingModel::build`] lowers every layer of a [`Network`] at one
//! uniform format and bakes the quantized weights into per-layer
//! [`CpuSnapshot`] images — the warmed state every request forks from.
//! [`ServingModel::request`] turns one input sample into a multi-stage
//! [`WorkDescriptor`]: stage 0 DMAs the quantized sample into the first
//! layer's `x` array; each later stage pipes the previous stage's raw `y`
//! bytes into its own `x` region. Because the format is uniform, the byte
//! pipe is exactly the widen-requantize round trip the layer-by-layer
//! [`crate::infer::infer_sim`] path performs (f64 round-trip of a value
//! already in the format is the identity), so a served request is
//! bit-identical to layered inference of the same sample.
//!
//! The descriptors are pure functions of the sample and the images
//! (snapshot forks share no mutable state — see `smallfloat-cluster`), so
//! any request served by an N-core cluster replays bit-identically on the
//! single-core [`reference_run`] — the divergence gate the serving
//! benchmark enforces per sampled request.

use crate::graph::Network;
use crate::lower::build_layer;
use crate::qor::argmax;
use smallfloat_cluster::{reference_run, Cluster, Stage, WorkDescriptor, WorkResult};
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{array_span, decode_array, quantize_array, VecMode};
use smallfloat_sim::{Cpu, CpuSnapshot, MemLevel, SimConfig};
use smallfloat_xcc::codegen::{Compiled, TEXT_BASE};

/// Per-stage instruction budget, matching `run_compiled`'s limit.
const STAGE_BUDGET: u64 = 200_000_000;

/// One layer's serving plan: its lowering plus the descriptor spans.
struct StagePlan {
    compiled: Compiled,
    x_addr: u32,
    y_addr: u32,
    y_bytes: usize,
}

/// The decoded answer to one served request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutput {
    /// Final-layer scores, widened to `f64`.
    pub logits: Vec<f64>,
    /// `argmax` class prediction.
    pub prediction: usize,
}

/// A network lowered and weight-baked for cluster serving.
pub struct ServingModel {
    name: &'static str,
    fmt: FpFmt,
    config: SimConfig,
    images: Vec<CpuSnapshot>,
    stages: Vec<StagePlan>,
}

impl ServingModel {
    /// Lower `net` at a uniform `fmt`/`mode`/`level` and bake each layer's
    /// quantized weights into its image. Uniform formats keep the
    /// stage-to-stage byte pipe exact; mixed per-layer assignments would
    /// need a host-side convert step between stages.
    ///
    /// # Panics
    ///
    /// Panics if a layer fails to compile or adjacent layers' activation
    /// spans disagree (a malformed network).
    pub fn build(net: &Network, fmt: FpFmt, mode: VecMode, level: MemLevel) -> ServingModel {
        let config = SimConfig {
            mem_level: level,
            ..SimConfig::default()
        };
        let mut images = Vec::with_capacity(net.layers.len());
        let mut stages: Vec<StagePlan> = Vec::with_capacity(net.layers.len());
        for (layer, params) in net.layers.iter().zip(&net.params) {
            let (_typed, compiled) = build_layer(layer, 1, fmt, mode);
            let mut cpu = Cpu::new(config.clone());
            cpu.load_program(TEXT_BASE, &compiled.program);
            if !params.w.is_empty() {
                let (addr, bytes) = quantize_array(&compiled, "w", &params.w);
                cpu.write_data(addr, &bytes);
                let (addr, bytes) = quantize_array(&compiled, "bias", &params.bias);
                cpu.write_data(addr, &bytes);
            }
            images.push(cpu.snapshot());
            let (x_addr, x_bytes) = array_span(&compiled, "x");
            let (y_addr, y_bytes) = array_span(&compiled, "y");
            if let Some(prev) = stages.last() {
                assert_eq!(
                    prev.y_bytes,
                    x_bytes,
                    "{}: layer `{}` input span disagrees with its predecessor's output",
                    net.name,
                    layer.name()
                );
            }
            stages.push(StagePlan {
                compiled,
                x_addr,
                y_addr,
                y_bytes,
            });
        }
        ServingModel {
            name: net.name,
            fmt,
            config,
            images,
            stages,
        }
    }

    /// Network name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The uniform storage format the model serves at.
    pub fn fmt(&self) -> FpFmt {
        self.fmt
    }

    /// Per-core simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The per-layer weight-baked images requests fork from.
    pub fn images(&self) -> &[CpuSnapshot] {
        &self.images
    }

    /// An `n_cores` cluster serving this model.
    pub fn cluster(&self, n_cores: usize, seed: u64) -> Cluster {
        Cluster::new(n_cores, self.images.clone(), self.config.clone(), seed)
    }

    /// Package one input sample as a work descriptor: quantized sample in,
    /// raw activation bytes piped layer to layer, final logits out.
    ///
    /// # Panics
    ///
    /// Panics on a sample of the wrong length.
    pub fn request(&self, id: u64, sample: &[f64]) -> WorkDescriptor {
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(si, plan)| Stage {
                image: si,
                writes: if si == 0 {
                    vec![quantize_array(&plan.compiled, "x", sample)]
                } else {
                    Vec::new()
                },
                pipes: if si == 0 {
                    Vec::new()
                } else {
                    vec![(plan.x_addr, 0)]
                },
                reads: vec![(plan.y_addr, plan.y_bytes)],
                max_instructions: STAGE_BUDGET,
            })
            .collect();
        WorkDescriptor { id, stages }
    }

    /// Decode a completed request's final-stage bytes into logits and a
    /// class prediction.
    ///
    /// # Panics
    ///
    /// Panics on a result whose payload does not span the final `y` array.
    pub fn decode(&self, result: &WorkResult) -> ServeOutput {
        let last = self.stages.last().expect("a network has layers");
        let logits = decode_array(&last.compiled, "y", &result.data[0]);
        let prediction = argmax(&logits);
        ServeOutput { logits, prediction }
    }

    /// Serve `desc` on a fresh single reference core
    /// ([`reference_run`]) — the bit-identity baseline for divergence
    /// checks.
    pub fn reference(&self, desc: &WorkDescriptor) -> WorkResult {
        reference_run(&self.images, &self.config, desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::mlp;
    use crate::infer::{infer_typed, uniform_assignment};

    /// A served request is bit-identical to layered inference (typed
    /// interpreter ≡ scalar sim) and to its own single-core reference.
    #[test]
    fn served_requests_match_layered_inference() {
        let (net, ds) = mlp();
        let samples = &ds.inputs[..4];
        let model = ServingModel::build(&net, FpFmt::H, VecMode::Scalar, MemLevel::L1);
        let layered = infer_typed(&net, samples, &uniform_assignment(&net, FpFmt::H));
        let mut cluster = model.cluster(2, 42);
        for (i, x) in samples.iter().enumerate() {
            cluster.submit(model.request(i as u64, x));
        }
        for (i, r) in cluster.run(2).iter().enumerate() {
            let out = model.decode(r);
            assert_eq!(
                out.logits, layered[i],
                "sample {i} diverged from layered path"
            );
            // Single-core reference: outputs, flags, and stats bit-equal.
            let want = model.reference(&model.request(i as u64, &samples[i]));
            assert_eq!(r.data, want.data, "sample {i} reference data");
            assert_eq!(r.fflags, want.fflags, "sample {i} reference fflags");
            assert_eq!(r.stats, want.stats, "sample {i} reference stats");
        }
    }

    /// Block lowering keeps fusing the serving MLP's compiled dot-product
    /// loop (binary16, auto-vectorized): the hottest block of the first
    /// stage dispatches at most 0.7 micro-ops per retired instruction.
    #[test]
    fn dot_product_loop_fuses() {
        let (net, ds) = mlp();
        let model = ServingModel::build(&net, FpFmt::H, VecMode::Auto, MemLevel::L1);
        let desc = model.request(0, &ds.inputs[0]);
        let mut cpu = Cpu::new(model.config().clone());
        cpu.set_block_cache(true);
        cpu.restore(&model.images()[0]);
        for (addr, bytes) in &desc.stages[0].writes {
            cpu.write_data(*addr, bytes);
        }
        let exit = cpu.run(STAGE_BUDGET).expect("the first layer runs");
        assert_eq!(exit, smallfloat_sim::ExitReason::Ecall);
        let hot = cpu.hot_blocks(1);
        let b = hot.first().expect("a block ran");
        assert!(
            10 * b.uops <= 7 * b.instrs,
            "hottest block: {} micro-ops for {} instructions\n{}",
            b.uops,
            b.instrs,
            smallfloat_sim::hot_block_report(&hot, cpu.stats().instret)
        );
    }
}
