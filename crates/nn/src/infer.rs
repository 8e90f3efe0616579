//! End-to-end network inference: on the cycle-accurate simulator (with
//! per-layer cost and QoR attribution) and on the typed interpreter (the
//! fast bit-identical path the tuner iterates on).
//!
//! The host drives the network layer by layer: each layer's kernel runs at
//! its assigned format, the output activations are read back (widened to
//! `f64`) and quantized into the next layer's format on load — the same
//! convert-at-layer-boundary dataflow a mixed-precision deployment uses.

use crate::graph::{forward_f64, Network};
use crate::lower::{build_layer, layer_inputs, layer_kernel, layer_precision};
use crate::qor::argmax;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{launch, VecMode};
use smallfloat_sim::{MemLevel, Stats};
use smallfloat_xcc::interp::{sqnr_db, TypedProgram, TypedState};

/// A per-layer format assignment (layer name → storage format). Every
/// layer must appear.
pub type Assignment = Vec<(String, FpFmt)>;

/// The all-`fmt` assignment for a network.
pub fn uniform_assignment(net: &Network, fmt: FpFmt) -> Assignment {
    net.layers
        .iter()
        .map(|l| (l.name().to_string(), fmt))
        .collect()
}

fn fmt_of(assignment: &Assignment, name: &str) -> FpFmt {
    assignment
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, f)| *f)
        .unwrap_or_else(|| panic!("assignment misses layer `{name}`"))
}

/// Execution record of one layer across the whole evaluation set.
#[derive(Clone, Debug)]
pub struct LayerRun {
    /// Layer name.
    pub name: String,
    /// Storage format the layer ran at.
    pub fmt: FpFmt,
    /// Aggregated simulator statistics (summed over per-sample launches
    /// for convolution layers).
    pub stats: Stats,
    /// SQNR (dB) of the layer's output activations against the `f64`
    /// reference pipeline, over all samples (`inf` for an exact match).
    pub sqnr_db: f64,
}

/// Result of simulating a network over an evaluation set.
#[derive(Clone, Debug)]
pub struct Inference {
    /// Final-layer scores per sample (widened to `f64`).
    pub outputs: Vec<Vec<f64>>,
    /// `argmax` predictions per sample.
    pub predictions: Vec<usize>,
    /// Per-layer cost and QoR attribution.
    pub layers: Vec<LayerRun>,
    /// Total simulated cycles across all layers.
    pub cycles: u64,
    /// Total retired instructions.
    pub instret: u64,
    /// Total energy (pJ) from the simulator's per-instruction model.
    pub energy_pj: f64,
}

fn add_stats(into: &mut Stats, s: &Stats) {
    into.cycles += s.cycles;
    into.instret += s.instret;
    into.energy_pj += s.energy_pj;
}

/// Map non-finite activations (overflowed formats) to zero so SQNR stays
/// defined, as in `smallfloat_kernels::bench::sqnr`.
fn finite(v: &[f64]) -> Vec<f64> {
    v.iter()
        .map(|x| if x.is_finite() { *x } else { 0.0 })
        .collect()
}

/// Run a network over `inputs` on the cycle-accurate simulator.
///
/// Batched layers (dense, ReLU, max-pool) launch once for the whole set;
/// convolutions launch per sample and their statistics are summed — the
/// totals are comparable across layers either way.
pub fn infer_sim(
    net: &Network,
    inputs: &[Vec<f64>],
    assignment: &Assignment,
    mode: VecMode,
    level: MemLevel,
) -> Inference {
    let n = inputs.len();
    // Per-layer f64 reference activations, sample-major, for SQNR.
    let mut reference: Vec<Vec<f64>> = vec![Vec::new(); net.layers.len()];
    for x in inputs {
        for (li, acts) in forward_f64(net, x).into_iter().enumerate() {
            reference[li].extend(acts);
        }
    }
    let mut acts: Vec<Vec<f64>> = inputs.to_vec();
    let mut layers = Vec::with_capacity(net.layers.len());
    for (li, (layer, params)) in net.layers.iter().zip(&net.params).enumerate() {
        let fmt = fmt_of(assignment, layer.name());
        let out_len = layer.out_len();
        let mut stats = Stats::default();
        if layer.batched() {
            let (typed, compiled) = build_layer(layer, n, fmt, mode);
            let flat: Vec<f64> = acts.iter().flatten().copied().collect();
            let inputs = layer_inputs(layer, params, &flat, n);
            let (y, s) = launch(&typed, &compiled, &inputs, level, &["y"]);
            add_stats(&mut stats, &s);
            acts = y[0].chunks(out_len).map(<[f64]>::to_vec).collect();
        } else {
            let (typed, compiled) = build_layer(layer, 1, fmt, mode);
            for x in &mut acts {
                let inputs = layer_inputs(layer, params, x, 1);
                let (mut y, s) = launch(&typed, &compiled, &inputs, level, &["y"]);
                add_stats(&mut stats, &s);
                *x = y.swap_remove(0);
            }
        }
        let measured: Vec<f64> = acts.iter().flatten().copied().collect();
        layers.push(LayerRun {
            name: layer.name().to_string(),
            fmt,
            stats,
            sqnr_db: sqnr_db(&reference[li], &finite(&measured)),
        });
    }
    let predictions = acts.iter().map(|o| argmax(o)).collect();
    let (mut cycles, mut instret, mut energy_pj) = (0, 0, 0.0);
    for l in &layers {
        cycles += l.stats.cycles;
        instret += l.stats.instret;
        energy_pj += l.stats.energy_pj;
    }
    Inference {
        outputs: acts,
        predictions,
        layers,
        cycles,
        instret,
        energy_pj,
    }
}

/// Run a network over `inputs` on the typed (bit-accurate, softfp-backed)
/// interpreter and return the final-layer scores per sample. This matches
/// the scalar simulator lowering bit-for-bit at a fraction of the cost —
/// the evaluation function the mixed-precision tuner iterates on.
pub fn infer_typed(net: &Network, inputs: &[Vec<f64>], assignment: &Assignment) -> Vec<Vec<f64>> {
    let n = inputs.len();
    let mut acts: Vec<Vec<f64>> = inputs.to_vec();
    for (layer, params) in net.layers.iter().zip(&net.params) {
        let fmt = fmt_of(assignment, layer.name());
        let out_len = layer.out_len();
        if layer.batched() {
            let typed = layer_precision(fmt).apply(&layer_kernel(layer, n));
            let mut st = TypedState::for_kernel(&typed);
            let flat: Vec<f64> = acts.iter().flatten().copied().collect();
            for (name, vals) in layer_inputs(layer, params, &flat, n) {
                st.set_array(&name, &vals);
            }
            TypedProgram::new(&typed).run(&mut st);
            acts = st
                .array_f64("y")
                .chunks(out_len)
                .map(<[f64]>::to_vec)
                .collect();
        } else {
            // One resolve per layer, one run per sample.
            let typed = layer_precision(fmt).apply(&layer_kernel(layer, 1));
            let program = TypedProgram::new(&typed);
            for x in &mut acts {
                let mut st = TypedState::for_kernel(&typed);
                for (name, vals) in layer_inputs(layer, params, x, 1) {
                    st.set_array(&name, &vals);
                }
                program.run(&mut st);
                *x = st.array_f64("y");
            }
        }
    }
    acts
}

/// Predictions of the `f64` reference pipeline (the churn baseline).
pub fn reference_predictions(net: &Network, inputs: &[Vec<f64>]) -> Vec<usize> {
    inputs
        .iter()
        .map(|x| argmax(forward_f64(net, x).last().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::mlp;
    use crate::qor::accuracy;

    /// Smoke: a few samples end-to-end on the simulator at binary16, and
    /// the scalar sim path agrees with the typed interpreter bit-for-bit.
    #[test]
    fn sim_matches_typed_interpreter() {
        let (net, ds) = mlp();
        let inputs = &ds.inputs[..6];
        let assignment = uniform_assignment(&net, FpFmt::H);
        let sim = infer_sim(&net, inputs, &assignment, VecMode::Scalar, MemLevel::L1);
        let typed = infer_typed(&net, inputs, &assignment);
        assert_eq!(sim.outputs, typed);
        assert!(sim.cycles > 0 && sim.energy_pj > 0.0);
        assert_eq!(sim.layers.len(), net.layers.len());
    }

    /// Binary32 on the simulator must reproduce the reference predictions
    /// (and hence perfect accuracy) — quantization is the only error
    /// source in this pipeline.
    #[test]
    fn binary32_sim_is_faithful() {
        let (net, ds) = mlp();
        let inputs = &ds.inputs[..8];
        let assignment = uniform_assignment(&net, FpFmt::S);
        let sim = infer_sim(&net, inputs, &assignment, VecMode::Auto, MemLevel::L1);
        assert_eq!(sim.predictions, reference_predictions(&net, inputs));
        assert_eq!(accuracy(&sim.predictions, &ds.labels[..8]), 1.0);
    }
}
