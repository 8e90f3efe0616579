//! Per-layer mixed-precision tuning via the `smallfloat-tuner` greedy
//! search.
//!
//! Each layer is one tuner variable, named after the layer and costed by
//! its parameter/activation storage. The evaluator runs the whole network
//! through the typed interpreter at the assignment under test and reports
//! prediction churn against the `f64` reference. The resulting
//! `TuneResult::assignment` therefore *is* the per-layer format map, and
//! `total_bits` prices it by real storage.

use crate::graph::{Dataset, Network};
use crate::infer::{infer_typed, reference_predictions, Assignment};
use crate::qor::{accuracy, argmax, churn};
use smallfloat_tuner::{tune, TuneResult, TunerConfig};

/// The tuner's view of the network: one variable per layer, in network
/// order, named after it and costed by
/// [`crate::graph::Layer::cost_elems`].
fn network_vars(net: &Network) -> Vec<(String, usize)> {
    net.layers
        .iter()
        .map(|l| (l.name().to_string(), l.cost_elems()))
        .collect()
}

/// A tuned network: the greedy trace plus the end metrics of the chosen
/// assignment.
#[derive(Clone, Debug)]
pub struct NetTune {
    /// The raw tuner outcome (assignment, trace, evaluation count).
    pub result: TuneResult,
    /// Top-1 accuracy of the tuned assignment on the data set (typed
    /// interpreter).
    pub accuracy: f64,
    /// Prediction churn of the tuned assignment against the `f64`
    /// reference.
    pub churn: f64,
}

impl NetTune {
    /// The tuned per-layer assignment (every layer appears).
    pub fn assignment(&self) -> Assignment {
        self.result.assignment.clone()
    }
}

/// Greedily derive a per-layer format assignment whose prediction churn
/// against the `f64` reference stays within `config.max_error`. Layers
/// are visited in network order; candidates are tried cheapest-first
/// (the default `[B, Ab, H, Ah]`), falling back to binary32 when all fail —
/// the same protocol the paper's §V-C precision-tuning study applies to
/// kernel variables.
pub fn tune_network(net: &Network, ds: &Dataset, config: &TunerConfig) -> NetTune {
    let reference = reference_predictions(net, &ds.inputs);
    let result = tune(&network_vars(net), config, |assignment| {
        let outs = infer_typed(net, &ds.inputs, &assignment.to_vec());
        let preds: Vec<usize> = outs.iter().map(|o| argmax(o)).collect();
        churn(&preds, &reference)
    });
    let outs = infer_typed(net, &ds.inputs, &result.assignment);
    let preds: Vec<usize> = outs.iter().map(|o| argmax(o)).collect();
    NetTune {
        churn: churn(&preds, &reference),
        accuracy: accuracy(&preds, &ds.labels),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_vars_mirror_layers() {
        let (net, _) = crate::graph::mlp();
        let vars = network_vars(&net);
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fc1", "relu1", "fc2", "relu2", "fc3"]);
        for ((_, cost), layer) in vars.iter().zip(&net.layers) {
            assert_eq!(*cost, layer.cost_elems());
        }
        assert_eq!(vars[0].1, 64 * 32 + 32);
        assert_eq!(vars[1].1, 32);
    }
}
