//! Neural-network inference on the smallFloat SIMD extensions (§V-B of
//! the paper's near-sensor application space).
//!
//! This crate closes the loop from a layer graph to the cycle-accurate
//! simulator:
//!
//! 1. [`graph`] — a straight-line layer IR (dense, 3×3 conv, ReLU, 2×2
//!    max-pool) with deterministic seeded weight/data generators, a
//!    softmax/argmax head and an `f64` reference forward pass. Two fixed
//!    tasks are provided: [`graph::mlp`] (64→32→16→4) and [`graph::cnn`]
//!    (1×8×8 → conv → pool → 4).
//! 2. [`lower`] — each layer lowered through the `smallfloat-xcc`
//!    loop-nest IR: scalar, auto-vectorized, and hand-written intrinsic
//!    variants (`vfdotpex` dense rows, `vfmax.r` ReLU, packed-`vfmax`
//!    pooling, unrolled `fmacex` convolution windows). The ordinary
//!    retype pass assigns each layer binary32 / binary16 / binary16alt /
//!    binary8 independently, accumulators staying binary32.
//! 3. [`infer`] — execution on `smallfloat-sim` with per-layer
//!    cycle/energy/SQNR attribution, plus the fast typed-interpreter path.
//! 4. [`qor`] + [`tune`] — top-1 accuracy and prediction churn as the
//!    evaluator of the `smallfloat-tuner` greedy search, which treats each
//!    layer as one named variable costed by its storage, so a per-layer
//!    mixed-precision assignment is derived under an accuracy constraint.
//!
//! The `nn_table` binary in `smallfloat-bench` sweeps
//! format × vectorization × memory level over both networks and exports
//! `BENCH_nn.json`.

pub mod grad;
pub mod graph;
pub mod infer;
pub mod lower;
pub mod qor;
pub mod serve;
pub mod train;
pub mod tune;

pub use graph::{cnn, mlp, Dataset, Layer, Network, Params};
pub use infer::{infer_sim, infer_typed, uniform_assignment, Assignment, Inference, LayerRun};
pub use lower::{build_layer, layer_kernel, layer_precision, manual_layer};
pub use serve::{ServeOutput, ServingModel};
pub use train::{
    loss_parity_error, train, train_f64, training_init, training_tuner_config, tune_training, Exec,
    PassAssignment, Phase, PhaseRun, TrainConfig, TrainTune, Training, TrainingF64,
};
pub use tune::{tune_network, NetTune};

// Heavy end-to-end regressions (full evaluation set on the simulator,
// exact tuned assignments). Debug-mode softfp is ~50× slower, so these
// run in release only — `scripts/check.sh` includes them via
// `cargo test --release -p smallfloat-nn`.
#[cfg(all(test, not(debug_assertions)))]
mod release_tests {
    use crate::graph::{cnn, mlp};
    use crate::infer::{infer_sim, uniform_assignment};
    use crate::qor::accuracy;
    use crate::tune::tune_network;
    use smallfloat_isa::FpFmt;
    use smallfloat_kernels::VecMode;
    use smallfloat_sim::MemLevel;
    use smallfloat_tuner::TunerConfig;

    /// Both networks run end-to-end on the simulator at every registry
    /// format, scalar and vectorized, and accuracy degrades
    /// monotonically-ish with precision: binary32 is perfect,
    /// binary16/binary16alt stay near-perfect, binary8's 2-bit mantissa
    /// loses samples, and binary8alt's extra mantissa bit beats binary8
    /// on the MLP at equal energy (but trails on the CNN, whose conv
    /// activations exceed E4M3's exponent range).
    #[test]
    fn end_to_end_all_formats_and_modes() {
        for (net, ds) in [mlp(), cnn()] {
            let mut b8 = Vec::new();
            for fmt in FpFmt::ALL {
                let assignment = uniform_assignment(&net, fmt);
                let mut acc_by_mode = Vec::new();
                let mut energy_by_mode = Vec::new();
                for mode in [VecMode::Scalar, VecMode::Auto, VecMode::Manual] {
                    let inf = infer_sim(&net, &ds.inputs, &assignment, mode, MemLevel::L1);
                    assert!(inf.cycles > 0, "{} {fmt:?} {mode:?}", net.name);
                    acc_by_mode.push(accuracy(&inf.predictions, &ds.labels));
                    energy_by_mode.push(inf.energy_pj);
                }
                match fmt {
                    FpFmt::S | FpFmt::H | FpFmt::Ah => {
                        assert!(
                            acc_by_mode.iter().all(|a| *a == 1.0),
                            "{} {fmt:?}: must stay perfect, got {acc_by_mode:?}",
                            net.name
                        );
                    }
                    FpFmt::B => {
                        // The 2-bit mantissa loses samples (in at least
                        // one lowering — the summation orders differ), but
                        // never collapses below chance.
                        assert!(
                            acc_by_mode.iter().any(|a| *a < 1.0),
                            "{}: binary8 must lose samples, got {acc_by_mode:?}",
                            net.name
                        );
                        assert!(
                            acc_by_mode.iter().all(|a| *a >= 0.2),
                            "{}: binary8 below chance, got {acc_by_mode:?}",
                            net.name
                        );
                        b8 = acc_by_mode
                            .iter()
                            .zip(&energy_by_mode)
                            .map(|(a, e)| (*a, *e))
                            .collect();
                    }
                    FpFmt::Ab => {
                        // E4M3 trades exponent range for a mantissa bit.
                        // On the MLP the extra bit is a pure accuracy win
                        // over E5M2 at equal-or-lower energy (the
                        // accuracy-vs-energy frontier point BENCH_nn.json
                        // records); the CNN's conv activations instead
                        // overflow E4M3's narrower range and lose samples,
                        // which is why the format is a tuning choice and
                        // not a default.
                        if net.name == "MLP" {
                            for ((a, e), (ba, be)) in
                                acc_by_mode.iter().zip(&energy_by_mode).zip(&b8)
                            {
                                assert!(
                                    a > ba && *e <= *be,
                                    "MLP: binary8alt ({a}, {e} pJ) must beat binary8 ({ba}, {be} pJ)",
                                );
                            }
                        }
                        assert!(
                            acc_by_mode.iter().all(|a| *a >= 0.2),
                            "{}: binary8alt below chance, got {acc_by_mode:?}",
                            net.name
                        );
                    }
                }
            }
        }
    }

    /// Where the cycles go: hand-written intrinsics (`vfdotpex`,
    /// `vfmax.r`, `fmacex`) must at least halve end-to-end inference at
    /// both packed formats, and 4-lane binary8 auto-vectorization must
    /// beat scalar. (2-lane binary16 auto-vectorization of the
    /// binary32-accumulated dense reduction is cycle-neutral — the
    /// vectorizer cannot use the expanding dot product without changing
    /// semantics, which is precisely the gap the manual variants and the
    /// paper's ExDotp-style ops fill.)
    #[test]
    fn manual_intrinsics_speed_up_inference() {
        let (net, ds) = mlp();
        let inputs = &ds.inputs[..16];
        for fmt in [FpFmt::H, FpFmt::B] {
            let assignment = uniform_assignment(&net, fmt);
            let scalar = infer_sim(&net, inputs, &assignment, VecMode::Scalar, MemLevel::L1);
            let manual = infer_sim(&net, inputs, &assignment, VecMode::Manual, MemLevel::L1);
            assert!(
                2 * manual.cycles < scalar.cycles,
                "{fmt:?}: manual {} vs scalar {}",
                manual.cycles,
                scalar.cycles
            );
            assert!(manual.energy_pj < scalar.energy_pj, "{fmt:?}: energy");
        }
        let assignment = uniform_assignment(&net, FpFmt::B);
        let scalar = infer_sim(&net, inputs, &assignment, VecMode::Scalar, MemLevel::L1);
        let auto = infer_sim(&net, inputs, &assignment, VecMode::Auto, MemLevel::L1);
        assert!(
            auto.cycles < scalar.cycles,
            "4-lane auto {} vs scalar {}",
            auto.cycles,
            scalar.cycles
        );
    }

    /// The training pendant of `tuned_assignments_are_reproducible`: the
    /// per-pass tuner must reproduce this exact (layer, pass) → format
    /// assignment on the MLP under the default loss-parity constraint,
    /// and the assignment must land strictly on the accuracy-vs-energy
    /// frontier — no uniform-format training run reaches the tuned
    /// accuracy at the tuned energy or less. (The backward pass tolerates
    /// binary8 where the forward pass needs binary16: gradients only
    /// steer the binary32 master weights, activations accumulate error
    /// across depth.)
    #[test]
    fn per_pass_tuned_training_is_on_the_frontier() {
        use crate::train::{train, train_f64, tune_training, Exec, PassAssignment, TrainConfig};
        let (net, ds) = mlp();
        let cfg = TrainConfig::default();
        let tcfg = crate::train::training_tuner_config();
        let reference = train_f64(&net, &ds, &cfg);
        let tuned = tune_training(&net, &ds, &cfg, &tcfg, &reference.losses);
        let got: Vec<(&str, FpFmt)> = tuned
            .result
            .assignment
            .iter()
            .map(|(n, f)| (n.as_str(), *f))
            .collect();
        assert_eq!(
            got,
            [
                ("fc1@fwd", FpFmt::H),
                ("fc1@bwd", FpFmt::B),
                ("relu1@fwd", FpFmt::H),
                ("relu1@bwd", FpFmt::B),
                ("fc2@fwd", FpFmt::H),
                ("fc2@bwd", FpFmt::S),
                ("relu2@fwd", FpFmt::H),
                ("relu2@bwd", FpFmt::B),
                ("fc3@fwd", FpFmt::Ah),
                ("fc3@bwd", FpFmt::H),
            ],
            "MLP per-pass tuned assignment moved (trace:\n{})",
            tuned.result.trace_text()
        );
        let exec = Exec::Sim {
            mode: VecMode::Auto,
            level: MemLevel::L1,
        };
        let t = train(&net, &ds, &tuned.assignment, &cfg, &exec);
        assert_eq!(t.accuracy, 1.0, "tuned training accuracy");
        let parity = crate::train::loss_parity_error(&t.losses, &reference.losses);
        assert!(parity <= tcfg.max_error, "tuned loss parity {parity}");
        for fmt in FpFmt::ALL {
            let u = train(&net, &ds, &PassAssignment::uniform(&net, fmt), &cfg, &exec);
            assert!(
                !(u.accuracy >= t.accuracy && u.energy_pj <= t.energy_pj),
                "uniform {fmt:?} ({}, {:.0} pJ) dominates tuned ({}, {:.0} pJ)",
                u.accuracy,
                u.energy_pj,
                t.accuracy,
                t.energy_pj
            );
        }
    }

    /// One `train` call re-launches the same few kernels every step, and
    /// the runner forks their warmed simulator snapshots instead of
    /// re-running from reset: on a fresh thread (the pool is per thread)
    /// the call cold-trains each of its distinct programs once and forks
    /// every other launch. Repeating the call on the same thread forks
    /// every launch, so no program of the first call was trained twice.
    #[test]
    fn train_call_forks_warm_snapshots() {
        use crate::train::{train, Exec, PassAssignment, TrainConfig};
        use smallfloat_kernels::pool_counters;
        std::thread::spawn(|| {
            let (net, ds) = mlp();
            let pa = PassAssignment::uniform(&net, FpFmt::H);
            let cfg = TrainConfig::default();
            let exec = Exec::Sim {
                mode: VecMode::Auto,
                level: MemLevel::L1,
            };
            let run = || {
                let (w0, c0) = pool_counters();
                train(&net, &ds, &pa, &cfg, &exec);
                let (w1, c1) = pool_counters();
                (w1 - w0, c1 - c0)
            };
            let (warm, cold) = run();
            // Forward, weight gradient and the two updates of fc1..fc3,
            // the input gradients of fc2 and fc3, and the forward and
            // input gradient of relu1 and relu2.
            assert_eq!(cold, 18, "one cold train per distinct program");
            assert!(
                warm >= 10 * cold,
                "warm forks must dominate: {warm} forks vs {cold} cold trains"
            );
            assert_eq!(run(), (warm + cold, 0), "a repeat call forks every launch");
        })
        .join()
        .unwrap();
    }

    /// The QoR regression the tuner pipeline is pinned to: the greedy
    /// search must reproduce this exact deterministic per-layer
    /// assignment (and metrics) on both tasks. A change here means the
    /// numerics of the pipeline moved — inspect before re-pinning.
    #[test]
    fn tuned_assignments_are_reproducible() {
        let config = TunerConfig::default();
        let (net, ds) = mlp();
        let t = tune_network(&net, &ds, &config);
        let got: Vec<(&str, FpFmt)> = t
            .result
            .assignment
            .iter()
            .map(|(n, f)| (n.as_str(), *f))
            .collect();
        assert_eq!(
            got,
            [
                ("fc1", FpFmt::Ab),
                ("relu1", FpFmt::Ab),
                ("fc2", FpFmt::H),
                ("relu2", FpFmt::B),
                ("fc3", FpFmt::H),
            ],
            "MLP tuned assignment moved (trace:\n{})",
            t.result.trace_text()
        );
        assert_eq!(t.accuracy, 1.0, "MLP tuned accuracy");
        assert_eq!(t.churn, 0.0, "MLP tuned churn");

        let (net, ds) = cnn();
        let t = tune_network(&net, &ds, &config);
        let got: Vec<(&str, FpFmt)> = t
            .result
            .assignment
            .iter()
            .map(|(n, f)| (n.as_str(), *f))
            .collect();
        assert_eq!(
            got,
            [
                ("conv1", FpFmt::B),
                ("relu1", FpFmt::B),
                ("pool1", FpFmt::B),
                ("fc1", FpFmt::H),
            ],
            "CNN tuned assignment moved (trace:\n{})",
            t.result.trace_text()
        );
        assert_eq!(t.accuracy, 1.0, "CNN tuned accuracy");
        assert_eq!(t.churn, 0.0, "CNN tuned churn");
    }
}
