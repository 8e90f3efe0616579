//! Per-sample conv launches fan out over host workers
//! (`smallfloat_kernels::launch_each`); nothing a caller can observe may
//! depend on how many.
//!
//! `train` and `infer_sim` run here at forced 1, 2 and 4 workers on a
//! network with two conv layers (so the conv input-gradient kernel runs
//! too) and on the stock CNN, and every loss, accuracy, phase statistic
//! (energy by bits), SQNR and output must be bit-identical. The warm-pool
//! counters must match too: a `train` call counts the same forks and cold
//! trains at 2 workers as serially.
//!
//! The worker override is process-wide, so the tests of this file take
//! turns.

use smallfloat_isa::FpFmt;
use smallfloat_kernels::{pool_counters, VecMode};
use smallfloat_nn::graph::{cnn, Dataset, Layer, Network};
use smallfloat_nn::infer::{infer_sim, uniform_assignment, Inference};
use smallfloat_nn::train::{train, training_init, Exec, PassAssignment, TrainConfig, Training};
use smallfloat_sim::{par, MemLevel, Stats};
use std::sync::Mutex;

static FORCED: Mutex<()> = Mutex::new(());

/// Run `f` on a fresh thread (an empty warm pool) at `workers` forced
/// workers.
fn at_workers<R: Send + 'static>(workers: usize, f: impl FnOnce() -> R + Send + 'static) -> R {
    let _turn = FORCED.lock().unwrap_or_else(|e| e.into_inner());
    par::set_workers(workers);
    let r = std::thread::spawn(f).join();
    par::set_workers(0);
    r.unwrap_or_else(|p| std::panic::resume_unwind(p))
}

const EXEC: Exec = Exec::Sim {
    mode: VecMode::Auto,
    level: MemLevel::L1,
};

/// The stock CNN's data through two conv layers: 1×8×8 → conv (2) →
/// ReLU → conv (2) → dense 32→4. The second conv needs its input
/// gradient, so training runs conv bwd_w and bwd_x per sample.
fn two_conv() -> (Network, Dataset) {
    let (_, ds) = cnn();
    let layers = vec![
        Layer::Conv2d {
            name: "conv1",
            in_ch: 1,
            out_ch: 2,
            h: 8,
            w: 8,
        },
        Layer::Relu {
            name: "relu1",
            len: 2 * 6 * 6,
        },
        Layer::Conv2d {
            name: "conv2",
            in_ch: 2,
            out_ch: 2,
            h: 6,
            w: 6,
        },
        Layer::Dense {
            name: "fc1",
            inp: 2 * 4 * 4,
            out: ds.classes,
        },
    ];
    let mut net = Network {
        name: "two_conv",
        layers,
        params: Vec::new(),
    };
    net.params = training_init(&net, 7);
    (net, ds)
}

fn cfg() -> TrainConfig {
    TrainConfig {
        steps: 3,
        ..TrainConfig::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Statistics with the energy compared by its bits.
fn stats_key(s: &Stats) -> (Stats, u64) {
    let mut zeroed = s.clone();
    zeroed.energy_pj = 0.0;
    (zeroed, s.energy_pj.to_bits())
}

/// Everything a `train` call returns, floats as bits.
fn train_key(t: &Training) -> impl PartialEq + std::fmt::Debug {
    let phases: Vec<_> = t
        .phases
        .iter()
        .map(|p| {
            (
                p.layer.clone(),
                format!("{:?}", p.phase),
                p.fmt,
                stats_key(&p.stats),
                p.sqnr_db.to_bits(),
            )
        })
        .collect();
    let params: Vec<_> = t
        .params
        .iter()
        .map(|p| (bits(&p.w), bits(&p.bias)))
        .collect();
    (
        bits(&t.losses),
        t.accuracy.to_bits(),
        phases,
        (t.cycles, t.instret, t.energy_pj.to_bits()),
        params,
    )
}

/// Everything an `infer_sim` call returns, floats as bits.
fn infer_key(r: &Inference) -> impl PartialEq + std::fmt::Debug {
    let layers: Vec<_> = r
        .layers
        .iter()
        .map(|l| {
            (
                l.name.clone(),
                l.fmt,
                stats_key(&l.stats),
                l.sqnr_db.to_bits(),
            )
        })
        .collect();
    let outputs: Vec<_> = r.outputs.iter().map(|o| bits(o)).collect();
    (
        outputs,
        r.predictions.clone(),
        layers,
        (r.cycles, r.instret, r.energy_pj.to_bits()),
    )
}

#[test]
fn training_and_inference_are_identical_at_any_worker_count() {
    for (net, ds) in [two_conv(), cnn()] {
        let name = net.name;
        let pa = PassAssignment::uniform(&net, FpFmt::H);
        let assignment = uniform_assignment(&net, FpFmt::B);
        let run = |workers| {
            let (net, ds, pa, assignment) =
                (net.clone(), ds.clone(), pa.clone(), assignment.clone());
            at_workers(workers, move || {
                let t = train(&net, &ds, &pa, &cfg(), &EXEC);
                let r = infer_sim(&net, &ds.inputs, &assignment, VecMode::Auto, MemLevel::L1);
                (
                    format!("{:?}", train_key(&t)),
                    format!("{:?}", infer_key(&r)),
                )
            })
        };
        let (train1, infer1) = run(1);
        for workers in [2, 4] {
            let (t, r) = run(workers);
            assert!(
                t == train1,
                "{name}: train at {workers} workers differs from serial"
            );
            assert!(
                r == infer1,
                "{name}: infer_sim at {workers} workers differs from serial"
            );
        }
    }
}

/// The CNN twin of the MLP's `train_call_forks_warm_snapshots`, at 2
/// workers: each distinct program cold-trains once per fresh thread, a
/// repeat call forks every launch, and both counts equal the serial
/// ones (a per-sample batch counts as that many launches).
#[test]
fn cnn_train_call_forks_warm_snapshots_at_two_workers() {
    let counts = |workers| {
        at_workers(workers, || {
            let (net, ds) = cnn();
            let pa = PassAssignment::uniform(&net, FpFmt::H);
            let run = || {
                let (w0, c0) = pool_counters();
                train(&net, &ds, &pa, &cfg(), &EXEC);
                let (w1, c1) = pool_counters();
                (w1 - w0, c1 - c0)
            };
            (run(), run())
        })
    };
    let ((warm, cold), repeat) = counts(2);
    // conv1 forward and weight gradient, relu1 and pool1 forward and
    // input gradient, fc1 forward, weight and input gradient, the weight
    // updates of conv1 and fc1, and one bias update (both layers have 4
    // outputs, so their bias updates are one program).
    assert_eq!(cold, 12, "one cold train per distinct program");
    // Per step: 16 conv1 forward and 16 weight-gradient launches (one per
    // sample of the batch), one launch of each other kernel, and four
    // updates.
    let per_step = 2 * TrainConfig::default().batch as u64 + 7 + 4;
    assert_eq!(
        warm + cold,
        per_step * cfg().steps as u64,
        "every launch counts once"
    );
    assert_eq!(repeat, (warm + cold, 0), "a repeat call forks every launch");
    assert_eq!(counts(1), ((warm, cold), repeat), "serial counts the same");
}
