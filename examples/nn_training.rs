//! Mixed-precision training on the smallFloat core: the synthetic MLP
//! classifier trained from scratch with binary32 master weights,
//! smallFloat activations/gradients, and expanding-dot-product
//! accumulation — comparing the five uniform storage formats against the
//! per-pass tuned assignment on loss parity, accuracy, cycles and
//! energy, then attributing where each training step's cycles and
//! quantization noise go (forward / backward / update, per layer).
//!
//! Run with: `cargo run --release --example nn_training`

use smallfloat::{FpFmt, MemLevel, VecMode};
use smallfloat_nn::mlp;
use smallfloat_nn::train::{
    loss_parity_error, train, train_f64, training_tuner_config, tune_training, Exec,
    PassAssignment, TrainConfig,
};

fn main() {
    let (net, ds) = mlp();
    let cfg = TrainConfig::default();
    let exec = Exec::Sim {
        mode: VecMode::Auto,
        level: MemLevel::L1,
    };
    println!(
        "training `{}` from scratch: {} steps, batch {}, lr {}, momentum {}",
        net.name, cfg.steps, cfg.batch, cfg.lr, cfg.momentum
    );

    // Ground truth: the same loop at f64 on the host.
    let reference = train_f64(&net, &ds, &cfg);
    println!(
        "f64 reference: loss {:.4} -> {:.4}, accuracy {:.1}%",
        reference.losses[0],
        reference.losses[cfg.steps - 1],
        reference.accuracy * 100.0
    );

    // Per-pass tuning: each layer gets independent forward and backward
    // formats under a loss-parity constraint against the reference;
    // candidate runs execute on the simulator.
    let tuned = tune_training(&net, &ds, &cfg, &training_tuner_config(), &reference.losses);
    println!(
        "\nper-pass tuned assignment ({} evaluations):",
        tuned.result.evaluations
    );
    println!(
        "  {}",
        tuned
            .result
            .assignment
            .iter()
            .map(|(n, f)| format!("{n}={f:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    println!(
        "\n{:<14} {:>11} {:>12} {:>12} {:>9} {:>9}",
        "scheme", "cycles/step", "energy/step", "loss parity", "final", "accuracy"
    );
    let mut rows: Vec<(String, PassAssignment)> = FpFmt::ALL
        .iter()
        .map(|f| (format!("uniform {f:?}"), PassAssignment::uniform(&net, *f)))
        .collect();
    rows.push(("tuned".to_string(), tuned.assignment.clone()));
    for (label, pa) in &rows {
        let t = train(&net, &ds, pa, &cfg, &exec);
        println!(
            "{:<14} {:>11} {:>10.0}pJ {:>12.4} {:>9.4} {:>8.1}%",
            label,
            t.cycles / cfg.steps as u64,
            t.energy_pj / cfg.steps as f64,
            loss_parity_error(&t.losses, &reference.losses),
            t.losses[cfg.steps - 1],
            t.accuracy * 100.0
        );
    }

    // Per-phase attribution of the tuned run: where the cycles go and
    // where the quantization noise enters.
    let t = train(&net, &ds, &tuned.assignment, &cfg, &exec);
    println!(
        "\ntuned run, per (layer, phase):\n{:<8} {:>7} {:>5} {:>12} {:>12} {:>9}",
        "layer", "phase", "fmt", "cycles", "energy", "sqnr"
    );
    for p in &t.phases {
        println!(
            "{:<8} {:>7} {:>5} {:>12} {:>10.0}pJ {:>8.1}dB",
            p.layer,
            p.phase.name(),
            format!("{:?}", p.fmt),
            p.stats.cycles,
            p.stats.energy_pj,
            p.sqnr_db
        );
    }
}
