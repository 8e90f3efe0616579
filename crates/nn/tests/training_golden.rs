//! Satellite regression: the training loss curve is pinned bit-for-bit.
//!
//! A short MLP training run (binary16, auto-vectorized with expanding
//! accumulation, L1) is executed on the simulator's block engine and the
//! per-step loss bits must match the blessed golden file. Any change to
//! the backward lowering, the expanding reduction, quantization, or the
//! execution engine shows up here as a one-line hex diff.
//!
//! To re-bless after an intended numerical change:
//! `SMALLFLOAT_BLESS=1 cargo test -p smallfloat-nn --test training_golden`
//! and review the file diff.

use smallfloat_isa::FpFmt;
use smallfloat_kernels::VecMode;
use smallfloat_nn::graph::mlp;
use smallfloat_nn::train::{train, Exec, PassAssignment, TrainConfig};
use smallfloat_sim::MemLevel;

#[test]
fn loss_curve_is_pinned_on_block_engine() {
    let (net, ds) = mlp();
    let cfg = TrainConfig {
        steps: 4,
        ..TrainConfig::default()
    };
    let pa = PassAssignment::uniform(&net, FpFmt::H);
    let exec = Exec::Sim {
        mode: VecMode::Auto,
        level: MemLevel::L1,
    };
    let blocks = train(&net, &ds, &pa, &cfg, &exec);

    let text: String = blocks
        .losses
        .iter()
        .map(|l| format!("{:016x}\n", l.to_bits()))
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_training_losses.txt"
    );
    if smallfloat_sim::env::bless() {
        std::fs::write(path, &text).expect("write blessed losses");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden loss file missing; run with SMALLFLOAT_BLESS=1 to create it");
    assert!(
        text == want,
        "per-step loss bits diverged from {path}\n--- expected ---\n{want}--- actual ---\n{text}"
    );
}
