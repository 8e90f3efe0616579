//! Automatic precision tuning (paper §V-C): drives the greedy dynamic
//! tuner over the SVM application under two QoR constraints and shows the
//! variable→type assignments it finds.
//!
//! Run with: `cargo run --release --example precision_tuning`

use smallfloat::FpFmt;
use smallfloat_kernels::bench::Workload;
use smallfloat_kernels::svm::Svm;
use smallfloat_tuner::{tune_kernel, TunerConfig};

fn main() {
    let svm = Svm::new();
    let base = svm.base_kernel();

    for (label, max_error) in [
        ("strict: no classification errors", 0.0),
        ("relaxed: a few % errors allowed", 0.07),
    ] {
        println!("=== {label} ===");
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error,
        };
        let result = tune_kernel(&base, &config, |k| svm.typed_error(k));
        print!("{}", result.trace_text());
        println!("final assignment ({} evaluations):", result.evaluations);
        for (name, fmt) in &result.assignment {
            println!("    {name:<8} -> {}", fmt.suffix());
        }
        let f32_bits: usize =
            base.arrays.iter().map(|a| a.len * 32).sum::<usize>() + base.scalars.len() * 32;
        println!(
            "storage: {} bits vs {} bits all-float ({:.0}% smaller)\n",
            result.total_bits(),
            f32_bits,
            (1.0 - result.total_bits() as f64 / f32_bits as f64) * 100.0
        );
    }
    println!("Both runs keep the accumulator wide (binary32 strictly, or the");
    println!("range-preserving binary16alt when a few errors are tolerated)");
    println!("while all data drops to binary16 — the paper's exact outcome.");
}
