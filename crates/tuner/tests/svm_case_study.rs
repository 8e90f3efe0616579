//! Reproduction of the paper's §V-C mixed-precision case study: automatic
//! precision tuning of the SVM gesture-recognition application.
//!
//! Paper-reported outcomes:
//!
//! * strict QoR constraint (no classification errors): the tuner assigns
//!   `float16` to inputs, weights and intermediate results, and keeps the
//!   final accumulation variable at `float`;
//! * tolerating ≈5 % classification errors lets the accumulation variable
//!   drop to `float16alt` (range over precision).

use smallfloat_isa::FpFmt;
use smallfloat_kernels::bench::Workload;
use smallfloat_kernels::svm::Svm;
use smallfloat_tuner::{tune_kernel, TuneResult, TunerConfig};

fn tune_svm(svm: &Svm, max_error: f64) -> TuneResult {
    let config = TunerConfig {
        candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
        max_error,
    };
    tune_kernel(&svm.base_kernel(), &config, |k| svm.typed_error(k))
}

/// The search `fig6_mixed` prints: every step of both constraints'
/// traces. Errors are misclassified fractions of the 64 samples.
#[test]
fn tuner_trace_is_pinned() {
    let svm = Svm::new();
    for (max_error, acc_ah_accepted) in [(0.0, false), (0.07, true)] {
        let result = tune_svm(&svm, max_error);
        let steps: Vec<(&str, FpFmt, f64, bool)> = result
            .trace
            .iter()
            .map(|s| (s.name.as_str(), s.tried, s.error, s.accepted))
            .collect();
        assert_eq!(
            steps,
            [
                ("x", FpFmt::B, 0.75, false),
                ("x", FpFmt::H, 0.0, true),
                ("w", FpFmt::B, 0.75, false),
                ("w", FpFmt::H, 0.0, true),
                ("bias", FpFmt::B, 0.75, false),
                ("bias", FpFmt::H, 0.0, true),
                ("scores", FpFmt::B, 0.4375, false),
                ("scores", FpFmt::H, 0.0, true),
                ("acc", FpFmt::B, 0.75, false),
                ("acc", FpFmt::H, 0.75, false),
                ("acc", FpFmt::Ah, 1.0 / 64.0, acc_ah_accepted),
            ],
            "max_error {max_error}; trace:\n{}",
            result.trace_text()
        );
        assert_eq!(result.evaluations, 11);
    }
}

#[test]
fn strict_tuning_matches_paper_outcome() {
    // "avoid classification errors on our data set"
    let result = tune_svm(&Svm::new(), 0.0);
    // Inputs, weights, biases and the scores array all drop to float16...
    assert_eq!(
        result.assignment_for("x"),
        FpFmt::H,
        "trace:\n{}",
        result.trace_text()
    );
    assert_eq!(
        result.assignment_for("w"),
        FpFmt::H,
        "trace:\n{}",
        result.trace_text()
    );
    assert_eq!(
        result.assignment_for("bias"),
        FpFmt::H,
        "trace:\n{}",
        result.trace_text()
    );
    assert_eq!(
        result.assignment_for("scores"),
        FpFmt::H,
        "trace:\n{}",
        result.trace_text()
    );
    // ...while the accumulator must keep binary32 (partial sums overflow
    // every 16-bit option under the zero-error constraint).
    assert_eq!(
        result.assignment_for("acc"),
        FpFmt::S,
        "trace:\n{}",
        result.trace_text()
    );
}

#[test]
fn relaxed_tuning_allows_alt_half_accumulator() {
    // "around 5%" in the paper (6.25% here: 4/64)
    let result = tune_svm(&Svm::new(), 0.07);
    assert_eq!(
        result.assignment_for("acc"),
        FpFmt::Ah,
        "the range-preserving 16-bit type suffices at 5% errors; trace:\n{}",
        result.trace_text()
    );
    // The data side still lands on float16.
    assert_eq!(result.assignment_for("x"), FpFmt::H);
    assert_eq!(result.assignment_for("w"), FpFmt::H);
}

#[test]
fn tuned_assignment_is_cheaper_than_float() {
    let svm = Svm::new();
    let base = svm.base_kernel();
    let result = tune_svm(&svm, 0.0);
    let all_f32_bits: usize = base
        .arrays
        .iter()
        .map(|a| a.len * 32)
        .chain(base.scalars.iter().map(|_| 32))
        .sum();
    assert!(
        result.total_bits() < all_f32_bits / 2 + 64,
        "tuning must roughly halve the storage footprint"
    );
}
