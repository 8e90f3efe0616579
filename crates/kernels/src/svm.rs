//! The EMG gesture-recognition SVM application (paper §V-A, §V-C).
//!
//! The original data set (Benatti et al., IWASI 2017) is proprietary; per
//! DESIGN.md substitution 4 we synthesize an EMG-like data set whose
//! numerical structure reproduces the case study *mechanistically*.
//! The classifier is a mean-centered prototype machine (`w_c = 2(μ_c−m)`,
//! the decision rule of a hard-margin linear SVM on isotropic classes)
//! riding on a class-invariant carrier in the weights whose first features
//! ramp the running dot-product accumulation to ≈73 000 — beyond binary16
//! range — even though the final scores stay small. Feature energies and
//! weights are placed inside a single binary8 quantization bucket, so the
//! 8-bit format erases the class information outright. Consequently:
//!
//! * **binary8 inputs or weights** collapse to the carrier → gross errors
//!   (the tuner pins them to `float16`, as in the paper),
//! * a **binary16 accumulator** overflows to +∞ during the carrier ramp →
//!   massive errors (the tuner must keep the accumulator wide),
//! * a **binary16alt accumulator** has the range but only 8 bits of
//!   precision → it loses exactly the few low-intensity "weak gesture"
//!   samples (the paper's ≈5 % operating point),
//! * a **binary32 accumulator** with binary16 data matches the float
//!   classification exactly — the paper's headline mixed-precision result.

use crate::bench::Workload;
use crate::mg::Mg;
use smallfloat_isa::{BranchCond, FReg, FpFmt, XReg};
use smallfloat_xcc::codegen::Compiled;
use smallfloat_xcc::interp::{run_typed, TypedState};
use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Kernel, Stmt};

/// Number of gesture classes.
pub const CLASSES: usize = 4;
/// Feature vector length (channels × windowed energy bins).
pub const FEATURES: usize = 128;
/// Test-set size.
pub const SAMPLES: usize = 64;

const F0: FReg = FReg::new(0);
const F1: FReg = FReg::new(1);
const F2: FReg = FReg::new(2);
const T0: XReg = XReg::new(5);
const S_REG: XReg = XReg::new(8);
const C_REG: XReg = XReg::new(9);
const END_J: XReg = XReg::new(7);
const P_X: XReg = XReg::new(18);
const P_W: XReg = XReg::new(19);
const P_B: XReg = XReg::new(20);
const P_SC: XReg = XReg::new(21);
const PJ_X: XReg = XReg::new(22);
const LIM: XReg = XReg::new(28);

/// The synthetic data set plus trained model.
#[derive(Clone, Debug)]
pub struct SvmData {
    /// Flattened samples, `SAMPLES × FEATURES`.
    pub x: Vec<f64>,
    /// Ground-truth labels.
    pub labels: Vec<usize>,
    /// Flattened weights, `CLASSES × FEATURES`.
    pub w: Vec<f64>,
    /// Per-class biases.
    pub b: Vec<f64>,
}

/// Deterministic xorshift in `[0,1)`.
fn rng01(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Generate the synthetic gesture data set and train the classifier.
pub fn dataset() -> SvmData {
    let mut st = 0xE46_C0FFEEu64;
    // Every feature is a rectified energy around a strong baseline D with
    // a small class pattern. Both the features and the weights live inside
    // a single binary8 quantization bucket ([88, 104) around 96, where the
    // binary8 ulp is 16): quantizing either of them to binary8 erases the
    // class information entirely, while binary16 keeps it intact — this is
    // what pins inputs and weights to `float16` during tuning.
    const D: f64 = 96.0; // baseline, in the middle of a b8 bucket
    const P: f64 = 4.6; //  class-pattern amplitude
    const N: f64 = 1.6; //  per-feature sample noise
    let mut protos = vec![vec![0.0f64; FEATURES]; CLASSES];
    for (c, proto) in protos.iter_mut().enumerate() {
        for (j, p) in proto.iter_mut().enumerate() {
            // The first 16 features are pure carrier (no class pattern):
            // with them class-identical, the accumulator's large-magnitude
            // ramp phase is bit-identical across classes and its rounding
            // cancels out of every score difference.
            let pattern = if j < 32 {
                0.0
            } else {
                P * (((c * 37 + j * 11) % 13) as f64 / 6.5 - 1.0)
            };
            *p = D + pattern;
        }
    }
    // Samples: prototype + noise. A few samples are "weak gestures"
    // (low-intensity muscle activations): their class deviation is scaled
    // down, which thins their classification margin. These are the samples
    // a low-precision accumulator loses first — the paper's ≈5 % operating
    // point.
    let mean_proto: Vec<f64> = (0..FEATURES)
        .map(|j| protos.iter().map(|p| p[j]).sum::<f64>() / CLASSES as f64)
        .collect();
    let weak = [5usize, 27, 49];
    let mut x = Vec::with_capacity(SAMPLES * FEATURES);
    let mut labels = Vec::with_capacity(SAMPLES);
    for s in 0..SAMPLES {
        let c = s % CLASSES;
        labels.push(c);
        let alpha = if weak.contains(&s) { 0.28 } else { 1.0 };
        for j in 0..FEATURES {
            let noise = (rng01(&mut st) - 0.5) * 2.0 * N;
            let v = mean_proto[j] + alpha * (protos[c][j] - mean_proto[j]) + noise;
            x.push(v.max(0.0)); // rectified
        }
    }
    // Mean-centered prototype classifier riding on a class-invariant
    // carrier:
    //   w_c[j] = s_j·D + 2(μ_c[j] − m[j]),   b_c = ‖m‖² − ‖μ_c‖²
    // where the sign profile s_j is +1 for the first 8 features, −1 for
    // the next 8, then alternating (zero-sum). The carrier is identical
    // for every class, so the arg-max is untouched — but it drives the
    // running dot-product accumulation to ≈ D²·8 ≈ 73 000, past binary16
    // range: the paper's motivation for keeping the accumulator wide. It
    // also centers every weight around ±96, inside one binary8 bucket, so
    // binary8 weights collapse to the carrier and lose the classes.
    let mean = mean_proto;
    // Carrier sign profile: 16 up, 16 down — the running sum (and every
    // SIMD lane's share of it, at 2 or 4 lanes) sweeps past binary16 range
    // — then a Thue-Morse-like period-8 pattern (+ - - + - + + -) whose
    // partial sums stay within one step for the scalar order *and* for
    // every lane-strided suborder, so no accumulator layout ramps off.
    const TM8: [f64; 8] = [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0];
    let sign = |j: usize| -> f64 {
        if j < 16 {
            1.0
        } else if j < 32 {
            -1.0
        } else {
            TM8[(j - 32) % 8]
        }
    };
    let mut w = Vec::with_capacity(CLASSES * FEATURES);
    let mut b = Vec::with_capacity(CLASSES);
    for proto in &protos {
        for (j, &p) in proto.iter().enumerate() {
            w.push(sign(j) * D + 2.0 * (p - mean[j]));
        }
        let m2: f64 = mean.iter().map(|m| m * m).sum();
        let p2: f64 = proto.iter().map(|p| p * p).sum();
        // A class-common bias plateau (arg-max invariant) parks the biases
        // where the binary8 grid is 8192 apart: quantizing the bias to
        // binary8 perturbs scores by thousands and breaks classification,
        // while binary16 (ulp 32 up there) stays harmless.
        const B0: f64 = 45_056.0;
        b.push(B0 + m2 - p2);
    }
    SvmData { x, labels, w, b }
}

/// Predicted class per sample from a flattened `SAMPLES × CLASSES` score
/// matrix (argmax; NaN scores lose against any number).
pub fn classify(scores: &[f64]) -> Vec<usize> {
    scores
        .chunks(CLASSES)
        .map(|row| {
            let mut best = 0;
            for (c, &v) in row.iter().enumerate() {
                if v > row[best] || row[best].is_nan() {
                    best = c;
                }
            }
            best
        })
        .collect()
}

/// Fraction of misclassified samples.
pub fn error_rate(scores: &[f64], labels: &[usize]) -> f64 {
    let pred = classify(scores);
    let wrong = pred.iter().zip(labels).filter(|(p, l)| p != l).count();
    wrong as f64 / labels.len() as f64
}

/// The SVM inference workload: `scores[s][c] = w_c · x_s + b_c`.
pub struct Svm {
    data: SvmData,
}

impl Svm {
    /// Build the workload (generates the data set).
    pub fn new() -> Svm {
        Svm { data: dataset() }
    }

    /// The underlying data set.
    pub fn data(&self) -> &SvmData {
        &self.data
    }

    /// Classification error rate of a retyped [`Workload::base_kernel`]
    /// on the typed interpreter — the QoR of the §V-C precision-tuning
    /// case study.
    pub fn typed_error(&self, typed: &Kernel) -> f64 {
        let mut st = TypedState::for_kernel(typed);
        for (name, values) in self.inputs() {
            st.set_array(&name, &values);
        }
        run_typed(typed, &mut st);
        let scores = st.array_f64("scores");
        assert_eq!(scores.len(), SAMPLES * CLASSES);
        error_rate(&scores, &self.data.labels)
    }
}

impl Default for Svm {
    fn default() -> Svm {
        Svm::new()
    }
}

impl Workload for Svm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn base_kernel(&self) -> Kernel {
        let mut k = Kernel::new("svm");
        let (s, c, f) = (SAMPLES as i64, CLASSES as i64, FEATURES as i64);
        k.array("x", FpFmt::S, SAMPLES * FEATURES)
            .array("w", FpFmt::S, CLASSES * FEATURES)
            .array("bias", FpFmt::S, CLASSES)
            .array("scores", FpFmt::S, SAMPLES * CLASSES)
            .scalar("acc", FpFmt::S, 0.0);
        k.body = vec![Stmt::for_(
            "s",
            0,
            Bound::constant(s),
            vec![Stmt::for_(
                "c",
                0,
                Bound::constant(c),
                vec![
                    Stmt::set("acc", Expr::lit(0.0)),
                    Stmt::for_(
                        "j",
                        0,
                        Bound::constant(f),
                        vec![Stmt::accum(
                            "acc",
                            Expr::load("w", IdxExpr::of(&[("c", f), ("j", 1)], 0))
                                * Expr::load("x", IdxExpr::of(&[("s", f), ("j", 1)], 0)),
                        )],
                    ),
                    Stmt::store(
                        "scores",
                        IdxExpr::of(&[("s", c), ("c", 1)], 0),
                        Expr::scalar("acc") + Expr::load("bias", IdxExpr::var("c")),
                    ),
                ],
            )],
        )];
        k
    }

    fn inputs(&self) -> Vec<(String, Vec<f64>)> {
        vec![
            ("x".to_string(), self.data.x.clone()),
            ("w".to_string(), self.data.w.clone()),
            ("bias".to_string(), self.data.b.clone()),
            ("scores".to_string(), vec![0.0; SAMPLES * CLASSES]),
        ]
    }

    fn output_arrays(&self) -> Vec<String> {
        vec!["scores".to_string()]
    }

    fn manual(&self, typed: &Kernel) -> Option<Compiled> {
        // The manual variant honours the accumulator typing:
        //
        // * binary32 accumulator (the tuned mixed scheme): `vfdotpex`
        //   (the paper's Fig. 5 right-hand listing);
        // * accumulator at the data format (uniform typing): lane-wise
        //   `vfmac` into a packed accumulator plus a horizontal sum —
        //   fast, but it inherits the format's range (overflow and all);
        // * binary16alt accumulator over binary16 data (the relaxed tuned
        //   scheme): per-vector `vfcvt.ah.h` then `vfmac.ah`.
        let data_fmt = typed.type_of("x")?;
        if data_fmt == FpFmt::S {
            return None;
        }
        for arr in ["w", "bias", "scores"] {
            if typed.type_of(arr) != Some(data_fmt) {
                return None;
            }
        }
        let acc_fmt = typed.type_of("acc")?;
        if acc_fmt != FpFmt::S
            && acc_fmt != data_fmt
            && !(acc_fmt == FpFmt::Ah && data_fmt == FpFmt::H)
        {
            return None;
        }
        let mut m = Mg::try_new(typed)?;
        let fmt = m.fmt;
        let lanes = m.lanes;
        let e = m.elem() as i32;
        let row = FEATURES as i32 * e;
        m.asm.la(P_X, m.addr("x"));
        m.asm.la(P_SC, m.addr("scores"));
        m.asm.li(S_REG, 0);
        let ls = m.label("s");
        m.asm.label(&ls);
        {
            m.asm.la(P_W, m.addr("w"));
            m.asm.la(P_B, m.addr("bias"));
            m.asm.li(C_REG, 0);
            let lc = m.label("c");
            m.asm.label(&lc);
            {
                m.asm.mv(PJ_X, P_X);
                m.asm.fmv_f(FpFmt::S, F0, XReg::ZERO); // zero all lanes / acc32
                m.asm.addi(END_J, P_W, row);
                m.ptr_loop(P_W, END_J, &[(P_W, 4), (PJ_X, 4)], |m| {
                    m.asm.fload(FpFmt::S, F1, P_W, 0);
                    m.asm.fload(FpFmt::S, F2, PJ_X, 0);
                    if acc_fmt == FpFmt::S {
                        m.asm.vfdotpex(fmt, F0, F1, F2);
                    } else if acc_fmt == fmt {
                        m.asm.vfmac(fmt, F0, F1, F2);
                    } else {
                        // binary16alt accumulator over binary16 lanes:
                        // multiply at full binary16 precision, then widen
                        // the products' range and accumulate (matches the
                        // scalar typing rules: product in H, sum in Ah).
                        m.asm.vfmul(FpFmt::H, F1, F1, F2);
                        m.asm.vfcvt_ff(FpFmt::Ah, FpFmt::H, F1, F1);
                        m.asm.vfadd(FpFmt::Ah, F0, F0, F1);
                    }
                });
                if acc_fmt != FpFmt::S {
                    // Horizontal sum of the packed accumulator into F0.
                    let w = acc_fmt.width() as i32;
                    m.asm.fmv(FpFmt::S, F2, F0);
                    m.asm.fmv_f(acc_fmt, F0, XReg::ZERO);
                    for lane in 0..lanes as i32 {
                        m.asm.fmv_x(FpFmt::S, T0, F2);
                        if lane > 0 {
                            m.asm.srli(T0, T0, w * lane);
                        }
                        m.asm.fmv_f(acc_fmt, F1, T0);
                        m.asm.fadd(acc_fmt, F0, F0, F1);
                    }
                }
                // score = acc + bias[c] at the accumulator format, stored
                // at the data format.
                m.asm.fload(fmt, F1, P_B, 0);
                m.asm.addi(P_B, P_B, e);
                if acc_fmt != fmt {
                    m.asm.fcvt(acc_fmt, fmt, F1, F1);
                }
                m.asm.fadd(acc_fmt, F0, F0, F1);
                if acc_fmt != fmt {
                    m.asm.fcvt(fmt, acc_fmt, F0, F0);
                }
                m.asm.fstore(fmt, F0, P_SC, 0);
                m.asm.addi(P_SC, P_SC, e);
            }
            m.asm.addi(C_REG, C_REG, 1);
            m.asm.li(T0, CLASSES as i32);
            m.asm.branch(BranchCond::Lt, C_REG, T0, &lc);
        }
        m.asm.addi(P_X, P_X, row);
        m.asm.addi(S_REG, S_REG, 1);
        m.asm.li(LIM, SAMPLES as i32);
        m.asm.branch(BranchCond::Lt, S_REG, LIM, &ls);
        Some(m.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_separable() {
        let d1 = dataset();
        let d2 = dataset();
        assert_eq!(d1.x, d2.x);
        assert_eq!(d1.labels.len(), SAMPLES);
        // f64 inference must classify perfectly (the data is engineered to
        // be separable at full precision).
        let mut scores = vec![0.0; SAMPLES * CLASSES];
        for s in 0..SAMPLES {
            for c in 0..CLASSES {
                let dot: f64 = (0..FEATURES)
                    .map(|j| d1.w[c * FEATURES + j] * d1.x[s * FEATURES + j])
                    .sum();
                scores[s * CLASSES + c] = dot + d1.b[c];
            }
        }
        assert_eq!(
            error_rate(&scores, &d1.labels),
            0.0,
            "f64 must be error-free"
        );
    }

    #[test]
    fn partial_sums_exceed_binary16_range() {
        // The mechanism behind the paper's tuning outcome: the running
        // accumulation must sweep past 65504 even though final scores fit.
        let d = dataset();
        let mut peak: f64 = 0.0;
        let mut final_max: f64 = 0.0;
        for s in 0..SAMPLES {
            for c in 0..CLASSES {
                let mut acc = 0.0;
                for j in 0..FEATURES {
                    acc += d.w[c * FEATURES + j] * d.x[s * FEATURES + j];
                    peak = peak.max(acc.abs());
                }
                final_max = final_max.max((acc + d.b[c]).abs());
            }
        }
        assert!(
            peak > 65504.0,
            "accumulator must exceed b16 range, peak={peak}"
        );
        assert!(
            final_max < 57000.0,
            "final scores must fit even binary8 range, max={final_max}"
        );
    }

    #[test]
    fn rectified_features_fit_small_formats() {
        let d = dataset();
        assert!(d.x.iter().all(|&v| (0.0..500.0).contains(&v)));
        assert!(d.w.iter().all(|&v| v.abs() < 500.0));
    }

    /// Emulate inference with w/x quantized to binary16 and the running
    /// accumulator held in `acc_fmt` — a fast host-side model of the
    /// kernel used to pin the dataset's calibration.
    fn error_with_acc(acc_fmt: smallfloat_isa::FpFmt) -> f64 {
        use smallfloat_isa::FpFmt;
        use smallfloat_softfp::{ops, Env, Format, Rounding};
        let d = dataset();
        let mut env = Env::new(Rounding::Rne);
        let h = Format::BINARY16;
        let af = acc_fmt.format();
        let q = |v: f64, env: &mut Env| ops::to_f64(h, ops::from_f64(h, v, env));
        let mut scores = vec![0.0; SAMPLES * CLASSES];
        for s in 0..SAMPLES {
            for c in 0..CLASSES {
                let mut acc = af.zero(false);
                for j in 0..FEATURES {
                    let wq = q(d.w[c * FEATURES + j], &mut env);
                    let xq = q(d.x[s * FEATURES + j], &mut env);
                    // Product at the element type, accumulated at acc_fmt
                    // (the scalar kernel's semantics).
                    let p = ops::from_f64(h, wq * xq, &mut env);
                    let pa = ops::cvt_f_f(af, h, p, &mut env);
                    acc = ops::add(af, acc, pa, &mut env);
                }
                let b = ops::cvt_f_f(af, h, ops::from_f64(h, d.b[c], &mut env), &mut env);
                let sc = ops::add(af, acc, b, &mut env);
                // Stored back at binary16, like the kernel's scores array.
                let _ = FpFmt::S;
                let st = ops::cvt_f_f(h, af, sc, &mut env);
                scores[s * CLASSES + c] = ops::to_f64(h, st);
            }
        }
        error_rate(&scores, &d.labels)
    }

    #[test]
    fn accumulator_precision_drives_accuracy() {
        // The §V-C mechanism: f32 accumulator → exact classification;
        // bfloat16 accumulator → a few percent of errors; binary16
        // accumulator → overflow and gross errors.
        let e32 = error_with_acc(smallfloat_isa::FpFmt::S);
        let e_ah = error_with_acc(smallfloat_isa::FpFmt::Ah);
        let e16 = error_with_acc(smallfloat_isa::FpFmt::H);
        assert_eq!(e32, 0.0, "binary32 accumulator must be error-free");
        assert!(
            e_ah > 0.0 && e_ah <= 0.25,
            "binary16alt accumulator should cost a few percent, got {e_ah}"
        );
        assert!(
            e16 > 0.3,
            "binary16 accumulator must overflow badly, got {e16}"
        );
    }

    #[test]
    fn classify_handles_nan_and_inf() {
        let scores = [f64::NAN, 1.0, 0.5, -1.0, f64::INFINITY, 2.0, 1.0, 0.0];
        let pred = classify(&scores);
        assert_eq!(pred, vec![1, 0]);
    }
}
