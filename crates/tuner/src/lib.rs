//! Dynamic precision tuning over smallFloat types (paper §II, §V-C).
//!
//! The paper drives its mixed-precision case study with an external
//! dynamic precision tuner (fpPrecisionTuning, Ho et al. ASP-DAC 2017;
//! Precimonious is the same family). This crate implements that
//! methodology: a greedy search over variable→type assignments, evaluated
//! by *executing* the program (here: the typed IR interpreter, the
//! equivalent of the tools' instrumented runs) under a user-supplied
//! quality-of-result constraint.
//!
//! The search runs over named variables, each with a storage cost, and an
//! evaluator that measures the QoR error of a complete variable→type
//! assignment. For every variable, in order, the tuner tries the candidate
//! types from cheapest to widest and locks in the first one that keeps the
//! measured error within the constraint; variables that tolerate nothing
//! smaller stay at binary32. [`tune_kernel`] tunes the arrays and scalars
//! of an xcc kernel this way. On the paper's SVM workload with a strict
//! constraint (zero classification errors) this reproduces the published
//! outcome: every variable drops to `float16` except the dot-product
//! accumulator, which must stay `float`; relaxing the constraint to ≈5 %
//! lets the accumulator drop to `float16alt`.
//!
//! ```
//! use smallfloat_isa::FpFmt;
//! use smallfloat_tuner::{tune_kernel, TunerConfig};
//! use smallfloat_xcc::ir::Kernel;
//!
//! let mut kernel = Kernel::new("toy");
//! kernel.array("data", FpFmt::S, 4);
//! // A QoR function that tolerates any 16-bit type but rejects both
//! // binary8 banks.
//! let qor = |k: &Kernel| match k.type_of("data").unwrap() {
//!     FpFmt::B | FpFmt::Ab => 1.0,
//!     _ => 0.0,
//! };
//! let result = tune_kernel(&kernel, &TunerConfig::default(), qor);
//! assert_eq!(result.assignment_for("data"), FpFmt::H);
//! ```

use smallfloat_isa::FpFmt;
use smallfloat_xcc::ir::Kernel;
use smallfloat_xcc::retype;

/// Tuner configuration.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Candidate types, tried in order (put the cheapest first). Variables
    /// failing all candidates keep binary32.
    pub candidates: Vec<FpFmt>,
    /// Maximum tolerated QoR error (inclusive).
    pub max_error: f64,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        // Every sub-binary32 registry format, cheapest (narrowest) first;
        // the registry order breaks width ties, which puts each base
        // format before its alt bank (B before Ab, H before Ah).
        let mut candidates = FpFmt::SMALL.to_vec();
        candidates.sort_by_key(|f| f.width());
        TunerConfig {
            candidates,
            max_error: 0.0,
        }
    }
}

/// One tried assignment during the search.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneStep {
    /// Variable under test.
    pub name: String,
    /// Candidate type tried.
    pub tried: FpFmt,
    /// Measured QoR error.
    pub error: f64,
    /// Whether the candidate was accepted.
    pub accepted: bool,
}

/// The tuner's output.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Final variable→type assignment, one entry per variable in search
    /// order.
    pub assignment: Vec<(String, FpFmt)>,
    /// Storage cost (elements) of each variable, parallel to `assignment`.
    pub costs: Vec<usize>,
    /// Number of evaluations of the greedy protocol (the length of
    /// `trace`).
    pub evaluations: usize,
    /// Search trace: every candidate up to and including each variable's
    /// accepted one.
    pub trace: Vec<TuneStep>,
}

impl TuneResult {
    /// The assigned type of a variable (binary32 if absent).
    pub fn assignment_for(&self, name: &str) -> FpFmt {
        self.assignment
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| *f)
            .unwrap_or(FpFmt::S)
    }

    /// Total storage bits across the assignment (the tuner's cost metric).
    pub fn total_bits(&self) -> usize {
        self.assignment
            .iter()
            .zip(&self.costs)
            .map(|((_, fmt), cost)| cost * fmt.width() as usize)
            .sum()
    }

    /// Human-readable trace, one line per evaluation.
    pub fn trace_text(&self) -> String {
        let mut s = String::new();
        for step in &self.trace {
            s.push_str(&format!(
                "  try {:<8} = {:<3} error {:<10.4} -> {}\n",
                step.name,
                step.tried.suffix(),
                step.error,
                if step.accepted { "accept" } else { "reject" }
            ));
        }
        s
    }
}

/// Greedily tune `vars` (name, storage cost in elements) under `eval`,
/// which returns the QoR *error* of a complete assignment — lower is
/// better.
///
/// All variables start at binary32; each is then minimized in order with
/// earlier decisions locked in — the iterative-refinement strategy of the
/// dynamic tuning tools the paper builds on. A variable's candidates are
/// evaluated in candidate order, and the first within the bound is
/// accepted; no candidate past it is evaluated.
pub fn tune(
    vars: &[(String, usize)],
    config: &TunerConfig,
    eval: impl Fn(&[(String, FpFmt)]) -> f64,
) -> TuneResult {
    let mut assignment: Vec<(String, FpFmt)> =
        vars.iter().map(|(n, _)| (n.clone(), FpFmt::S)).collect();
    let mut trace = Vec::new();
    for (i, (name, _)) in vars.iter().enumerate() {
        for &tried in &config.candidates {
            let mut a = assignment.clone();
            a[i].1 = tried;
            let error = eval(&a);
            let accepted = error <= config.max_error;
            trace.push(TuneStep {
                name: name.clone(),
                tried,
                error,
                accepted,
            });
            if accepted {
                assignment = a;
                break;
            }
        }
    }
    TuneResult {
        assignment,
        costs: vars.iter().map(|(_, c)| *c).collect(),
        evaluations: trace.len(),
        trace,
    }
}

/// [`tune`] over a kernel's arrays and scalars ([`retype::tunable_names`]
/// order; an array costs its length, a scalar 1). `qor` gets the kernel
/// retyped to the assignment under test, with every other variable at
/// binary32.
pub fn tune_kernel(
    base: &Kernel,
    config: &TunerConfig,
    qor: impl Fn(&Kernel) -> f64,
) -> TuneResult {
    let vars: Vec<(String, usize)> = retype::tunable_names(base)
        .into_iter()
        .map(|n| {
            let cost = base.array_decl(&n).map_or(1, |a| a.len);
            (n, cost)
        })
        .collect();
    let all_s = retype::retype_all(base, FpFmt::S);
    tune(&vars, config, |a| {
        qor(&retype::retype(&all_s, &a.iter().cloned().collect()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_xcc::interp::{run_typed, TypedState};
    use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Stmt};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every assignment over `config.candidates ∪ {S}`; returns the
    /// cheapest one (by [`TuneResult::total_bits`]) within the bound, or
    /// binary32 everywhere when none is — the oracle the greedy search
    /// approximates. Exponential in the variable count.
    fn tune_exhaustive(
        vars: &[(String, usize)],
        config: &TunerConfig,
        eval: impl Fn(&[(String, FpFmt)]) -> f64,
    ) -> TuneResult {
        let mut candidates = config.candidates.clone();
        if !candidates.contains(&FpFmt::S) {
            candidates.push(FpFmt::S);
        }
        let total = candidates.len().pow(vars.len() as u32);
        let result = |assignment| TuneResult {
            assignment,
            costs: vars.iter().map(|(_, c)| *c).collect(),
            evaluations: total,
            trace: vec![],
        };
        let mut best: Option<TuneResult> = None;
        for idx in 0..total {
            let mut rem = idx;
            let assignment: Vec<(String, FpFmt)> = vars
                .iter()
                .map(|(n, _)| {
                    let c = candidates[rem % candidates.len()];
                    rem /= candidates.len();
                    (n.clone(), c)
                })
                .collect();
            if eval(&assignment) <= config.max_error {
                let r = result(assignment);
                if best
                    .as_ref()
                    .is_none_or(|b| r.total_bits() < b.total_bits())
                {
                    best = Some(r);
                }
            }
        }
        best.unwrap_or_else(|| result(vars.iter().map(|(n, _)| (n.clone(), FpFmt::S)).collect()))
    }

    /// y[i] = x[i] * 30000: results reach 120000, beyond binary16 range.
    fn range_kernel() -> Kernel {
        let mut k = Kernel::new("range");
        k.array("x", FpFmt::S, 4).array("y", FpFmt::S, 4);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::store(
                "y",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")) * Expr::lit(30000.0),
            )],
        )];
        k
    }

    fn rel_error(k: &Kernel) -> f64 {
        let mut st = TypedState::for_kernel(k);
        st.set_array("x", &[1.0, 2.0, 3.0, 4.0]);
        st.set_array("y", &[0.0; 4]);
        run_typed(k, &mut st);
        let golden = [30000.0, 60000.0, 90000.0, 120000.0];
        st.array_f64("y")
            .iter()
            .zip(golden)
            .map(|(m, g)| {
                if m.is_finite() {
                    (m - g).abs() / g
                } else {
                    1.0
                }
            })
            .fold(0.0f64, f64::max)
    }

    /// `range_kernel`'s variables and [`rel_error`] as an evaluator, for
    /// calling [`tune`] directly.
    fn range_vars() -> Vec<(String, usize)> {
        vec![("x".to_string(), 4), ("y".to_string(), 4)]
    }

    fn range_error(a: &[(String, FpFmt)]) -> f64 {
        rel_error(&retype::retype(
            &range_kernel(),
            &a.iter().cloned().collect(),
        ))
    }

    #[test]
    fn tuner_finds_range_constrained_assignment() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error: 0.02,
        };
        let result = tune_kernel(&range_kernel(), &config, rel_error);
        // Products overflow binary16 and binary8 → both variables need
        // binary16alt's range: the product is computed at x's type (the
        // constant adapts to its sibling), so even x cannot drop below it,
        // and y must store values up to 120000.
        assert_eq!(
            result.assignment_for("y"),
            FpFmt::Ah,
            "trace:\n{}",
            result.trace_text()
        );
        assert_eq!(
            result.assignment_for("x"),
            FpFmt::Ah,
            "trace:\n{}",
            result.trace_text()
        );
        assert!(result.evaluations >= 4);
    }

    /// y[i] = x[i] * 1.0 with inputs of the form 1.001₂ × 2^k: exact at
    /// E4M3's 3 mantissa bits, inexact at E5M2's 2.
    fn precision_kernel() -> Kernel {
        let mut k = Kernel::new("precision");
        k.array("x", FpFmt::S, 4).array("y", FpFmt::S, 4);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::store(
                "y",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")) * Expr::lit(1.0),
            )],
        )];
        k
    }

    fn precision_error(k: &Kernel) -> f64 {
        let golden = [1.125, 2.25, 4.5, 9.0];
        let mut st = TypedState::for_kernel(k);
        st.set_array("x", &golden);
        st.set_array("y", &[0.0; 4]);
        run_typed(k, &mut st);
        st.array_f64("y")
            .iter()
            .zip(golden)
            .map(|(m, g)| (m - g).abs() / g)
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn tuner_selects_e4m3_when_precision_bound() {
        // Default candidates try E5M2 first; it rounds 1.125 away and is
        // rejected at zero tolerance, so the greedy search lands on the
        // equal-width, equal-energy E4M3 bank for both variables.
        let calls = AtomicUsize::new(0);
        let result = tune_kernel(&precision_kernel(), &TunerConfig::default(), |k| {
            calls.fetch_add(1, Ordering::Relaxed);
            precision_error(k)
        });
        // Two tries per variable, and no evaluation past an accepted
        // candidate.
        assert_eq!(result.evaluations, 4);
        assert_eq!(calls.into_inner(), result.evaluations);
        assert_eq!(
            result.assignment_for("x"),
            FpFmt::Ab,
            "trace:\n{}",
            result.trace_text()
        );
        assert_eq!(
            result.assignment_for("y"),
            FpFmt::Ab,
            "trace:\n{}",
            result.trace_text()
        );
    }

    #[test]
    fn strict_constraint_keeps_f32() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H],
            max_error: 0.0,
        };
        let result = tune_kernel(&range_kernel(), &config, rel_error);
        assert_eq!(
            result.assignment_for("y"),
            FpFmt::S,
            "no candidate is exact"
        );
    }

    #[test]
    fn trace_records_every_evaluation() {
        let config = TunerConfig::default();
        let result = tune_kernel(&range_kernel(), &config, rel_error);
        assert_eq!(result.evaluations, result.trace.len());
        assert!(result.trace_text().contains("try"));
    }

    #[test]
    fn falls_back_to_f32_when_nothing_fits() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B],
            max_error: 0.0,
        };
        let r = tune(&range_vars(), &config, range_error);
        assert_eq!(r.assignment_for("x"), FpFmt::S);
        assert_eq!(r.assignment_for("y"), FpFmt::S);
        assert_eq!(r.evaluations, 2);
        assert!(r.trace.iter().all(|s| !s.accepted));
    }

    #[test]
    fn exhaustive_is_no_worse_than_greedy() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error: 0.02,
        };
        let greedy = tune(&range_vars(), &config, range_error);
        assert_eq!(
            greedy.assignment,
            tune_kernel(&range_kernel(), &config, rel_error).assignment
        );
        let oracle = tune_exhaustive(&range_vars(), &config, range_error);
        assert!(
            oracle.total_bits() <= greedy.total_bits(),
            "oracle {} bits vs greedy {} bits",
            oracle.total_bits(),
            greedy.total_bits()
        );
        // The oracle's pick must itself satisfy the constraint.
        assert!(range_error(&oracle.assignment) <= config.max_error);
        // Exhaustive enumerates (|candidates|+1)^n assignments.
        assert_eq!(oracle.evaluations, 4usize.pow(2));
    }

    #[test]
    fn exhaustive_falls_back_to_f32_when_nothing_fits() {
        // Impossible constraint with no exact candidate.
        let config = TunerConfig {
            candidates: vec![FpFmt::B],
            max_error: 0.0,
        };
        let r = tune_exhaustive(&range_vars(), &config, range_error);
        assert_eq!(r.assignment_for("x"), FpFmt::S);
        assert_eq!(r.assignment_for("y"), FpFmt::S);
    }

    #[test]
    fn total_bits_accounts_array_sizes() {
        let k = range_kernel();
        let config = TunerConfig {
            candidates: vec![FpFmt::H],
            max_error: 1.0,
        };
        let result = tune_kernel(&k, &config, rel_error);
        // Both arrays at binary16: 4 elements × 16 bits × 2 arrays.
        assert_eq!(result.total_bits(), 2 * 4 * 16);
    }
}
