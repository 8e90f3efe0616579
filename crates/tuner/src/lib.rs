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
use std::sync::mpsc;

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
/// dynamic tuning tools the paper builds on. The candidates of a variable
/// are evaluated in chunks of `workers`: the first of a chunk on the
/// calling thread, the rest concurrently on `workers − 1` scoped threads
/// that live for the whole search, chunk position `k` always on the same
/// thread, so thread-local state an evaluator keeps (a warm simulator
/// pool) carries over from one variable to the next. The first candidate
/// within the bound, in candidate order, is accepted; errors measured
/// past it are discarded, so the trace, `evaluations` and the assignment
/// are those of the sequential search at any worker count.
pub fn tune(
    vars: &[(String, usize)],
    config: &TunerConfig,
    workers: usize,
    eval: impl Fn(&[(String, FpFmt)]) -> f64 + Sync,
) -> TuneResult {
    let width = workers.max(1);
    let mut assignment: Vec<(String, FpFmt)> =
        vars.iter().map(|(n, _)| (n.clone(), FpFmt::S)).collect();
    let mut trace = Vec::new();
    std::thread::scope(|scope| {
        let eval = &eval;
        let mut helpers: Vec<Helper<'_>> = (1..width.min(config.candidates.len()))
            .map(|_| Helper::spawn(scope, eval))
            .collect();
        for i in 0..vars.len() {
            let with = |candidate: FpFmt| {
                let mut a = assignment.clone();
                a[i].1 = candidate;
                a
            };
            'search: for chunk in config.candidates.chunks(width) {
                for (helper, &c) in helpers.iter().zip(&chunk[1..]) {
                    helper.send(with(c));
                }
                let first = eval(&with(chunk[0]));
                let errors: Vec<f64> = std::iter::once(first)
                    .chain(helpers[..chunk.len() - 1].iter_mut().map(Helper::recv))
                    .collect();
                for (&tried, error) in chunk.iter().zip(errors) {
                    let accepted = error <= config.max_error;
                    trace.push(TuneStep {
                        name: vars[i].0.clone(),
                        tried,
                        error,
                        accepted,
                    });
                    if accepted {
                        assignment[i].1 = tried;
                        break 'search;
                    }
                }
            }
        }
    });
    TuneResult {
        assignment,
        costs: vars.iter().map(|(_, c)| *c).collect(),
        evaluations: trace.len(),
        trace,
    }
}

/// One long-lived evaluation thread of [`tune`]: assignments in, errors
/// out, in order. It exits when its job channel closes.
struct Helper<'scope> {
    jobs: mpsc::Sender<Vec<(String, FpFmt)>>,
    errors: mpsc::Receiver<f64>,
    thread: Option<std::thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> Helper<'scope> {
    fn spawn<F>(scope: &'scope std::thread::Scope<'scope, '_>, eval: &'scope F) -> Self
    where
        F: Fn(&[(String, FpFmt)]) -> f64 + Sync,
    {
        let (jobs, job_rx) = mpsc::channel::<Vec<(String, FpFmt)>>();
        let (error_tx, errors) = mpsc::channel();
        let thread = scope.spawn(move || {
            for a in job_rx {
                if error_tx.send(eval(&a)).is_err() {
                    break;
                }
            }
        });
        Helper {
            jobs,
            errors,
            thread: Some(thread),
        }
    }

    fn send(&self, assignment: Vec<(String, FpFmt)>) {
        // A send fails only once the thread is gone, which `recv` reports.
        let _ = self.jobs.send(assignment);
    }

    /// The error of the oldest outstanding job; re-raises the thread's
    /// panic if its evaluator panicked.
    fn recv(&mut self) -> f64 {
        match self.errors.recv() {
            Ok(error) => error,
            Err(_) => match self.thread.take().map(|t| t.join()) {
                Some(Err(panic)) => std::panic::resume_unwind(panic),
                _ => unreachable!("a tuner thread exits early only by panicking"),
            },
        }
    }
}

/// [`tune`] over a kernel's arrays and scalars ([`retype::tunable_names`]
/// order; an array costs its length, a scalar 1), one evaluation at a
/// time. `qor` gets the kernel retyped to the assignment under test, with
/// every other variable at binary32.
pub fn tune_kernel(
    base: &Kernel,
    config: &TunerConfig,
    qor: impl Fn(&Kernel) -> f64 + Sync,
) -> TuneResult {
    let vars: Vec<(String, usize)> = retype::tunable_names(base)
        .into_iter()
        .map(|n| {
            let cost = base.array_decl(&n).map_or(1, |a| a.len);
            (n, cost)
        })
        .collect();
    let all_s = retype::retype_all(base, FpFmt::S);
    tune(&vars, config, 1, |a| {
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
        let result = tune_kernel(
            &precision_kernel(),
            &TunerConfig::default(),
            precision_error,
        );
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
    fn trace_is_worker_count_independent() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error: 0.02,
        };
        let sequential = tune(&range_vars(), &config, 1, range_error);
        assert_eq!(
            sequential.assignment,
            tune_kernel(&range_kernel(), &config, rel_error).assignment
        );
        for workers in [2, 4] {
            let r = tune(&range_vars(), &config, workers, range_error);
            assert_eq!(r.trace, sequential.trace, "workers={workers}");
            assert_eq!(r.evaluations, sequential.evaluations);
            assert_eq!(r.assignment, sequential.assignment);
        }
    }

    #[test]
    fn speculative_candidates_are_discarded() {
        // Every error is at most 1.0, so binary8 is accepted first and the
        // chunk's binary16 and binary16alt runs are speculation.
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error: 1.0,
        };
        let calls = AtomicUsize::new(0);
        let r = tune(&range_vars(), &config, 4, |a| {
            calls.fetch_add(1, Ordering::Relaxed);
            range_error(a)
        });
        assert_eq!(calls.into_inner(), 2 * config.candidates.len());
        assert_eq!(r.evaluations, 2);
        let tried: Vec<(&str, FpFmt, bool)> = r
            .trace
            .iter()
            .map(|s| (s.name.as_str(), s.tried, s.accepted))
            .collect();
        assert_eq!(tried, [("x", FpFmt::B, true), ("y", FpFmt::B, true)]);
    }

    #[test]
    fn falls_back_to_f32_when_nothing_fits() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B],
            max_error: 0.0,
        };
        for workers in [1, 2] {
            let r = tune(&range_vars(), &config, workers, range_error);
            assert_eq!(r.assignment_for("x"), FpFmt::S);
            assert_eq!(r.assignment_for("y"), FpFmt::S);
            assert_eq!(r.evaluations, 2);
            assert!(r.trace.iter().all(|s| !s.accepted));
        }
    }

    #[test]
    fn exhaustive_is_no_worse_than_greedy() {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error: 0.02,
        };
        let greedy = tune(&range_vars(), &config, 1, range_error);
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
