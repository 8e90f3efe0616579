//! Drivers regenerating every table and figure of the DATE 2019 paper.
//!
//! Each `figN_*` / `tableN_*` function produces the rows/series the paper
//! reports; the `src/bin/` binaries print them. Absolute numbers come from
//! our simulator substrate (DESIGN.md §2) — the claims under reproduction
//! are the *shapes*: who wins, by roughly what factor, and where the
//! crossovers fall. `EXPERIMENTS.md` records paper-reported vs measured
//! values side by side.

pub mod ablation;
pub mod codesize;
pub mod nn;
pub mod replay;
pub mod serving;
pub mod training;

use smallfloat::{kernels, MemLevel, Precision, VecMode};
use smallfloat_isa::{vector_lanes, FpFmt, InstrClass};
use smallfloat_kernels::bench::{self, Workload};
use smallfloat_kernels::svm::{error_rate, Svm};
pub use smallfloat_sim::par;
use smallfloat_sim::Stats;
use std::fmt::Write as _;

/// The tuned mixed-precision assignment of the §V-C case study
/// (accumulator at binary32, everything else binary16).
pub fn mixed_precision() -> Precision {
    Precision::Mixed {
        default: FpFmt::H,
        assignment: vec![("acc".to_string(), FpFmt::S)],
    }
}

/// The relaxed (~5 % errors) assignment: accumulator at binary16alt.
pub fn mixed_precision_relaxed() -> Precision {
    Precision::Mixed {
        default: FpFmt::H,
        assignment: vec![("acc".to_string(), FpFmt::Ah)],
    }
}

/// Table I: one exemplar instruction per operation family of the
/// smallFloat extensions, with encoding and disassembly.
pub fn table1_operations() -> String {
    use smallfloat_isa::{encode, CpkHalf, FReg, Instr, Rm, VfOp};
    let f = FReg::new(0);
    let f1 = FReg::new(1);
    let f2 = FReg::new(2);
    let rows: Vec<(&str, &str, Instr)> = vec![
        (
            "Arithmetic",
            "Xf16",
            Instr::FOp {
                op: smallfloat_isa::FpOp::Add,
                fmt: FpFmt::H,
                rd: f,
                rs1: f1,
                rs2: f2,
                rm: Rm::Dyn,
            },
        ),
        (
            "Conversions",
            "Xf16",
            Instr::FCvtFF {
                dst: FpFmt::H,
                src: FpFmt::S,
                rd: f,
                rs1: f1,
                rm: Rm::Dyn,
            },
        ),
        (
            "Vector Arith.",
            "Xfvec",
            Instr::VFOp {
                op: VfOp::Add,
                fmt: FpFmt::H,
                rd: f,
                rs1: f1,
                rs2: f2,
                rep: false,
            },
        ),
        (
            "Vector Conv.",
            "Xfvec",
            Instr::VFCvtXF {
                fmt: FpFmt::H,
                rd: f,
                rs1: f1,
                signed: true,
            },
        ),
        (
            "Cast-and-Pack",
            "Xfvec",
            Instr::VFCpk {
                fmt: FpFmt::H,
                half: CpkHalf::A,
                rd: f,
                rs1: f1,
                rs2: f2,
            },
        ),
        (
            "Expanding",
            "Xfaux",
            Instr::FMacEx {
                fmt: FpFmt::H,
                rd: f,
                rs1: f1,
                rs2: f2,
                rm: Rm::Dyn,
            },
        ),
        (
            "Other",
            "Xfaux",
            Instr::VFDotpEx {
                fmt: FpFmt::H,
                rd: f,
                rs1: f1,
                rs2: f2,
                rep: false,
            },
        ),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "Table I: common operations in the smallFloat extensions"
    )
    .unwrap();
    writeln!(
        out,
        "{:<15} {:<6} {:<28} encoding",
        "Operation Type", "Ext.", "Instruction"
    )
    .unwrap();
    for (family, ext, instr) in rows {
        writeln!(
            out,
            "{:<15} {:<6} {:<28} 0x{:08x}",
            family,
            ext,
            instr.to_string(),
            encode(&instr)
        )
        .unwrap();
    }
    out
}

/// Table II: SIMD lanes per format across FLEN values.
pub fn table2_lanes() -> String {
    let mut out = String::new();
    writeln!(out, "Table II: supported vector lanes vs FLEN").unwrap();
    writeln!(
        out,
        "{:<6} {:>4} {:>6} {:>8} {:>5}",
        "FLEN", "F", "Xf16", "Xf16alt", "Xf8"
    )
    .unwrap();
    for flen in [64u32, 32, 16] {
        let cell = |f: FpFmt| match vector_lanes(flen, f) {
            Some(n) => n.to_string(),
            None => "x".to_string(),
        };
        writeln!(
            out,
            "{:<6} {:>4} {:>6} {:>8} {:>5}",
            flen,
            cell(FpFmt::S),
            cell(FpFmt::H),
            cell(FpFmt::Ah),
            cell(FpFmt::B)
        )
        .unwrap();
    }
    out
}

/// One Fig-1 row: benchmark × type × {auto, manual} speedups plus the
/// ideal (lane count).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig1Row {
    pub benchmark: String,
    pub type_label: String,
    pub auto: f64,
    pub manual: f64,
    pub ideal: f64,
}

/// Figure 1: speedup of smallFloat types compared to `float`, automatic vs
/// manual vectorization, with ideal (lane-count) markers.
pub fn fig1_speedups() -> Vec<Fig1Row> {
    let precs = [
        (Precision::F16, 2.0),
        (Precision::F16Alt, 2.0),
        (Precision::F8, 4.0),
    ];
    let n_bench = bench::suite().len();
    // Workloads are not Send: each task rebuilds the suite in its worker
    // and picks its (benchmark, precision) cell; par_map keeps row order
    // identical to the serial nested loop.
    par::par_map(n_bench * precs.len(), |task| {
        let w = &bench::suite()[task / precs.len()];
        let (prec, ideal) = &precs[task % precs.len()];
        let auto = bench::speedup(w.as_ref(), prec, VecMode::Auto, MemLevel::L1);
        let manual = bench::speedup(w.as_ref(), prec, VecMode::Manual, MemLevel::L1);
        Fig1Row {
            benchmark: w.name().to_string(),
            type_label: prec.label(),
            auto,
            manual,
            ideal: *ideal,
        }
    })
}

/// Render Fig-1 rows plus the aggregate lines the paper quotes.
pub fn fig1_render(rows: &[Fig1Row]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 1: speedup of smallFloat types compared to float (L1)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<11} {:>7} {:>7} {:>6}",
        "bench", "type", "auto", "manual", "ideal"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<8} {:<11} {:>6.2}x {:>6.2}x {:>5.1}x",
            r.benchmark, r.type_label, r.auto, r.manual, r.ideal
        )
        .unwrap();
    }
    let agg = |label: &str, pick: &dyn Fn(&Fig1Row) -> bool, get: &dyn Fn(&Fig1Row) -> f64| {
        let vals: Vec<f64> = rows.iter().filter(|r| pick(r)).map(get).collect();
        let avg = vals.iter().sum::<f64>() / vals.len() as f64;
        let max = vals.iter().fold(0.0f64, |m, v| m.max(*v));
        format!("{label}: avg {avg:.2}x, peak {max:.2}x")
    };
    let is16 = |r: &Fig1Row| r.type_label.starts_with("float16");
    let is8 = |r: &Fig1Row| r.type_label == "float8";
    writeln!(out, "{}", agg("16-bit auto  ", &is16, &|r| r.auto)).unwrap();
    writeln!(out, "{}", agg("16-bit manual", &is16, &|r| r.manual)).unwrap();
    writeln!(out, "{}", agg("float8 auto  ", &is8, &|r| r.auto)).unwrap();
    writeln!(out, "{}", agg("float8 manual", &is8, &|r| r.manual)).unwrap();
    out
}

/// Figure 2 series: manual-vectorized speedup vs memory level.
pub fn fig2_latency() -> Vec<(String, String, [f64; 3])> {
    let precs = [Precision::F16, Precision::F8];
    let n_bench = bench::suite().len();
    par::par_map(n_bench * precs.len(), |task| {
        let w = &bench::suite()[task / precs.len()];
        let prec = &precs[task % precs.len()];
        let mut s = [0.0; 3];
        for (i, level) in MemLevel::ALL.iter().enumerate() {
            s[i] = bench::speedup(w.as_ref(), prec, VecMode::Manual, *level);
        }
        (w.name().to_string(), prec.label(), s)
    })
}

/// Render Fig-2 with the paper's aggregate trend lines.
pub fn fig2_render(rows: &[(String, String, [f64; 3])]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 2: speedup (manual) for increasing memory latencies"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<9} {:>7} {:>7} {:>7}",
        "bench", "type", "L1", "L2", "L3"
    )
    .unwrap();
    for (b, t, s) in rows {
        writeln!(
            out,
            "{:<8} {:<9} {:>6.2}x {:>6.2}x {:>6.2}x",
            b, t, s[0], s[1], s[2]
        )
        .unwrap();
    }
    for (label, prec) in [("float16", "float16"), ("float8", "float8")] {
        let sel: Vec<&[f64; 3]> = rows
            .iter()
            .filter(|(_, t, _)| t == prec)
            .map(|(_, _, s)| s)
            .collect();
        let avg = |i: usize| sel.iter().map(|s| s[i]).sum::<f64>() / sel.len() as f64;
        let (l1, l2, l3) = (avg(0), avg(1), avg(2));
        writeln!(
            out,
            "{label}: speedup uplift vs L1: L2 {:+.1}%, L3 {:+.1}%",
            (l2 / l1 - 1.0) * 100.0,
            (l3 / l1 - 1.0) * 100.0
        )
        .unwrap();
    }
    out
}

/// Figure 3 series: energy normalized to `float`, per memory level
/// (manual vectorization).
pub fn fig3_energy() -> Vec<(String, String, [f64; 3])> {
    let precs = [Precision::F16, Precision::F8];
    let n_bench = bench::suite().len();
    par::par_map(n_bench * precs.len(), |task| {
        let w = &bench::suite()[task / precs.len()];
        let prec = &precs[task % precs.len()];
        let mut e = [0.0; 3];
        for (i, level) in MemLevel::ALL.iter().enumerate() {
            let base = bench::run(w.as_ref(), &Precision::F32, VecMode::Scalar, *level);
            let var = bench::run(w.as_ref(), prec, VecMode::Manual, *level);
            e[i] = var.stats.energy_pj / base.stats.energy_pj;
        }
        (w.name().to_string(), prec.label(), e)
    })
}

/// Render Fig-3 with the paper's 30 %/50 % anchor aggregates.
pub fn fig3_render(rows: &[(String, String, [f64; 3])]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 3: energy normalized to float, increasing memory latencies"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<9} {:>7} {:>7} {:>7}",
        "bench", "type", "L1", "L2", "L3"
    )
    .unwrap();
    for (b, t, e) in rows {
        writeln!(
            out,
            "{:<8} {:<9} {:>7.3} {:>7.3} {:>7.3}",
            b, t, e[0], e[1], e[2]
        )
        .unwrap();
    }
    for prec in ["float16", "float8"] {
        let sel: Vec<&[f64; 3]> = rows
            .iter()
            .filter(|(_, t, _)| t == prec)
            .map(|(_, _, e)| e)
            .collect();
        let avg = sel.iter().map(|e| e[0]).sum::<f64>() / sel.len() as f64;
        writeln!(
            out,
            "{prec}: average energy saving at L1: {:.0}%",
            (1.0 - avg) * 100.0
        )
        .unwrap();
    }
    out
}

/// Table III: SQNR (dB) per benchmark per type (manual vectorization, as
/// used throughout §V-B).
pub fn table3_sqnr() -> String {
    let precs = [Precision::F16, Precision::F16Alt, Precision::F8];
    let suite = bench::suite();
    let n_bench = suite.len();
    let cells = par::par_map(precs.len() * n_bench, |task| {
        let prec = &precs[task / n_bench];
        let w = &bench::suite()[task % n_bench];
        bench::sqnr(w.as_ref(), prec, VecMode::Manual)
    });
    let mut out = String::new();
    writeln!(out, "Table III: quality of results expressed in SQNR (dB)").unwrap();
    write!(out, "{:<12}", "type").unwrap();
    for w in &suite {
        write!(out, "{:>9}", w.name()).unwrap();
    }
    writeln!(out).unwrap();
    for (pi, prec) in precs.iter().enumerate() {
        write!(out, "{:<12}", prec.label()).unwrap();
        for db in &cells[pi * n_bench..(pi + 1) * n_bench] {
            write!(out, "{:>9.1}", db).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Figure 4: instruction-count breakdown for the SVM under mixed
/// precision: original (float, scalar) vs auto- vs manually-vectorized.
pub fn fig4_breakdown() -> String {
    let svm = Svm::new();
    let mixed = mixed_precision();
    let runs: Vec<(&str, Stats)> = vec![
        (
            "original(float)",
            bench::run(&svm, &Precision::F32, VecMode::Scalar, MemLevel::L1).stats,
        ),
        (
            "auto-vect",
            bench::run(&svm, &mixed, VecMode::Auto, MemLevel::L1).stats,
        ),
        (
            "manual-vect",
            bench::run(&svm, &mixed, VecMode::Manual, MemLevel::L1).stats,
        ),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "Figure 4: SVM instruction-count breakdown under mixed precision"
    )
    .unwrap();
    write!(out, "{:<14}", "class").unwrap();
    for (label, _) in &runs {
        write!(out, "{:>17}", label).unwrap();
    }
    writeln!(out).unwrap();
    for class in InstrClass::ALL {
        let counts: Vec<u64> = runs.iter().map(|(_, s)| s.class_count(class)).collect();
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        write!(out, "{:<14}", class.label()).unwrap();
        for c in &counts {
            write!(out, "{:>17}", c).unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<14}", "TOTAL").unwrap();
    for (_, s) in &runs {
        write!(out, "{:>17}", s.instret).unwrap();
    }
    writeln!(out).unwrap();
    write!(out, "{:<14}", "cycles").unwrap();
    for (_, s) in &runs {
        write!(out, "{:>17}", s.cycles).unwrap();
    }
    writeln!(out).unwrap();
    out
}

/// Figure 5: the dot-product snippet, auto- vs manually-vectorized, with
/// per-iteration instruction listings (the paper's code example).
pub fn fig5_codegen() -> String {
    use smallfloat_xcc::codegen::{compile, CodegenOptions};
    use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Kernel, Stmt};
    // float16 *a, *b; float sum; for (i) sum += a[i]*b[i];
    let n = 64usize;
    let mut k = Kernel::new("dotp_mixed");
    k.array("a", FpFmt::H, n)
        .array("b", FpFmt::H, n)
        .scalar("sum", FpFmt::S, 0.0);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![Stmt::accum(
            "sum",
            Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i")),
        )],
    )];
    let auto = compile(
        &k,
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .expect("compiles");

    // Manual: Fig. 5 right — vfmul + two __macex per packed pair becomes
    // one vfdotpex per pair here (the Xfaux dot product fuses both MACs).
    let mut asm = smallfloat_asm::Assembler::new();
    let layout = smallfloat_xcc::codegen::layout_of(&k);
    use smallfloat_isa::{BranchCond, FReg, XReg};
    let (pa, pb, end) = (XReg::new(18), XReg::new(19), XReg::new(7));
    asm.la(pa, layout.entry("a").unwrap().addr);
    asm.la(pb, layout.entry("b").unwrap().addr);
    asm.addi(end, pa, (n * 2) as i32);
    asm.fmv_f(FpFmt::S, FReg::new(10), XReg::ZERO);
    asm.label("loop");
    asm.fload(FpFmt::S, FReg::new(0), pa, 0);
    asm.fload(FpFmt::S, FReg::new(1), pb, 0);
    asm.vfdotpex(FpFmt::H, FReg::new(10), FReg::new(0), FReg::new(1));
    asm.addi(pa, pa, 4);
    asm.addi(pb, pb, 4);
    asm.branch(BranchCond::Ltu, pa, end, "loop");
    asm.ecall();
    let manual_listing = asm.listing();
    let manual_len = asm.len();

    let mut out = String::new();
    writeln!(
        out,
        "Figure 5: code for `float16 *a,*b; float sum; sum += a[i]*b[i]`\n"
    )
    .unwrap();
    writeln!(
        out,
        "--- automatic vectorization ({} instructions) ---",
        auto.program.len()
    )
    .unwrap();
    out.push_str(&auto.listing);
    writeln!(
        out,
        "\n--- manual vectorization with Xfaux intrinsics ({manual_len} instructions) ---"
    )
    .unwrap();
    out.push_str(&manual_listing);
    // Per-iteration instruction counts (steady-state vector loop bodies).
    let auto_per_iter = count_loop_body(&auto.listing, "vhead");
    let manual_per_iter = 6; // flw, flw, vfdotpex, addi, addi, branch
    writeln!(
        out,
        "\nsteady-state instructions per packed pair: auto {} vs manual {} ({:.0}% reduction)",
        auto_per_iter,
        manual_per_iter,
        (1.0 - manual_per_iter as f64 / auto_per_iter as f64) * 100.0
    )
    .unwrap();
    out
}

fn count_loop_body(listing: &str, head_tag: &str) -> usize {
    // Count instructions between the vector-loop head label and its
    // closing jump (crude but stable for generated listings).
    let mut in_loop = false;
    let mut count = 0;
    for line in listing.lines() {
        let t = line.trim();
        if t.ends_with(':') {
            if t.contains(head_tag) {
                in_loop = true;
                continue;
            }
            if in_loop {
                break;
            }
            continue;
        }
        if in_loop && !t.is_empty() {
            count += 1;
        }
    }
    count
}

/// Figure 6 rows: SVM speedup / energy / accuracy per precision scheme.
pub fn fig6_mixed() -> String {
    let svm = Svm::new();
    let labels = svm.data().labels.clone();
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6: SVM under mixed precision vs uniform types (manual, L1)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<22} {:>8} {:>12} {:>10}",
        "scheme", "speedup", "energy(norm)", "errors"
    )
    .unwrap();
    let base = bench::run(&svm, &Precision::F32, VecMode::Scalar, MemLevel::L1);
    for (label, prec) in [
        ("float (baseline)".to_string(), Precision::F32),
        ("float16".to_string(), Precision::F16),
        ("float8".to_string(), Precision::F8),
        ("mixed (acc=float)".to_string(), mixed_precision()),
        ("mixed (acc=f16alt)".to_string(), mixed_precision_relaxed()),
    ] {
        let mode = if prec == Precision::F32 {
            VecMode::Scalar
        } else {
            VecMode::Manual
        };
        let r = bench::run(&svm, &prec, mode, MemLevel::L1);
        let err = error_rate(&r.arrays["scores"], &labels);
        writeln!(
            out,
            "{:<22} {:>7.2}x {:>12.3} {:>9.1}%",
            label,
            base.stats.cycles as f64 / r.stats.cycles as f64,
            r.stats.energy_pj / base.stats.energy_pj,
            err * 100.0
        )
        .unwrap();
    }
    out
}

/// The §V-C tuner run on the SVM, with its trace (complements Fig. 6).
pub fn tuner_case_study() -> String {
    use smallfloat_tuner::{tune_kernel, TunerConfig};
    let svm = Svm::new();
    let base = svm.base_kernel();
    let mut out = String::new();
    for (label, max_error) in [("strict (no errors)", 0.0), ("relaxed (~5% errors)", 0.07)] {
        let config = TunerConfig {
            candidates: vec![FpFmt::B, FpFmt::H, FpFmt::Ah],
            max_error,
        };
        let result = tune_kernel(&base, &config, |k| svm.typed_error(k));
        writeln!(out, "precision tuning, {label}:").unwrap();
        out.push_str(&result.trace_text());
        write!(out, "  assignment:").unwrap();
        for (name, fmt) in &result.assignment {
            write!(out, " {name}={}", fmt.suffix()).unwrap();
        }
        writeln!(out, "  ({} evaluations)\n", result.evaluations).unwrap();
    }
    out
}

/// Sanity helper reused by binaries and integration tests.
pub fn all_reports_fig1_sane(rows: &[Fig1Row]) -> bool {
    rows.iter()
        .all(|r| r.auto > 0.5 && r.manual > 0.5 && r.manual <= r.ideal * 1.6)
}

// Re-export for binaries.
pub use kernels::bench::suite;

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat::Experiment;

    #[test]
    fn tables_render() {
        let t1 = table1_operations();
        assert!(t1.contains("fadd.h"));
        assert!(t1.contains("vfcpk.a.h.s"));
        assert!(t1.contains("fmacex.s.h"));
        let t2 = table2_lanes();
        assert!(t2.contains("FLEN"));
        // FLEN=32 row: x 2 2 4.
        assert!(t2.lines().any(|l| l.starts_with("32") && l.contains('x')));
    }

    #[test]
    fn fig5_shows_the_contrast() {
        let s = fig5_codegen();
        assert!(
            s.contains("vfdotpex.s.h"),
            "manual uses the expanding dot product"
        );
        assert!(s.contains("fcvt.s.h"), "auto carries per-lane conversions");
        assert!(s.contains("reduction"));
    }

    #[test]
    fn experiment_facade_consistency() {
        let r = Experiment::new("GEMM").unwrap().run();
        assert!(r.speedup > 1.0);
    }

    /// The parallel grid produces byte-identical figure data to a serial
    /// run — parallelism must never be observable in the outputs.
    #[test]
    fn parallel_figures_match_serial() {
        // Pin a real thread pool (even on one core) so the comparison
        // exercises cross-thread scheduling, then compare to serial.
        par::set_workers(4);
        let fig1_par = fig1_speedups();
        let fig2_par = fig2_latency();
        par::set_workers(1);
        let fig1_ser = fig1_speedups();
        let fig2_ser = fig2_latency();
        par::set_workers(0);
        assert_eq!(fig1_par, fig1_ser);
        assert_eq!(fig2_par, fig2_ser);
        assert_eq!(fig1_render(&fig1_par), fig1_render(&fig1_ser));
    }
}
