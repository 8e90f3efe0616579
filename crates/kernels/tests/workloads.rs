//! End-to-end workload tests: every benchmark × precision × lowering runs
//! on the simulator and produces sane results.

use smallfloat_kernels::bench::{self, Precision, VecMode};
use smallfloat_kernels::svm::{self, Svm};
use smallfloat_sim::MemLevel;

/// SQNR of a variant against the f64 golden signal must clear a
/// per-precision floor on the well-conditioned linear-algebra kernels.
#[test]
fn sqnr_floors_hold_per_precision() {
    for w in bench::suite() {
        if w.name() == "SVM" {
            continue; // scores saturate by design; covered below
        }
        let s32 = bench::sqnr(w.as_ref(), &Precision::F32, VecMode::Scalar);
        assert!(s32 > 100.0, "{}: f32 SQNR {s32}", w.name());
        let s16 = bench::sqnr(w.as_ref(), &Precision::F16, VecMode::Auto);
        assert!(s16 > 25.0, "{}: f16 SQNR {s16}", w.name());
        let sah = bench::sqnr(w.as_ref(), &Precision::F16Alt, VecMode::Auto);
        assert!(sah > 12.0, "{}: f16alt SQNR {sah}", w.name());
        assert!(
            s16 > sah,
            "{}: binary16 must beat binary16alt on precision",
            w.name()
        );
    }
}

/// Auto and manual vectorization compute (approximately) the same function.
#[test]
fn manual_matches_auto_results() {
    for w in bench::suite() {
        for prec in [Precision::F16, Precision::F8] {
            let auto = bench::run(w.as_ref(), &prec, VecMode::Auto, MemLevel::L1);
            let manual = bench::run(w.as_ref(), &prec, VecMode::Manual, MemLevel::L1);
            let sa = auto.signal(&w.output_arrays());
            let sm = manual.signal(&w.output_arrays());
            assert_eq!(sa.len(), sm.len());
            // Tolerance scaled to the storage precision (reductions in the
            // manual variants run at binary32 via vfdotpex, so they can be
            // *more* accurate than auto — compare both against magnitude).
            let tol = match prec {
                Precision::F8 => 0.40,
                _ => 0.07,
            };
            let scale = sa
                .iter()
                .filter(|v| v.is_finite())
                .fold(0.0f64, |m, v| m.max(v.abs()))
                .max(1e-9);
            for (i, (a, m)) in sa.iter().zip(&sm).enumerate() {
                if !a.is_finite() || !m.is_finite() {
                    continue;
                }
                assert!(
                    (a - m).abs() <= tol * scale,
                    "{} {:?} idx {i}: auto {a} vs manual {m} (scale {scale})",
                    w.name(),
                    prec
                );
            }
        }
    }
}

/// Vectorized variants must be faster than scalar; manual at least as fast
/// as auto; narrower types at least as fast as wider ones.
#[test]
fn speedup_ordering() {
    for w in bench::suite() {
        let cyc = |prec: &Precision, mode: VecMode| {
            bench::run(w.as_ref(), prec, mode, MemLevel::L1)
                .stats
                .cycles
        };
        let base = cyc(&Precision::F32, VecMode::Scalar);
        let auto16 = cyc(&Precision::F16, VecMode::Auto);
        let man16 = cyc(&Precision::F16, VecMode::Manual);
        let auto8 = cyc(&Precision::F8, VecMode::Auto);
        let man8 = cyc(&Precision::F8, VecMode::Manual);
        assert!(
            auto16 < base,
            "{}: auto f16 {auto16} !< base {base}",
            w.name()
        );
        assert!(
            man16 <= auto16,
            "{}: manual f16 {man16} !<= auto {auto16}",
            w.name()
        );
        assert!(
            man8 <= man16,
            "{}: manual f8 {man8} !<= manual f16 {man16}",
            w.name()
        );
        assert!(auto8 < base, "{}: auto f8 {auto8} !< base {base}", w.name());
    }
}

/// The auto-vectorizer actually fires on every benchmark.
#[test]
fn auto_vectorizer_fires_everywhere() {
    for w in bench::suite() {
        let (_, compiled) = bench::build(w.as_ref(), &Precision::F16, VecMode::Auto);
        assert!(
            compiled.vectorized_loops > 0,
            "{}: nothing vectorized",
            w.name()
        );
    }
}

/// Speedup grows (weakly) with memory latency for the vectorized variants
/// (fewer memory operations → bigger win when each one costs more): the
/// paper's Figure 2 trend.
#[test]
fn latency_trend_fig2() {
    let w = bench::suite().remove(1); // GEMM
    let sp = |level| bench::speedup(w.as_ref(), &Precision::F16, VecMode::Manual, level);
    let s1 = sp(MemLevel::L1);
    let s2 = sp(MemLevel::L2);
    let s3 = sp(MemLevel::L3);
    assert!(s2 > s1 * 0.98, "L2 speedup {s2} vs L1 {s1}");
    assert!(s3 > s1 * 0.98, "L3 speedup {s3} vs L1 {s1}");
}

/// Energy: smallFloat types must save energy vs float (Figure 3 anchors are
/// calibrated in the bench crate; here only the ordering is asserted).
#[test]
fn energy_ordering() {
    let w = bench::suite().remove(1); // GEMM
    let energy = |prec: &Precision| {
        bench::run(w.as_ref(), prec, VecMode::Manual, MemLevel::L1)
            .stats
            .energy_pj
    };
    let e32 = energy(&Precision::F32);
    let e16 = energy(&Precision::F16);
    let e8 = energy(&Precision::F8);
    assert!(e16 < e32, "f16 {e16} !< f32 {e32}");
    assert!(e8 < e16, "f8 {e8} !< f16 {e16}");
}

/// The SVM mixed-precision case study (§V-C): binary16 data with a
/// binary32 accumulator keeps classification exact, while a uniform
/// binary16 typing destroys it (accumulator overflow).
#[test]
fn svm_mixed_precision_case_study() {
    let svm = Svm::new();
    let labels = svm.data().labels.clone();
    let err = |prec: &Precision, mode: VecMode| {
        let r = bench::run(&svm, prec, mode, MemLevel::L1);
        svm::error_rate(&r.arrays["scores"], &labels)
    };
    // float baseline: exact.
    assert_eq!(err(&Precision::F32, VecMode::Scalar), 0.0);
    // Uniform float16 (scalar lowering keeps the f16 accumulator): broken.
    let e16 = err(&Precision::F16, VecMode::Scalar);
    assert!(e16 > 0.3, "uniform f16 must misclassify badly, got {e16}");
    // Tuned mixed assignment: acc → binary32, rest binary16: exact again.
    let mixed = Precision::Mixed {
        default: smallfloat_isa::FpFmt::H,
        assignment: vec![("acc".to_string(), smallfloat_isa::FpFmt::S)],
    };
    for mode in [VecMode::Scalar, VecMode::Auto, VecMode::Manual] {
        let e = err(&mixed, mode);
        assert_eq!(e, 0.0, "mixed precision must be exact under {mode:?}");
    }
    // The relaxed operating point: acc → binary16alt ⇒ a few percent.
    let relaxed = Precision::Mixed {
        default: smallfloat_isa::FpFmt::H,
        assignment: vec![("acc".to_string(), smallfloat_isa::FpFmt::Ah)],
    };
    let e_relaxed = err(&relaxed, VecMode::Scalar);
    assert!(
        e_relaxed > 0.0 && e_relaxed <= 0.25,
        "relaxed accumulator should cost a few percent, got {e_relaxed}"
    );
}

/// Mixed-precision SVM speedup is comparable to uniform f16 (Figure 6).
#[test]
fn svm_mixed_speed_close_to_f16() {
    let svm = Svm::new();
    let mixed = Precision::Mixed {
        default: smallfloat_isa::FpFmt::H,
        assignment: vec![("acc".to_string(), smallfloat_isa::FpFmt::S)],
    };
    let c_mixed = bench::run(&svm, &mixed, VecMode::Manual, MemLevel::L1)
        .stats
        .cycles as f64;
    let c_16 = bench::run(&svm, &Precision::F16, VecMode::Manual, MemLevel::L1)
        .stats
        .cycles as f64;
    let ratio = c_mixed / c_16;
    assert!(
        (0.8..1.25).contains(&ratio),
        "mixed/f16 cycle ratio {ratio}"
    );
}

/// Block lowering keeps fusing the compiled code: the hottest block of
/// GEMM at binary16, auto-vectorized, dispatches at most 0.7 micro-ops
/// per retired instruction (one per instruction without fusion, less
/// the followed jumps). Fusion that silently stops matching fails here
/// rather than only running slower.
#[test]
fn hottest_gemm_block_fuses() {
    use smallfloat_isa::FpFmt;
    use smallfloat_kernels::runner::load_workload;
    use smallfloat_sim::{hot_block_report, Cpu, ExitReason, SimConfig};

    let gemm = bench::suite()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case("gemm"))
        .expect("the suite has GEMM");
    let (_, compiled) = bench::build(&*gemm, &Precision::Uniform(FpFmt::H), VecMode::Auto);
    let mut cpu = Cpu::new(SimConfig::default());
    cpu.set_block_cache(true);
    load_workload(&mut cpu, &compiled, &gemm.inputs());
    assert_eq!(cpu.run(200_000_000), Ok(ExitReason::Ecall));
    let hot = cpu.hot_blocks(1);
    let b = hot.first().expect("a block ran");
    assert!(
        10 * b.uops <= 7 * b.instrs,
        "hottest block: {} micro-ops for {} instructions\n{}",
        b.uops,
        b.instrs,
        hot_block_report(&hot, cpu.stats().instret)
    );
}
