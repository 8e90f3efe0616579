//! Tests pinning the scalar-baseline optimizations (strength reduction,
//! invariant hoisting, FMA contraction, unrolling) and the deliberate
//! asymmetry with vectorized loops — the structural heart of the paper's
//! auto-vs-manual story.

use smallfloat_isa::FpFmt;
use smallfloat_xcc::codegen::{compile, CodegenOptions};
use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Kernel, Stmt};

fn dot_kernel(elem: FpFmt, acc: FpFmt, n: usize) -> Kernel {
    let mut k = Kernel::new("dot");
    k.array("a", elem, n)
        .array("b", elem, n)
        .scalar("sum", acc, 0.0);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![Stmt::accum(
            "sum",
            Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i")),
        )],
    )];
    k
}

fn gemm_like(n: usize) -> Kernel {
    let nn = n as i64;
    let mut k = Kernel::new("gemm_like");
    k.array("a", FpFmt::S, n * n)
        .array("b", FpFmt::S, n * n)
        .array("c", FpFmt::S, n * n)
        .scalar("alpha", FpFmt::S, 1.5);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(nn),
        vec![Stmt::for_(
            "k",
            0,
            Bound::constant(nn),
            vec![Stmt::for_(
                "j",
                0,
                Bound::constant(nn),
                vec![Stmt::store(
                    "c",
                    IdxExpr::of(&[("i", nn), ("j", 1)], 0),
                    Expr::load("c", IdxExpr::of(&[("i", nn), ("j", 1)], 0))
                        + Expr::scalar("alpha")
                            * Expr::load("a", IdxExpr::of(&[("i", nn), ("k", 1)], 0))
                            * Expr::load("b", IdxExpr::of(&[("k", nn), ("j", 1)], 0)),
                )],
            )],
        )],
    )];
    k
}

#[test]
fn scalar_baseline_is_fused_and_strength_reduced() {
    let c = compile(
        &dot_kernel(FpFmt::S, FpFmt::S, 64),
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(c.listing.contains("fmadd.s"), "contraction:\n{}", c.listing);
    assert!(
        !c.listing.contains("fmul.s"),
        "no separate multiply remains"
    );
    // Induction pointers live in the SR pool (a6/a7/t4..t6) and are bumped.
    assert!(
        c.listing.contains("addi a6, a6, ") || c.listing.contains("addi a7, a7, "),
        "pointer bumping:\n{}",
        c.listing
    );
    // No per-iteration address rederivation: `slli` only appears before the
    // loop (pointer setup), not proportional to accesses.
    let slli_count = c.listing.matches("slli").count();
    assert!(
        slli_count <= 2,
        "address math must be hoisted, found {slli_count} slli"
    );
}

#[test]
fn scalar_baseline_unrolls_even_const_trips() {
    let c = compile(
        &dot_kernel(FpFmt::S, FpFmt::S, 64),
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    // 2× unrolling: two fmadds, loop variable stepped by 2.
    assert_eq!(c.listing.matches("fmadd.s").count(), 2, "{}", c.listing);
    assert!(c.listing.contains("addi s0, s0, 2"), "{}", c.listing);
}

#[test]
fn odd_trip_count_blocks_unrolling() {
    let c = compile(
        &dot_kernel(FpFmt::S, FpFmt::S, 63),
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(c.listing.matches("fmadd.s").count(), 1);
    assert!(c.listing.contains("addi s0, s0, 1"));
}

#[test]
fn triangular_bound_blocks_unrolling() {
    let mut k = Kernel::new("tri");
    k.array("c", FpFmt::S, 8 * 8).scalar("beta", FpFmt::S, 0.5);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(8),
        vec![Stmt::for_(
            "j",
            0,
            Bound::var_plus("i", 1),
            vec![Stmt::store(
                "c",
                IdxExpr::of(&[("i", 8), ("j", 1)], 0),
                Expr::load("c", IdxExpr::of(&[("i", 8), ("j", 1)], 0)) * Expr::scalar("beta"),
            )],
        )],
    )];
    let c = compile(
        &k,
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        c.listing.contains("addi s1, s1, 1"),
        "variable bound steps by 1:\n{}",
        c.listing
    );
}

#[test]
fn invariant_subexpression_hoisted_out_of_inner_loop() {
    let c = compile(
        &gemm_like(8),
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    // alpha * a[i*n+k] is invariant in j: exactly one flw of `a` per k
    // iteration, loaded into a hoist register (f30/f31), and the inner loop
    // carries a single fused multiply-add per element copy.
    assert!(
        c.listing.contains("ft10") || c.listing.contains("ft11"),
        "hoist registers in use:\n{}",
        c.listing
    );
}

#[test]
fn vector_loop_keeps_conversion_chain_only_for_wide_acc() {
    // Wide accumulator: conversions present (the paper's auto inefficiency).
    let wide = compile(
        &dot_kernel(FpFmt::H, FpFmt::S, 64),
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(wide.listing.contains("fcvt.s.h"), "{}", wide.listing);
    assert!(wide.listing.contains("srli"), "lane extraction");
    // Same-type accumulator: fused vfmac, no conversions in the main loop.
    let same = compile(
        &dot_kernel(FpFmt::H, FpFmt::H, 64),
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(same.listing.contains("vfmac.h"), "{}", same.listing);
    assert!(!same.listing.contains("fcvt.s.h"), "{}", same.listing);
}

#[test]
fn expanding_option_replaces_conversion_chain_with_vfsdotpex() {
    let opts = CodegenOptions {
        vectorize: true,
        expanding: true,
    };
    // 16-bit elements: the dot product sums straight into the binary32
    // home, so no lane extraction remains anywhere in the listing.
    let wide = compile(&dot_kernel(FpFmt::H, FpFmt::S, 64), opts).unwrap();
    assert!(wide.listing.contains("vfsdotpex.s.h"), "{}", wide.listing);
    assert!(
        !wide.listing.contains("srli"),
        "no lane extraction:\n{}",
        wide.listing
    );
    // 8-bit elements widen into a packed binary16 vacc drained after the
    // loop — the drain still extracts, but only once per kernel.
    for (elem, mnem) in [(FpFmt::B, "vfsdotpex.h.b "), (FpFmt::Ab, "vfsdotpex.h.ab ")] {
        let c = compile(&dot_kernel(elem, FpFmt::S, 64), opts).unwrap();
        assert!(c.listing.contains(mnem), "{elem:?}:\n{}", c.listing);
        assert!(c.listing.contains("srli"), "vacc drain:\n{}", c.listing);
    }
    // Same-type reductions are untouched by the option.
    let same = compile(&dot_kernel(FpFmt::H, FpFmt::H, 64), opts).unwrap();
    assert!(same.listing.contains("vfmac.h"), "{}", same.listing);
    assert!(!same.listing.contains("vfsdotpex"), "{}", same.listing);
}

#[test]
fn vectorized_main_loop_also_uses_induction_pointers() {
    let c = compile(
        &dot_kernel(FpFmt::H, FpFmt::H, 64),
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Packed accesses bump by 4 bytes per vector iteration.
    assert!(
        c.listing.contains("addi a6, a6, 4"),
        "vector loop pointer bumping:\n{}",
        c.listing
    );
}

#[test]
fn epilogue_reuses_pointers_at_element_stride() {
    let c = compile(
        &dot_kernel(FpFmt::H, FpFmt::H, 63),
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Odd trip: the epilogue steps pointers by the 2-byte element size.
    assert!(
        c.listing.contains("addi a6, a6, 2"),
        "epilogue element-stride bumps:\n{}",
        c.listing
    );
}

#[test]
fn unrolled_scalar_matches_interpreter() {
    // End-to-end guard: unrolling must not change results.
    use smallfloat_sim::{Cpu, ExitReason, SimConfig};
    use smallfloat_softfp::ops;
    use smallfloat_xcc::interp::{run_typed, TypedState};

    let k = dot_kernel(FpFmt::H, FpFmt::S, 64);
    let data_a: Vec<f64> = (0..64).map(|i| (i as f64) * 0.125 - 4.0).collect();
    let data_b: Vec<f64> = (0..64).map(|i| 2.0 - (i as f64) * 0.0625).collect();
    let mut st = TypedState::for_kernel(&k);
    st.set_array("a", &data_a);
    st.set_array("b", &data_b);
    run_typed(&k, &mut st);

    let compiled = compile(
        &k,
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    let mut cpu = Cpu::new(SimConfig::default());
    let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
    for (name, data) in [("a", &data_a), ("b", &data_b)] {
        let entry = compiled.layout.entry(name).unwrap();
        for (i, v) in data.iter().enumerate() {
            let bits = ops::from_f64(FpFmt::H.format(), *v, &mut env) as u16;
            cpu.write_data(entry.addr + 2 * i as u32, &bits.to_le_bytes());
        }
    }
    cpu.load_program(smallfloat_xcc::codegen::TEXT_BASE, &compiled.program);
    assert_eq!(cpu.run(100_000).unwrap(), ExitReason::Ecall);
    let (_, reg) = compiled
        .scalar_regs
        .iter()
        .find(|(n, _)| n == "sum")
        .unwrap()
        .clone();
    let got = f32::from_bits(cpu.freg(reg)) as f64;
    assert_eq!(
        got,
        st.scalar_f64("sum"),
        "unrolled scalar code is bit-exact"
    );
}
