//! Differential tests: generated machine code executed on the simulator
//! must agree with the IR interpreters.
//!
//! * Scalar lowering: bit-exact against the typed interpreter.
//! * Vectorized maps: bit-exact (no reassociation happens).
//! * Vectorized reductions: compared against the f64 golden interpreter
//!   within a type-appropriate tolerance (vectorization reassociates sums,
//!   exactly as the paper's compiler does).

use smallfloat_isa::FpFmt;
use smallfloat_sim::{Cpu, ExitReason, SimConfig};
use smallfloat_softfp::ops;
use smallfloat_xcc::codegen::{self, CodegenOptions};
use smallfloat_xcc::interp::{run_f64, run_typed, F64State, TypedState};
use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Kernel, Stmt};

/// Array contents (as f64) and scalar register values after a run.
type SimOutputs = (Vec<(String, Vec<f64>)>, Vec<(String, f64)>);

/// Run a compiled kernel on the simulator with the given f64 inputs,
/// returning each array's contents (as f64) and scalar register values.
fn run_on_sim(
    kernel: &Kernel,
    compiled: &codegen::Compiled,
    inputs: &[(&str, Vec<f64>)],
) -> SimOutputs {
    let mut cpu = Cpu::new(SimConfig::default());
    // Write inputs converted to each array's storage type.
    for (name, values) in inputs {
        let entry = compiled.layout.entry(name).expect("declared array");
        let bytes = entry.ty.width() / 8;
        let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
        for (i, v) in values.iter().enumerate() {
            let bits = ops::from_f64(entry.ty.format(), *v, &mut env);
            let addr = entry.addr + (i as u32) * bytes;
            let le = (bits as u32).to_le_bytes();
            cpu.mem_mut().write_bytes(addr, &le[..bytes as usize]);
        }
    }
    cpu.load_program(codegen::TEXT_BASE, &compiled.program);
    assert_eq!(
        cpu.run(50_000_000).unwrap(),
        ExitReason::Ecall,
        "kernel must exit via ecall"
    );
    let mut arrays = Vec::new();
    for entry in &compiled.layout.entries {
        let bytes = entry.ty.width() / 8;
        let mut vals = Vec::with_capacity(entry.len);
        for i in 0..entry.len {
            let addr = entry.addr + (i as u32) * bytes;
            let raw = cpu.mem().load(addr, bytes).unwrap() as u64;
            vals.push(ops::to_f64(entry.ty.format(), raw));
        }
        arrays.push((entry.name.clone(), vals));
    }
    let mut scalars = Vec::new();
    for (name, reg) in &compiled.scalar_regs {
        let ty = kernel.type_of(name).unwrap();
        let raw = cpu.freg(*reg) as u64 & ty.format().mask();
        scalars.push((name.clone(), ops::to_f64(ty.format(), raw)));
    }
    (arrays, scalars)
}

fn interp_typed(kernel: &Kernel, inputs: &[(&str, Vec<f64>)]) -> TypedState {
    let mut st = TypedState::for_kernel(kernel);
    for (name, values) in inputs {
        st.set_array(name, values);
    }
    run_typed(kernel, &mut st);
    st
}

fn data(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic values in a benign range.
    (0..n)
        .map(|i| {
            let x = ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f64;
            (x - 500.0) / 128.0
        })
        .collect()
}

fn saxpy(ty: FpFmt, n: usize) -> Kernel {
    let mut k = Kernel::new("saxpy");
    k.array("x", ty, n)
        .array("y", ty, n)
        .scalar("alpha", ty, 1.5);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![Stmt::store(
            "y",
            IdxExpr::var("i"),
            Expr::scalar("alpha") * Expr::load("x", IdxExpr::var("i"))
                + Expr::load("y", IdxExpr::var("i")),
        )],
    )];
    k
}

fn dot(elem: FpFmt, acc: FpFmt, n: usize) -> Kernel {
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

#[test]
fn scalar_codegen_bit_exact_all_formats() {
    for ty in [FpFmt::S, FpFmt::H, FpFmt::Ah, FpFmt::B] {
        let n = 17;
        let k = saxpy(ty, n);
        let inputs = vec![("x", data(n, 1)), ("y", data(n, 2))];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (arrays, _) = run_on_sim(&k, &compiled, &inputs);
        let st = interp_typed(&k, &inputs);
        let y_sim = &arrays.iter().find(|(n, _)| n == "y").unwrap().1;
        let y_ref = st.array_f64("y");
        assert_eq!(y_sim, &y_ref, "fmt {ty:?} scalar codegen must be bit-exact");
    }
}

#[test]
fn vectorized_map_bit_exact() {
    for ty in [FpFmt::H, FpFmt::Ah, FpFmt::B] {
        let n = 19; // odd: exercises the epilogue
        let k = saxpy(ty, n);
        let inputs = vec![("x", data(n, 3)), ("y", data(n, 4))];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(compiled.vectorized_loops, 1, "{ty:?}");
        let (arrays, _) = run_on_sim(&k, &compiled, &inputs);
        let st = interp_typed(&k, &inputs);
        let y_sim = &arrays.iter().find(|(n, _)| n == "y").unwrap().1;
        let y_ref = st.array_f64("y");
        assert_eq!(y_sim, &y_ref, "fmt {ty:?} vectorized map must be bit-exact");
    }
}

#[test]
fn vectorized_reduction_close_to_golden() {
    for (elem, acc, tol) in [
        (FpFmt::H, FpFmt::S, 1e-2),
        (FpFmt::H, FpFmt::H, 5e-2),
        (FpFmt::B, FpFmt::S, 0.5),
    ] {
        let n = 21;
        let k = dot(elem, acc, n);
        let inputs = vec![("a", data(n, 5)), ("b", data(n, 6))];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(compiled.vectorized_loops, 1);
        let (_, scalars) = run_on_sim(&k, &compiled, &inputs);
        let sum_sim = scalars.iter().find(|(n, _)| n == "sum").unwrap().1;
        // Golden f64, with inputs quantized to the element type first.
        let mut fs = F64State::for_kernel(&k);
        let st_in = interp_typed(&dot(elem, acc, 0), &[]); // unused, just types
        drop(st_in);
        let quant = |v: &Vec<f64>| -> Vec<f64> {
            let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
            v.iter()
                .map(|x| ops::to_f64(elem.format(), ops::from_f64(elem.format(), *x, &mut env)))
                .collect()
        };
        fs.set_array("a", &quant(&inputs[0].1));
        fs.set_array("b", &quant(&inputs[1].1));
        run_f64(&k, &mut fs);
        let golden = fs.scalar("sum");
        let rel = (sum_sim - golden).abs() / golden.abs().max(1.0);
        assert!(
            rel < tol,
            "elem {elem:?} acc {acc:?}: sim {sum_sim} vs golden {golden}"
        );
    }
}

#[test]
fn expanding_reduction_close_to_golden() {
    // Same harness as above, but the widening reductions lower through
    // `vfsdotpex` instead of the extract/convert chain.
    for (elem, acc, tol) in [
        (FpFmt::H, FpFmt::S, 1e-2),
        (FpFmt::Ah, FpFmt::S, 1e-2),
        (FpFmt::B, FpFmt::S, 0.5),
        (FpFmt::Ab, FpFmt::S, 0.5),
    ] {
        let n = 21; // not a lane multiple: exercises the scalar epilogue
        let k = dot(elem, acc, n);
        let inputs = vec![("a", data(n, 5)), ("b", data(n, 6))];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                expanding: true,
            },
        )
        .unwrap();
        assert_eq!(compiled.vectorized_loops, 1, "{elem:?}");
        assert!(
            compiled.listing.contains("vfsdotpex"),
            "{elem:?}:\n{}",
            compiled.listing
        );
        let (_, scalars) = run_on_sim(&k, &compiled, &inputs);
        let sum_sim = scalars.iter().find(|(n, _)| n == "sum").unwrap().1;
        let mut fs = F64State::for_kernel(&k);
        let quant = |v: &Vec<f64>| -> Vec<f64> {
            let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
            v.iter()
                .map(|x| ops::to_f64(elem.format(), ops::from_f64(elem.format(), *x, &mut env)))
                .collect()
        };
        fs.set_array("a", &quant(&inputs[0].1));
        fs.set_array("b", &quant(&inputs[1].1));
        run_f64(&k, &mut fs);
        let golden = fs.scalar("sum");
        let rel = (sum_sim - golden).abs() / golden.abs().max(1.0);
        assert!(
            rel < tol,
            "elem {elem:?} acc {acc:?}: sim {sum_sim} vs golden {golden}"
        );
    }
}

#[test]
fn scalar_reduction_bit_exact() {
    // Without vectorization the reduction order matches the interpreter.
    let n = 13;
    let k = dot(FpFmt::H, FpFmt::S, n);
    let inputs = vec![("a", data(n, 7)), ("b", data(n, 8))];
    let compiled = codegen::compile(
        &k,
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap();
    let (_, scalars) = run_on_sim(&k, &compiled, &inputs);
    let st = interp_typed(&k, &inputs);
    let sum = scalars.iter().find(|(n, _)| n == "sum").unwrap().1;
    assert_eq!(sum, st.scalar_f64("sum"));
}

#[test]
fn triangular_vectorized_loop_matches() {
    // C[i*n+j] *= beta for j <= i: variable epilogue length per row.
    let n = 8usize;
    let mut k = Kernel::new("tri_scale");
    k.array("c", FpFmt::H, n * n).scalar("beta", FpFmt::H, 0.5);
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![Stmt::for_(
            "j",
            0,
            Bound::var_plus("i", 1),
            vec![Stmt::store(
                "c",
                IdxExpr::of(&[("i", n as i64), ("j", 1)], 0),
                Expr::load("c", IdxExpr::of(&[("i", n as i64), ("j", 1)], 0))
                    * Expr::scalar("beta"),
            )],
        )],
    )];
    let inputs = vec![("c", data(n * n, 9))];
    let compiled = codegen::compile(
        &k,
        CodegenOptions {
            vectorize: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(
        compiled.vectorized_loops, 1,
        "triangular map must vectorize"
    );
    let (arrays, _) = run_on_sim(&k, &compiled, &inputs);
    let st = interp_typed(&k, &inputs);
    assert_eq!(
        arrays[0].1,
        st.array_f64("c"),
        "bit-exact despite variable epilogue"
    );
}

#[test]
fn stencil_with_offsets_matches() {
    // 1D 3-point stencil with offsets ±4 (multiples of lanes for H and B).
    for ty in [FpFmt::H, FpFmt::B] {
        let n = 32usize;
        let mut k = Kernel::new("stencil");
        k.array("src", ty, n).array("dst", ty, n);
        k.body = vec![Stmt::for_(
            "i",
            4,
            Bound::constant(n as i64 - 4),
            vec![Stmt::store(
                "dst",
                IdxExpr::var("i"),
                (Expr::load("src", IdxExpr::of(&[("i", 1)], -4))
                    + Expr::load("src", IdxExpr::of(&[("i", 1)], 4)))
                    * Expr::lit(0.5),
            )],
        )];
        let inputs = vec![("src", data(n, 10)), ("dst", vec![0.0; n])];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(compiled.vectorized_loops, 1, "{ty:?}");
        let (arrays, _) = run_on_sim(&k, &compiled, &inputs);
        let st = interp_typed(&k, &inputs);
        let dst_sim = &arrays.iter().find(|(n, _)| n == "dst").unwrap().1;
        assert_eq!(dst_sim, &st.array_f64("dst"), "{ty:?}");
    }
}

#[test]
fn gate_scalar_bit_exact_all_formats() {
    // dx[i] = gate(x[i], dy[i]) — the backward-pass subgradient router —
    // must agree bit-for-bit between the typed interpreter and the
    // simulator at every format (it never vectorizes, so the scalar
    // lowering is the only lowering).
    for ty in [FpFmt::S, FpFmt::H, FpFmt::Ah, FpFmt::B, FpFmt::Ab] {
        let n = 17;
        let mut k = Kernel::new("relu_bwd");
        k.array("x", ty, n).array("dy", ty, n).array("dx", ty, n);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(n as i64),
            vec![Stmt::store(
                "dx",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")).gate(Expr::load("dy", IdxExpr::var("i"))),
            )],
        )];
        let inputs = vec![("x", data(n, 21)), ("dy", data(n, 22))];
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                expanding: true,
            },
        )
        .unwrap();
        assert_eq!(compiled.vectorized_loops, 0, "gate loops stay scalar");
        let (arrays, _) = run_on_sim(&k, &compiled, &inputs);
        let st = interp_typed(&k, &inputs);
        let dx_sim = &arrays.iter().find(|(n, _)| n == "dx").unwrap().1;
        assert_eq!(dx_sim, &st.array_f64("dx"), "fmt {ty:?}");
    }
}

#[test]
fn vectorization_reduces_cycles() {
    // The point of the paper: same kernel, fewer cycles with SIMD.
    let n = 256;
    let k = saxpy(FpFmt::H, n);
    let inputs = vec![("x", data(n, 11)), ("y", data(n, 12))];
    let mut cycles = Vec::new();
    for vectorize in [false, true] {
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize,
                ..Default::default()
            },
        )
        .unwrap();
        let mut cpu = Cpu::new(SimConfig::default());
        for (name, values) in &inputs {
            let entry = compiled.layout.entry(name).unwrap();
            let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
            for (i, v) in values.iter().enumerate() {
                let bits = ops::from_f64(entry.ty.format(), *v, &mut env) as u32;
                cpu.mem_mut()
                    .write_bytes(entry.addr + 2 * i as u32, &(bits as u16).to_le_bytes());
            }
        }
        cpu.load_program(codegen::TEXT_BASE, &compiled.program);
        cpu.run(10_000_000).unwrap();
        cycles.push(cpu.stats().cycles);
    }
    assert!(
        cycles[1] < cycles[0],
        "vectorized ({}) must beat scalar ({})",
        cycles[1],
        cycles[0]
    );
}

// ---------------------------------------------------------------------------
// Typed-interpreter regressions: each pins one decision the interpreter
// resolves ahead of execution (loop-variable slots, literal typing, fma
// contraction, conversions) bit for bit against the scalar lowering.
// ---------------------------------------------------------------------------

const ALL_FMTS: [FpFmt; 5] = [FpFmt::S, FpFmt::Ah, FpFmt::H, FpFmt::B, FpFmt::Ab];

fn scalar_compile(k: &Kernel) -> codegen::Compiled {
    codegen::compile(
        k,
        CodegenOptions {
            vectorize: false,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Bit-for-bit equality (NaN-safe), with the failing element named.
fn assert_bits_eq(sim: &[f64], interp: &[f64], what: &str) {
    assert_eq!(sim.len(), interp.len(), "{what}: length");
    for (i, (s, t)) in sim.iter().zip(interp).enumerate() {
        assert_eq!(
            s.to_bits(),
            t.to_bits(),
            "{what}[{i}]: simulator {s:e} vs typed interpreter {t:e}"
        );
    }
}

/// Run `k` on the scalar lowering and the typed interpreter and compare
/// every array and scalar bit for bit.
fn assert_scalar_lowering_matches(k: &Kernel, inputs: &[(&str, Vec<f64>)], what: &str) {
    let compiled = scalar_compile(k);
    let (arrays, scalars) = run_on_sim(k, &compiled, inputs);
    let st = interp_typed(k, inputs);
    for (name, vals) in &arrays {
        assert_bits_eq(vals, &st.array_f64(name), &format!("{what} `{name}`"));
    }
    for (name, v) in &scalars {
        assert_bits_eq(&[*v], &[st.scalar_f64(name)], &format!("{what} `{name}`"));
    }
}

#[test]
fn typed_triangular_var_plus_bound_bit_exact() {
    // l[i*n+j] = l[i*n+j]*d[j] + r[i] for j < i+1, and a running scalar
    // sum over the same triangle: the inner bound reads the outer loop
    // variable's slot on every outer iteration.
    let n = 9usize;
    for ty in ALL_FMTS {
        let mut k = Kernel::new("tri");
        k.array("l", ty, n * n)
            .array("d", ty, n)
            .array("r", ty, n)
            .scalar("s", FpFmt::S, 0.0);
        let lij = || Expr::load("l", IdxExpr::of(&[("i", n as i64), ("j", 1)], 0));
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(n as i64),
            vec![Stmt::for_(
                "j",
                0,
                Bound::var_plus("i", 1),
                vec![
                    Stmt::store(
                        "l",
                        IdxExpr::of(&[("i", n as i64), ("j", 1)], 0),
                        lij() * Expr::load("d", IdxExpr::var("j"))
                            + Expr::load("r", IdxExpr::var("i")),
                    ),
                    Stmt::accum("s", lij()),
                ],
            )],
        )];
        let inputs = vec![
            ("l", data(n * n, 31)),
            ("d", data(n, 32)),
            ("r", data(n, 33)),
        ];
        assert_scalar_lowering_matches(&k, &inputs, &format!("tri {ty:?}"));
    }
}

#[test]
fn typed_gate_and_max_with_nan_and_negative_zero_bit_exact() {
    // Every pairing of NaN, ±0, ±inf and ordinary values through gate
    // (fle-based: NaN gates to zero, -0 passes) and maxNum.
    let specials = [
        f64::NAN,
        -0.0,
        0.0,
        -1.5,
        2.25,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let (x, dy): (Vec<f64>, Vec<f64>) = specials
        .iter()
        .flat_map(|a| specials.iter().map(move |b| (*a, *b)))
        .unzip();
    let n = x.len();
    for ty in ALL_FMTS {
        let mut k = Kernel::new("gate_max");
        k.array("x", ty, n)
            .array("dy", ty, n)
            .array("dx", ty, n)
            .array("m", ty, n)
            .array("relu", ty, n);
        let at = |a: &str| Expr::load(a, IdxExpr::var("i"));
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(n as i64),
            vec![
                Stmt::store("dx", IdxExpr::var("i"), at("x").gate(at("dy"))),
                Stmt::store("m", IdxExpr::var("i"), at("x").max(at("dy"))),
                Stmt::store("relu", IdxExpr::var("i"), at("x").max(Expr::lit(0.0))),
            ],
        )];
        let inputs = vec![("x", x.clone()), ("dy", dy.clone())];
        assert_scalar_lowering_matches(&k, &inputs, &format!("gate/max {ty:?}"));
    }
}

#[test]
fn typed_constants_on_either_side_of_mixed_type_bin_bit_exact() {
    // A literal takes its sibling's type — binary16 on one side, binary32
    // on the other — before the mixed binary16 × binary32 operation
    // promotes; a lone literal is binary32 and then converts on store.
    let n = 11usize;
    let mut k = Kernel::new("consts");
    k.array("a", FpFmt::H, n)
        .array("b", FpFmt::S, n)
        .array("c", FpFmt::B, n)
        .array("y", FpFmt::H, n)
        .array("z", FpFmt::Ah, n)
        .array("w", FpFmt::B, n);
    let at = |a: &str| Expr::load(a, IdxExpr::var("i"));
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![
            // (0.1 ⊕_H a) ⊗_S b: literal left, rounded at binary16.
            Stmt::store("y", IdxExpr::var("i"), (Expr::lit(0.1) + at("a")) * at("b")),
            // b ⊗_S (c ⊖_B 0.3): literal right, rounded at binary8.
            Stmt::store("z", IdxExpr::var("i"), at("b") / (at("c") - Expr::lit(0.3))),
            // (a ⊗ 1/3) ⊕ (1/7 ⊗ c), and a lone literal sum stored to b8.
            Stmt::store(
                "w",
                IdxExpr::var("i"),
                at("a") * Expr::lit(1.0 / 3.0) + Expr::lit(1.0 / 7.0) * at("c"),
            ),
            Stmt::store("c", IdxExpr::var("i"), Expr::lit(0.1) + Expr::lit(0.2)),
        ],
    )];
    let inputs = vec![("a", data(n, 41)), ("b", data(n, 42)), ("c", data(n, 43))];
    assert_scalar_lowering_matches(&k, &inputs, "constants");
}

#[test]
fn typed_fma_contraction_taken_and_refused_across_precision_boundary() {
    // h (binary16) += a*b contracts to fmadd.h; acc (binary32) += a*b
    // crosses the precision boundary and must stay a binary16 multiply
    // followed by a binary32 add.
    let n = 23usize;
    let mut k = Kernel::new("fma");
    k.array("a", FpFmt::H, n)
        .array("b", FpFmt::H, n)
        .scalar("h", FpFmt::H, 0.0)
        .scalar("acc", FpFmt::S, 0.0);
    let prod = || Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i"));
    k.body = vec![Stmt::for_(
        "i",
        0,
        Bound::constant(n as i64),
        vec![Stmt::accum("h", prod()), Stmt::accum("acc", prod())],
    )];
    let compiled = scalar_compile(&k);
    assert!(compiled.listing.contains("fmadd.h"), "same-type sum fuses");
    assert!(
        !compiled.listing.contains("fmadd.s"),
        "boundary stays unfused"
    );
    // Products with more significant bits than binary16 keeps, of
    // alternating sign so the running sum stays small and its rounding
    // sees the product's low bits.
    let a: Vec<f64> = (0..n).map(|i| 1.0 + 0.0137 * i as f64).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| (1.3 - 0.0291 * i as f64) * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let inputs = vec![("a", a.clone()), ("b", b.clone())];
    assert_scalar_lowering_matches(&k, &inputs, "fma");

    // The data is rounding-sensitive: the interpreter's fused binary16
    // sum differs from the unfused one, and its binary32 sum matches the
    // unfused binary16-product chain exactly.
    let (f16, f32) = (FpFmt::H.format(), FpFmt::S.format());
    let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
    let (mut unfused_h, mut chain_s) = (0u64, 0u64);
    for (x, y) in a.iter().zip(&b) {
        let (x, y) = (
            ops::from_f64(f16, *x, &mut env),
            ops::from_f64(f16, *y, &mut env),
        );
        let p = ops::mul(f16, x, y, &mut env);
        unfused_h = ops::add(f16, unfused_h, p, &mut env);
        let p32 = ops::cvt_f_f(f32, f16, p, &mut env);
        chain_s = ops::add(f32, chain_s, p32, &mut env);
    }
    let st = interp_typed(&k, &inputs);
    assert_ne!(st.scalar_f64("h"), ops::to_f64(f16, unfused_h), "h fused");
    assert_eq!(
        st.scalar_f64("acc"),
        ops::to_f64(f32, chain_s),
        "acc unfused"
    );
}

#[test]
fn typed_set_scalar_reductions_bit_exact() {
    // SetScalar reductions at every format: a running maxNum, a
    // literal-scaled recurrence (t = t*0.5 + x, contracted at t's type),
    // a widening sum into binary32, and a recurrence computed at
    // binary32 and narrowed back into its own type on every assignment.
    let n = 19usize;
    for ty in ALL_FMTS {
        let mut k = Kernel::new("reduce");
        k.array("x", ty, n)
            .scalar("mx", ty, -1000.0)
            .scalar("t", ty, 0.25)
            .scalar("wide", FpFmt::S, 0.0)
            .scalar("narrow", ty, 0.1);
        let x = || Expr::load("x", IdxExpr::var("i"));
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(n as i64),
            vec![
                Stmt::set("mx", Expr::scalar("mx").max(x())),
                Stmt::set("t", Expr::scalar("t") * Expr::lit(0.5) + x()),
                Stmt::accum("wide", x() * x()),
                Stmt::set(
                    "narrow",
                    Expr::scalar("narrow") + Expr::scalar("wide") * Expr::lit(0.001),
                ),
            ],
        )];
        let inputs = vec![("x", data(n, 61))];
        assert_scalar_lowering_matches(&k, &inputs, &format!("reduce {ty:?}"));
    }
}
