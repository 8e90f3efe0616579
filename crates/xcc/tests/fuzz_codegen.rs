//! Property-based differential fuzzing of the whole compile→simulate
//! pipeline: random kernels (loop nests over random affine accesses with
//! random storage types) must behave identically under the typed
//! interpreter and the simulator, for both the scalar and the vectorized
//! lowering.
//!
//! Random shapes come from the seeded generator in `smallfloat-devtools`;
//! failing cases replay from the seed the runner prints.

use smallfloat_devtools::{prop, Rng};
use smallfloat_isa::FpFmt;
use smallfloat_sim::{Cpu, ExitReason, SimConfig};
use smallfloat_softfp::ops;
use smallfloat_xcc::codegen::{self, CodegenOptions};
use smallfloat_xcc::interp::{run_typed, TypedState};
use smallfloat_xcc::ir::{Bound, Expr, IdxExpr, Kernel, Stmt};

const N: usize = 12; // 1-D array length
const ROWS: usize = 4; // 2-D arrays are ROWS × N

#[derive(Clone, Debug)]
enum Shape {
    /// dst[i] = f(a[i], b[i], scalar) over a 1-D loop.
    Map1d { offset_a: i64, op1: u8, op2: u8 },
    /// dst[r*N + i] over a 2-D nest (outer row, inner unit-stride).
    Map2d { op1: u8 },
    /// acc += a[i] ⊙ b[i] reduction, accumulator type varies.
    Reduce { acc_ty: FpFmt, fuse_mul: bool },
    /// Triangular inner bound (j <= r).
    Triangular,
}

fn any_shape(rng: &mut Rng) -> Shape {
    match rng.below(4) {
        0 => Shape::Map1d {
            offset_a: rng.range_i64(-4, 5) * 4,
            op1: rng.below(4) as u8,
            op2: rng.below(3) as u8,
        },
        1 => Shape::Map2d {
            op1: rng.below(4) as u8,
        },
        2 => Shape::Reduce {
            acc_ty: rng.pick(&[FpFmt::S, FpFmt::H, FpFmt::Ah, FpFmt::B]),
            fuse_mul: rng.bool(),
        },
        _ => Shape::Triangular,
    }
}

fn any_ty(rng: &mut Rng) -> FpFmt {
    rng.pick(&[FpFmt::S, FpFmt::H, FpFmt::Ah, FpFmt::B])
}

fn bin(op: u8, a: Expr, b: Expr) -> Expr {
    match op % 4 {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        _ => a * b + Expr::lit(0.5),
    }
}

fn build_kernel(shape: &Shape, ty: FpFmt) -> Kernel {
    let mut k = Kernel::new("fuzz");
    match shape {
        Shape::Map1d { offset_a, op1, op2 } => {
            k.array("a", ty, N + 40)
                .array("b", ty, N)
                .array("dst", ty, N);
            k.scalar("s", ty, 1.5);
            // a is accessed at i + offset_a + 20 to keep indices positive.
            let a = Expr::load("a", IdxExpr::of(&[("i", 1)], offset_a + 20));
            let b = Expr::load("b", IdxExpr::var("i"));
            let e = bin(*op2, bin(*op1, a, b), Expr::scalar("s"));
            k.body = vec![Stmt::for_(
                "i",
                0,
                Bound::constant(N as i64),
                vec![Stmt::store("dst", IdxExpr::var("i"), e)],
            )];
        }
        Shape::Map2d { op1 } => {
            k.array("a", ty, ROWS * N).array("dst", ty, ROWS * N);
            let idx = IdxExpr::of(&[("r", N as i64), ("i", 1)], 0);
            let e = bin(
                *op1,
                Expr::load("a", idx.clone()),
                Expr::load("dst", idx.clone()),
            );
            k.body = vec![Stmt::for_(
                "r",
                0,
                Bound::constant(ROWS as i64),
                vec![Stmt::for_(
                    "i",
                    0,
                    Bound::constant(N as i64),
                    vec![Stmt::store("dst", idx.clone(), e)],
                )],
            )];
        }
        Shape::Reduce { acc_ty, fuse_mul } => {
            k.array("a", ty, N)
                .array("b", ty, N)
                .array("dst", *acc_ty, 1);
            k.scalar("acc", *acc_ty, 0.25);
            let a = Expr::load("a", IdxExpr::var("i"));
            let b = Expr::load("b", IdxExpr::var("i"));
            let term = if *fuse_mul { a * b } else { a + b };
            k.body = vec![
                Stmt::for_(
                    "i",
                    0,
                    Bound::constant(N as i64),
                    vec![Stmt::accum("acc", term)],
                ),
                Stmt::store("dst", IdxExpr::constant(0), Expr::scalar("acc")),
            ];
        }
        Shape::Triangular => {
            k.array("dst", ty, ROWS * N).scalar("s", ty, 0.5);
            let idx = IdxExpr::of(&[("r", N as i64), ("i", 1)], 0);
            k.body = vec![Stmt::for_(
                "r",
                0,
                Bound::constant(ROWS as i64),
                vec![Stmt::for_(
                    "i",
                    0,
                    Bound::var_plus("r", 1),
                    vec![Stmt::store(
                        "dst",
                        idx.clone(),
                        Expr::load("dst", idx.clone()) * Expr::scalar("s"),
                    )],
                )],
            )];
        }
    }
    k
}

fn input_data(len: usize, seed: u64) -> Vec<f64> {
    let mut st = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            ((st >> 12) % 64) as f64 / 8.0 - 3.5
        })
        .collect()
}

fn run_on_sim(kernel: &Kernel, compiled: &codegen::Compiled, seed: u64) -> TypedState {
    // Fill both the interpreter state and simulator memory with identical
    // quantized inputs, then run the simulator and copy results back into
    // a fresh TypedState-like readback (we compare array_f64 values).
    let mut cpu = Cpu::new(SimConfig::default());
    let mut st = TypedState::for_kernel(kernel);
    for (i, a) in kernel.arrays.iter().enumerate() {
        let data = input_data(a.len, seed.wrapping_add(i as u64));
        st.set_array(&a.name, &data);
        let entry = compiled.layout.entry(&a.name).expect("laid out");
        let bytes = a.ty.width() / 8;
        let mut env = smallfloat_softfp::Env::new(smallfloat_softfp::Rounding::Rne);
        for (j, v) in data.iter().enumerate() {
            let bits = ops::from_f64(a.ty.format(), *v, &mut env) as u32;
            let le = bits.to_le_bytes();
            cpu.write_data(entry.addr + (j as u32) * bytes, &le[..bytes as usize]);
        }
    }
    cpu.load_program(codegen::TEXT_BASE, &compiled.program);
    assert_eq!(cpu.run(5_000_000).expect("no trap"), ExitReason::Ecall);
    // Read arrays back into a parallel state for comparison.
    let mut out = TypedState::for_kernel(kernel);
    for a in &kernel.arrays {
        let entry = compiled.layout.entry(&a.name).expect("laid out");
        let bytes = a.ty.width() / 8;
        let vals: Vec<f64> = (0..a.len)
            .map(|j| {
                let raw = cpu
                    .mem()
                    .load(entry.addr + (j as u32) * bytes, bytes)
                    .expect("ok");
                ops::to_f64(a.ty.format(), raw as u64)
            })
            .collect();
        out.set_array(&a.name, &vals);
    }
    out
}

/// Scalar lowering is bit-exact against the typed interpreter for
/// random kernels, types and data.
#[test]
fn scalar_lowering_bit_exact() {
    prop::cases("scalar_lowering_bit_exact", 160, |rng| {
        let shape = any_shape(rng);
        let ty = any_ty(rng);
        let seed = rng.u64();
        let k = build_kernel(&shape, ty);
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: false,
                ..Default::default()
            },
        )
        .expect("compiles");
        let sim = run_on_sim(&k, &compiled, seed);
        let mut interp = TypedState::for_kernel(&k);
        for (i, a) in k.arrays.iter().enumerate() {
            interp.set_array(&a.name, &input_data(a.len, seed.wrapping_add(i as u64)));
        }
        run_typed(&k, &mut interp);
        for a in &k.arrays {
            let got = sim.array_f64(&a.name);
            let want = interp.array_f64(&a.name);
            // NaN-tolerant elementwise equality.
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let eq = (g == w) || (g.is_nan() && w.is_nan());
                assert!(
                    eq,
                    "{}[{}]: sim {} vs interp {} ({shape:?} {ty:?})",
                    a.name, i, g, w
                );
            }
        }
    });
}

/// Vectorized maps are also bit-exact; vectorized reductions match the
/// interpreter within a reassociation tolerance.
#[test]
fn vectorized_lowering_matches() {
    prop::cases("vectorized_lowering_matches", 160, |rng| {
        let shape = any_shape(rng);
        let ty = any_ty(rng);
        let seed = rng.u64();
        let k = build_kernel(&shape, ty);
        let compiled = codegen::compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .expect("compiles");
        let sim = run_on_sim(&k, &compiled, seed);
        let mut interp = TypedState::for_kernel(&k);
        for (i, a) in k.arrays.iter().enumerate() {
            interp.set_array(&a.name, &input_data(a.len, seed.wrapping_add(i as u64)));
        }
        run_typed(&k, &mut interp);
        let is_reduction = matches!(shape, Shape::Reduce { .. });
        // Reassociation error of a reduction scales with the *terms*, not
        // the (possibly cancelling) result: bound it by the sum of absolute
        // term magnitudes times a per-step relative error of the format.
        let term_budget: f64 = if is_reduction {
            let qa = interp.array_f64("a");
            let qb = interp.array_f64("b");
            let sum_abs: f64 = qa
                .iter()
                .zip(&qb)
                .map(|(x, y)| match shape {
                    Shape::Reduce { fuse_mul: true, .. } => (x * y).abs(),
                    _ => (x + y).abs(),
                })
                .sum();
            let rel = match ty {
                FpFmt::B => 0.20, // 2 mantissa bits: up to ~12 % per step
                _ => 0.01,
            };
            rel * sum_abs + 1e-9
        } else {
            0.0
        };
        for a in &k.arrays {
            let got = sim.array_f64(&a.name);
            let want = interp.array_f64(&a.name);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if g.is_nan() || w.is_nan() {
                    // Reassociated reductions may saturate differently in
                    // tiny formats; require both sides to be non-finite
                    // together only for maps.
                    if !is_reduction {
                        assert!(
                            g.is_nan() && w.is_nan(),
                            "{}[{}]: sim {} vs interp {}",
                            a.name,
                            i,
                            g,
                            w
                        );
                    }
                    continue;
                }
                if is_reduction {
                    assert!(
                        (g - w).abs() <= term_budget,
                        "{}[{}]: sim {} vs interp {} budget {} ({shape:?} {ty:?})",
                        a.name,
                        i,
                        g,
                        w,
                        term_budget
                    );
                } else {
                    assert!(
                        g == w,
                        "{}[{}]: sim {} vs interp {} ({shape:?} {ty:?})",
                        a.name,
                        i,
                        g,
                        w
                    );
                }
            }
        }
    });
}
