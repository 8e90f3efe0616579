//! Executable semantics for the kernel IR.
//!
//! Two interpreters:
//!
//! * [`run_typed`] evaluates at the declared storage types with soft-float
//!   round-to-nearest-even at every operation — bit-exact with the *scalar*
//!   lowering produced by [`crate::codegen`], which makes it the reference
//!   for differential tests against the simulator. It runs a
//!   [`TypedProgram`]: the kernel resolved once into slot-indexed storage
//!   and loop variables, with every static type, conversion and
//!   fused-multiply-add decision taken at resolve time;
//! * [`run_f64`] evaluates everything in `f64` — the golden (QoR) reference
//!   used for the paper's SQNR table.

use crate::ir::{expr_type, fma_pattern, promote, BinOp, Bound, Expr, IdxExpr, Kernel, Stmt};
use smallfloat_isa::FpFmt;
use smallfloat_softfp::{fast, Env, Format, Rounding};
use std::collections::HashMap;

/// One named storage location of a [`TypedState`].
#[derive(Clone, Debug)]
struct Slot<T> {
    name: String,
    ty: FpFmt,
    data: T,
}

/// Array and scalar storage at the kernel's declared types (bit patterns),
/// in declaration order — the slot numbering a [`TypedProgram`] indexes.
#[derive(Clone, Debug, Default)]
pub struct TypedState {
    arrays: Vec<Slot<Vec<u64>>>,
    scalars: Vec<Slot<u64>>,
}

impl TypedState {
    /// Initialize storage from the kernel's declarations (arrays zeroed,
    /// scalars at their initial values).
    pub fn for_kernel(kernel: &Kernel) -> TypedState {
        let mut env = Env::new(Rounding::Rne);
        TypedState {
            arrays: kernel
                .arrays
                .iter()
                .map(|a| Slot {
                    name: a.name.clone(),
                    ty: a.ty,
                    data: vec![0; a.len],
                })
                .collect(),
            scalars: kernel
                .scalars
                .iter()
                .map(|s| Slot {
                    name: s.name.clone(),
                    ty: s.ty,
                    data: fast::from_f64(s.ty.format(), s.init, &mut env),
                })
                .collect(),
        }
    }

    fn array(&self, name: &str) -> &Slot<Vec<u64>> {
        self.arrays
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("no array `{name}`"))
    }

    /// Fill an array from `f64` values (rounded into the array's type).
    ///
    /// # Panics
    ///
    /// Panics if the array does not exist or sizes mismatch.
    pub fn set_array(&mut self, name: &str, values: &[f64]) {
        let arr = self
            .arrays
            .iter_mut()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("no array `{name}`"));
        assert_eq!(
            arr.data.len(),
            values.len(),
            "array size mismatch for {name}"
        );
        let fmt = arr.ty.format();
        let mut env = Env::new(Rounding::Rne);
        for (slot, v) in arr.data.iter_mut().zip(values) {
            *slot = fast::from_f64(fmt, *v, &mut env);
        }
    }

    /// Raw bit patterns of an array.
    pub fn array_bits(&self, name: &str) -> &[u64] {
        &self.array(name).data
    }

    /// Array contents widened to `f64`.
    pub fn array_f64(&self, name: &str) -> Vec<f64> {
        let arr = self.array(name);
        let fmt = arr.ty.format();
        arr.data.iter().map(|&b| fast::to_f64(fmt, b)).collect()
    }

    /// A scalar value widened to `f64`.
    pub fn scalar_f64(&self, name: &str) -> f64 {
        let s = self
            .scalars
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scalar `{name}`"));
        fast::to_f64(s.ty.format(), s.data)
    }
}

/// `Σ coeff·vars[slot] + offset` over loop-variable slots.
#[derive(Clone, Debug)]
struct Affine {
    terms: Vec<(usize, i64)>,
    offset: i64,
}

impl Affine {
    #[inline]
    fn eval(&self, vars: &[i64]) -> i64 {
        self.terms.iter().map(|&(v, c)| vars[v] * c).sum::<i64>() + self.offset
    }
}

/// A resolved expression: every value is a bit pattern at a format fixed
/// at resolve time.
#[derive(Clone, Debug)]
enum Val {
    Load {
        array: usize,
        idx: Affine,
    },
    Scalar(usize),
    /// A literal, already rounded into the type of its context.
    Const(u64),
    Cvt {
        from: Format,
        to: Format,
        x: Box<Val>,
    },
    Bin {
        op: BinOp,
        fmt: Format,
        a: Box<Val>,
        b: Box<Val>,
    },
    /// A contracted `a·b + c` (see [`fma_pattern`]).
    Fma {
        fmt: Format,
        a: Box<Val>,
        b: Box<Val>,
        c: Box<Val>,
    },
}

/// A resolved statement.
#[derive(Clone, Debug)]
enum Op {
    For {
        var: usize,
        lo: i64,
        hi: Affine,
        body: Vec<Op>,
    },
    /// `value` is already converted to the array's type.
    Store {
        array: usize,
        idx: Affine,
        value: Val,
    },
    /// `value` is already converted to the scalar's type.
    Set { scalar: usize, value: Val },
}

/// A kernel resolved for the typed interpreter, once, and runnable on any
/// number of [`TypedState`]s built for the same kernel.
///
/// Arrays and scalars are numbered in declaration order and loop
/// variables by nesting depth, so execution does no name lookup. The
/// static type of every node, the conversion to the common type of each
/// binary operation, the fused-multiply-add contraction (the same
/// [`fma_pattern`] rule the code generator applies) and the rounding of
/// each literal into its sibling's type are all decided here. Execution
/// evaluates through [`smallfloat_softfp::fast`], bit- and flag-identical
/// to the generic reference.
#[derive(Clone, Debug)]
pub struct TypedProgram {
    arrays: Vec<String>,
    scalars: Vec<String>,
    depth: usize,
    body: Vec<Op>,
}

/// Resolver state: the kernel and the loop variables in scope, innermost
/// last (a variable's slot is its nesting depth).
struct Resolve<'k> {
    kernel: &'k Kernel,
    scope: Vec<&'k str>,
    depth: usize,
    env: Env,
}

impl<'k> Resolve<'k> {
    fn var(&self, name: &str) -> usize {
        self.scope
            .iter()
            .rposition(|v| *v == name)
            .unwrap_or_else(|| panic!("`{name}` is not bound by an enclosing loop"))
    }

    fn idx(&self, idx: &IdxExpr) -> Affine {
        Affine {
            terms: idx.terms.iter().map(|(v, c)| (self.var(v), *c)).collect(),
            offset: idx.offset,
        }
    }

    fn bound(&self, b: &Bound) -> Affine {
        Affine {
            terms: b.var.iter().map(|v| (self.var(v), 1)).collect(),
            offset: b.offset,
        }
    }

    fn array(&self, name: &str) -> (usize, FpFmt) {
        let i = self
            .kernel
            .arrays
            .iter()
            .position(|a| a.name == name)
            .unwrap_or_else(|| panic!("no array `{name}`"));
        (i, self.kernel.arrays[i].ty)
    }

    fn scalar(&self, name: &str) -> (usize, FpFmt) {
        let i = self
            .kernel
            .scalars
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("no scalar `{name}`"));
        (i, self.kernel.scalars[i].ty)
    }

    fn constant(&mut self, c: f64, ty: FpFmt) -> Val {
        Val::Const(fast::from_f64(ty.format(), c, &mut self.env))
    }

    /// `x` converted from `from` to `to` (folded for literals).
    fn convert(&mut self, x: Val, from: FpFmt, to: FpFmt) -> Val {
        match x {
            _ if from == to => x,
            Val::Const(bits) => Val::Const(fast::cvt_f_f(
                to.format(),
                from.format(),
                bits,
                &mut self.env,
            )),
            x => Val::Cvt {
                from: from.format(),
                to: to.format(),
                x: Box::new(x),
            },
        }
    }

    /// `e` evaluated at type `t`: a literal rounds straight into `t`,
    /// anything else converts from its own type.
    fn at(&mut self, e: &Expr, t: FpFmt) -> Val {
        match e {
            Expr::Const(c) => self.constant(*c, t),
            other => {
                let (v, f) = self.expr(other);
                self.convert(v, f, t)
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> (Val, FpFmt) {
        match e {
            Expr::Load { array, idx } => {
                let (array, ty) = self.array(array);
                (
                    Val::Load {
                        array,
                        idx: self.idx(idx),
                    },
                    ty,
                )
            }
            Expr::Scalar(name) => {
                let (i, ty) = self.scalar(name);
                (Val::Scalar(i), ty)
            }
            Expr::Const(c) => (self.constant(*c, FpFmt::S), FpFmt::S),
            Expr::Bin { op, lhs, rhs } => {
                // Contract x + a*b into a fused multiply-add (mirrors codegen).
                if let Some((m1, m2, addend)) = fma_pattern(self.kernel, e) {
                    let t = expr_type(self.kernel, e);
                    let fma = Val::Fma {
                        fmt: t.format(),
                        a: Box::new(self.at(m1, t)),
                        b: Box::new(self.at(m2, t)),
                        c: Box::new(self.at(addend, t)),
                    };
                    return (fma, t);
                }
                // Constants adapt to their sibling's type (see ir::expr_type).
                let ((a, fa), (b, fb)) = match (&**lhs, &**rhs) {
                    (Expr::Const(c), other) => {
                        let (vb, fb) = self.expr(other);
                        ((self.constant(*c, fb), fb), (vb, fb))
                    }
                    (other, Expr::Const(c)) => {
                        let (va, fa) = self.expr(other);
                        ((va, fa), (self.constant(*c, fa), fa))
                    }
                    (l, r) => (self.expr(l), self.expr(r)),
                };
                let common = promote(fa, fb);
                let bin = Val::Bin {
                    op: *op,
                    fmt: common.format(),
                    a: Box::new(self.convert(a, fa, common)),
                    b: Box::new(self.convert(b, fb, common)),
                };
                (bin, common)
            }
        }
    }

    fn stmts(&mut self, stmts: &'k [Stmt]) -> Vec<Op> {
        stmts
            .iter()
            .map(|stmt| match stmt {
                Stmt::For { var, lo, hi, body } => {
                    let hi = self.bound(hi);
                    self.scope.push(var);
                    self.depth = self.depth.max(self.scope.len());
                    let body = self.stmts(body);
                    self.scope.pop();
                    Op::For {
                        var: self.scope.len(),
                        lo: *lo,
                        hi,
                        body,
                    }
                }
                Stmt::Store { array, idx, value } => {
                    let (array, ty) = self.array(array);
                    Op::Store {
                        array,
                        idx: self.idx(idx),
                        value: self.at_store(value, ty),
                    }
                }
                Stmt::SetScalar { name, value } => {
                    let (scalar, ty) = self.scalar(name);
                    Op::Set {
                        scalar,
                        value: self.at_store(value, ty),
                    }
                }
            })
            .collect()
    }

    /// A stored value: evaluated at its own type, then converted to the
    /// destination's (a bare literal is binary32 first, like any other
    /// lone constant).
    fn at_store(&mut self, value: &Expr, ty: FpFmt) -> Val {
        let (v, f) = self.expr(value);
        self.convert(v, f, ty)
    }
}

impl TypedProgram {
    /// Resolve `kernel` for the typed interpreter.
    ///
    /// # Panics
    ///
    /// Panics if the body names an undeclared array or scalar, or an index
    /// variable no enclosing loop binds.
    pub fn new(kernel: &Kernel) -> TypedProgram {
        let mut r = Resolve {
            kernel,
            scope: Vec::new(),
            depth: 0,
            env: Env::new(Rounding::Rne),
        };
        let body = r.stmts(&kernel.body);
        TypedProgram {
            arrays: kernel.arrays.iter().map(|a| a.name.clone()).collect(),
            scalars: kernel.scalars.iter().map(|s| s.name.clone()).collect(),
            depth: r.depth,
            body,
        }
    }

    /// Run over `st` (which must be [`TypedState::for_kernel`] of the
    /// kernel this program was resolved from).
    ///
    /// # Panics
    ///
    /// Panics if `st` was built for a kernel with other declarations, or
    /// an index falls outside its array.
    pub fn run(&self, st: &mut TypedState) {
        assert!(
            self.arrays.iter().eq(st.arrays.iter().map(|a| &a.name))
                && self.scalars.iter().eq(st.scalars.iter().map(|s| &s.name)),
            "typed state was built for another kernel"
        );
        let mut env = Env::new(Rounding::Rne);
        let mut vars = vec![0i64; self.depth];
        exec(&self.body, st, &mut vars, &mut env);
    }
}

fn exec(ops: &[Op], st: &mut TypedState, vars: &mut [i64], env: &mut Env) {
    for op in ops {
        match op {
            Op::For { var, lo, hi, body } => {
                let hi = hi.eval(vars);
                for i in *lo..hi {
                    vars[*var] = i;
                    exec(body, st, vars, env);
                }
            }
            Op::Store { array, idx, value } => {
                let v = eval(value, st, vars, env);
                let i = idx.eval(vars) as usize;
                st.arrays[*array].data[i] = v;
            }
            Op::Set { scalar, value } => {
                st.scalars[*scalar].data = eval(value, st, vars, env);
            }
        }
    }
}

fn eval(v: &Val, st: &TypedState, vars: &[i64], env: &mut Env) -> u64 {
    match v {
        Val::Load { array, idx } => st.arrays[*array].data[idx.eval(vars) as usize],
        Val::Scalar(i) => st.scalars[*i].data,
        Val::Const(bits) => *bits,
        Val::Cvt { from, to, x } => {
            let x = eval(x, st, vars, env);
            fast::cvt_f_f(*to, *from, x, env)
        }
        Val::Fma { fmt, a, b, c } => {
            let (a, b, c) = (
                eval(a, st, vars, env),
                eval(b, st, vars, env),
                eval(c, st, vars, env),
            );
            fast::fmadd(*fmt, a, b, c, env)
        }
        Val::Bin { op, fmt, a, b } => {
            let (a, b) = (eval(a, st, vars, env), eval(b, st, vars, env));
            let f = *fmt;
            match op {
                BinOp::Add => fast::add(f, a, b, env),
                BinOp::Sub => fast::sub(f, a, b, env),
                BinOp::Mul => fast::mul(f, a, b, env),
                BinOp::Div => fast::div(f, a, b, env),
                BinOp::Max => fast::fmax(f, a, b, env),
                BinOp::Gate => {
                    // Mirror the scalar lowering exactly: fle(0 ≤ a) into
                    // an integer, int→float convert (exactly 0.0 or 1.0 at
                    // every format), then a rounded multiply by the step.
                    let step = if fast::fle(f, 0, a, env) { f.one() } else { 0 };
                    fast::mul(f, b, step, env)
                }
            }
        }
    }
}

/// Run the kernel at its declared types over `st` (resolving it first; a
/// caller running one kernel many times resolves a [`TypedProgram`] once).
pub fn run_typed(kernel: &Kernel, st: &mut TypedState) {
    TypedProgram::new(kernel).run(st);
}

fn eval_idx(idx: &IdxExpr, vars: &HashMap<String, i64>) -> i64 {
    idx.terms.iter().map(|(v, c)| vars[v] * c).sum::<i64>() + idx.offset
}

fn bound_value(b: &Bound, vars: &HashMap<String, i64>) -> i64 {
    match &b.var {
        Some(v) => vars[v] + b.offset,
        None => b.offset,
    }
}

/// `f64` storage for the golden interpreter.
#[derive(Clone, Debug, Default)]
pub struct F64State {
    arrays: HashMap<String, Vec<f64>>,
    scalars: HashMap<String, f64>,
}

impl F64State {
    /// Initialize from the kernel's declarations.
    pub fn for_kernel(kernel: &Kernel) -> F64State {
        let mut st = F64State::default();
        for a in &kernel.arrays {
            st.arrays.insert(a.name.clone(), vec![0.0; a.len]);
        }
        for s in &kernel.scalars {
            st.scalars.insert(s.name.clone(), s.init);
        }
        st
    }

    /// Fill an array.
    ///
    /// # Panics
    ///
    /// Panics if the array does not exist or sizes mismatch.
    pub fn set_array(&mut self, name: &str, values: &[f64]) {
        let arr = self.arrays.get_mut(name).expect("array exists");
        assert_eq!(arr.len(), values.len());
        arr.copy_from_slice(values);
    }

    /// Array contents.
    pub fn array(&self, name: &str) -> &[f64] {
        &self.arrays[name]
    }

    /// Scalar value.
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars[name]
    }
}

fn eval_f64(st: &F64State, vars: &HashMap<String, i64>, e: &Expr) -> f64 {
    match e {
        Expr::Load { array, idx } => st.arrays[array][eval_idx(idx, vars) as usize],
        Expr::Scalar(name) => st.scalars[name],
        Expr::Const(c) => *c,
        Expr::Bin { op, lhs, rhs } => {
            let a = eval_f64(st, vars, lhs);
            let b = eval_f64(st, vars, rhs);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Max => a.max(b),
                // The multiply (not a select) keeps -0/NaN semantics in
                // lockstep with the typed interpreter and the hardware.
                BinOp::Gate => b * (if 0.0 <= a { 1.0 } else { 0.0 }),
            }
        }
    }
}

fn run_stmts_f64(st: &mut F64State, vars: &mut HashMap<String, i64>, stmts: &[Stmt]) {
    for stmt in stmts {
        match stmt {
            Stmt::For { var, lo, hi, body } => {
                let hi_v = bound_value(hi, vars);
                for i in *lo..hi_v {
                    vars.insert(var.clone(), i);
                    run_stmts_f64(st, vars, body);
                }
                vars.remove(var);
            }
            Stmt::Store { array, idx, value } => {
                let v = eval_f64(st, vars, value);
                let i = eval_idx(idx, vars) as usize;
                st.arrays.get_mut(array).expect("array exists")[i] = v;
            }
            Stmt::SetScalar { name, value } => {
                let v = eval_f64(st, vars, value);
                st.scalars.insert(name.clone(), v);
            }
        }
    }
}

/// Run the kernel in `f64` (the golden QoR reference).
pub fn run_f64(kernel: &Kernel, st: &mut F64State) {
    let mut vars = HashMap::new();
    run_stmts_f64(st, &mut vars, &kernel.body);
}

/// Signal-to-quantization-noise ratio in dB between a golden signal and a
/// measured one: `10·log10(Σ s² / Σ (s-m)²)`, `inf` for an exact match.
pub fn sqnr_db(golden: &[f64], measured: &[f64]) -> f64 {
    assert_eq!(golden.len(), measured.len(), "signal length mismatch");
    let signal: f64 = golden.iter().map(|s| s * s).sum();
    let noise: f64 = golden
        .iter()
        .zip(measured)
        .map(|(s, m)| (s - m) * (s - m))
        .sum();
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saxpy_kernel(n: usize) -> Kernel {
        // y[i] = alpha * x[i] + y[i]
        let mut k = Kernel::new("saxpy");
        k.array("x", FpFmt::S, n)
            .array("y", FpFmt::S, n)
            .scalar("alpha", FpFmt::S, 2.0);
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

    #[test]
    fn typed_matches_f64_for_exact_values() {
        let k = saxpy_kernel(8);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..8).map(|i| (i * 10) as f64).collect();
        let mut ts = TypedState::for_kernel(&k);
        ts.set_array("x", &x);
        ts.set_array("y", &y);
        run_typed(&k, &mut ts);
        let mut fs = F64State::for_kernel(&k);
        fs.set_array("x", &x);
        fs.set_array("y", &y);
        run_f64(&k, &mut fs);
        assert_eq!(ts.array_f64("y"), fs.array("y"));
    }

    #[test]
    fn small_type_rounds() {
        let mut k = saxpy_kernel(2);
        for a in &mut k.arrays {
            a.ty = FpFmt::B;
        }
        k.scalars[0].ty = FpFmt::B;
        let mut ts = TypedState::for_kernel(&k);
        ts.set_array("x", &[1.1, 3.0]);
        ts.set_array("y", &[0.0, 0.0]);
        run_typed(&k, &mut ts);
        let out = ts.array_f64("y");
        assert_eq!(out[0], 2.0, "1.1 rounds to 1.0 in b8, times 2");
        assert_eq!(out[1], 6.0);
    }

    #[test]
    fn triangular_bound() {
        // count[0] accumulates 1 for each (i, j<=i) pair with i<4: 1+2+3+4 = 10.
        let mut k = Kernel::new("tri");
        k.array("count", FpFmt::S, 1);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::for_(
                "j",
                0,
                Bound::var_plus("i", 1),
                vec![Stmt::store(
                    "count",
                    IdxExpr::constant(0),
                    Expr::load("count", IdxExpr::constant(0)) + Expr::lit(1.0),
                )],
            )],
        )];
        let mut fs = F64State::for_kernel(&k);
        run_f64(&k, &mut fs);
        assert_eq!(fs.array("count")[0], 10.0);
        let mut ts = TypedState::for_kernel(&k);
        run_typed(&k, &mut ts);
        assert_eq!(ts.array_f64("count")[0], 10.0);
    }

    #[test]
    fn mixed_precision_promotes() {
        // acc (f32) += a[i] (f16) * b[i] (f16): product computed in f16,
        // sum in f32.
        let mut k = Kernel::new("dot");
        k.array("a", FpFmt::H, 2)
            .array("b", FpFmt::H, 2)
            .scalar("acc", FpFmt::S, 0.0);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(2),
            vec![Stmt::accum(
                "acc",
                Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i")),
            )],
        )];
        let mut ts = TypedState::for_kernel(&k);
        ts.set_array("a", &[3.0, 5.0]);
        ts.set_array("b", &[7.0, 11.0]);
        run_typed(&k, &mut ts);
        assert_eq!(ts.scalar_f64("acc"), 76.0);
    }

    #[test]
    fn max_op_evaluates_in_both_interpreters() {
        // y[i] = max(x[i], 0): ReLU at binary16.
        let mut k = Kernel::new("relu");
        k.array("x", FpFmt::H, 4).array("y", FpFmt::H, 4);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::store(
                "y",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")).max(Expr::lit(0.0)),
            )],
        )];
        let x = [-2.0, -0.5, 0.0, 3.0];
        let mut ts = TypedState::for_kernel(&k);
        ts.set_array("x", &x);
        run_typed(&k, &mut ts);
        assert_eq!(ts.array_f64("y"), vec![0.0, 0.0, 0.0, 3.0]);
        let mut fs = F64State::for_kernel(&k);
        fs.set_array("x", &x);
        run_f64(&k, &mut fs);
        assert_eq!(fs.array("y"), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn gate_routes_subgradients() {
        // dx[i] = gate(x[i], dy[i]): dy passes where x ≥ 0, zero elsewhere
        // — the ReLU backward shape.
        let mut k = Kernel::new("relu_bwd");
        k.array("x", FpFmt::H, 4)
            .array("dy", FpFmt::H, 4)
            .array("dx", FpFmt::H, 4);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(4),
            vec![Stmt::store(
                "dx",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")).gate(Expr::load("dy", IdxExpr::var("i"))),
            )],
        )];
        let x = [-2.0, -0.0, 0.5, 3.0];
        let dy = [5.0, 7.0, -11.0, 13.0];
        let want = vec![0.0, 7.0, -11.0, 13.0];
        let mut ts = TypedState::for_kernel(&k);
        ts.set_array("x", &x);
        ts.set_array("dy", &dy);
        run_typed(&k, &mut ts);
        assert_eq!(ts.array_f64("dx"), want, "-0 passes: fle treats -0 == +0");
        let mut fs = F64State::for_kernel(&k);
        fs.set_array("x", &x);
        fs.set_array("dy", &dy);
        run_f64(&k, &mut fs);
        assert_eq!(fs.array("dx"), &want[..]);
    }

    #[test]
    fn sqnr_measures() {
        let golden = [1.0, 2.0, 3.0];
        assert_eq!(sqnr_db(&golden, &golden), f64::INFINITY);
        let noisy = [1.01, 2.0, 3.0];
        // signal = 14, noise = 1e-4 → 10·log10(140000) ≈ 51.46 dB.
        let db = sqnr_db(&golden, &noisy);
        assert!((51.0..52.0).contains(&db), "{db}");
    }
}
