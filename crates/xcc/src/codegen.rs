//! Lowering the kernel IR to RV32IMF + smallFloat machine code, with an
//! optional pattern-based auto-vectorizer.
//!
//! # Scalar lowering
//!
//! Loop variables and loop bounds live in integer registers, array base
//! addresses are materialized once, named scalars live in FP registers
//! `f10..f27`, and expressions evaluate stack-style into `f0..f9`. Every
//! array access recomputes its full affine address (no strength reduction),
//! matching a mid-optimization compiler and — deliberately — carrying over
//! unchanged into vectorized loops, which is the source of the extra ALU
//! instructions the paper reports for auto-vectorized code.
//!
//! # Auto-vectorization
//!
//! Innermost loops are vectorized when every statement is either
//!
//! * a **map**: `A[..+i] = expr` with all non-invariant loads unit-stride
//!   in the loop variable and of the computation type, or
//! * a **reduction**: `s = s + expr` with a vectorizable `expr`.
//!
//! Loop-invariant subexpressions are hoisted to the preheader and splatted
//! into full vectors with `vfcpk`. Reductions whose accumulator has the
//! same type as the elements use a vector accumulator (`vfmac` when the
//! body is a product) plus a horizontal sum after the loop; reductions onto
//! a *wider* accumulator extract and convert every lane each iteration
//! (`fmv.x`/`srli`/`fcvt.s.*`/`fadd.s` — the paper's Fig. 5 left listing).
//! A scalar epilogue loop handles remainder iterations; triangular bounds
//! (`j < i+1`) get a dynamic remainder, reproducing the prologue/epilogue
//! overhead the paper describes for such loop nests.
//!
//! Alignment rule: a load/store vectorizes only if the loop-variable
//! coefficient is 1 and every other index component (outer-variable
//! coefficients, constant offset, loop lower bound) is a multiple of the
//! lane count, which keeps every packed access 4-byte aligned.

use crate::ir::{expr_type, promote, BinOp, Bound, Expr, IdxExpr, Kernel, Stmt};
use smallfloat_asm::Assembler;
use smallfloat_isa::{BranchCond, CmpOp, FReg, FpFmt, Instr, MinMaxOp, VfOp, XReg};
use smallfloat_softfp::{ops, Env, Rounding};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Base address where kernel data is laid out.
pub const DATA_BASE: u32 = 0x10_0000;
/// Base address where program text is loaded.
pub const TEXT_BASE: u32 = 0x1000;

/// Code generation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodegenOptions {
    /// Enable the auto-vectorizer (binary32 code is never vectorized at
    /// FLEN=32, so the float baseline is unaffected by this flag).
    pub vectorize: bool,
    /// Let widening reductions use the Xfaux expanding sum-of-dot-products
    /// (`vfsdotpex`) instead of the per-lane extract/convert/add chain.
    /// Only reductions whose body is a lane-wise product and whose element
    /// format has a registry widening qualify; others keep the chain.
    /// Off by default to preserve the paper's auto-vectorizer behaviour.
    pub expanding: bool,
}

/// Errors from [`compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XccError {
    /// More arrays than base registers (6).
    TooManyArrays,
    /// More scalars than home FP registers (18).
    TooManyScalars,
    /// Loop nest deeper than the register pool (6).
    TooManyLoops,
    /// Expression deeper than the FP stack.
    ExprTooDeep,
    /// Reference to an undeclared array or scalar.
    UnknownName(String),
}

impl fmt::Display for XccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XccError::TooManyArrays => write!(f, "kernel uses more than 6 arrays"),
            XccError::TooManyScalars => write!(f, "kernel uses more than 18 scalars"),
            XccError::TooManyLoops => write!(f, "loop nest deeper than 6"),
            XccError::ExprTooDeep => write!(f, "expression exceeds the FP register stack"),
            XccError::UnknownName(n) => write!(f, "undeclared array or scalar `{n}`"),
        }
    }
}

impl std::error::Error for XccError {}

/// Placement of one array in simulator memory.
#[derive(Clone, Debug, PartialEq)]
pub struct LayoutEntry {
    pub name: String,
    pub addr: u32,
    pub len: usize,
    pub ty: FpFmt,
}

/// Memory layout of a compiled kernel's data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataLayout {
    pub entries: Vec<LayoutEntry>,
}

impl DataLayout {
    /// Find an array's placement.
    pub fn entry(&self, name: &str) -> Option<&LayoutEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// A compiled kernel.
pub struct Compiled {
    /// The instruction stream (ends with `ecall`).
    pub program: Vec<Instr>,
    /// Where each array lives in memory.
    pub layout: DataLayout,
    /// Home FP register of each named scalar.
    pub scalar_regs: Vec<(String, FReg)>,
    /// Assembly listing (labels resolved).
    pub listing: String,
    /// Number of loops the vectorizer transformed.
    pub vectorized_loops: usize,
    /// Hash of `program`, taken once by [`Compiled::new`]: the key a warm
    /// simulator pool finds a program's slot by.
    program_hash: u64,
}

impl Compiled {
    /// Seal a program and its placement, hashing the program once.
    pub fn new(
        program: Vec<Instr>,
        layout: DataLayout,
        scalar_regs: Vec<(String, FReg)>,
        listing: String,
        vectorized_loops: usize,
    ) -> Compiled {
        let mut h = DefaultHasher::new();
        program.hash(&mut h);
        Compiled {
            program_hash: h.finish(),
            program,
            layout,
            scalar_regs,
            listing,
            vectorized_loops,
        }
    }

    /// The hash of `program` taken at construction. Equal programs hash
    /// equally; a caller that edits `program` afterwards must not rely on
    /// it (a pool keyed on it still confirms a hit by full equality).
    pub fn program_hash(&self) -> u64 {
        self.program_hash
    }
}

// Register pools.
const T0: XReg = XReg::new(5);
const T1: XReg = XReg::new(6);
const LANE_X: XReg = XReg::new(28); // t3: lane extraction scratch
const BASE_POOL: [u8; 6] = [18, 19, 20, 21, 22, 23]; // s2..s7
const LOOPVAR_POOL: [u8; 6] = [8, 9, 24, 25, 26, 27]; // s0, s1, s8..s11
const BOUND_POOL: [u8; 6] = [10, 11, 12, 13, 14, 15]; // a0..a5
const SR_POOL: [u8; 5] = [16, 17, 29, 30, 31]; // a6, a7, t4..t6: induction pointers
const FP_STACK: [u8; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 28, 29]; // ft0..ft7, ft8, ft9
const FP_HOME_BASE: u8 = 10; // f10..f27
const FP_HOIST: [u8; 2] = [30, 31]; // hoisted loop-invariant loads

/// An induction pointer created by strength reduction: one per distinct
/// (array, non-loop-var index terms) access pattern in an innermost loop.
struct SrPtr {
    array: String,
    terms: Vec<(String, i64)>,
    reg: XReg,
    bump: i32,
}

/// A loop-invariant load hoisted into an FP register.
struct Hoist {
    array: String,
    idx: IdxExpr,
    reg: FReg,
    fmt: FpFmt,
}

struct Cg<'k> {
    kernel: &'k Kernel,
    opts: CodegenOptions,
    asm: Assembler,
    bases: HashMap<String, XReg>,
    homes: HashMap<String, (FReg, FpFmt)>,
    loop_regs: HashMap<String, XReg>,
    loop_depth: usize,
    label_n: usize,
    vectorized: usize,
    sr_var: Option<String>,
    sr_ptrs: Vec<SrPtr>,
    sr_off_elems: i64,
    hoists: Vec<Hoist>,
}

/// Compile a kernel.
///
/// # Errors
///
/// Returns an [`XccError`] when the kernel exceeds the register pools or
/// references undeclared names.
pub fn compile(kernel: &Kernel, opts: CodegenOptions) -> Result<Compiled, XccError> {
    if kernel.arrays.len() > BASE_POOL.len() {
        return Err(XccError::TooManyArrays);
    }
    if kernel.scalars.len() > 18 {
        return Err(XccError::TooManyScalars);
    }
    let layout = layout_of(kernel);
    let mut cg = Cg {
        kernel,
        opts,
        asm: Assembler::new(),
        bases: HashMap::new(),
        homes: HashMap::new(),
        loop_regs: HashMap::new(),
        loop_depth: 0,
        label_n: 0,
        vectorized: 0,
        sr_var: None,
        sr_ptrs: Vec::new(),
        sr_off_elems: 0,
        hoists: Vec::new(),
    };
    // Prologue: array bases and scalar initial values.
    for (i, a) in kernel.arrays.iter().enumerate() {
        let reg = XReg::new(BASE_POOL[i]);
        cg.asm
            .la(reg, layout.entry(&a.name).expect("laid out").addr);
        cg.bases.insert(a.name.clone(), reg);
    }
    let mut scalar_regs = Vec::new();
    for (i, s) in kernel.scalars.iter().enumerate() {
        let reg = FReg::new(FP_HOME_BASE + i as u8);
        cg.homes.insert(s.name.clone(), (reg, s.ty));
        scalar_regs.push((s.name.clone(), reg));
        let mut env = Env::new(Rounding::Rne);
        let bits = ops::from_f64(s.ty.format(), s.init, &mut env) as u32;
        cg.asm.li(T0, bits as i32);
        cg.asm.fmv_f(s.ty, reg, T0);
    }
    cg.stmts(&kernel.body)?;
    cg.asm.ecall();
    let listing = cg.asm.listing();
    let program = cg.asm.assemble().expect("internal labels are consistent");
    Ok(Compiled::new(
        program,
        layout,
        scalar_regs,
        listing,
        cg.vectorized,
    ))
}

/// The memory placement [`compile`] assigns to a kernel's arrays: packed
/// from [`DATA_BASE`], each array rounded up to 4-byte alignment. Manual
/// (hand-vectorized) code generators use this to stay layout-compatible
/// with the compiled variants of the same kernel.
pub fn layout_of(kernel: &Kernel) -> DataLayout {
    let mut layout = DataLayout::default();
    let mut addr = DATA_BASE;
    for a in &kernel.arrays {
        let bytes = (a.len as u32) * (a.ty.width() / 8);
        layout.entries.push(LayoutEntry {
            name: a.name.clone(),
            addr,
            len: a.len,
            ty: a.ty,
        });
        addr += (bytes + 3) & !3;
    }
    layout
}

/// A value produced by expression evaluation.
#[derive(Clone, Copy)]
struct Val {
    reg: FReg,
    fmt: FpFmt,
}

impl<'k> Cg<'k> {
    fn fresh(&mut self, tag: &str) -> String {
        self.label_n += 1;
        format!(".L{}_{}", self.label_n, tag)
    }

    fn stack(&self, depth: usize) -> Result<FReg, XccError> {
        FP_STACK
            .get(depth)
            .map(|&n| FReg::new(n))
            .ok_or(XccError::ExprTooDeep)
    }

    fn array_fmt(&self, name: &str) -> Result<FpFmt, XccError> {
        self.kernel
            .array_decl(name)
            .map(|a| a.ty)
            .ok_or_else(|| XccError::UnknownName(name.to_string()))
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), XccError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), XccError> {
        match s {
            Stmt::For { var, lo, hi, body } => {
                if self.opts.vectorize {
                    if let Some(plan) = self.analyze_loop(var, *lo, body) {
                        self.emit_vector_loop(var, *lo, hi, body, plan)?;
                        return Ok(());
                    }
                }
                self.emit_scalar_loop(var, *lo, hi, body)
            }
            Stmt::Store { array, idx, value } => {
                let v = self.eval(value, 0)?;
                let ty = self.array_fmt(array)?;
                let v = self.convert(v, ty, 0)?;
                let (base, disp) = self.addr_of(array, idx)?;
                self.asm.fstore(ty, v.reg, base, disp);
                Ok(())
            }
            Stmt::SetScalar { name, value } => {
                let v = self.eval(value, 0)?;
                let (home, ty) = *self
                    .homes
                    .get(name)
                    .ok_or_else(|| XccError::UnknownName(name.clone()))?;
                if v.fmt == ty {
                    if v.reg != home {
                        self.asm.fmv(ty, home, v.reg);
                    }
                } else {
                    self.asm.fcvt(ty, v.fmt, home, v.reg);
                }
                Ok(())
            }
        }
    }

    // ----------------- scalar path -----------------

    fn alloc_loop(&mut self, var: &str) -> Result<(XReg, XReg), XccError> {
        if self.loop_depth >= LOOPVAR_POOL.len() {
            return Err(XccError::TooManyLoops);
        }
        let v = XReg::new(LOOPVAR_POOL[self.loop_depth]);
        let b = XReg::new(BOUND_POOL[self.loop_depth]);
        self.loop_regs.insert(var.to_string(), v);
        self.loop_depth += 1;
        Ok((v, b))
    }

    fn free_loop(&mut self, var: &str) {
        self.loop_regs.remove(var);
        self.loop_depth -= 1;
    }

    fn bound_into(&mut self, b: &Bound, reg: XReg, adjust: i64) {
        match &b.var {
            Some(outer) => {
                let outer_reg = self.loop_regs[outer];
                self.asm.addi(reg, outer_reg, (b.offset + adjust) as i32);
            }
            None => {
                self.asm.li(reg, (b.offset + adjust) as i32);
            }
        }
    }

    fn emit_scalar_loop(
        &mut self,
        var: &str,
        lo: i64,
        hi: &Bound,
        body: &[Stmt],
    ) -> Result<(), XccError> {
        let innermost = !body.iter().any(|s| matches!(s, Stmt::For { .. }));
        let (vreg, breg) = self.alloc_loop(var)?;
        let head = self.fresh("head");
        let exit = self.fresh("exit");
        self.asm.li(vreg, lo as i32);
        self.bound_into(hi, breg, 0);
        // -O2/O3-like preparation for innermost loops, matching what the
        // paper's GCC applies to the scalar baseline (but, per the paper's
        // observation, *not* to its auto-vectorized loops): loop-invariant
        // loads hoisted to registers, unit-stride accesses strength-reduced
        // to induction pointers, loop rotation, and 2× unrolling when the
        // trip count is a known even constant and every varying access is
        // covered by an induction pointer.
        if innermost {
            self.setup_hoists(var, body)?;
            self.setup_sr(var, lo, body, 1)?;
        }
        let unroll = innermost
            && hi.as_const().is_some_and(|h| h >= lo && (h - lo) % 2 == 0)
            && self.sr_var.is_some()
            && self.all_varying_accesses_covered(var, body);
        if unroll {
            self.retarget_sr_bumps(2);
        }
        // Rotated (do-while) form with a one-time guard.
        self.asm.branch(BranchCond::Ge, vreg, breg, &exit);
        self.asm.label(&head);
        self.stmts(body)?;
        if unroll {
            // Second copy addresses the next element through displacements.
            self.sr_off_elems = 1;
            self.stmts(body)?;
            self.sr_off_elems = 0;
        }
        self.bump_sr();
        self.asm.addi(vreg, vreg, if unroll { 2 } else { 1 });
        self.asm.branch(BranchCond::Lt, vreg, breg, &head);
        self.asm.label(&exit);
        if innermost {
            self.clear_sr_and_hoists();
        }
        self.free_loop(var);
        Ok(())
    }

    /// True when every access whose index varies with `var` is served by an
    /// induction pointer (precondition for displacement-based unrolling).
    fn all_varying_accesses_covered(&self, var: &str, body: &[Stmt]) -> bool {
        let mut accesses = Vec::new();
        collect_loads(body, &mut accesses);
        collect_stores(body, &mut accesses);
        accesses.iter().all(|(array, idx)| {
            let c = idx.coeff(var);
            if c == 0 {
                return true;
            }
            if c != 1 {
                return false;
            }
            let terms = nonvar_terms(idx, var);
            self.sr_ptrs
                .iter()
                .any(|p| &p.array == array && p.terms == terms)
        })
    }

    /// Hoist loads invariant in `var` into FP registers (at most
    /// `FP_HOIST.len()` of them; extras stay in the loop).
    fn setup_hoists(&mut self, var: &str, body: &[Stmt]) -> Result<(), XccError> {
        let mut accesses = Vec::new();
        collect_loads(body, &mut accesses);
        for (array, idx) in accesses {
            if !idx.invariant_in(var) {
                continue;
            }
            if self.hoists.iter().any(|h| h.array == array && h.idx == idx) {
                continue;
            }
            if self.hoists.len() >= FP_HOIST.len() {
                break;
            }
            let fmt = self.array_fmt(&array)?;
            let (base, disp) = self.addr_of(&array, &idx)?;
            let reg = FReg::new(FP_HOIST[self.hoists.len()]);
            self.asm.fload(fmt, reg, base, disp);
            self.hoists.push(Hoist {
                array,
                idx,
                reg,
                fmt,
            });
        }
        Ok(())
    }

    /// Create induction pointers for every unit-stride access pattern in
    /// `var` (bumped by `step_elems` elements per iteration). Silently does
    /// nothing when the pool or displacement range would be exceeded.
    fn setup_sr(
        &mut self,
        var: &str,
        lo: i64,
        body: &[Stmt],
        step_elems: i64,
    ) -> Result<(), XccError> {
        let mut accesses = Vec::new();
        collect_loads(body, &mut accesses);
        collect_stores(body, &mut accesses);
        // (array name, non-induction index terms, element size in bytes)
        type PlanEntry = (String, Vec<(String, i64)>, u32);
        let mut plan: Vec<PlanEntry> = Vec::new();
        for (array, idx) in &accesses {
            if idx.coeff(var) != 1 {
                continue;
            }
            let elem = self.array_fmt(array)?.width() / 8;
            let disp = idx.offset * elem as i64;
            if !(-2048..2048).contains(&disp) {
                return Ok(()); // out of imm range: skip SR for this loop
            }
            let terms = nonvar_terms(idx, var);
            if !plan.iter().any(|(a, t, _)| a == array && *t == terms) {
                plan.push((array.clone(), terms, elem));
            }
        }
        if plan.len() > SR_POOL.len() {
            return Ok(());
        }
        for (i, (array, terms, elem)) in plan.iter().enumerate() {
            let reg = XReg::new(SR_POOL[i]);
            let init = IdxExpr {
                terms: terms.clone(),
                offset: lo,
            };
            let (base, disp) = self.addr_of(array, &init)?;
            self.asm.addi(reg, base, disp);
            self.sr_ptrs.push(SrPtr {
                array: array.clone(),
                terms: terms.clone(),
                reg,
                bump: (step_elems * *elem as i64) as i32,
            });
        }
        self.sr_var = Some(var.to_string());
        Ok(())
    }

    fn bump_sr(&mut self) {
        let bumps: Vec<(XReg, i32)> = self.sr_ptrs.iter().map(|p| (p.reg, p.bump)).collect();
        for (reg, bump) in bumps {
            self.asm.addi(reg, reg, bump);
        }
    }

    /// Change the per-iteration bump of every induction pointer (used when
    /// a vector loop falls through to its scalar epilogue).
    fn retarget_sr_bumps(&mut self, step_elems: i64) {
        let elems: Vec<u32> = self
            .sr_ptrs
            .iter()
            .map(|p| {
                self.kernel
                    .array_decl(&p.array)
                    .map(|a| a.ty.width() / 8)
                    .unwrap_or(4)
            })
            .collect();
        for (p, elem) in self.sr_ptrs.iter_mut().zip(elems) {
            p.bump = (step_elems * elem as i64) as i32;
        }
    }

    fn clear_sr_and_hoists(&mut self) {
        self.sr_var = None;
        self.sr_ptrs.clear();
        self.sr_off_elems = 0;
        self.hoists.clear();
    }

    /// Produce the address of `array[idx]` as a `(base, displacement)`
    /// pair: an induction pointer when strength reduction covers the
    /// access, else a full computation into T0.
    fn addr_of(&mut self, array: &str, idx: &IdxExpr) -> Result<(XReg, i32), XccError> {
        let fmt = self.array_fmt(array)?;
        let elem = fmt.width() / 8;
        if let Some(svar) = self.sr_var.clone() {
            if idx.coeff(&svar) == 1 {
                let terms = nonvar_terms(idx, &svar);
                if let Some(p) = self
                    .sr_ptrs
                    .iter()
                    .find(|p| p.array == array && p.terms == terms)
                {
                    let off = (idx.offset + self.sr_off_elems) * elem as i64;
                    return Ok((p.reg, off as i32));
                }
            }
        }
        let shift = match fmt.width() {
            8 => 0,
            16 => 1,
            _ => 2,
        };
        let base = *self
            .bases
            .get(array)
            .ok_or_else(|| XccError::UnknownName(array.to_string()))?;
        let mut have = false;
        for (v, c) in &idx.terms {
            let vreg = self.loop_regs[v];
            let target = if have { T1 } else { T0 };
            if *c == 1 {
                self.asm.mv(target, vreg);
            } else if c.count_ones() == 1 && *c > 0 {
                self.asm.slli(target, vreg, c.trailing_zeros() as i32);
            } else {
                self.asm.li(target, *c as i32);
                self.asm.mul(target, vreg, target);
            }
            if have {
                self.asm.add(T0, T0, T1);
            }
            have = true;
        }
        if !have {
            self.asm.li(T0, idx.offset as i32);
        } else if idx.offset != 0 {
            self.asm.addi(T0, T0, idx.offset as i32);
        }
        if shift > 0 {
            self.asm.slli(T0, T0, shift);
        }
        self.asm.add(T0, T0, base);
        Ok((T0, 0))
    }

    fn convert(&mut self, v: Val, to: FpFmt, depth: usize) -> Result<Val, XccError> {
        if v.fmt == to {
            return Ok(v);
        }
        let dst = self.stack(depth)?;
        self.asm.fcvt(to, v.fmt, dst, v.reg);
        Ok(Val { reg: dst, fmt: to })
    }

    fn materialize_const(&mut self, c: f64, fmt: FpFmt, depth: usize) -> Result<Val, XccError> {
        let dst = self.stack(depth)?;
        let mut env = Env::new(Rounding::Rne);
        let bits = ops::from_f64(fmt.format(), c, &mut env) as u32;
        self.asm.li(T0, bits as i32);
        self.asm.fmv_f(fmt, dst, T0);
        Ok(Val { reg: dst, fmt })
    }

    /// Evaluate an expression and coerce it to type `t` (constants are
    /// materialized at `t` directly, as the sibling-typing rule demands).
    fn eval_at(&mut self, e: &Expr, t: FpFmt, depth: usize) -> Result<Val, XccError> {
        match e {
            Expr::Const(c) => self.materialize_const(*c, t, depth),
            other => {
                let v = self.eval(other, depth)?;
                self.convert(v, t, depth)
            }
        }
    }

    fn eval(&mut self, e: &Expr, depth: usize) -> Result<Val, XccError> {
        match e {
            Expr::Load { array, idx } => {
                let fmt = self.array_fmt(array)?;
                if let Some(h) = self
                    .hoists
                    .iter()
                    .find(|h| &h.array == array && &h.idx == idx)
                {
                    return Ok(Val {
                        reg: h.reg,
                        fmt: h.fmt,
                    });
                }
                let (base, disp) = self.addr_of(array, idx)?;
                let dst = self.stack(depth)?;
                self.asm.fload(fmt, dst, base, disp);
                Ok(Val { reg: dst, fmt })
            }
            Expr::Scalar(name) => {
                let (reg, fmt) = *self
                    .homes
                    .get(name)
                    .ok_or_else(|| XccError::UnknownName(name.clone()))?;
                Ok(Val { reg, fmt })
            }
            Expr::Const(c) => self.materialize_const(*c, FpFmt::S, depth),
            Expr::Bin { op, lhs, rhs } => {
                // Contract x + a*b into fmadd (mirrors the interpreter and
                // GCC's default -ffp-contract=fast on the scalar baseline).
                if let Some((m1, m2, addend)) = crate::ir::fma_pattern(self.kernel, e) {
                    let t = crate::ir::expr_type(self.kernel, e);
                    let a = self.eval_at(m1, t, depth)?;
                    let b = self.eval_at(m2, t, depth + 1)?;
                    let c = self.eval_at(addend, t, depth + 2)?;
                    let dst = self.stack(depth)?;
                    self.asm.fmadd(t, dst, a.reg, b.reg, c.reg);
                    return Ok(Val { reg: dst, fmt: t });
                }
                // Mirror the typed interpreter: constants adapt to their
                // sibling's type.
                let (va, vb) = match (&**lhs, &**rhs) {
                    (Expr::Const(c), other) => {
                        let vb = self.eval(other, depth)?;
                        let va = self.materialize_const(*c, vb.fmt, depth + 1)?;
                        (va, vb)
                    }
                    (other, Expr::Const(c)) => {
                        let va = self.eval(other, depth)?;
                        let vb = self.materialize_const(*c, va.fmt, depth + 1)?;
                        (va, vb)
                    }
                    (l, r) => {
                        let va = self.eval(l, depth)?;
                        let vb = self.eval(r, depth + 1)?;
                        (va, vb)
                    }
                };
                let common = promote(va.fmt, vb.fmt);
                let ca = self.convert(va, common, depth)?;
                // The lhs conversion may land in stack(depth); keep rhs above.
                let cb = self.convert(vb, common, depth + 1)?;
                let dst = self.stack(depth)?;
                match op {
                    BinOp::Add => {
                        self.asm.fadd(common, dst, ca.reg, cb.reg);
                    }
                    BinOp::Sub => {
                        self.asm.fsub(common, dst, ca.reg, cb.reg);
                    }
                    BinOp::Mul => {
                        self.asm.fmul(common, dst, ca.reg, cb.reg);
                    }
                    BinOp::Div => {
                        self.asm.fdiv(common, dst, ca.reg, cb.reg);
                    }
                    BinOp::Max => {
                        self.asm.fminmax(common, MinMaxOp::Max, dst, ca.reg, cb.reg);
                    }
                    BinOp::Gate => {
                        // step = (0 ≤ a) as 0.0/1.0 (exact at every
                        // format), then dst = b·step; fle sends NaN
                        // predicates to zero, matching the interpreters.
                        let step = self.stack(depth + 2)?;
                        self.asm.li(T0, 0);
                        self.asm.fmv_f(common, step, T0);
                        self.asm.fcmp(common, CmpOp::Le, T0, step, ca.reg);
                        self.asm.fcvt_f(common, step, T0, true);
                        self.asm.fmul(common, dst, cb.reg, step);
                    }
                };
                Ok(Val {
                    reg: dst,
                    fmt: common,
                })
            }
        }
    }

    // ----------------- vector path -----------------

    fn analyze_loop(&self, var: &str, lo: i64, body: &[Stmt]) -> Option<VecPlan> {
        let mut items = Vec::new();
        let mut lanes = None;
        let mut hoists: Vec<(Expr, FpFmt)> = Vec::new();
        for s in body {
            match s {
                Stmt::For { .. } => return None,
                Stmt::Store { array, idx, value } => {
                    let fmt = self.kernel.type_of(array)?;
                    let l = fmt.lanes(32)?;
                    if !check_lanes(&mut lanes, l) {
                        return None;
                    }
                    if !unit_stride_ok(idx, var, l, lo) {
                        return None;
                    }
                    // Invariant values are hoisted and splatted at the store
                    // type; varying values must already compute at it.
                    let vfmt = if value.invariant_in(var) {
                        fmt
                    } else {
                        expr_type(self.kernel, value)
                    };
                    if vfmt != fmt {
                        return None;
                    }
                    let vex = vectorize_expr(self.kernel, value, var, vfmt, l, lo, &mut hoists)?;
                    items.push(VecItem::Map {
                        array: array.clone(),
                        idx: idx.clone(),
                        vex,
                    });
                }
                Stmt::SetScalar { name, value } => {
                    // Pattern: name = name + rest.
                    let Expr::Bin {
                        op: BinOp::Add,
                        lhs,
                        rhs,
                    } = value
                    else {
                        return None;
                    };
                    let Expr::Scalar(n2) = &**lhs else {
                        return None;
                    };
                    if n2 != name {
                        return None;
                    }
                    if rhs.invariant_in(var) {
                        return None;
                    }
                    let acc_fmt = self.kernel.type_of(name)?;
                    let elem_fmt = expr_type(self.kernel, rhs);
                    let l = elem_fmt.lanes(32)?;
                    if !check_lanes(&mut lanes, l) {
                        return None;
                    }
                    let vex = vectorize_expr(self.kernel, rhs, var, elem_fmt, l, lo, &mut hoists)?;
                    let wide = if acc_fmt == elem_fmt {
                        false
                    } else if acc_fmt == FpFmt::S {
                        true
                    } else {
                        return None;
                    };
                    items.push(VecItem::Reduce {
                        name: name.clone(),
                        elem_fmt,
                        wide,
                        vex,
                    });
                }
            }
        }
        let lanes = lanes?;
        if items.is_empty() || hoists.len() > 4 {
            return None;
        }
        Some(VecPlan {
            lanes,
            items,
            hoists,
        })
    }

    fn emit_vector_loop(
        &mut self,
        var: &str,
        lo: i64,
        hi: &Bound,
        body: &[Stmt],
        plan: VecPlan,
    ) -> Result<(), XccError> {
        self.vectorized += 1;
        let lanes = plan.lanes as i64;
        let (vreg, breg) = self.alloc_loop(var)?;
        let vhead = self.fresh("vhead");
        let vexit = self.fresh("vexit");
        let ehead = self.fresh("ehead");
        let eexit = self.fresh("eexit");

        // Preheader: hoist invariants and splat them into full vectors.
        let nh = plan.hoists.len();
        for (i, (expr, fmt)) in plan.hoists.iter().enumerate() {
            // Evaluate the invariant expression scalar-style above the
            // hoist slots, keep a binary32 copy, then splat via vfcpk.
            let v = self.eval(expr, nh)?;
            let v32 = self.convert(v, FpFmt::S, nh)?;
            let slot = self.stack(i)?;
            self.asm.vfcpk_a(*fmt, slot, v32.reg, v32.reg);
            if plan.lanes == 4 {
                self.asm.vfcpk_b(*fmt, slot, v32.reg, v32.reg);
            }
        }
        // Vector accumulators, zero-splat above hoists: narrow reductions,
        // plus expanding wide reductions whose `vfsdotpex` destination is
        // still packed (8-bit elements accumulate into two 16-bit lanes).
        let mut vaccs: Vec<(usize, FReg)> = Vec::new();
        for (i, item) in plan.items.iter().enumerate() {
            let needs_vacc = match item {
                VecItem::Reduce { wide: false, .. } => true,
                VecItem::Reduce {
                    elem_fmt,
                    wide: true,
                    vex,
                    ..
                } => self
                    .expanding_fmt(*elem_fmt, true, vex)
                    .is_some_and(|w| w != FpFmt::S),
                _ => false,
            };
            if needs_vacc {
                let reg = self.stack(nh + vaccs.len())?;
                self.asm.fmv_f(FpFmt::S, reg, XReg::ZERO);
                vaccs.push((i, reg));
            }
        }
        let stack_base = nh + vaccs.len();

        // Main vector loop: while var <= hi - lanes. Unit-stride accesses
        // get induction pointers (bumped 4 bytes per packed access).
        self.asm.li(vreg, lo as i32);
        self.bound_into(hi, breg, -(lanes - 1));
        self.setup_sr(var, lo, body, lanes)?;
        self.asm.label(&vhead);
        self.asm.branch(BranchCond::Ge, vreg, breg, &vexit);
        for (i, item) in plan.items.iter().enumerate() {
            match item {
                VecItem::Map { array, idx, vex } => {
                    let fmt = self.array_fmt(array)?;
                    let v = self.vec_eval(vex, fmt, stack_base)?;
                    let (base, disp) = self.addr_of(array, idx)?;
                    // A packed store of `lanes` elements is one 32-bit fsw.
                    self.asm.fstore(FpFmt::S, v, base, disp);
                }
                VecItem::Reduce {
                    name,
                    elem_fmt,
                    wide,
                    vex,
                } => {
                    if *wide {
                        if let Some(wfmt) = self.expanding_fmt(*elem_fmt, true, vex) {
                            // Expanding reduction: one vfsdotpex folds every
                            // lane product into the widened accumulator. A
                            // 16-bit element vector sums straight into the
                            // scalar binary32 home; an 8-bit one goes through
                            // a packed 16-bit vacc drained after the loop.
                            let VExpr::Bin { lhs, rhs, .. } = vex else {
                                unreachable!("expanding_fmt demands a product body")
                            };
                            let a = self.vec_eval(lhs, *elem_fmt, stack_base)?;
                            let b = self.vec_eval(rhs, *elem_fmt, stack_base + 1)?;
                            let dst = if wfmt == FpFmt::S {
                                self.homes[name].0
                            } else {
                                vaccs
                                    .iter()
                                    .find(|(idx, _)| *idx == i)
                                    .expect("wide vacc allocated")
                                    .1
                            };
                            self.asm.vfsdotpex(*elem_fmt, dst, a, b);
                            continue;
                        }
                        // Widening reduction: compute the lane vector, then
                        // extract + convert + accumulate every lane (the
                        // auto-vectorizer cannot use Xfaux expanding ops
                        // unless `expanding` is set).
                        let v = self.vec_eval(vex, *elem_fmt, stack_base)?;
                        let (home, _) = self.homes[name];
                        self.extract_accumulate(v, *elem_fmt, plan.lanes, home, true)?;
                    } else {
                        let (_, vacc) = *vaccs
                            .iter()
                            .find(|(idx, _)| *idx == i)
                            .expect("vacc allocated");
                        // vfmac straight into the accumulator when the body
                        // is a product; otherwise vfadd of the evaluated body.
                        if let VExpr::Bin {
                            op: BinOp::Mul,
                            lhs,
                            rhs,
                        } = vex
                        {
                            let a = self.vec_eval(lhs, *elem_fmt, stack_base)?;
                            let b = self.vec_eval(rhs, *elem_fmt, stack_base + 1)?;
                            self.asm.vfmac(*elem_fmt, vacc, a, b);
                        } else {
                            let v = self.vec_eval(vex, *elem_fmt, stack_base)?;
                            self.asm.vfadd(*elem_fmt, vacc, vacc, v);
                        }
                    }
                }
            }
        }
        self.bump_sr();
        self.asm.addi(vreg, vreg, lanes as i32);
        self.asm.j(&vhead);
        self.asm.label(&vexit);

        // Horizontal sums for vector accumulators. Expanding wide vaccs
        // hold `lanes/2` partial sums at the widened format and still need
        // the final convert-to-binary32 step.
        for (i, vacc) in &vaccs {
            let VecItem::Reduce {
                name,
                elem_fmt,
                wide,
                vex,
            } = &plan.items[*i]
            else {
                unreachable!("vacc indexes a reduction")
            };
            let (home, _) = self.homes[name];
            if *wide {
                let wfmt = self
                    .expanding_fmt(*elem_fmt, true, vex)
                    .expect("wide vacc implies expanding");
                self.extract_accumulate(*vacc, wfmt, plan.lanes / 2, home, true)?;
            } else {
                self.extract_accumulate(*vacc, *elem_fmt, plan.lanes, home, false)?;
            }
        }

        // Scalar epilogue for the remainder iterations (the induction
        // pointers are still valid; they now step one element at a time).
        self.retarget_sr_bumps(1);
        self.bound_into(hi, breg, 0);
        self.asm.label(&ehead);
        self.asm.branch(BranchCond::Ge, vreg, breg, &eexit);
        self.stmts(body)?;
        self.bump_sr();
        self.asm.addi(vreg, vreg, 1);
        self.asm.j(&ehead);
        self.asm.label(&eexit);
        self.clear_sr_and_hoists();
        self.free_loop(var);
        Ok(())
    }

    /// Widened destination format when a wide reduction may be lowered as
    /// `vfsdotpex` instead of the extract/convert chain: the `expanding`
    /// option must be on, the body must be a lane-wise product, and the
    /// element format must have a registry widening.
    fn expanding_fmt(&self, elem_fmt: FpFmt, wide: bool, vex: &VExpr) -> Option<FpFmt> {
        if !self.opts.expanding || !wide {
            return None;
        }
        if !matches!(vex, VExpr::Bin { op: BinOp::Mul, .. }) {
            return None;
        }
        elem_fmt.widen()
    }

    /// Accumulate every lane of `v` into scalar `home`: extract raw lane
    /// bits through the integer file, rebox, optionally widen to binary32
    /// (`widen`), and add at the accumulator's format.
    fn extract_accumulate(
        &mut self,
        v: FReg,
        elem_fmt: FpFmt,
        lanes: u32,
        home: FReg,
        widen: bool,
    ) -> Result<(), XccError> {
        let w = elem_fmt.width() as i32;
        let t_f = self.stack(FP_STACK.len() - 1)?; // topmost slot as scratch
        for lane in 0..lanes {
            self.asm.fmv_x(FpFmt::S, LANE_X, v);
            if lane > 0 {
                self.asm.srli(LANE_X, LANE_X, w * lane as i32);
            }
            self.asm.fmv_f(elem_fmt, t_f, LANE_X);
            if widen {
                self.asm.fcvt(FpFmt::S, elem_fmt, t_f, t_f);
                self.asm.fadd(FpFmt::S, home, home, t_f);
            } else {
                self.asm.fadd(elem_fmt, home, home, t_f);
            }
        }
        Ok(())
    }

    fn vec_eval(&mut self, e: &VExpr, fmt: FpFmt, depth: usize) -> Result<FReg, XccError> {
        match e {
            VExpr::Load { array, idx } => {
                let (base, disp) = self.addr_of(array, idx)?;
                let dst = self.stack(depth)?;
                // A packed load of all lanes is one 32-bit flw.
                self.asm.fload(FpFmt::S, dst, base, disp);
                Ok(dst)
            }
            VExpr::Splat(slot) => self.stack(*slot),
            VExpr::Bin { op, lhs, rhs } => {
                // Contract x + a*b into a lane-wise vfmac (the lane-level
                // equivalent of the scalar fmadd contraction, keeping the
                // vector lowering bit-identical to the interpreter).
                if *op == BinOp::Add {
                    let fused = match (&**lhs, &**rhs) {
                        (
                            x,
                            VExpr::Bin {
                                op: BinOp::Mul,
                                lhs: m1,
                                rhs: m2,
                            },
                        ) => Some((x, m1, m2)),
                        (
                            VExpr::Bin {
                                op: BinOp::Mul,
                                lhs: m1,
                                rhs: m2,
                            },
                            x,
                        ) => Some((x, m1, m2)),
                        _ => None,
                    };
                    if let Some((x, m1, m2)) = fused {
                        // The addend must land in a writable stack slot
                        // (vfmac accumulates in place).
                        let xv = self.vec_eval(x, fmt, depth)?;
                        let dst = self.stack(depth)?;
                        if xv != dst {
                            self.asm.fmv(FpFmt::S, dst, xv); // raw 32-bit move
                        }
                        let a = self.vec_eval(m1, fmt, depth + 1)?;
                        let b = self.vec_eval(m2, fmt, depth + 2)?;
                        self.asm.vfmac(fmt, dst, a, b);
                        return Ok(dst);
                    }
                }
                let a = self.vec_eval(lhs, fmt, depth)?;
                let b = self.vec_eval(rhs, fmt, depth + 1)?;
                let dst = self.stack(depth)?;
                let vop = match op {
                    BinOp::Add => VfOp::Add,
                    BinOp::Sub => VfOp::Sub,
                    BinOp::Mul => VfOp::Mul,
                    BinOp::Div => VfOp::Div,
                    BinOp::Max => VfOp::Max,
                    // vectorize_expr refuses Gate, so it never reaches here.
                    BinOp::Gate => unreachable!("gate loops take the scalar path"),
                };
                self.asm.vfop(vop, fmt, dst, a, b, false);
                Ok(dst)
            }
        }
    }
}

struct VecPlan {
    lanes: u32,
    items: Vec<VecItem>,
    hoists: Vec<(Expr, FpFmt)>,
}

enum VecItem {
    Map {
        array: String,
        idx: IdxExpr,
        vex: VExpr,
    },
    Reduce {
        name: String,
        elem_fmt: FpFmt,
        wide: bool,
        vex: VExpr,
    },
}

enum VExpr {
    Load {
        array: String,
        idx: IdxExpr,
    },
    Splat(usize),
    Bin {
        op: BinOp,
        lhs: Box<VExpr>,
        rhs: Box<VExpr>,
    },
}

/// The index terms not involving `var`, in a canonical order.
fn nonvar_terms(idx: &IdxExpr, var: &str) -> Vec<(String, i64)> {
    let mut t: Vec<(String, i64)> = idx
        .terms
        .iter()
        .filter(|(v, _)| v != var)
        .cloned()
        .collect();
    t.sort();
    t
}

fn collect_expr_loads(e: &Expr, out: &mut Vec<(String, IdxExpr)>) {
    match e {
        Expr::Load { array, idx } => out.push((array.clone(), idx.clone())),
        Expr::Bin { lhs, rhs, .. } => {
            collect_expr_loads(lhs, out);
            collect_expr_loads(rhs, out);
        }
        _ => {}
    }
}

fn collect_loads(stmts: &[Stmt], out: &mut Vec<(String, IdxExpr)>) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } => collect_loads(body, out),
            Stmt::Store { value, .. } => collect_expr_loads(value, out),
            Stmt::SetScalar { value, .. } => collect_expr_loads(value, out),
        }
    }
}

fn collect_stores(stmts: &[Stmt], out: &mut Vec<(String, IdxExpr)>) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } => collect_stores(body, out),
            Stmt::Store { array, idx, .. } => out.push((array.clone(), idx.clone())),
            Stmt::SetScalar { .. } => {}
        }
    }
}

fn check_lanes(lanes: &mut Option<u32>, l: u32) -> bool {
    match lanes {
        Some(prev) => *prev == l,
        None => {
            *lanes = Some(l);
            true
        }
    }
}

/// Unit stride in `var` with all other index components multiples of the
/// lane count (alignment), including the loop's lower bound.
fn unit_stride_ok(idx: &IdxExpr, var: &str, lanes: u32, lo: i64) -> bool {
    let l = lanes as i64;
    if idx.coeff(var) != 1 || lo % l != 0 || idx.offset % l != 0 {
        return false;
    }
    idx.terms.iter().all(|(v, c)| v == var || c % l == 0)
}

fn vectorize_expr(
    kernel: &Kernel,
    e: &Expr,
    var: &str,
    fmt: FpFmt,
    lanes: u32,
    lo: i64,
    hoists: &mut Vec<(Expr, FpFmt)>,
) -> Option<VExpr> {
    if e.invariant_in(var) {
        let slot = hoists.len();
        hoists.push((e.clone(), fmt));
        return Some(VExpr::Splat(slot));
    }
    match e {
        Expr::Load { array, idx } => {
            if kernel.type_of(array)? != fmt {
                return None;
            }
            if !unit_stride_ok(idx, var, lanes, lo) {
                return None;
            }
            Some(VExpr::Load {
                array: array.clone(),
                idx: idx.clone(),
            })
        }
        Expr::Bin { op, lhs, rhs } => {
            // No lane-wise compare-and-select in the emitted subset: gated
            // expressions always fall back to the scalar loop.
            if *op == BinOp::Gate {
                return None;
            }
            let l = vectorize_expr(kernel, lhs, var, fmt, lanes, lo, hoists)?;
            let r = vectorize_expr(kernel, rhs, var, fmt, lanes, lo, hoists)?;
            // Two splats cannot happen: the whole expr would be invariant.
            Some(VExpr::Bin {
                op: *op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            })
        }
        // A non-invariant Scalar/Const is impossible; treat defensively.
        _ => None,
    }
}

impl PartialEq for Compiled {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
    }
}

impl fmt::Debug for Compiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Compiled {{ {} instrs, {} vectorized loops }}",
            self.program.len(),
            self.vectorized_loops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smallfloat_isa::InstrClass;

    fn saxpy(ty: FpFmt, n: usize) -> Kernel {
        let mut k = Kernel::new("saxpy");
        k.array("x", ty, n)
            .array("y", ty, n)
            .scalar("alpha", ty, 2.0);
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
    fn scalar_compile_produces_program() {
        let k = saxpy(FpFmt::S, 8);
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(c.program.last(), Some(Instr::Ecall)));
        assert_eq!(c.vectorized_loops, 0);
        assert!(c.listing.contains("fmadd.s"), "contracted multiply-add");
        assert_eq!(c.layout.entry("x").unwrap().addr, DATA_BASE);
        assert_eq!(c.layout.entry("y").unwrap().addr, DATA_BASE + 32);
    }

    #[test]
    fn f32_never_vectorizes() {
        let k = saxpy(FpFmt::S, 8);
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 0, "no binary32 lanes at FLEN=32");
    }

    #[test]
    fn f16_map_vectorizes() {
        let k = saxpy(FpFmt::H, 8);
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 1);
        assert!(c.listing.contains("vfmac.h"), "listing:\n{}", c.listing);
        assert!(c.listing.contains("vfcpk.a.h.s"), "alpha splat");
        assert!(
            c.program.iter().any(|i| i.class() == InstrClass::FpVecH),
            "contains SIMD instructions"
        );
    }

    #[test]
    fn misaligned_offset_blocks_vectorization() {
        let mut k = saxpy(FpFmt::H, 8);
        // y[i+1] = ... : offset 1 not a multiple of 2 lanes.
        if let Stmt::For { body, .. } = &mut k.body[0] {
            if let Stmt::Store { idx, .. } = &mut body[0] {
                idx.offset = 1;
            }
        }
        if let Stmt::For { hi, .. } = &mut k.body[0] {
            *hi = Bound::constant(7);
        }
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 0);
    }

    #[test]
    fn reduction_wide_acc_extracts_lanes() {
        // f32 accumulator over f16 elements: Fig. 5 auto pattern.
        let mut k = Kernel::new("dot");
        k.array("a", FpFmt::H, 8)
            .array("b", FpFmt::H, 8)
            .scalar("sum", FpFmt::S, 0.0);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(8),
            vec![Stmt::accum(
                "sum",
                Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i")),
            )],
        )];
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 1);
        assert!(c.listing.contains("vfmul.h"));
        assert!(
            c.listing.contains("fcvt.s.h"),
            "per-lane conversions present"
        );
        assert!(c.listing.contains("srli"), "lane extraction shifts present");
    }

    #[test]
    fn reduction_same_type_uses_vfmac() {
        let mut k = Kernel::new("dot16");
        k.array("a", FpFmt::H, 8)
            .array("b", FpFmt::H, 8)
            .scalar("sum", FpFmt::H, 0.0);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(8),
            vec![Stmt::accum(
                "sum",
                Expr::load("a", IdxExpr::var("i")) * Expr::load("b", IdxExpr::var("i")),
            )],
        )];
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 1);
        assert!(c.listing.contains("vfmac.h"), "listing:\n{}", c.listing);
        assert!(!c.listing.contains("fcvt.s.h"), "no widening conversions");
    }

    #[test]
    fn relu_max_lowers_scalar_and_vector() {
        // y[i] = max(x[i], 0) — the NN ReLU shape.
        let mut k = Kernel::new("relu");
        k.array("x", FpFmt::H, 8).array("y", FpFmt::H, 8);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(8),
            vec![Stmt::store(
                "y",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")).max(Expr::lit(0.0)),
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
        assert!(c.listing.contains("fmax.h"), "listing:\n{}", c.listing);
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 1);
        assert!(c.listing.contains("vfmax.h"), "listing:\n{}", c.listing);
        assert!(c.listing.contains("vfcpk.a.h.s"), "zero splat hoisted");
    }

    #[test]
    fn gate_lowers_scalar_only() {
        // dx[i] = gate(x[i], dy[i]) — the ReLU backward shape.
        let mut k = Kernel::new("relu_bwd");
        k.array("x", FpFmt::H, 8)
            .array("dy", FpFmt::H, 8)
            .array("dx", FpFmt::H, 8);
        k.body = vec![Stmt::for_(
            "i",
            0,
            Bound::constant(8),
            vec![Stmt::store(
                "dx",
                IdxExpr::var("i"),
                Expr::load("x", IdxExpr::var("i")).gate(Expr::load("dy", IdxExpr::var("i"))),
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
        assert!(c.listing.contains("fle.h"), "listing:\n{}", c.listing);
        assert!(c.listing.contains("fcvt.h.w"), "step materialized via cvt");
        // Even with the vectorizer on, gated loops take the scalar path.
        let c = compile(
            &k,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.vectorized_loops, 0, "gate must not vectorize");
    }

    #[test]
    fn errors_reported() {
        let mut k = Kernel::new("bad");
        k.body = vec![Stmt::store("nope", IdxExpr::constant(0), Expr::lit(1.0))];
        assert_eq!(
            compile(&k, CodegenOptions::default()),
            Err(XccError::UnknownName("nope".into()))
        );
        let mut k = Kernel::new("many");
        for i in 0..7 {
            k.array(&format!("a{i}"), FpFmt::S, 4);
        }
        assert_eq!(
            compile(&k, CodegenOptions::default()),
            Err(XccError::TooManyArrays)
        );
    }
}
