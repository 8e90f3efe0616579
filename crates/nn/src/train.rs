//! Mixed-precision training on the simulator: forward, reverse-mode
//! backward and SGD/momentum update, all lowered through `smallfloat-xcc`
//! and executed per step with per-layer, per-phase cycle/energy/SQNR
//! attribution.
//!
//! The training convention is the MiniFloat-NN / ExSdotp one the paper's
//! expanding operations exist for: activations and gradients are stored
//! at smallFloat formats (assignable per layer *per pass* — forward and
//! backward may differ, see [`PassAssignment`]), every genuine
//! accumulation runs through a binary32 accumulator (the auto-vectorizer
//! emits `vfsdotpex` for the unit-stride backward contractions when
//! `expanding` lowering is on), and master weights plus momentum stay
//! binary32 end to end — the host keeps them as exact binary32 values and
//! the on-simulator [`crate::grad::sgd_kernel`] updates them.
//!
//! The host drives each step exactly like inference does: kernels run at
//! their assigned formats, outputs are read back widened to `f64` and
//! re-quantized at the next kernel's boundary. The loss head
//! ([`crate::grad::cross_entropy`]) runs on the host at `f64` (no
//! transcendentals in the ISA). [`train_f64`] is the same loop with every
//! kernel replaced by its `f64` reference — the ground-truth loss curve
//! mixed runs are measured against ([`loss_parity_error`]).
//!
//! [`tune_training`] extends the greedy tuner to per-pass variables: each
//! layer contributes a `name@fwd` and a `name@bwd` variable, candidate
//! evaluations run complete short training runs on the simulator, and the
//! batch of candidates for one variable is fanned out across host worker
//! threads ([`smallfloat_tuner::tune_batched`]). Re-launches inside those
//! runs fork the runner's warmed `Cpu` snapshots instead of re-running
//! from reset (`smallfloat_kernels::pool_counters` observes this), and
//! the tuned assignment is independent of the worker count.

use crate::grad::{
    conv_bwd_w, conv_bwd_x, cross_entropy, dense_bwd_w, dense_bwd_x, flip_w, layer_backward_f64,
    pad_dy, pool_bwd, relu_bwd, sgd_kernel, transpose,
};
use crate::graph::{layer_forward_f64, uniform, Dataset, Layer, Network, Params, CONV_K};
use crate::infer::{infer_typed, Assignment};
use crate::qor::{accuracy, argmax};
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{launch, pool_counters, Precision, VecMode};
use smallfloat_sim::{MemLevel, Stats};
use smallfloat_tuner::{tune_batched, TuneResult, TunerConfig};
use smallfloat_xcc::codegen::{compile, CodegenOptions, Compiled};
use smallfloat_xcc::interp::{TypedProgram, TypedState};
use smallfloat_xcc::ir::Kernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One of the three phases of a training step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass (activation kernels).
    Fwd,
    /// Backward pass (gradient kernels).
    Bwd,
    /// Master-weight SGD/momentum update.
    Update,
}

impl Phase {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Fwd => "fwd",
            Phase::Bwd => "bwd",
            Phase::Update => "update",
        }
    }
}

/// Per-layer formats assigned separately to the forward and backward
/// pass (the update phase stores binary32 master weights and reads the
/// gradient at the layer's backward format).
#[derive(Clone, Debug, PartialEq)]
pub struct PassAssignment {
    /// Forward-pass storage format per layer.
    pub fwd: Assignment,
    /// Backward-pass (gradient) storage format per layer.
    pub bwd: Assignment,
}

impl PassAssignment {
    /// Both passes of every layer at one format.
    pub fn uniform(net: &Network, fmt: FpFmt) -> PassAssignment {
        let a: Assignment = net
            .layers
            .iter()
            .map(|l| (l.name().to_string(), fmt))
            .collect();
        PassAssignment {
            fwd: a.clone(),
            bwd: a,
        }
    }

    fn of(assignment: &Assignment, name: &str) -> FpFmt {
        assignment
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| panic!("assignment misses layer `{name}`"))
    }

    /// Forward format of a layer.
    pub fn fwd_of(&self, name: &str) -> FpFmt {
        PassAssignment::of(&self.fwd, name)
    }

    /// Backward format of a layer.
    pub fn bwd_of(&self, name: &str) -> FpFmt {
        PassAssignment::of(&self.bwd, name)
    }
}

/// Training hyperparameters. Everything is deterministic: fresh weights
/// come from the seeded generator (rounded to binary32 so the `f64`
/// reference and the mixed runs start bit-identically), and minibatches
/// cycle through the dataset in order.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// SGD steps.
    pub steps: usize,
    /// Minibatch size (keep it a lane multiple so the batched backward
    /// contractions vectorize).
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Weight-initialization seed.
    pub init_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            steps: 64,
            batch: 16,
            lr: 0.05,
            momentum: 0.9,
            init_seed: 0x512E_0001,
        }
    }
}

/// Where the kernels run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Typed interpreter — bit-identical with the scalar simulator
    /// lowering, no cost model.
    Typed,
    /// Cycle-accurate simulator. Non-scalar modes compile with the
    /// expanding option, so backward contractions accumulate through
    /// `vfsdotpex` (there are no hand-written backward kernels; `Manual`
    /// behaves like `Auto`).
    Sim {
        /// Lowering mode.
        mode: VecMode,
        /// Memory latency level.
        level: MemLevel,
    },
}

/// Cost and quantization-noise attribution of one (layer, phase) pair,
/// aggregated over all steps of a run.
#[derive(Clone, Debug)]
pub struct PhaseRun {
    /// Layer name.
    pub layer: String,
    /// Phase.
    pub phase: Phase,
    /// Storage format the phase ran at.
    pub fmt: FpFmt,
    /// Aggregated simulator statistics (zero under [`Exec::Typed`]).
    pub stats: Stats,
    /// SQNR (dB) of the phase's outputs against their local `f64` shadow
    /// (the same operation computed at `f64` on the same host inputs) —
    /// the quantization noise this phase injects. `inf` for exact phases.
    pub sqnr_db: f64,
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct Training {
    /// Per-step training loss (host `f64` cross-entropy head).
    pub losses: Vec<f64>,
    /// Final accuracy over the whole dataset, evaluated at the
    /// forward-pass assignment on the typed interpreter.
    pub accuracy: f64,
    /// Per-(layer, phase) attribution in layer order, `fwd`/`bwd`/`update`
    /// per layer where applicable.
    pub phases: Vec<PhaseRun>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub instret: u64,
    /// Total energy (pJ).
    pub energy_pj: f64,
    /// Final master weights (exact binary32 values, widened to `f64`).
    pub params: Vec<Params>,
}

/// Outcome of the `f64` reference run.
#[derive(Clone, Debug)]
pub struct TrainingF64 {
    /// Per-step training loss.
    pub losses: Vec<f64>,
    /// Final accuracy over the whole dataset (reference forward pass).
    pub accuracy: f64,
    /// Final weights.
    pub params: Vec<Params>,
}

/// Round to the nearest binary32 value (master-weight storage).
fn round_s(v: f64) -> f64 {
    v as f32 as f64
}

/// Fresh, deterministic training weights: uniform `±1.5/√fan_in` (the
/// hidden-layer scaling of the inference tasks) rounded to binary32, with
/// small uniform biases. The inference networks' calibrated parameters
/// are *not* used — training starts from scratch.
pub fn training_init(net: &Network, seed: u64) -> Vec<Params> {
    net.layers
        .iter()
        .enumerate()
        .map(|(li, layer)| {
            let (wl, bl) = layer.param_lens();
            if wl == 0 {
                return Params::default();
            }
            let fan_in = match layer {
                Layer::Dense { inp, .. } => *inp,
                Layer::Conv2d { in_ch, .. } => in_ch * CONV_K * CONV_K,
                _ => unreachable!("parameterless layers have no weights"),
            };
            let amp = 1.5 / (fan_in as f64).sqrt();
            Params {
                w: uniform(wl, seed.wrapping_add(2 * li as u64 + 1), amp)
                    .into_iter()
                    .map(round_s)
                    .collect(),
                bias: uniform(bl, seed.wrapping_add(2 * li as u64 + 2), 0.05)
                    .into_iter()
                    .map(round_s)
                    .collect(),
            }
        })
        .collect()
}

/// The minibatch for one step: inputs and labels, cycling through the
/// dataset in order.
fn batch_of(ds: &Dataset, step: usize, batch: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let n = ds.inputs.len();
    (0..batch)
        .map(|j| {
            let i = (step * batch + j) % n;
            (ds.inputs[i].clone(), ds.labels[i])
        })
        .unzip()
}

/// Which of a layer's kernels a launch runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Role {
    Fwd,
    BwdW,
    BwdX,
    UpdateW,
    UpdateB,
}

/// A typed kernel made ready for its executor once.
enum Prepared {
    Typed(Kernel, TypedProgram),
    Sim(Kernel, Compiled, MemLevel),
}

/// The kernels of one [`train`] call. Within a call a (layer, role) pair
/// always runs the same typed kernel — formats, batch size and
/// hyperparameters are fixed — so each is built, then compiled (or
/// resolved for the typed interpreter), on its first launch and reused by
/// every later step and sample. Dropped when the call returns.
struct Plan<'e> {
    exec: &'e Exec,
    kernels: HashMap<(usize, Role), Prepared>,
}

impl<'e> Plan<'e> {
    fn new(exec: &'e Exec) -> Plan<'e> {
        Plan {
            exec,
            kernels: HashMap::new(),
        }
    }

    /// Run layer `li`'s `role` kernel (built by `build` on first use) and
    /// read back the named arrays.
    fn run(
        &mut self,
        li: usize,
        role: Role,
        build: impl FnOnce() -> Kernel,
        inputs: &[(String, Vec<f64>)],
        read: &[&str],
    ) -> (Vec<Vec<f64>>, Stats) {
        let exec = self.exec;
        let prepared = self.kernels.entry((li, role)).or_insert_with(|| {
            let typed = build();
            match exec {
                Exec::Typed => {
                    let program = TypedProgram::new(&typed);
                    Prepared::Typed(typed, program)
                }
                Exec::Sim { mode, level } => {
                    let compiled = compile(
                        &typed,
                        CodegenOptions {
                            vectorize: !matches!(mode, VecMode::Scalar),
                            expanding: true,
                        },
                    )
                    .expect("training kernels are sized within the register pools");
                    Prepared::Sim(typed, compiled, *level)
                }
            }
        });
        match prepared {
            Prepared::Typed(typed, program) => {
                let mut st = TypedState::for_kernel(typed);
                for (name, vals) in inputs {
                    st.set_array(name, vals);
                }
                program.run(&mut st);
                (
                    read.iter().map(|name| st.array_f64(name)).collect(),
                    Stats::default(),
                )
            }
            Prepared::Sim(typed, compiled, level) => launch(typed, compiled, inputs, *level, read),
        }
    }
}

/// Running SQNR accumulator per (layer, phase).
#[derive(Clone, Default)]
struct Attr {
    stats: Stats,
    signal: f64,
    noise: f64,
    active: bool,
}

impl Attr {
    fn record(&mut self, stats: &Stats, golden: &[f64], measured: &[f64]) {
        assert_eq!(golden.len(), measured.len());
        self.stats.cycles += stats.cycles;
        self.stats.instret += stats.instret;
        self.stats.energy_pj += stats.energy_pj;
        for (g, m) in golden.iter().zip(measured) {
            let m = if m.is_finite() { *m } else { 0.0 };
            self.signal += g * g;
            self.noise += (g - m) * (g - m);
        }
        self.active = true;
    }

    fn sqnr_db(&self) -> f64 {
        if self.noise == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (self.signal / self.noise).log10()
        }
    }
}

/// Mixed-precision training run. Weights start from
/// [`training_init`]`(net, cfg.init_seed)`; the network's own (inference)
/// parameters are ignored. See the module docs for the dataflow.
pub fn train(
    net: &Network,
    ds: &Dataset,
    pa: &PassAssignment,
    cfg: &TrainConfig,
    exec: &Exec,
) -> Training {
    let nl = net.layers.len();
    let mut params = training_init(net, cfg.init_seed);
    let mut vel: Vec<Params> = params
        .iter()
        .map(|p| Params {
            w: vec![0.0; p.w.len()],
            bias: vec![0.0; p.bias.len()],
        })
        .collect();
    let mut attr: Vec<[Attr; 3]> = (0..nl).map(|_| <[Attr; 3]>::default()).collect();
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut plan = Plan::new(exec);

    for step in 0..cfg.steps {
        let (xs, labels) = batch_of(ds, step, cfg.batch);
        // ---- forward ----
        let mut acts_in: Vec<Vec<Vec<f64>>> = Vec::with_capacity(nl);
        let mut cur = xs;
        for (li, layer) in net.layers.iter().enumerate() {
            let fmt = pa.fwd_of(layer.name());
            acts_in.push(cur.clone());
            let (out, stats) = forward_layer(&mut plan, li, layer, &params[li], &cur, fmt);
            let golden: Vec<f64> = cur
                .iter()
                .flat_map(|x| layer_forward_f64(layer, &params[li], x))
                .collect();
            let measured: Vec<f64> = out.iter().flatten().copied().collect();
            attr[li][0].record(&stats, &golden, &measured);
            cur = out;
        }
        // ---- loss head (host f64) ----
        let scores: Vec<f64> = cur.iter().flatten().copied().collect();
        let (loss, dscores) = cross_entropy(&scores, &labels, ds.classes);
        losses.push(loss);
        // ---- backward ----
        let mut dy: Vec<Vec<f64>> = dscores.chunks(ds.classes).map(<[f64]>::to_vec).collect();
        let mut grads: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; nl];
        for li in (0..nl).rev() {
            let layer = &net.layers[li];
            let fmt = pa.bwd_of(layer.name());
            let need_dx = li > 0;
            let b = backward_layer(
                &mut plan,
                li,
                layer,
                &params[li],
                &acts_in[li],
                &dy,
                fmt,
                need_dx,
            );
            attr[li][1].record(&b.stats, &b.golden, &b.measured);
            if let Some(g) = b.grads {
                grads[li] = Some(g);
            }
            if need_dx {
                dy = b.dx;
            }
        }
        // ---- master-weight update ----
        for li in 0..nl {
            let Some((dw, db)) = grads[li].take() else {
                continue;
            };
            let layer = &net.layers[li];
            let fmt = pa.bwd_of(layer.name());
            let mut stats = Stats::default();
            let (mut golden, mut measured) = (Vec::new(), Vec::new());
            for (which, role, grad) in [("w", Role::UpdateW, dw), ("b", Role::UpdateB, db)] {
                let (p_host, v_host) = match role {
                    Role::UpdateW => (&mut params[li].w, &mut vel[li].w),
                    _ => (&mut params[li].bias, &mut vel[li].bias),
                };
                let build = || {
                    let k = sgd_kernel(
                        &format!("{}_{which}", layer.name()),
                        grad.len(),
                        cfg.lr,
                        cfg.momentum,
                    );
                    if fmt == FpFmt::S {
                        Precision::F32.apply(&k)
                    } else {
                        Precision::Mixed {
                            default: FpFmt::S,
                            assignment: vec![("g".to_string(), fmt)],
                        }
                        .apply(&k)
                    }
                };
                let inputs = vec![
                    ("p".to_string(), p_host.clone()),
                    ("v".to_string(), v_host.clone()),
                    ("g".to_string(), grad.clone()),
                ];
                let (out, s) = plan.run(li, role, build, &inputs, &["p", "v"]);
                stats.cycles += s.cycles;
                stats.instret += s.instret;
                stats.energy_pj += s.energy_pj;
                // f64 shadow of the update on the unquantized gradient.
                for t in 0..grad.len() {
                    let vg = cfg.momentum * v_host[t] + grad[t];
                    golden.push(vg);
                    golden.push(p_host[t] - cfg.lr * vg);
                    measured.push(out[1][t]);
                    measured.push(out[0][t]);
                }
                *p_host = out[0].clone();
                *v_host = out[1].clone();
            }
            attr[li][2].record(&stats, &golden, &measured);
        }
    }

    // Final accuracy at the forward assignment (typed interpreter — the
    // bit-identical stand-in for the scalar simulator).
    let trained = Network {
        name: net.name,
        layers: net.layers.clone(),
        params: params.clone(),
    };
    let outs = infer_typed(&trained, &ds.inputs, &pa.fwd);
    let preds: Vec<usize> = outs.iter().map(|o| argmax(o)).collect();

    let mut phases = Vec::new();
    let (mut cycles, mut instret, mut energy_pj) = (0, 0, 0.0);
    for (li, layer) in net.layers.iter().enumerate() {
        for (pi, phase) in [Phase::Fwd, Phase::Bwd, Phase::Update]
            .into_iter()
            .enumerate()
        {
            let a = &attr[li][pi];
            if !a.active {
                continue;
            }
            cycles += a.stats.cycles;
            instret += a.stats.instret;
            energy_pj += a.stats.energy_pj;
            phases.push(PhaseRun {
                layer: layer.name().to_string(),
                phase,
                fmt: match phase {
                    Phase::Fwd => pa.fwd_of(layer.name()),
                    _ => pa.bwd_of(layer.name()),
                },
                stats: a.stats.clone(),
                sqnr_db: a.sqnr_db(),
            });
        }
    }
    Training {
        losses,
        accuracy: accuracy(&preds, &ds.labels),
        phases,
        cycles,
        instret,
        energy_pj,
        params,
    }
}

/// One forward layer through `plan` (batched, or per-sample for conv).
fn forward_layer(
    plan: &mut Plan,
    li: usize,
    layer: &Layer,
    params: &Params,
    xs: &[Vec<f64>],
    fmt: FpFmt,
) -> (Vec<Vec<f64>>, Stats) {
    use crate::lower::{layer_inputs, layer_kernel, layer_precision};
    let n = xs.len();
    let out_len = layer.out_len();
    let mut stats = Stats::default();
    let build = |batch| move || layer_precision(fmt).apply(&layer_kernel(layer, batch));
    if layer.batched() {
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let inputs = layer_inputs(layer, params, &flat, n);
        let (out, s) = plan.run(li, Role::Fwd, build(n), &inputs, &["y"]);
        stats = s;
        (out[0].chunks(out_len).map(<[f64]>::to_vec).collect(), stats)
    } else {
        let mut outs = Vec::with_capacity(n);
        for x in xs {
            let inputs = layer_inputs(layer, params, x, 1);
            let (out, s) = plan.run(li, Role::Fwd, build(1), &inputs, &["y"]);
            stats.cycles += s.cycles;
            stats.instret += s.instret;
            stats.energy_pj += s.energy_pj;
            outs.push(out[0].clone());
        }
        (outs, stats)
    }
}

/// Backward results of one layer over a batch.
struct Backward {
    /// Per-sample input gradients (empty when not requested).
    dx: Vec<Vec<f64>>,
    /// `(dw, db)` summed over the batch for weighted layers.
    grads: Option<(Vec<f64>, Vec<f64>)>,
    stats: Stats,
    /// `f64` shadow of everything this phase produced, concatenated.
    golden: Vec<f64>,
    /// The matching kernel read-backs.
    measured: Vec<f64>,
}

fn add(stats: &mut Stats, s: &Stats) {
    stats.cycles += s.cycles;
    stats.instret += s.instret;
    stats.energy_pj += s.energy_pj;
}

/// One backward layer through `plan` at gradient format `fmt`. `xs` are the
/// host `f64` copies of the activations the forward pass fed this layer,
/// `dys` the upstream gradients; both re-quantize at this layer's
/// backward format on kernel entry.
#[allow(clippy::too_many_arguments)]
fn backward_layer(
    plan: &mut Plan,
    li: usize,
    layer: &Layer,
    params: &Params,
    xs: &[Vec<f64>],
    dys: &[Vec<f64>],
    fmt: FpFmt,
    need_dx: bool,
) -> Backward {
    use crate::lower::layer_precision;
    let n = xs.len();
    let prec = layer_precision(fmt);
    let mut stats = Stats::default();
    let (mut golden, mut measured) = (Vec::new(), Vec::new());
    // f64 shadows, per sample.
    let shadows: Vec<_> = xs
        .iter()
        .zip(dys)
        .map(|(x, dy)| layer_backward_f64(layer, params, x, dy))
        .collect();
    let flat_x: Vec<f64> = xs.iter().flatten().copied().collect();
    let flat_dy: Vec<f64> = dys.iter().flatten().copied().collect();
    let mut dx = Vec::new();
    let mut grads = None;
    match layer {
        Layer::Dense { inp, out, .. } => {
            let build = || prec.apply(&dense_bwd_w(layer.name(), *inp, *out, n));
            let inputs = vec![
                ("xt".to_string(), transpose(&flat_x, n, *inp)),
                ("dyt".to_string(), transpose(&flat_dy, n, *out)),
                ("dw".to_string(), vec![0.0; inp * out]),
                ("db".to_string(), vec![0.0; *out]),
                ("one".to_string(), vec![1.0; n]),
            ];
            let (o, s) = plan.run(li, Role::BwdW, build, &inputs, &["dw", "db"]);
            add(&mut stats, &s);
            let (mut gw, mut gb) = (vec![0.0; inp * out], vec![0.0; *out]);
            for sh in &shadows {
                for (a, b) in gw.iter_mut().zip(&sh.dw) {
                    *a += b;
                }
                for (a, b) in gb.iter_mut().zip(&sh.db) {
                    *a += b;
                }
            }
            golden.extend_from_slice(&gw);
            golden.extend_from_slice(&gb);
            measured.extend_from_slice(&o[0]);
            measured.extend_from_slice(&o[1]);
            grads = Some((o[0].clone(), o[1].clone()));
            if need_dx {
                let build = || prec.apply(&dense_bwd_x(layer.name(), *inp, *out, n));
                let inputs = vec![
                    ("wt".to_string(), transpose(&params.w, *out, *inp)),
                    ("dy".to_string(), flat_dy.clone()),
                    ("dx".to_string(), vec![0.0; n * inp]),
                ];
                let (o, s) = plan.run(li, Role::BwdX, build, &inputs, &["dx"]);
                add(&mut stats, &s);
                golden.extend(shadows.iter().flat_map(|sh| sh.dx.iter().copied()));
                measured.extend_from_slice(&o[0]);
                dx = o[0].chunks(*inp).map(<[f64]>::to_vec).collect();
            }
        }
        Layer::Conv2d {
            in_ch,
            out_ch,
            h,
            w,
            ..
        } => {
            let (oh, ow) = (h - CONV_K + 1, w - CONV_K + 1);
            let build_w = || prec.apply(&conv_bwd_w(layer.name(), *in_ch, *out_ch, *h, *w));
            let build_x = || prec.apply(&conv_bwd_x(layer.name(), *in_ch, *out_ch, *h, *w));
            let wl = out_ch * in_ch * CONV_K * CONV_K;
            let (mut gw, mut gb) = (vec![0.0; wl], vec![0.0; *out_ch]);
            let (mut mw, mut mb) = (vec![0.0; wl], vec![0.0; *out_ch]);
            for (x, dy) in xs.iter().zip(dys) {
                let inputs = vec![
                    ("x".to_string(), x.clone()),
                    ("dy".to_string(), dy.clone()),
                    ("dw".to_string(), vec![0.0; wl]),
                    ("db".to_string(), vec![0.0; *out_ch]),
                    ("one".to_string(), vec![1.0; oh * ow]),
                ];
                let (o, s) = plan.run(li, Role::BwdW, build_w, &inputs, &["dw", "db"]);
                add(&mut stats, &s);
                for (a, b) in mw.iter_mut().zip(&o[0]) {
                    *a += b;
                }
                for (a, b) in mb.iter_mut().zip(&o[1]) {
                    *a += b;
                }
                if need_dx {
                    let inputs = vec![
                        ("wf".to_string(), flip_w(&params.w, *out_ch, *in_ch)),
                        ("dyp".to_string(), pad_dy(dy, *out_ch, oh, ow)),
                        ("dx".to_string(), vec![0.0; layer.in_len()]),
                    ];
                    let (o, s) = plan.run(li, Role::BwdX, build_x, &inputs, &["dx"]);
                    add(&mut stats, &s);
                    measured.extend_from_slice(&o[0]);
                    dx.push(o[0].clone());
                }
            }
            for sh in &shadows {
                for (a, b) in gw.iter_mut().zip(&sh.dw) {
                    *a += b;
                }
                for (a, b) in gb.iter_mut().zip(&sh.db) {
                    *a += b;
                }
            }
            if need_dx {
                golden.extend(shadows.iter().flat_map(|sh| sh.dx.iter().copied()));
            }
            golden.extend_from_slice(&gw);
            golden.extend_from_slice(&gb);
            measured.extend_from_slice(&mw);
            measured.extend_from_slice(&mb);
            grads = Some((mw, mb));
        }
        Layer::Relu { len, .. } => {
            let build = || prec.apply(&relu_bwd(layer.name(), n * len));
            let inputs = vec![
                ("x".to_string(), flat_x),
                ("dy".to_string(), flat_dy),
                ("dx".to_string(), vec![0.0; n * len]),
            ];
            let (o, s) = plan.run(li, Role::BwdX, build, &inputs, &["dx"]);
            add(&mut stats, &s);
            golden.extend(shadows.iter().flat_map(|sh| sh.dx.iter().copied()));
            measured.extend_from_slice(&o[0]);
            dx = o[0].chunks(*len).map(<[f64]>::to_vec).collect();
        }
        Layer::MaxPool2 { ch, h, w, .. } => {
            let build = || prec.apply(&pool_bwd(layer.name(), n * ch, *h, *w));
            let inputs = vec![
                ("x".to_string(), flat_x),
                ("dy".to_string(), flat_dy),
                ("dx".to_string(), vec![0.0; n * ch * h * w]),
            ];
            let (o, s) = plan.run(li, Role::BwdX, build, &inputs, &["dx"]);
            add(&mut stats, &s);
            golden.extend(shadows.iter().flat_map(|sh| sh.dx.iter().copied()));
            measured.extend_from_slice(&o[0]);
            dx = o[0].chunks(ch * h * w).map(<[f64]>::to_vec).collect();
        }
    }
    Backward {
        dx,
        grads,
        stats,
        golden,
        measured,
    }
}

/// The all-`f64` reference training run: same initialization, batches and
/// loop orders as [`train`], every kernel replaced by its `f64` reference
/// — the ground-truth loss curve ([`loss_parity_error`]).
pub fn train_f64(net: &Network, ds: &Dataset, cfg: &TrainConfig) -> TrainingF64 {
    let nl = net.layers.len();
    let mut params = training_init(net, cfg.init_seed);
    let mut vel: Vec<Params> = params
        .iter()
        .map(|p| Params {
            w: vec![0.0; p.w.len()],
            bias: vec![0.0; p.bias.len()],
        })
        .collect();
    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let (xs, labels) = batch_of(ds, step, cfg.batch);
        let mut acts_in: Vec<Vec<Vec<f64>>> = Vec::with_capacity(nl);
        let mut cur = xs;
        for (li, layer) in net.layers.iter().enumerate() {
            acts_in.push(cur.clone());
            cur = cur
                .iter()
                .map(|x| layer_forward_f64(layer, &params[li], x))
                .collect();
        }
        let scores: Vec<f64> = cur.iter().flatten().copied().collect();
        let (loss, dscores) = cross_entropy(&scores, &labels, ds.classes);
        losses.push(loss);
        let mut dy: Vec<Vec<f64>> = dscores.chunks(ds.classes).map(<[f64]>::to_vec).collect();
        let mut grads: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; nl];
        for li in (0..nl).rev() {
            let layer = &net.layers[li];
            let shadows: Vec<_> = acts_in[li]
                .iter()
                .zip(&dy)
                .map(|(x, g)| layer_backward_f64(layer, &params[li], x, g))
                .collect();
            let (wl, bl) = layer.param_lens();
            if wl > 0 {
                let (mut gw, mut gb) = (vec![0.0; wl], vec![0.0; bl]);
                for sh in &shadows {
                    for (a, b) in gw.iter_mut().zip(&sh.dw) {
                        *a += b;
                    }
                    for (a, b) in gb.iter_mut().zip(&sh.db) {
                        *a += b;
                    }
                }
                grads[li] = Some((gw, gb));
            }
            if li > 0 {
                dy = shadows.into_iter().map(|sh| sh.dx).collect();
            }
        }
        for li in 0..nl {
            let Some((dw, db)) = grads[li].take() else {
                continue;
            };
            let sgd = |p: &mut [f64], v: &mut [f64], g: &[f64]| {
                for t in 0..g.len() {
                    v[t] = cfg.momentum * v[t] + g[t];
                    p[t] -= cfg.lr * v[t];
                }
            };
            sgd(&mut params[li].w, &mut vel[li].w, &dw);
            sgd(&mut params[li].bias, &mut vel[li].bias, &db);
        }
    }
    let trained = Network {
        name: net.name,
        layers: net.layers.clone(),
        params: params.clone(),
    };
    let preds: Vec<usize> = ds
        .inputs
        .iter()
        .map(|x| argmax(crate::graph::forward_f64(&trained, x).last().unwrap()))
        .collect();
    TrainingF64 {
        losses,
        accuracy: accuracy(&preds, &ds.labels),
        params,
    }
}

/// Relative floor for [`loss_parity_error`]: late-training losses go to
/// zero, so deviations are measured relative to `max(|ref|, FLOOR)`.
pub const LOSS_FLOOR: f64 = 0.25;

/// Loss-curve parity: the maximum per-step deviation of a mixed run's
/// loss from the `f64` reference, relative to `max(|reference|,
/// [`LOSS_FLOOR`])`. Non-finite losses (an overflowed format) count as
/// infinite error.
pub fn loss_parity_error(losses: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(losses.len(), reference.len(), "step count mismatch");
    losses
        .iter()
        .zip(reference)
        .map(|(l, r)| {
            if l.is_finite() {
                (l - r).abs() / r.abs().max(LOSS_FLOOR)
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// The greedy per-pass tuner's proxy kernel: two binary32 arrays per
/// layer, `name@fwd` and `name@bwd`, sized by the layer's storage cost —
/// so `tunable_names` enumerates every (layer, pass) variable in network
/// order, forward before backward.
pub fn pass_proxy_kernel(net: &Network) -> Kernel {
    let mut k = Kernel::new(net.name);
    for layer in &net.layers {
        k.array(
            &format!("{}@fwd", layer.name()),
            FpFmt::S,
            layer.cost_elems(),
        );
        k.array(
            &format!("{}@bwd", layer.name()),
            FpFmt::S,
            layer.cost_elems(),
        );
    }
    k
}

/// Read a retyped [`pass_proxy_kernel`] back into a [`PassAssignment`].
fn proxy_assignment(net: &Network, proxy: &Kernel) -> PassAssignment {
    let of = |suffix: &str| -> Assignment {
        net.layers
            .iter()
            .map(|l| {
                (
                    l.name().to_string(),
                    proxy
                        .type_of(&format!("{}@{suffix}", l.name()))
                        .expect("proxy declares every pass variable"),
                )
            })
            .collect()
    };
    PassAssignment {
        fwd: of("fwd"),
        bwd: of("bwd"),
    }
}

/// The per-pass training tuner's default constraint: the loss curve must
/// stay within 5 % of the `f64` reference ([`loss_parity_error`]), with
/// the registry's sub-binary32 formats as cheapest-first candidates.
pub fn training_tuner_config() -> TunerConfig {
    TunerConfig {
        max_error: 0.05,
        ..TunerConfig::default()
    }
}

/// Outcome of [`tune_training`].
#[derive(Clone, Debug)]
pub struct TrainTune {
    /// Raw greedy outcome over the `name@fwd`/`name@bwd` variables.
    pub result: TuneResult,
    /// The tuned per-pass assignment.
    pub assignment: PassAssignment,
    /// Simulator launches during tuning that forked a warmed `Cpu`
    /// snapshot vs. retrained one from reset (the
    /// `smallfloat_kernels::pool_counters` deltas of every worker, summed).
    pub warm_forks: u64,
    /// See [`TrainTune::warm_forks`].
    pub cold_trains: u64,
}

/// Greedy per-pass format tuning under a loss-parity constraint: each
/// `(layer, pass)` variable is minimized in network order, candidates
/// cheapest-first, by running a complete training run per candidate on
/// the cycle-accurate simulator and comparing its loss curve against the
/// `f64` reference.
///
/// The candidates of each variable are evaluated concurrently across
/// `host_workers` threads; each worker's launches fork the per-thread
/// warmed-simulator pool instead of re-running from reset. Candidate
/// errors depend only on the (deterministic) candidate run, so the tuned
/// assignment is identical for every worker count.
pub fn tune_training(
    net: &Network,
    ds: &Dataset,
    cfg: &TrainConfig,
    tcfg: &TunerConfig,
    host_workers: usize,
) -> TrainTune {
    let reference = train_f64(net, ds, cfg).losses;
    let proxy = pass_proxy_kernel(net);
    let exec = Exec::Sim {
        mode: VecMode::Auto,
        level: MemLevel::L1,
    };
    // Summed over the workers' own pools.
    let (warm_forks, cold_trains) = (AtomicU64::new(0), AtomicU64::new(0));
    let result = tune_batched(&proxy, tcfg, |batch| {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<f64>>> = Mutex::new(vec![None; batch.len()]);
        std::thread::scope(|scope| {
            for _ in 0..host_workers.max(1) {
                scope.spawn(|| {
                    let (f0, c0) = pool_counters();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= batch.len() {
                            break;
                        }
                        let pa = proxy_assignment(net, &batch[i]);
                        let t = train(net, ds, &pa, cfg, &exec);
                        slots.lock().unwrap()[i] = Some(loss_parity_error(&t.losses, &reference));
                    }
                    let (f1, c1) = pool_counters();
                    warm_forks.fetch_add(f1 - f0, Ordering::Relaxed);
                    cold_trains.fetch_add(c1 - c0, Ordering::Relaxed);
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|e| e.expect("every candidate evaluated"))
            .collect()
    });
    let mut proxy_final = proxy;
    for (name, fmt) in &result.assignment {
        if let Some(a) = proxy_final.arrays.iter_mut().find(|a| &a.name == name) {
            a.ty = *fmt;
        }
    }
    TrainTune {
        assignment: proxy_assignment(net, &proxy_final),
        result,
        warm_forks: warm_forks.into_inner(),
        cold_trains: cold_trains.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::mlp;

    /// The f64 reference run learns: loss falls and accuracy beats chance
    /// by a wide margin.
    #[test]
    fn f64_reference_learns() {
        for (net, ds) in [mlp(), crate::graph::cnn()] {
            let cfg = TrainConfig::default();
            let t = train_f64(&net, &ds, &cfg);
            assert_eq!(t.losses.len(), cfg.steps);
            assert!(
                t.losses[cfg.steps - 1] < 0.5 * t.losses[0],
                "{}: loss should at least halve: {:?}",
                net.name,
                t.losses
            );
            assert!(t.accuracy >= 0.9, "{}: accuracy {}", net.name, t.accuracy);
        }
    }

    /// Binary32 typed training matches the f64 reference loss curve
    /// within binary32 arithmetic noise.
    #[test]
    fn binary32_training_tracks_reference() {
        let (net, ds) = mlp();
        let cfg = TrainConfig {
            steps: 6,
            ..TrainConfig::default()
        };
        let reference = train_f64(&net, &ds, &cfg);
        let pa = PassAssignment::uniform(&net, FpFmt::S);
        let t = train(&net, &ds, &pa, &cfg, &Exec::Typed);
        let err = loss_parity_error(&t.losses, &reference.losses);
        assert!(err < 1e-3, "binary32 parity error {err}: {:?}", t.losses);
    }

    /// Proxy kernel declares fwd and bwd variables per layer, in order.
    #[test]
    fn pass_proxy_enumerates_both_passes() {
        let (net, _) = mlp();
        let proxy = pass_proxy_kernel(&net);
        let names = smallfloat_xcc::retype::tunable_names(&proxy);
        assert_eq!(names[0], "fc1@fwd");
        assert_eq!(names[1], "fc1@bwd");
        assert_eq!(names.len(), 2 * net.layers.len());
    }

    #[test]
    fn loss_parity_error_basics() {
        assert_eq!(loss_parity_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(loss_parity_error(&[f64::NAN], &[1.0]).is_infinite());
        // Below the floor the deviation is measured against the floor.
        let e = loss_parity_error(&[0.1], &[0.0]);
        assert!((e - 0.1 / LOSS_FLOOR).abs() < 1e-12);
    }
}
