//! `train`: six of the twelve `train_table` training runs — both networks
//! × {binary16, binary8, the committed per-pass tuned assignment} —
//! default `TrainConfig`, `Exec::Sim { Auto, L1 }`, one thread. The other
//! three uniform formats are left out so that a 40-s run holds six to
//! eight passes: with all twelve it held three, too few samples per
//! operation on a shared host ([`FORMATS`]).
//!
//! An operation is one training run. A pass runs all six in the
//! seed's order on a fresh thread, so the runner's warm pool starts empty
//! and fills only from the pass's own launches. Every run is checked
//! against its `BENCH_training.json` row.
//!
//! The traced pass re-drives each run through the lower layers' public
//! functions ([`redrive`]): the same kernels, compiles, launches, shadows
//! and accuracy check as `train`, timed per layer. It must reproduce the
//! untraced run's losses and per-(layer, phase) statistics bit for bit.

use crate::expected::{close, training_rows, training_tuned, TrainRow, TRAINING_JSON};
use crate::json::Json;
use crate::launch::Launcher;
use crate::trace::{self, span};
use crate::{
    end_to_end, guarded, on_fresh_thread, per_layer, percentile, permutation, repeat, setup_secs,
    HostSpeed, OpTimes, Options, Report, SimTotals, Timed, Traced, NN_SPAN,
};
use smallfloat_devtools::Rng;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{pool_counters, Precision, VecMode};
use smallfloat_nn::grad::{
    conv_bwd_w, conv_bwd_x, cross_entropy, dense_bwd_w, dense_bwd_x, flip_w, layer_backward_f64,
    pad_dy, pool_bwd, relu_bwd, sgd_kernel, transpose,
};
use smallfloat_nn::graph::{layer_forward_f64, Dataset, Layer, Network, Params, CONV_K};
use smallfloat_nn::infer_typed;
use smallfloat_nn::lower::{layer_inputs, layer_kernel, layer_precision};
use smallfloat_nn::qor::{accuracy, argmax};
use smallfloat_nn::train::{
    loss_parity_error, train, train_f64, training_init, Exec, PassAssignment, Phase, TrainConfig,
    Training,
};
use smallfloat_sim::{MemLevel, Stats};
use smallfloat_xcc::codegen::{compile, CodegenOptions};
use smallfloat_xcc::ir::Kernel;
use std::time::Instant;

const EXEC: Exec = Exec::Sim {
    mode: VecMode::Auto,
    level: MemLevel::L1,
};

/// The uniform formats trained, besides the tuned assignment: the two
/// SIMD widths (binary16alt and binary8alt run the same instruction
/// streams as binary16 and binary8 at another encoding; binary32 is the
/// unvectorized baseline).
pub const FORMATS: [FpFmt; 2] = [FpFmt::H, FpFmt::B];

/// One training run of the workload.
#[derive(Clone, Debug)]
pub struct Case {
    pub net: usize,
    pub precision: String,
    pub pa: PassAssignment,
    pub expected: TrainRow,
}

#[derive(Clone, Debug)]
pub struct Setup {
    pub nets: Vec<(Network, Dataset)>,
    /// `f64` reference loss curve per network.
    pub reference: Vec<Vec<f64>>,
    pub cfg: TrainConfig,
    pub cases: Vec<Case>,
    /// Order the cases run in, drawn from the workload seed.
    pub order: Vec<usize>,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let cfg = TrainConfig::default();
    let doc = Json::parse(TRAINING_JSON)?;
    let rows = training_rows(&doc)?;
    let nets = vec![smallfloat_nn::mlp(), smallfloat_nn::cnn()];
    let reference = nets
        .iter()
        .map(|(net, ds)| train_f64(net, ds, &cfg).losses)
        .collect();
    let mut cases = Vec::new();
    for (ni, (net, _)) in nets.iter().enumerate() {
        let mut schemes: Vec<(String, PassAssignment)> = FORMATS
            .into_iter()
            .map(|f| (f.name().to_string(), PassAssignment::uniform(net, f)))
            .collect();
        schemes.push(("tuned".to_string(), training_tuned(&doc, net)?));
        for (precision, pa) in schemes {
            let expected = rows
                .iter()
                .find(|r| r.network == net.name && r.precision == precision)
                .ok_or_else(|| format!("no BENCH_training.json row for {} {precision}", net.name))?
                .clone();
            cases.push(Case {
                net: ni,
                precision,
                pa,
                expected,
            });
        }
    }
    let order = permutation(&mut Rng::new(seed), cases.len());
    Ok(Setup {
        nets,
        reference,
        cfg,
        cases,
        order,
    })
}

/// A training run's outcome, as `train` returns it or as [`redrive`]
/// reproduces it.
#[derive(Clone, Debug)]
pub struct Run {
    pub training: Training,
    pub warm_forks: u64,
    pub cold_trains: u64,
}

/// One pass: every case in order, as (case, host time, outcome).
type PassResult = Vec<(usize, Timed, Result<Run, String>)>;

fn untraced_pass(s: &Setup, speed: &mut HostSpeed) -> PassResult {
    on_fresh_thread(|| {
        s.order
            .iter()
            .map(|&i| {
                let c = &s.cases[i];
                let (net, ds) = &s.nets[c.net];
                let cal = speed.tick();
                let (w0, c0) = pool_counters();
                let t0 = Instant::now();
                let r = guarded(|| train(net, ds, &c.pa, &s.cfg, &EXEC));
                let secs = t0.elapsed().as_secs_f64();
                let (w1, c1) = pool_counters();
                let run = r.map(|training| Run {
                    training,
                    warm_forks: w1 - w0,
                    cold_trains: c1 - c0,
                });
                (i, (secs, cal), run)
            })
            .collect()
    })
}

type TracedResult = Vec<(usize, Result<Run, String>)>;

fn traced_pass(s: &Setup) -> (TracedResult, f64, trace::Recorder, u64) {
    on_fresh_thread(|| {
        let mut l = Launcher::default();
        let t_pass = Instant::now();
        let results = s
            .order
            .iter()
            .map(|&i| {
                let c = &s.cases[i];
                let (net, ds) = &s.nets[c.net];
                let (w0, c0) = (l.warm_forks, l.cold_trains);
                let r = guarded(|| span(NN_SPAN, || redrive(&mut l, net, ds, &c.pa, &s.cfg)));
                let run = r.map(|training| Run {
                    training,
                    warm_forks: l.warm_forks - w0,
                    cold_trains: l.cold_trains - c0,
                });
                (i, run)
            })
            .collect();
        let wall = t_pass.elapsed().as_secs_f64();
        (results, wall, trace::take(), l.distinct_programs())
    })
}

/// Check a run against its committed row: cycles and instret exact, loss
/// parity, final loss and accuracy bitwise, energy within 1e-9.
pub fn check_row(c: &Case, reference: &[f64], t: &Training) -> Result<(), String> {
    let e = &c.expected;
    let bits = |what: &str, got: f64, want: f64| {
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("{what} {got} != committed {want}"))
        }
    };
    if (t.cycles, t.instret) != (e.cycles, e.instret) {
        return Err(format!(
            "cycles/instret {}/{} != committed {}/{}",
            t.cycles, t.instret, e.cycles, e.instret
        ));
    }
    if !close(t.energy_pj, e.energy_pj, 1e-9) {
        return Err(format!(
            "energy {} != committed {}",
            t.energy_pj, e.energy_pj
        ));
    }
    bits(
        "loss parity",
        loss_parity_error(&t.losses, reference),
        e.loss_parity,
    )?;
    bits(
        "final loss",
        *t.losses.last().ok_or("no steps")?,
        e.final_loss,
    )?;
    bits("accuracy", t.accuracy, e.accuracy)?;
    if t.phases.len() != e.phases.len() {
        return Err(format!(
            "{} phases, committed {}",
            t.phases.len(),
            e.phases.len()
        ));
    }
    for (p, w) in t.phases.iter().zip(&e.phases) {
        let same = p.layer == w.layer
            && p.phase.name() == w.phase
            && p.fmt.name() == w.fmt
            && (p.stats.cycles, p.stats.instret) == (w.cycles, w.instret)
            && close(p.stats.energy_pj, w.energy_pj, 1e-9);
        if !same {
            return Err(format!(
                "phase {} {} differs from committed",
                w.layer, w.phase
            ));
        }
    }
    Ok(())
}

/// Check a re-driven run against the same case's `train` result: losses,
/// accuracy and every (layer, phase) bit for bit, and the same pool
/// behaviour.
fn check_redrive(got: &Run, want: &Run) -> Result<(), String> {
    let (g, w) = (&got.training, &want.training);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&g.losses) != bits(&w.losses) || g.accuracy.to_bits() != w.accuracy.to_bits() {
        return Err("re-driven losses or accuracy differ from train()".to_string());
    }
    let key = |t: &Training| {
        t.phases
            .iter()
            .map(|p| {
                (
                    p.layer.clone(),
                    p.phase,
                    p.fmt,
                    p.stats.cycles,
                    p.stats.instret,
                    p.stats.energy_pj.to_bits(),
                    p.sqnr_db.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    if key(g) != key(w) {
        return Err("re-driven per-(layer, phase) statistics differ from train()".to_string());
    }
    if (got.warm_forks, got.cold_trains) != (want.warm_forks, want.cold_trains) {
        return Err(format!(
            "re-driven pool forks/trains {}/{} differ from the runner's {}/{}",
            got.warm_forks, got.cold_trains, want.warm_forks, want.cold_trains
        ));
    }
    Ok(())
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let s = setup(opts.seed)?;
    run_with(&s, opts, || setup_secs(|| setup(opts.seed)))
}

/// Run the passes on `s`; `setup_again` sets the workload up afresh and
/// returns the seconds it took.
pub fn run_with(
    s: &Setup,
    opts: &Options,
    mut setup_again: impl FnMut() -> f64,
) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut report = Report::default();
    let mut speed = HostSpeed::default();
    let mut times = OpTimes::default();
    let mut first: Vec<Option<Run>> = vec![None; s.cases.len()];
    let mut traced: Option<(f64, trace::Recorder, u64)> = None;
    let mut untraced_walls = Vec::new();
    let check =
        |report: &mut Report, i: usize, r: &Result<Run, String>, extra: Result<(), String>| {
            let c = &s.cases[i];
            let what = format!("train {} {}", s.nets[c.net].0.name, c.precision);
            let outcome = r
                .as_ref()
                .map_err(|e| format!("panicked: {e}"))
                .and_then(|run| check_row(c, &s.reference[c.net], &run.training));
            report.tally(&what, outcome.and(extra));
        };
    let passes = repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |k| {
        setup_times.push((setup_again(), speed.tick()));
        if opts.trace && k % 2 == 1 {
            let (results, wall, rec, distinct) = traced_pass(s);
            for (i, r) in &results {
                let vs = match (r, &first[*i]) {
                    (Ok(got), Some(want)) => check_redrive(got, want),
                    _ => Err("no untraced run to compare with".to_string()),
                };
                check(&mut report, *i, r, vs);
            }
            if traced.as_ref().is_none_or(|(w, _, _)| wall < *w) {
                traced = Some((wall, rec, distinct));
            }
            return;
        }
        let results = untraced_pass(s, &mut speed);
        // The operations' own time: the pass also holds calibrations.
        untraced_walls.push(results.iter().map(|(_, (secs, _), _)| secs).sum::<f64>());
        for (i, secs, r) in results {
            check(&mut report, i, &r, Ok(()));
            times.push(i, secs);
            if let (Ok(run), None) = (&r, &first[i]) {
                first[i] = Some(run.clone());
            }
        }
    });
    speed.calibrate();

    if let Some((wall, mut rec, distinct)) = traced {
        rec.counts.insert("xcc.distinct_programs", distinct);
        let t = Traced {
            traced_wall: wall,
            untraced_wall: untraced_walls.iter().copied().fold(f64::INFINITY, f64::min),
            passes,
            cold_trains_per_pass: rec.count("kernels.cold_trains") as f64,
            host_speedup: 0.0,
            calib_s: speed.median_sample(),
            rec,
        };
        per_layer(&mut report, &t);
        return Ok(report);
    }

    let runs: Vec<&Run> = first.iter().flatten().collect();
    let cycles: Vec<f64> = runs.iter().map(|r| r.training.cycles as f64).collect();
    if cycles.is_empty() {
        return Err("every training run failed".to_string());
    }
    let sim = SimTotals {
        units: s.cases.len() as u64,
        cycles: runs.iter().map(|r| r.training.cycles).sum(),
        instret: runs.iter().map(|r| r.training.instret).sum(),
        energy_pj: runs.iter().map(|r| r.training.energy_pj).sum(),
        span_cycles: runs.iter().map(|r| r.training.cycles).sum(),
        p99_cycles: percentile(&cycles, 99.0) as u64,
        accuracy_mean: runs.iter().map(|r| r.training.accuracy).sum::<f64>() / runs.len() as f64,
        parity_max: s
            .cases
            .iter()
            .zip(&first)
            .filter_map(|(c, r)| {
                r.as_ref()
                    .map(|r| loss_parity_error(&r.training.losses, &s.reference[c.net]))
            })
            .fold(0.0, f64::max),
    };
    setup_times.push((setup_again(), speed.tick()));
    end_to_end(&mut report, &speed, &setup_times, &times, &sim);
    Ok(report)
}

// ---------------------------------------------------------------------
// The re-driven training run: `smallfloat_nn::train::train` step for
// step, through the public kernel builders, `xcc::codegen::compile`, the
// re-driven launch path and the public `f64` shadows.
// ---------------------------------------------------------------------

fn batch_of(ds: &Dataset, step: usize, batch: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let n = ds.inputs.len();
    (0..batch)
        .map(|j| {
            let i = (step * batch + j) % n;
            (ds.inputs[i].clone(), ds.labels[i])
        })
        .unzip()
}

fn run_kernel(
    l: &mut Launcher,
    typed: &Kernel,
    inputs: &[(String, Vec<f64>)],
    read: &[&str],
) -> (Vec<Vec<f64>>, Stats) {
    let compiled = l.compile(|| {
        compile(
            typed,
            CodegenOptions {
                vectorize: true,
                expanding: true,
            },
        )
        .expect("training kernels are sized within the register pools")
    });
    l.launch(&compiled, inputs, MemLevel::L1, read)
}

fn add(stats: &mut Stats, s: &Stats) {
    stats.cycles += s.cycles;
    stats.instret += s.instret;
    stats.energy_pj += s.energy_pj;
}

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
        add(&mut self.stats, stats);
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

/// `train(net, ds, pa, cfg, &Exec::Sim { Auto, L1 })`, re-driven.
pub fn redrive(
    l: &mut Launcher,
    net: &Network,
    ds: &Dataset,
    pa: &PassAssignment,
    cfg: &TrainConfig,
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

    for step in 0..cfg.steps {
        let (xs, labels) = batch_of(ds, step, cfg.batch);
        let mut acts_in: Vec<Vec<Vec<f64>>> = Vec::with_capacity(nl);
        let mut cur = xs;
        for (li, layer) in net.layers.iter().enumerate() {
            let fmt = pa.fwd_of(layer.name());
            acts_in.push(cur.clone());
            let (out, stats) = forward_layer(l, layer, &params[li], &cur, fmt);
            let golden: Vec<f64> = span("nn.shadow_s", || {
                cur.iter()
                    .flat_map(|x| layer_forward_f64(layer, &params[li], x))
                    .collect()
            });
            let measured: Vec<f64> = out.iter().flatten().copied().collect();
            attr[li][0].record(&stats, &golden, &measured);
            cur = out;
        }
        let scores: Vec<f64> = cur.iter().flatten().copied().collect();
        let (loss, dscores) = cross_entropy(&scores, &labels, ds.classes);
        losses.push(loss);
        let mut dy: Vec<Vec<f64>> = dscores.chunks(ds.classes).map(<[f64]>::to_vec).collect();
        let mut grads: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; nl];
        for li in (0..nl).rev() {
            let layer = &net.layers[li];
            let fmt = pa.bwd_of(layer.name());
            let need_dx = li > 0;
            let b = backward_layer(l, layer, &params[li], &acts_in[li], &dy, fmt, need_dx);
            attr[li][1].record(&b.stats, &b.golden, &b.measured);
            if let Some(g) = b.grads {
                grads[li] = Some(g);
            }
            if need_dx {
                dy = b.dx;
            }
        }
        for li in 0..nl {
            let Some((dw, db)) = grads[li].take() else {
                continue;
            };
            let layer = &net.layers[li];
            let fmt = pa.bwd_of(layer.name());
            let mut stats = Stats::default();
            let (mut golden, mut measured) = (Vec::new(), Vec::new());
            for (which, grad) in [("w", dw), ("b", db)] {
                let (p_host, v_host) = match which {
                    "w" => (&mut params[li].w, &mut vel[li].w),
                    _ => (&mut params[li].bias, &mut vel[li].bias),
                };
                let k = sgd_kernel(
                    &format!("{}_{which}", layer.name()),
                    grad.len(),
                    cfg.lr,
                    cfg.momentum,
                );
                let typed = if fmt == FpFmt::S {
                    Precision::F32.apply(&k)
                } else {
                    Precision::Mixed {
                        default: FpFmt::S,
                        assignment: vec![("g".to_string(), fmt)],
                    }
                    .apply(&k)
                };
                let inputs = vec![
                    ("p".to_string(), p_host.clone()),
                    ("v".to_string(), v_host.clone()),
                    ("g".to_string(), grad.clone()),
                ];
                let (out, s) = run_kernel(l, &typed, &inputs, &["p", "v"]);
                add(&mut stats, &s);
                span("nn.shadow_s", || {
                    for t in 0..grad.len() {
                        let vg = cfg.momentum * v_host[t] + grad[t];
                        golden.push(vg);
                        golden.push(p_host[t] - cfg.lr * vg);
                        measured.push(out[1][t]);
                        measured.push(out[0][t]);
                    }
                });
                *p_host = out[0].clone();
                *v_host = out[1].clone();
            }
            attr[li][2].record(&stats, &golden, &measured);
        }
    }

    let trained = Network {
        name: net.name,
        layers: net.layers.clone(),
        params: params.clone(),
    };
    let outs = span("xcc.interp_s", || {
        infer_typed(&trained, &ds.inputs, &pa.fwd)
    });
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
            phases.push(smallfloat_nn::train::PhaseRun {
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

fn forward_layer(
    l: &mut Launcher,
    layer: &Layer,
    params: &Params,
    xs: &[Vec<f64>],
    fmt: FpFmt,
) -> (Vec<Vec<f64>>, Stats) {
    let n = xs.len();
    let out_len = layer.out_len();
    if layer.batched() {
        let typed = layer_precision(fmt).apply(&layer_kernel(layer, n));
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let (out, s) = run_kernel(l, &typed, &layer_inputs(layer, params, &flat, n), &["y"]);
        (out[0].chunks(out_len).map(<[f64]>::to_vec).collect(), s)
    } else {
        let typed = layer_precision(fmt).apply(&layer_kernel(layer, 1));
        let mut stats = Stats::default();
        let mut outs = Vec::with_capacity(n);
        for x in xs {
            let (out, s) = run_kernel(l, &typed, &layer_inputs(layer, params, x, 1), &["y"]);
            add(&mut stats, &s);
            outs.push(out[0].clone());
        }
        (outs, stats)
    }
}

struct Backward {
    dx: Vec<Vec<f64>>,
    grads: Option<(Vec<f64>, Vec<f64>)>,
    stats: Stats,
    golden: Vec<f64>,
    measured: Vec<f64>,
}

/// Sum per-sample shadow gradients (`f64` shadow bookkeeping).
fn sum_shadows(
    shadows: &[smallfloat_nn::grad::LayerGrads],
    wl: usize,
    bl: usize,
) -> (Vec<f64>, Vec<f64>) {
    let (mut gw, mut gb) = (vec![0.0; wl], vec![0.0; bl]);
    for sh in shadows {
        for (a, b) in gw.iter_mut().zip(&sh.dw) {
            *a += b;
        }
        for (a, b) in gb.iter_mut().zip(&sh.db) {
            *a += b;
        }
    }
    (gw, gb)
}

fn backward_layer(
    l: &mut Launcher,
    layer: &Layer,
    params: &Params,
    xs: &[Vec<f64>],
    dys: &[Vec<f64>],
    fmt: FpFmt,
    need_dx: bool,
) -> Backward {
    let n = xs.len();
    let prec = layer_precision(fmt);
    let mut stats = Stats::default();
    let (mut golden, mut measured) = (Vec::new(), Vec::new());
    let shadows: Vec<_> = span("nn.shadow_s", || {
        xs.iter()
            .zip(dys)
            .map(|(x, dy)| layer_backward_f64(layer, params, x, dy))
            .collect()
    });
    let flat_x: Vec<f64> = xs.iter().flatten().copied().collect();
    let flat_dy: Vec<f64> = dys.iter().flatten().copied().collect();
    let mut dx = Vec::new();
    let mut grads = None;
    let shadow_dx = |golden: &mut Vec<f64>| {
        span("nn.shadow_s", || {
            golden.extend(shadows.iter().flat_map(|sh| sh.dx.iter().copied()))
        })
    };
    match layer {
        Layer::Dense { inp, out, .. } => {
            let typed = prec.apply(&dense_bwd_w(layer.name(), *inp, *out, n));
            let inputs = vec![
                ("xt".to_string(), transpose(&flat_x, n, *inp)),
                ("dyt".to_string(), transpose(&flat_dy, n, *out)),
                ("dw".to_string(), vec![0.0; inp * out]),
                ("db".to_string(), vec![0.0; *out]),
                ("one".to_string(), vec![1.0; n]),
            ];
            let (o, s) = run_kernel(l, &typed, &inputs, &["dw", "db"]);
            add(&mut stats, &s);
            let (gw, gb) = span("nn.shadow_s", || sum_shadows(&shadows, inp * out, *out));
            golden.extend_from_slice(&gw);
            golden.extend_from_slice(&gb);
            measured.extend_from_slice(&o[0]);
            measured.extend_from_slice(&o[1]);
            grads = Some((o[0].clone(), o[1].clone()));
            if need_dx {
                let typed = prec.apply(&dense_bwd_x(layer.name(), *inp, *out, n));
                let inputs = vec![
                    ("wt".to_string(), transpose(&params.w, *out, *inp)),
                    ("dy".to_string(), flat_dy.clone()),
                    ("dx".to_string(), vec![0.0; n * inp]),
                ];
                let (o, s) = run_kernel(l, &typed, &inputs, &["dx"]);
                add(&mut stats, &s);
                shadow_dx(&mut golden);
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
            let typed_w = prec.apply(&conv_bwd_w(layer.name(), *in_ch, *out_ch, *h, *w));
            let typed_x = prec.apply(&conv_bwd_x(layer.name(), *in_ch, *out_ch, *h, *w));
            let wl = out_ch * in_ch * CONV_K * CONV_K;
            let (mut mw, mut mb) = (vec![0.0; wl], vec![0.0; *out_ch]);
            for (x, dy) in xs.iter().zip(dys) {
                let inputs = vec![
                    ("x".to_string(), x.clone()),
                    ("dy".to_string(), dy.clone()),
                    ("dw".to_string(), vec![0.0; wl]),
                    ("db".to_string(), vec![0.0; *out_ch]),
                    ("one".to_string(), vec![1.0; oh * ow]),
                ];
                let (o, s) = run_kernel(l, &typed_w, &inputs, &["dw", "db"]);
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
                    let (o, s) = run_kernel(l, &typed_x, &inputs, &["dx"]);
                    add(&mut stats, &s);
                    measured.extend_from_slice(&o[0]);
                    dx.push(o[0].clone());
                }
            }
            let (gw, gb) = span("nn.shadow_s", || sum_shadows(&shadows, wl, *out_ch));
            if need_dx {
                shadow_dx(&mut golden);
            }
            golden.extend_from_slice(&gw);
            golden.extend_from_slice(&gb);
            measured.extend_from_slice(&mw);
            measured.extend_from_slice(&mb);
            grads = Some((mw, mb));
        }
        Layer::Relu { len, .. } => {
            let typed = prec.apply(&relu_bwd(layer.name(), n * len));
            let inputs = vec![
                ("x".to_string(), flat_x),
                ("dy".to_string(), flat_dy),
                ("dx".to_string(), vec![0.0; n * len]),
            ];
            let (o, s) = run_kernel(l, &typed, &inputs, &["dx"]);
            add(&mut stats, &s);
            shadow_dx(&mut golden);
            measured.extend_from_slice(&o[0]);
            dx = o[0].chunks(*len).map(<[f64]>::to_vec).collect();
        }
        Layer::MaxPool2 { ch, h, w, .. } => {
            let typed = prec.apply(&pool_bwd(layer.name(), n * ch, *h, *w));
            let inputs = vec![
                ("x".to_string(), flat_x),
                ("dy".to_string(), flat_dy),
                ("dx".to_string(), vec![0.0; n * ch * h * w]),
            ];
            let (o, s) = run_kernel(l, &typed, &inputs, &["dx"]);
            add(&mut stats, &s);
            shadow_dx(&mut golden);
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
