//! `infer_sweep`: the 108 `nn_table` inference points — both networks ×
//! (five uniform formats + the committed tuned assignment) × {scalar,
//! auto, manual} × {L1, L2, L3} over the 64-sample sets.
//!
//! An operation is one sweep point. A pass runs all 108 in the seed's
//! order on a fresh thread, so it starts with no warmed simulators, as a
//! fresh `nn_table` process does. Every point is checked against its
//! `BENCH_nn.json` row, and every pass must cold-train exactly as many
//! simulators as a replay of its launches through an empty pool predicts.
//!
//! The traced pass re-drives `infer_sim` through `nn::lower`'s builders,
//! `xcc::codegen::compile` (or `nn::manual_layer`), the re-driven launch
//! path and `graph::forward_f64`, and must reproduce every
//! `Inference.layers` entry.

use crate::expected::{close, nn_rows, nn_tuned, NnRow, NN_JSON};
use crate::json::Json;
use crate::launch::Launcher;
use crate::trace::{self, span};
use crate::{
    end_to_end, guarded, on_fresh_thread, parity, per_layer, percentile, permutation, repeat,
    setup_secs, HostSpeed, OpTimes, Options, Report, SimTotals, Timed, Traced, NN_SPAN,
};
use smallfloat_devtools::Rng;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::{pool_counters, VecMode};
use smallfloat_nn::graph::{forward_f64, Dataset, Network};
use smallfloat_nn::lower::{layer_inputs, layer_kernel, layer_precision, manual_layer};
use smallfloat_nn::qor::{accuracy, argmax};
use smallfloat_nn::{infer_sim, uniform_assignment, Assignment, Inference, LayerRun};
use smallfloat_sim::{MemLevel, Stats};
use smallfloat_xcc::codegen::{compile, CodegenOptions};
use smallfloat_xcc::interp::sqnr_db;
use std::time::Instant;

/// One inference point of the sweep.
#[derive(Clone, Debug)]
pub struct Point {
    pub net: usize,
    pub precision: String,
    pub assignment: Assignment,
    pub mode: VecMode,
    pub mem: MemLevel,
    pub expected: NnRow,
}

#[derive(Clone, Debug)]
pub struct Setup {
    pub nets: Vec<(Network, Dataset)>,
    pub points: Vec<Point>,
    /// Order the points run in, drawn from the workload seed.
    pub order: Vec<usize>,
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let doc = Json::parse(NN_JSON)?;
    let rows = nn_rows(&doc)?;
    let nets = vec![smallfloat_nn::mlp(), smallfloat_nn::cnn()];
    let mut points = Vec::new();
    for (ni, (net, _)) in nets.iter().enumerate() {
        let mut schemes: Vec<(String, Assignment)> = FpFmt::ALL
            .into_iter()
            .map(|f| (f.name().to_string(), uniform_assignment(net, f)))
            .collect();
        schemes.push(("tuned".to_string(), nn_tuned(&doc, net)?));
        for (precision, assignment) in &schemes {
            for mode in [VecMode::Scalar, VecMode::Auto, VecMode::Manual] {
                for mem in [MemLevel::L1, MemLevel::L2, MemLevel::L3] {
                    let expected = rows
                        .iter()
                        .find(|r| {
                            r.network == net.name
                                && r.precision == *precision
                                && r.mode == mode
                                && r.mem == mem
                        })
                        .ok_or_else(|| {
                            format!(
                                "no BENCH_nn.json row for {} {precision} {mode:?} {mem:?}",
                                net.name
                            )
                        })?
                        .clone();
                    points.push(Point {
                        net: ni,
                        precision: precision.clone(),
                        assignment: assignment.clone(),
                        mode,
                        mem,
                        expected,
                    });
                }
            }
        }
    }
    let order = permutation(&mut Rng::new(seed), points.len());
    Ok(Setup {
        nets,
        points,
        order,
    })
}

/// One pass: every point in order, as (point, host time, outcome).
type PassResult = Vec<(usize, Timed, Result<Inference, String>)>;

/// One untraced pass and the simulators it cold-trained.
fn untraced_pass(s: &Setup, speed: &mut HostSpeed) -> (PassResult, u64) {
    on_fresh_thread(|| {
        let (_, c0) = pool_counters();
        let results = s
            .order
            .iter()
            .map(|&i| {
                let p = &s.points[i];
                let (net, ds) = &s.nets[p.net];
                let cal = speed.tick();
                let t0 = Instant::now();
                let r = guarded(|| infer_sim(net, &ds.inputs, &p.assignment, p.mode, p.mem));
                (i, (t0.elapsed().as_secs_f64(), cal), r)
            })
            .collect();
        let (_, c1) = pool_counters();
        (results, c1 - c0)
    })
}

type TracedResult = Vec<(usize, Result<Inference, String>)>;

fn traced_pass(s: &Setup) -> (TracedResult, f64, trace::Recorder, Launcher) {
    on_fresh_thread(|| {
        let mut l = Launcher::default();
        let t_pass = Instant::now();
        let results = s
            .order
            .iter()
            .map(|&i| {
                let p = &s.points[i];
                let (net, ds) = &s.nets[p.net];
                let r = guarded(|| {
                    span(NN_SPAN, || {
                        redrive(&mut l, net, &ds.inputs, &p.assignment, p.mode, p.mem)
                    })
                });
                (i, r)
            })
            .collect();
        let wall = t_pass.elapsed().as_secs_f64();
        (results, wall, trace::take(), l)
    })
}

/// Check a point against its committed row: cycles and instret exact,
/// accuracy bitwise, energy within 1e-9.
pub fn check_row(p: &Point, labels: &[usize], r: &Inference) -> Result<(), String> {
    let e = &p.expected;
    if (r.cycles, r.instret) != (e.cycles, e.instret) {
        return Err(format!(
            "cycles/instret {}/{} != committed {}/{}",
            r.cycles, r.instret, e.cycles, e.instret
        ));
    }
    if !close(r.energy_pj, e.energy_pj, 1e-9) {
        return Err(format!(
            "energy {} != committed {}",
            r.energy_pj, e.energy_pj
        ));
    }
    let acc = accuracy(&r.predictions, labels);
    if acc.to_bits() != e.accuracy.to_bits() {
        return Err(format!("accuracy {acc} != committed {}", e.accuracy));
    }
    Ok(())
}

/// A re-driven point must reproduce `infer_sim`'s outputs and every
/// `Inference.layers` entry bit for bit.
fn check_redrive(got: &Inference, want: &Inference) -> Result<(), String> {
    let key = |r: &Inference| {
        let layers: Vec<_> = r
            .layers
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    l.fmt,
                    l.stats.cycles,
                    l.stats.instret,
                    l.stats.energy_pj.to_bits(),
                    l.sqnr_db.to_bits(),
                )
            })
            .collect();
        let outputs: Vec<u64> = r.outputs.iter().flatten().map(|v| v.to_bits()).collect();
        (layers, outputs, r.predictions.clone())
    };
    if key(got) == key(want) {
        Ok(())
    } else {
        Err("re-driven layers or outputs differ from infer_sim()".to_string())
    }
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
    let mut first: Vec<Option<Inference>> = vec![None; s.points.len()];
    let mut cold_per_pass: Vec<u64> = Vec::new();
    let mut traced: Option<(f64, trace::Recorder, Launcher)> = None;
    let mut untraced_walls = Vec::new();
    let check = |report: &mut Report,
                 i: usize,
                 r: &Result<Inference, String>,
                 extra: Result<(), String>| {
        let p = &s.points[i];
        let what = format!(
            "infer_sweep {} {} {:?} {:?}",
            s.nets[p.net].0.name, p.precision, p.mode, p.mem
        );
        let outcome = r
            .as_ref()
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|inf| check_row(p, &s.nets[p.net].1.labels, inf));
        report.tally(&what, outcome.and(extra));
    };
    let passes = repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |k| {
        setup_times.push((setup_again(), speed.tick()));
        if opts.trace && k % 2 == 1 {
            let (results, wall, rec, l) = traced_pass(s);
            for (i, r) in &results {
                let vs = match (r, &first[*i]) {
                    (Ok(got), Some(want)) => check_redrive(got, want),
                    _ => Err("no untraced point to compare with".to_string()),
                };
                check(&mut report, *i, r, vs);
            }
            report.fail_if(
                "infer_sweep cold start",
                if cold_per_pass.iter().all(|&c| c == l.cold_trains) {
                    Ok(())
                } else {
                    Err(format!(
                        "passes cold-trained {cold_per_pass:?} simulators; an empty pool replays to {}",
                        l.cold_trains
                    ))
                },
            );
            if traced.as_ref().is_none_or(|(w, _, _)| wall < *w) {
                traced = Some((wall, rec, l));
            }
            return;
        }
        let (results, cold) = untraced_pass(s, &mut speed);
        // The operations' own time: the pass also holds calibrations.
        untraced_walls.push(results.iter().map(|(_, (secs, _), _)| secs).sum::<f64>());
        cold_per_pass.push(cold);
        for (i, secs, r) in results {
            check(&mut report, i, &r, Ok(()));
            times.push(i, secs);
            if let (Ok(inf), None) = (&r, &first[i]) {
                first[i] = Some(inf.clone());
            }
        }
    });
    speed.calibrate();
    // Every pass starts cold, so every pass trains the same simulators.
    report.fail_if(
        "infer_sweep passes start cold",
        if cold_per_pass.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("cold trains per pass differ: {cold_per_pass:?}"))
        },
    );

    if let Some((wall, mut rec, l)) = traced {
        rec.counts
            .insert("xcc.distinct_programs", l.distinct_programs());
        let t = Traced {
            traced_wall: wall,
            untraced_wall: untraced_walls.iter().copied().fold(f64::INFINITY, f64::min),
            passes,
            cold_trains_per_pass: cold_per_pass[0] as f64,
            host_speedup: 0.0,
            calib_s: speed.median_sample(),
            rec,
        };
        per_layer(&mut report, &t);
        return Ok(report);
    }

    let done: Vec<(&Point, &Inference)> = s
        .points
        .iter()
        .zip(&first)
        .filter_map(|(p, r)| r.as_ref().map(|r| (p, r)))
        .collect();
    if done.is_empty() {
        return Err("every sweep point failed".to_string());
    }
    // f64 reference scores per network, for the parity metric.
    let reference: Vec<Vec<f64>> = s
        .nets
        .iter()
        .map(|(net, ds)| {
            ds.inputs
                .iter()
                .flat_map(|x| forward_f64(net, x).pop().expect("a network has layers"))
                .collect()
        })
        .collect();
    let cycles: Vec<f64> = done.iter().map(|(_, r)| r.cycles as f64).collect();
    let sim = SimTotals {
        units: s.points.len() as u64,
        cycles: done.iter().map(|(_, r)| r.cycles).sum(),
        instret: done.iter().map(|(_, r)| r.instret).sum(),
        energy_pj: done.iter().map(|(_, r)| r.energy_pj).sum(),
        span_cycles: done.iter().map(|(_, r)| r.cycles).sum(),
        p99_cycles: percentile(&cycles, 99.0) as u64,
        accuracy_mean: done
            .iter()
            .map(|(p, r)| accuracy(&r.predictions, &s.nets[p.net].1.labels))
            .sum::<f64>()
            / done.len() as f64,
        parity_max: done
            .iter()
            .map(|(p, r)| {
                let got: Vec<f64> = r.outputs.iter().flatten().copied().collect();
                parity(&got, &reference[p.net])
            })
            .fold(0.0, f64::max),
    };
    setup_times.push((setup_again(), speed.tick()));
    end_to_end(&mut report, &speed, &setup_times, &times, &sim);
    Ok(report)
}

/// `build_layer`, split into the nn kernel builders and code generation.
fn build(
    l: &mut Launcher,
    layer: &smallfloat_nn::Layer,
    batch: usize,
    fmt: FpFmt,
    mode: VecMode,
) -> smallfloat_xcc::codegen::Compiled {
    let typed = layer_precision(fmt).apply(&layer_kernel(layer, batch));
    let scalar = CodegenOptions {
        vectorize: false,
        ..Default::default()
    };
    l.compile(|| match mode {
        VecMode::Scalar => compile(&typed, scalar).expect("compiles"),
        VecMode::Auto => compile(
            &typed,
            CodegenOptions {
                vectorize: true,
                ..Default::default()
            },
        )
        .expect("compiles"),
        VecMode::Manual => manual_layer(layer, &typed, batch)
            .unwrap_or_else(|| compile(&typed, scalar).expect("compiles")),
    })
}

fn add(into: &mut Stats, s: &Stats) {
    into.cycles += s.cycles;
    into.instret += s.instret;
    into.energy_pj += s.energy_pj;
}

/// `infer_sim(net, inputs, assignment, mode, level)`, re-driven.
pub fn redrive(
    l: &mut Launcher,
    net: &Network,
    inputs: &[Vec<f64>],
    assignment: &Assignment,
    mode: VecMode,
    level: MemLevel,
) -> Inference {
    let n = inputs.len();
    let reference = span("nn.shadow_s", || {
        let mut reference: Vec<Vec<f64>> = vec![Vec::new(); net.layers.len()];
        for x in inputs {
            for (li, acts) in forward_f64(net, x).into_iter().enumerate() {
                reference[li].extend(acts);
            }
        }
        reference
    });
    let mut acts: Vec<Vec<f64>> = inputs.to_vec();
    let mut layers = Vec::with_capacity(net.layers.len());
    for (li, (layer, params)) in net.layers.iter().zip(&net.params).enumerate() {
        let fmt = assignment
            .iter()
            .find(|(name, _)| name == layer.name())
            .map(|(_, f)| *f)
            .unwrap_or_else(|| panic!("assignment misses layer `{}`", layer.name()));
        let out_len = layer.out_len();
        let mut stats = Stats::default();
        if layer.batched() {
            let compiled = build(l, layer, n, fmt, mode);
            let flat: Vec<f64> = acts.iter().flatten().copied().collect();
            let (out, s) = l.launch(
                &compiled,
                &layer_inputs(layer, params, &flat, n),
                level,
                &["y"],
            );
            add(&mut stats, &s);
            acts = out[0].chunks(out_len).map(<[f64]>::to_vec).collect();
        } else {
            let compiled = build(l, layer, 1, fmt, mode);
            for x in &mut acts {
                let (out, s) =
                    l.launch(&compiled, &layer_inputs(layer, params, x, 1), level, &["y"]);
                add(&mut stats, &s);
                *x = out[0].clone();
            }
        }
        let measured: Vec<f64> = acts
            .iter()
            .flatten()
            .map(|x| if x.is_finite() { *x } else { 0.0 })
            .collect();
        layers.push(LayerRun {
            name: layer.name().to_string(),
            fmt,
            stats,
            sqnr_db: sqnr_db(&reference[li], &measured),
        });
    }
    let predictions = acts.iter().map(|o| argmax(o)).collect();
    let (mut cycles, mut instret, mut energy_pj) = (0, 0, 0.0);
    for l in &layers {
        cycles += l.stats.cycles;
        instret += l.stats.instret;
        energy_pj += l.stats.energy_pj;
    }
    Inference {
        outputs: acts,
        predictions,
        layers,
        cycles,
        instret,
        energy_pj,
    }
}
