//! `serve`: closed-loop batch serving on the simulated cluster. One
//! client sends a batch of [`BATCH`] requests and waits for all of them
//! before sending the next; batches alternate between the MLP and the CNN
//! `ServingModel` at binary16 (auto-vectorized, L1), each on a
//! [`CORES`]-core cluster run with `host_workers` = 2. Models and clusters
//! are built during set-up.
//!
//! An operation is one request; host time is taken per batch. A pass
//! serves [`BATCHES`] batches. The seed draws each model's samples as a
//! sequence of permutations of its 64-sample set, so a pass serves every
//! sample equally often and the simulated-domain totals do not depend on
//! the seed. Every 8th request of the first pass is replayed on the
//! single-core `ServingModel::reference` and its decoded prediction is
//! checked against `infer_typed`; later passes must repeat the first
//! bit for bit.
//!
//! The traced pass times `ServingModel::request`, `Cluster::run` and
//! `ServingModel::decode`, then (outside its wall) re-drives each batch's
//! stages on warm `Cpu`s to split `Cluster::run` into restore, stage I/O
//! and run, and reruns the batch with one host worker for the speed-up.

use crate::trace::{self, count, span};
use crate::{
    end_to_end, guarded, parity, per_layer, permutation, repeat, setup_secs, HostSpeed, OpTimes,
    Options, Report, SimTotals, Timed, Traced,
};
use smallfloat_cluster::{Cluster, WorkDescriptor, WorkResult};
use smallfloat_devtools::{percentile, Rng};
use smallfloat_isa::FpFmt;
use smallfloat_kernels::VecMode;
use smallfloat_nn::graph::{forward_f64, Dataset, Network};
use smallfloat_nn::qor::argmax;
use smallfloat_nn::{infer_typed, uniform_assignment, ServeOutput, ServingModel};
use smallfloat_sim::{Cpu, ExitReason, MemLevel, Stats};
use smallfloat_softfp::Flags;
use std::time::Instant;

/// Requests per batch.
pub const BATCH: usize = 16;
/// Simulated cores per cluster.
pub const CORES: usize = 4;
/// Batches per pass, alternating between the models.
pub const BATCHES: usize = 64;
/// Every `CHECK_EVERY`th request is replayed on the reference core.
pub const CHECK_EVERY: usize = 8;

pub struct Model {
    pub net: Network,
    pub ds: Dataset,
    pub model: ServingModel,
    pub cluster: Cluster,
}

pub struct Setup {
    pub models: Vec<Model>,
    /// Per batch: the model and the dataset indices of its samples.
    pub batches: Vec<(usize, Vec<usize>)>,
    pub host_workers: usize,
}

/// Build the models and clusters and draw `batches` batches from `seed`.
pub fn setup(seed: u64, batches: usize) -> Setup {
    let mut rng = Rng::new(seed);
    let models: Vec<Model> = [smallfloat_nn::mlp(), smallfloat_nn::cnn()]
        .into_iter()
        .map(|(net, ds)| {
            let model = ServingModel::build(&net, FpFmt::H, VecMode::Auto, MemLevel::L1);
            let cluster = model.cluster(CORES, seed);
            Model {
                net,
                ds,
                model,
                cluster,
            }
        })
        .collect();
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); models.len()];
    let batches = (0..batches)
        .map(|b| {
            let m = b % models.len();
            let n = models[m].ds.inputs.len();
            let samples = (0..BATCH)
                .map(|_| {
                    if streams[m].is_empty() {
                        streams[m] = permutation(&mut rng, n);
                    }
                    streams[m].pop().expect("refilled above")
                })
                .collect();
            (m, samples)
        })
        .collect();
    Setup {
        models,
        batches,
        host_workers: 2,
    }
}

fn request_id(batch: usize, j: usize) -> u64 {
    (batch * BATCH + j) as u64
}

fn requests(m: &Model, b: usize, samples: &[usize]) -> Vec<WorkDescriptor> {
    samples
        .iter()
        .enumerate()
        .map(|(j, &si)| m.model.request(request_id(b, j), &m.ds.inputs[si]))
        .collect()
}

/// One served batch.
#[derive(Clone, Debug)]
pub struct Served {
    pub results: Vec<WorkResult>,
    pub outputs: Vec<ServeOutput>,
    pub makespan: u64,
}

fn serve_batch(m: &mut Model, b: usize, samples: &[usize], workers: usize) -> Served {
    for d in requests(m, b, samples) {
        m.cluster.submit(d);
    }
    let results = m.cluster.run(workers);
    let makespan = m.cluster.report().expect("cluster ran").makespan_cycles;
    let outputs = results.iter().map(|r| m.model.decode(r)).collect();
    Served {
        results,
        outputs,
        makespan,
    }
}

fn same_result(a: &WorkResult, b: &WorkResult) -> bool {
    a.id == b.id
        && a.core == b.core
        && a.data == b.data
        && a.fflags == b.fflags
        && a.stats == b.stats
        && (a.start_cycle, a.end_cycle) == (b.start_cycle, b.end_cycle)
}

/// A served request against its single-core reference: data, flags and
/// statistics.
fn matches_reference(got: &WorkResult, want: &WorkResult) -> bool {
    got.data == want.data && got.fflags == want.fflags && got.stats == want.stats
}

type PassResult = Vec<(Timed, Result<Served, String>)>;

fn untraced_pass(s: &mut Setup, speed: &mut HostSpeed) -> PassResult {
    let workers = s.host_workers;
    let (models, batches) = (&mut s.models, &s.batches);
    batches
        .iter()
        .enumerate()
        .map(|(b, (m, samples))| {
            let cal = speed.tick();
            let t0 = Instant::now();
            let r = guarded(|| serve_batch(&mut models[*m], b, samples, workers));
            ((t0.elapsed().as_secs_f64(), cal), r)
        })
        .collect()
}

/// Run one stage sequence of `desc` on `cpus` (one warm `Cpu` per image),
/// as `Cluster::run` executes it, recording restore, stage I/O and run.
fn redrive(
    model: &ServingModel,
    cpus: &mut [Option<Cpu>],
    desc: &WorkDescriptor,
) -> (Vec<Vec<u8>>, Flags, Stats) {
    let mut stats = Stats::new();
    let mut fflags = Flags::NONE;
    let mut data: Vec<Vec<u8>> = Vec::new();
    for stage in &desc.stages {
        let cpu = cpus[stage.image].get_or_insert_with(|| Cpu::new(model.config().clone()));
        span("sim.restore_s", || {
            cpu.restore(&model.images()[stage.image]);
            cpu.reset_stats();
        });
        count("sim.restores", 1);
        span("cluster.stage_io_s", || {
            for (addr, bytes) in &stage.writes {
                cpu.write_data(*addr, bytes);
            }
            for (dst, src) in &stage.pipes {
                cpu.write_data(*dst, &data[*src]);
            }
        });
        let exit = span("sim.run_s", || cpu.run(stage.max_instructions));
        assert_eq!(
            exit,
            Ok(ExitReason::Ecall),
            "request {} must exit via ecall",
            desc.id
        );
        count("sim.instret", cpu.stats().instret);
        stats.merge(cpu.stats());
        fflags |= cpu.fflags();
        data = span("cluster.stage_io_s", || {
            stage
                .reads
                .iter()
                .map(|&(addr, len)| cpu.mem().read_bytes(addr, len))
                .collect()
        });
    }
    (data, fflags, stats)
}

/// The traced pass: its results, its wall time (request, run and decode
/// only), its recorder, and the summed time of rerunning its batches on
/// one host worker.
fn traced_pass(
    s: &mut Setup,
    report: &mut Report,
) -> (Vec<Result<Served, String>>, f64, trace::Recorder, f64) {
    let workers = s.host_workers;
    let (models, batches) = (&mut s.models, &s.batches);
    let mut cpus: Vec<Vec<Option<Cpu>>> = models
        .iter()
        .map(|m| m.model.images().iter().map(|_| None).collect())
        .collect();
    let (mut wall, mut one_worker) = (0.0, 0.0);
    let mut results = Vec::new();
    for (b, (mi, samples)) in batches.iter().enumerate() {
        let m = &mut models[*mi];
        let t0 = Instant::now();
        let r = guarded(|| {
            let descs = span("nn.serve_request_s", || requests(m, b, samples));
            for d in &descs {
                m.cluster.submit(d.clone());
            }
            let results = span("cluster.run_s", || m.cluster.run(workers));
            let makespan = m.cluster.report().expect("cluster ran").makespan_cycles;
            let outputs = span("nn.serve_decode_s", || {
                results.iter().map(|r| m.model.decode(r)).collect()
            });
            (
                descs,
                Served {
                    results,
                    outputs,
                    makespan,
                },
            )
        });
        let secs = t0.elapsed().as_secs_f64();
        wall += secs;
        let Ok((descs, served)) = r else {
            results.push(r.map(|(_, s)| s));
            continue;
        };
        // Outside the traced wall: split Cluster::run, and time it on
        // one host worker.
        let redriven = guarded(|| {
            let cpus = &mut cpus[*mi];
            descs
                .iter()
                .map(|d| redrive(&m.model, cpus, d))
                .collect::<Vec<_>>()
        });
        for d in &descs {
            m.cluster.submit(d.clone());
        }
        let t1 = Instant::now();
        let serial = m.cluster.run(1);
        one_worker += t1.elapsed().as_secs_f64();
        for (j, got) in served.results.iter().enumerate() {
            let outcome = match &redriven {
                Ok(rd) if (&rd[j].0, rd[j].1, &rd[j].2) != (&got.data, got.fflags, &got.stats) => {
                    Err("re-driven stages differ from Cluster::run".to_string())
                }
                Ok(_) if !same_result(&serial[j], got) => {
                    Err("one host worker differs from two".to_string())
                }
                Ok(_) => Ok(()),
                Err(e) => Err(format!("re-drive panicked: {e}")),
            };
            report.fail_if("serve re-drive", outcome);
        }
        results.push(Ok(served));
    }
    (results, wall, trace::take(), one_worker)
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let mut s = setup(opts.seed, BATCHES);
    run_with(&mut s, opts, || setup_secs(|| setup(opts.seed, BATCHES)))
}

/// Run the passes on `s`; `setup_again` sets the workload up afresh and
/// returns the seconds it took.
pub fn run_with(
    s: &mut Setup,
    opts: &Options,
    mut setup_again: impl FnMut() -> f64,
) -> Result<Report, String> {
    let mut setup_times = Vec::new();
    let mut report = Report::default();
    let mut speed = HostSpeed::default();
    let mut times = OpTimes::default();
    let mut first: Option<Vec<Result<Served, String>>> = None;
    let mut traced: Option<(f64, trace::Recorder, f64)> = None;
    let mut untraced_walls = Vec::new();
    let passes = repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |k| {
        setup_times.push((setup_again(), speed.tick()));
        let results = if opts.trace && k % 2 == 1 {
            let (results, wall, rec, one_worker) = traced_pass(s, &mut report);
            if traced.as_ref().is_none_or(|(w, _, _)| wall < *w) {
                traced = Some((wall, rec, one_worker));
            }
            results
        } else {
            let results = untraced_pass(s, &mut speed);
            untraced_walls.push(results.iter().map(|((t, _), _)| t).sum::<f64>());
            results
                .into_iter()
                .enumerate()
                .map(|(b, (t, r))| {
                    times.push(b, t);
                    r
                })
                .collect()
        };
        match &first {
            None => first = Some(results),
            Some(want) => {
                // Later passes serve the same requests: they must repeat
                // the first pass bit for bit.
                for (b, (got, want)) in results.iter().zip(want).enumerate() {
                    for j in 0..BATCH {
                        let outcome = match (got, want) {
                            (Ok(g), Ok(w)) if same_result(&g.results[j], &w.results[j]) => Ok(()),
                            (Ok(_), Ok(_)) => Err("differs from the first pass".to_string()),
                            (Err(e), _) => Err(format!("batch panicked: {e}")),
                            (_, Err(_)) => Err("first pass failed".to_string()),
                        };
                        report.tally(&format!("serve request {}", request_id(b, j)), outcome);
                    }
                }
            }
        }
    });
    speed.calibrate();
    let first = first.expect("at least one pass");

    // Check the first pass: every CHECK_EVERY-th request against the
    // single-core reference and its prediction against infer_typed.
    let typed: Vec<Vec<usize>> = s
        .models
        .iter()
        .map(|m| {
            infer_typed(&m.net, &m.ds.inputs, &uniform_assignment(&m.net, FpFmt::H))
                .iter()
                .map(|o| argmax(o))
                .collect()
        })
        .collect();
    let mut reference_s = 0.0;
    for (b, ((mi, samples), served)) in s.batches.iter().zip(&first).enumerate() {
        let m = &s.models[*mi];
        for (j, &si) in samples.iter().enumerate() {
            let id = request_id(b, j);
            let outcome = match served {
                Err(e) => Err(format!("batch panicked: {e}")),
                Ok(_) if !(id as usize).is_multiple_of(CHECK_EVERY) => Ok(()),
                Ok(sv) => {
                    let t0 = Instant::now();
                    let want =
                        guarded(|| m.model.reference(&m.model.request(id, &m.ds.inputs[si])));
                    reference_s += t0.elapsed().as_secs_f64();
                    match want {
                        Err(e) => Err(format!("reference panicked: {e}")),
                        Ok(w) if !matches_reference(&sv.results[j], &w) => {
                            Err("differs from the single-core reference".to_string())
                        }
                        Ok(_) if sv.outputs[j].prediction != typed[*mi][si] => {
                            Err("prediction differs from infer_typed".to_string())
                        }
                        Ok(_) => Ok(()),
                    }
                }
            };
            report.tally(&format!("serve request {id}"), outcome);
        }
    }

    if let Some((wall, mut rec, one_worker)) = traced {
        rec.secs.insert("cluster.reference_s", reference_s);
        let t = Traced {
            traced_wall: wall,
            untraced_wall: untraced_walls.iter().copied().fold(f64::INFINITY, f64::min),
            passes,
            cold_trains_per_pass: 0.0,
            host_speedup: one_worker / rec.secs("cluster.run_s"),
            calib_s: speed.median_sample(),
            rec,
        };
        per_layer(&mut report, &t);
        return Ok(report);
    }

    let served: Vec<(&(usize, Vec<usize>), &Served)> = s
        .batches
        .iter()
        .zip(&first)
        .filter_map(|(b, r)| r.as_ref().ok().map(|r| (b, r)))
        .collect();
    if served.is_empty() {
        return Err("every batch failed".to_string());
    }
    let all = || served.iter().flat_map(|(_, sv)| sv.results.iter());
    let end_cycles: Vec<u64> = all().map(|r| r.end_cycle).collect();
    let reference: Vec<Vec<Vec<f64>>> = s
        .models
        .iter()
        .map(|m| {
            m.ds.inputs
                .iter()
                .map(|x| forward_f64(&m.net, x).pop().expect("a network has layers"))
                .collect()
        })
        .collect();
    let mut correct = 0usize;
    let mut parity_max = 0.0f64;
    for ((mi, samples), sv) in &served {
        for (out, &si) in sv.outputs.iter().zip(samples) {
            correct += usize::from(out.prediction == s.models[*mi].ds.labels[si]);
            parity_max = parity_max.max(parity(&out.logits, &reference[*mi][si]));
        }
    }
    let sim = SimTotals {
        units: (s.batches.len() * BATCH) as u64,
        cycles: all().map(|r| r.stats.cycles).sum(),
        instret: all().map(|r| r.stats.instret).sum(),
        energy_pj: all().map(|r| r.stats.energy_pj).sum(),
        span_cycles: served.iter().map(|(_, sv)| sv.makespan).sum(),
        p99_cycles: percentile(&end_cycles, 99.0),
        accuracy_mean: correct as f64 / end_cycles.len() as f64,
        parity_max,
    };
    setup_times.push((setup_again(), speed.tick()));
    end_to_end(&mut report, &speed, &setup_times, &times, &sim);
    Ok(report)
}
