//! The repository benchmark: three workloads driven through the crates'
//! public functions, each printing the end-to-end metrics of an untraced
//! run or the per-layer metrics of a traced one. See `README.md` for the
//! workloads, the metrics and how the traced run attributes time.

pub mod calib;
pub mod expected;
pub mod json;
pub mod launch;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod train;

use json::Metric;
use smallfloat_devtools::Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["train", "infer_sweep", "serve"];

/// Workload seed when `--seed` is not given (README.md names the
/// held-out seed kept for confirming claims).
pub const DEFAULT_SEED: u64 = 1;

/// Simulated clock the simulated-domain rates are quoted at (1 GHz, the
/// serving harness's convention).
pub const CLOCK_HZ: f64 = 1e9;

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("sim_cycles", "cycles"),
    ("sim_energy_uj", "uJ"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("accuracy_mean", "ratio"),
    ("parity_max", "ratio"),
    ("host_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("sim_ops_per_s", "1/s"),
    ("sim_p99_cycles", "cycles"),
];

/// Per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("xcc.compiles", "count"),
    ("xcc.distinct_programs", "count"),
    ("xcc.compile_s", "s"),
    ("xcc.interp_s", "s"),
    ("kernels.launches", "count"),
    ("kernels.launch_s", "s"),
    ("kernels.warm_forks", "count"),
    ("kernels.cold_trains", "count"),
    ("kernels.cold_trains_per_pass", "count"),
    ("kernels.overhead_s", "s"),
    ("kernels.profile_s", "s"),
    ("softfp.quantize_elems", "count"),
    ("softfp.quantize_s", "s"),
    ("softfp.readback_elems", "count"),
    ("softfp.readback_s", "s"),
    ("softfp.readback_used_ratio", "ratio"),
    ("nn.self_s", "s"),
    ("nn.shadow_s", "s"),
    ("nn.serve_request_s", "s"),
    ("nn.serve_decode_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.stage_io_s", "s"),
    ("cluster.host_speedup", "ratio"),
    ("cluster.reference_s", "s"),
    ("sim.restores", "count"),
    ("sim.restore_s", "s"),
    ("sim.instret", "count"),
    ("sim.run_s", "s"),
    ("sim.mips", "MIPS"),
    ("sim.cold_runs", "count"),
    ("sim.cold_run_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.passes", "count"),
    ("bench.calib_s", "s"),
];

/// The spans that partition a traced pass: disjoint, and together with
/// `bench.unattributed_s` they add up to `bench.traced_wall_s`. Every
/// other span nests inside one of these (`sim.*`, `softfp.*` inside
/// `kernels.launch_s`) or is measured outside the traced wall (the serve
/// re-drive and the reference checks).
pub const TOP_LEVEL_SPANS: [&str; 8] = [
    "nn.self_s",
    "nn.shadow_s",
    "xcc.compile_s",
    "xcc.interp_s",
    "kernels.launch_s",
    "nn.serve_request_s",
    "cluster.run_s",
    "nn.serve_decode_s",
];

/// Name of the span that encloses a whole re-driven `nn` call; its self
/// time (minus the nested top-level spans) is reported as `nn.self_s`.
pub const NN_SPAN: &str = "nn.call_s";

/// How a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Time budget of the measured passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload run prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics[name].value
    }

    /// Count one operation; `outcome` is its check result.
    pub fn tally(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    /// A check over a whole pass: its failure counts as one failed
    /// operation.
    pub fn fail_if(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    pub fn line(&self) -> String {
        json::result_line(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, as `smallfloat_devtools::percentile`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.max(1) - 1]
}

/// Calibration-loop rounds per sample: about 8 ms on the reference host.
pub const CAL_ROUNDS: u64 = 250_000;
/// Seconds one calibration sample takes on the reference host (a 2-vCPU
/// Intel Xeon microVM) when nothing else runs on it. Host times are
/// reported in seconds at that speed.
pub const CAL_REF_S: f64 = 0.0075;
/// Samples per calibration.
const CAL_SAMPLES: usize = 3;
/// Least host time between two calibrations.
const CAL_EVERY_S: f64 = 0.5;

/// A time on the host and the calibration taken last before it:
/// (seconds, calibration index).
pub type Timed = (f64, usize);

/// How fast the host runs through a run. The host is shared, and its
/// speed drifts by tens of percent over seconds to minutes, so a whole
/// run can fall in a slow phase. Between operations the workloads run
/// the fixed loop of [`calib`] (at most every [`CAL_EVERY_S`]), and each
/// host time is divided by the slowdown measured around it.
#[derive(Clone, Debug, Default)]
pub struct HostSpeed {
    last: Option<Instant>,
    cals: Vec<[f64; CAL_SAMPLES]>,
}

impl HostSpeed {
    /// Call between operations: calibrates when none was taken yet or
    /// [`CAL_EVERY_S`] have passed, and returns the latest calibration's
    /// index.
    pub fn tick(&mut self) -> usize {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= CAL_EVERY_S)
        {
            self.calibrate();
        }
        self.cals.len() - 1
    }

    /// Take a calibration now (the workloads take one after their last
    /// pass, so every operation has one on each side).
    pub fn calibrate(&mut self) {
        self.cals
            .push(std::array::from_fn(|_| calib::sample(CAL_ROUNDS)));
        self.last = Some(Instant::now());
    }

    /// The host's slowdown against the reference host around calibration
    /// `c`: the median sample of it and the next one, ÷ [`CAL_REF_S`].
    pub fn slowdown(&self, c: usize) -> f64 {
        let near: Vec<f64> = self.cals[c..self.cals.len().min(c + 2)]
            .iter()
            .flatten()
            .copied()
            .collect();
        median(&near) / CAL_REF_S
    }

    /// `t` in seconds at the reference host's speed.
    pub fn normalize(&self, (secs, c): Timed) -> f64 {
        secs / self.slowdown(c)
    }

    /// The median calibration sample of the run, in host seconds.
    pub fn median_sample(&self) -> f64 {
        median(&self.cals.iter().flatten().copied().collect::<Vec<_>>())
    }
}

/// Host seconds per operation across passes. A pass runs the same
/// operations in the same order, so operation `i` of every pass does the
/// same work. Every sample is normalised by the host's speed around it
/// ([`HostSpeed`]) and each operation is represented by the median of its
/// normalised samples, so neither a pass slowed by another tenant of the
/// host nor a run in a slow phase moves the figures much. (The median,
/// not the minimum: with hundreds of samples the minimum ratio picks the
/// samples whose calibration happened to be slowed.)
#[derive(Clone, Debug, Default)]
pub struct OpTimes {
    per_op: BTreeMap<usize, Vec<Timed>>,
}

impl OpTimes {
    pub fn push(&mut self, op: usize, t: Timed) {
        self.per_op.entry(op).or_default().push(t);
    }

    /// Each operation's median normalised time.
    pub fn typical(&self, speed: &HostSpeed) -> Vec<f64> {
        self.per_op
            .values()
            .map(|v| median(&v.iter().map(|&t| speed.normalize(t)).collect::<Vec<_>>()))
            .collect()
    }
}

/// Simulated-domain totals of one pass. Every field is a deterministic
/// function of the workload (not of the seed or the host).
#[derive(Debug)]
pub struct SimTotals {
    /// Units of work per pass: training runs, sweep points or requests.
    pub units: u64,
    pub cycles: u64,
    pub instret: u64,
    pub energy_pj: f64,
    /// Simulated cycles the units took end to end (the sum of batch
    /// makespans on serve; `cycles` elsewhere).
    pub span_cycles: u64,
    /// p99 over units of their simulated completion cycle.
    pub p99_cycles: u64,
    pub accuracy_mean: f64,
    /// Max deviation of a simulated output from its `f64` reference.
    pub parity_max: f64,
}

/// Fill the end-to-end metrics of an untraced run.
pub fn end_to_end(
    report: &mut Report,
    speed: &HostSpeed,
    setup: &[Timed],
    times: &OpTimes,
    sim: &SimTotals,
) {
    let typical = times.typical(speed);
    let wall: f64 = typical.iter().sum();
    let ms: Vec<f64> = typical.iter().map(|s| s * 1e3).collect();
    let setup: Vec<f64> = setup.iter().map(|&t| speed.normalize(t)).collect();
    let success = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    let values = [
        median(&setup),
        wall,
        sim.instret as f64 / wall / 1e6,
        sim.cycles as f64,
        sim.energy_pj / 1e6,
        peak_rss_mb(),
        success,
        sim.accuracy_mean,
        sim.parity_max,
        sim.units as f64 / wall,
        median(&ms),
        percentile(&ms, 99.0),
        sim.units as f64 * CLOCK_HZ / sim.span_cycles as f64,
        sim.p99_cycles as f64,
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        report.put(name, v, unit);
    }
}

/// What a traced run measured, beyond the recorder's spans and counters.
#[derive(Debug)]
pub struct Traced {
    pub rec: trace::Recorder,
    /// Wall time of the traced pass.
    pub traced_wall: f64,
    /// Wall time of the fastest untraced pass of the same run.
    pub untraced_wall: f64,
    pub passes: usize,
    pub cold_trains_per_pass: f64,
    pub host_speedup: f64,
    /// Median calibration sample of the run ([`HostSpeed::median_sample`]).
    pub calib_s: f64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fill the per-layer metrics of a traced run.
pub fn per_layer(report: &mut Report, t: &Traced) {
    let mut rec = t.rec.clone();
    // `nn.self_s`: the re-driven nn calls minus the layers they called.
    let nested: f64 = [
        "nn.shadow_s",
        "xcc.compile_s",
        "xcc.interp_s",
        "kernels.launch_s",
    ]
    .iter()
    .map(|s| rec.secs(s))
    .sum();
    if rec.secs(NN_SPAN) > 0.0 {
        rec.secs.insert("nn.self_s", rec.secs(NN_SPAN) - nested);
    }
    let attributed: f64 = TOP_LEVEL_SPANS.iter().map(|s| rec.secs(s)).sum();
    let launch = rec.secs("kernels.launch_s");
    let derived: BTreeMap<&str, f64> = BTreeMap::from([
        (
            "kernels.overhead_s",
            if launch > 0.0 {
                launch - rec.secs("sim.run_s") - rec.secs("sim.restore_s")
            } else {
                0.0
            },
        ),
        ("kernels.cold_trains_per_pass", t.cold_trains_per_pass),
        (
            "softfp.readback_used_ratio",
            ratio(
                rec.count("softfp.readback_used_elems") as f64,
                rec.count("softfp.readback_elems") as f64,
            ),
        ),
        ("cluster.host_speedup", t.host_speedup),
        (
            "sim.mips",
            ratio(rec.count("sim.instret") as f64, rec.secs("sim.run_s")) / 1e6,
        ),
        ("bench.traced_wall_s", t.traced_wall),
        ("bench.untraced_wall_s", t.untraced_wall),
        ("bench.unattributed_s", t.traced_wall - attributed),
        (
            "bench.trace_overhead",
            ratio(t.traced_wall, t.untraced_wall) - 1.0,
        ),
        ("bench.passes", t.passes as f64),
        ("bench.calib_s", t.calib_s),
    ]);
    for (name, unit) in PER_LAYER {
        let v = if let Some(v) = derived.get(name) {
            *v
        } else if unit == "s" {
            rec.secs(name)
        } else {
            rec.count(name) as f64
        };
        report.put(name, v, unit);
    }
}

/// Run `pass(k)` for k = 0, 1, … until `seconds` are spent: at least
/// `min_passes` times, then again only while at least half of the longest
/// pass so far fits in what is left of the budget. Returns the passes run.
pub fn repeat(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut longest = 0.0f64;
    let mut k = 0;
    while k < min_passes || t0.elapsed().as_secs_f64() + longest / 2.0 <= seconds {
        let t = Instant::now();
        pass(k);
        longest = longest.max(t.elapsed().as_secs_f64());
        k += 1;
    }
    k
}

/// Host seconds one call of `f` takes. The workloads set up once before
/// each pass and once after the last, and report the median of the
/// normalised samples ([`HostSpeed`]).
pub fn setup_secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// A seeded permutation of `0..n` (Fisher-Yates).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Run `f` on a new thread, so it starts with empty thread-local state
/// (the runner's warm-simulator pool is per thread), and wait for it.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(f)
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest deviation of `got` from `want`, relative to `max(|want|, 0.25)`
/// — the floor `smallfloat_nn::train::loss_parity_error` uses. A
/// non-finite output counts as infinite deviation.
pub fn parity(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "output length mismatch");
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            if g.is_finite() {
                (g - w).abs() / w.abs().max(smallfloat_nn::train::LOSS_FLOOR)
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}
