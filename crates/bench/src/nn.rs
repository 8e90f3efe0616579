//! Neural-network inference sweep: cycles, energy and accuracy for both
//! `smallfloat-nn` tasks across format × vectorization × memory level,
//! plus the tuner-derived mixed assignment. The `nn_table` binary renders
//! the table and exports the committed `BENCH_nn.json` record — every
//! number is a deterministic simulator output, so the file regenerates
//! bit-identically.

use crate::par::par_map;
use smallfloat::{MemLevel, VecMode};
use smallfloat_isa::FpFmt;
use smallfloat_nn::qor::accuracy;
use smallfloat_nn::{infer_sim, tune_network, uniform_assignment, Dataset, NetTune, Network};
use smallfloat_tuner::TunerConfig;
use std::fmt::Write as _;

/// One cell of the sweep.
#[derive(Clone, Debug)]
pub struct NnRow {
    /// Network name (`MLP` / `CNN`).
    pub network: String,
    /// Precision scheme: a uniform format name or `tuned`.
    pub precision: String,
    /// Vectorization mode.
    pub mode: VecMode,
    /// Memory level the run simulated.
    pub mem: MemLevel,
    /// Total simulated cycles over the evaluation set.
    pub cycles: u64,
    /// Total retired instructions.
    pub instret: u64,
    /// Total energy (pJ).
    pub energy_pj: f64,
    /// Top-1 accuracy on the task's evaluation set.
    pub accuracy: f64,
}

/// Lower-case paper-style name of a format (the registry's IEEE name).
pub fn fmt_name(fmt: FpFmt) -> &'static str {
    fmt.name()
}

/// Both `smallfloat-nn` tasks, in row order (MLP, CNN): the network
/// axis of the inference and training grids.
pub(crate) fn nets() -> [(Network, Dataset); 2] {
    [smallfloat_nn::mlp(), smallfloat_nn::cnn()]
}

/// The precision axis of both grids: the registry formats in order, then
/// the tuned assignment (`None`, index `FpFmt::ALL.len()`).
pub(crate) fn scheme(i: usize) -> Option<FpFmt> {
    FpFmt::ALL.get(i).copied()
}

/// One point of a network's accuracy-vs-energy frontier: a uniform format
/// at the deployment configuration (manual vectorization, L1).
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Uniform format name.
    pub precision: String,
    /// Total energy (pJ) over the evaluation set.
    pub energy_pj: f64,
    /// Top-1 accuracy.
    pub accuracy: f64,
    /// True when no other uniform format reaches higher accuracy at
    /// equal-or-lower energy (Pareto-optimal).
    pub pareto: bool,
}

/// The per-network accuracy-vs-energy frontier over the uniform formats,
/// taken at manual vectorization and L1 (energy-ascending order).
pub fn nn_frontier(rows: &[NnRow]) -> Vec<(String, Vec<FrontierPoint>)> {
    let mut nets: Vec<String> = Vec::new();
    for r in rows {
        if !nets.contains(&r.network) {
            nets.push(r.network.clone());
        }
    }
    nets.into_iter()
        .map(|net| {
            let pts: Vec<&NnRow> = rows
                .iter()
                .filter(|r| {
                    r.network == net
                        && r.precision != "tuned"
                        && r.mode == VecMode::Manual
                        && r.mem == MemLevel::L1
                })
                .collect();
            let mut v: Vec<FrontierPoint> = pts
                .iter()
                .map(|r| {
                    let dominated = pts.iter().any(|o| {
                        (o.energy_pj < r.energy_pj && o.accuracy >= r.accuracy)
                            || (o.energy_pj <= r.energy_pj && o.accuracy > r.accuracy)
                    });
                    FrontierPoint {
                        precision: r.precision.clone(),
                        energy_pj: r.energy_pj,
                        accuracy: r.accuracy,
                        pareto: !dominated,
                    }
                })
                .collect();
            v.sort_by(|a, b| a.energy_pj.total_cmp(&b.energy_pj));
            (net, v)
        })
        .collect()
}

fn mode_name(mode: VecMode) -> &'static str {
    match mode {
        VecMode::Scalar => "scalar",
        VecMode::Auto => "auto",
        VecMode::Manual => "manual",
    }
}

fn mem_name(mem: MemLevel) -> &'static str {
    match mem {
        MemLevel::L1 => "L1",
        MemLevel::L2 => "L2",
        MemLevel::L3 => "L3",
    }
}

/// The full sweep: for each network, the five uniform formats plus the
/// tuned assignment, at every vectorization mode and memory level.
/// Returns the rows and the per-network tuner outcomes. The two tuners
/// run as one grid, then every (net × scheme × mode × level) point as
/// another; rows come back in grid order.
pub fn nn_sweep() -> (Vec<NnRow>, Vec<(String, NetTune)>) {
    const MODES: [VecMode; 3] = [VecMode::Scalar, VecMode::Auto, VecMode::Manual];
    const MEMS: [MemLevel; 3] = [MemLevel::L1, MemLevel::L2, MemLevel::L3];
    let config = TunerConfig::default();
    let nets = nets();
    let tunes = par_map(nets.len(), |n| {
        let (net, ds) = &nets[n];
        (net.name.to_string(), tune_network(net, ds, &config))
    });
    let configs = MODES.len() * MEMS.len();
    let per_net = (FpFmt::ALL.len() + 1) * configs;
    let rows = par_map(nets.len() * per_net, |i| {
        let (net, ds) = &nets[i / per_net];
        let (mode, mem) = (MODES[i / MEMS.len() % MODES.len()], MEMS[i % MEMS.len()]);
        let (precision, assignment) = match scheme(i % per_net / configs) {
            Some(f) => (fmt_name(f), uniform_assignment(net, f)),
            None => ("tuned", tunes[i / per_net].1.assignment()),
        };
        let r = infer_sim(net, &ds.inputs, &assignment, mode, mem);
        NnRow {
            network: net.name.to_string(),
            precision: precision.to_string(),
            mode,
            mem,
            cycles: r.cycles,
            instret: r.instret,
            energy_pj: r.energy_pj,
            accuracy: accuracy(&r.predictions, &ds.labels),
        }
    });
    (rows, tunes)
}

/// Human-readable table of the sweep (speedup/energy relative to each
/// network's binary32-scalar-L1 baseline).
pub fn nn_render(rows: &[NnRow], tunes: &[(String, NetTune)]) -> String {
    let mut out = String::new();
    for (name, tune) in tunes {
        let base = rows
            .iter()
            .find(|r| {
                r.network == *name
                    && r.precision == "binary32"
                    && r.mode == VecMode::Scalar
                    && r.mem == MemLevel::L1
            })
            .expect("baseline row present");
        writeln!(
            out,
            "{name} — tuned: {} (accuracy {:.4}, churn {:.4})",
            tune.assignment()
                .iter()
                .map(|(n, f)| format!("{n}={}", fmt_name(*f)))
                .collect::<Vec<_>>()
                .join(" "),
            tune.accuracy,
            tune.churn
        )
        .unwrap();
        if let Some((_, pts)) = nn_frontier(rows).iter().find(|(n, _)| n == name) {
            writeln!(
                out,
                "{name} — frontier (manual @ L1): {}",
                pts.iter()
                    .map(|p| format!(
                        "{}{} {:.1}% {:.0}pJ",
                        p.precision,
                        if p.pareto { "*" } else { "" },
                        p.accuracy * 100.0,
                        p.energy_pj
                    ))
                    .collect::<Vec<_>>()
                    .join("  ")
            )
            .unwrap();
        }
        writeln!(
            out,
            "{:<12} {:>6} {:>4} {:>10} {:>10} {:>8} {:>8} {:>9}",
            "precision", "mode", "mem", "cycles", "instret", "speedup", "energy", "accuracy"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.network == *name) {
            writeln!(
                out,
                "{:<12} {:>6} {:>4} {:>10} {:>10} {:>7.2}x {:>8.3} {:>8.1}%",
                r.precision,
                mode_name(r.mode),
                mem_name(r.mem),
                r.cycles,
                r.instret,
                base.cycles as f64 / r.cycles as f64,
                r.energy_pj / base.energy_pj,
                r.accuracy * 100.0
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

/// The committed `BENCH_nn.json` record (no external serializer, as in
/// `smallfloat-devtools`). Deterministic: regenerating must reproduce the
/// checked-in file byte for byte.
pub fn nn_json(rows: &[NnRow], tunes: &[(String, NetTune)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"nn_inference\",\n");
    out.push_str(
        "  \"unit\": \"total simulated cycles / retired instructions / energy (pJ) over each task's 64-sample evaluation set; accuracy is top-1 on the same set\",\n",
    );
    out.push_str(
        "  \"methodology\": \"cargo run --release -p smallfloat-bench --bin nn_table -- --json BENCH_nn.json. Both smallfloat-nn tasks (MLP 64-32-16-4, CNN 1x8x8 conv-pool-4) run end-to-end on the cycle-accurate simulator at the five registry formats (binary32, binary16, binary16alt, binary8 E5M2, binary8alt E4M3) plus the tuner-derived per-layer mixed assignment, at every vectorization mode (scalar, auto-vectorized, hand-written intrinsics) and memory level (L1/L2/L3). The frontier section lists each network's accuracy-vs-energy points over the uniform formats at the deployment configuration (manual, L1), flagging the Pareto-optimal ones. All numbers are deterministic simulator outputs: the file must regenerate byte-identically.\",\n",
    );
    out.push_str("  \"tuned\": {\n");
    for (i, (name, tune)) in tunes.iter().enumerate() {
        writeln!(
            out,
            "    \"{name}\": {{\"assignment\": {{{}}}, \"accuracy\": {}, \"churn\": {}, \"evaluations\": {}}}{}",
            tune.assignment()
                .iter()
                .map(|(n, f)| format!("\"{n}\": \"{}\"", fmt_name(*f)))
                .collect::<Vec<_>>()
                .join(", "),
            json_f64(tune.accuracy),
            json_f64(tune.churn),
            tune.result.evaluations,
            if i + 1 < tunes.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  },\n");
    out.push_str("  \"frontier\": {\n");
    let frontier = nn_frontier(rows);
    for (i, (name, pts)) in frontier.iter().enumerate() {
        writeln!(out, "    \"{name}\": [").unwrap();
        for (j, p) in pts.iter().enumerate() {
            writeln!(
                out,
                "      {{\"precision\": \"{}\", \"energy_pj\": {}, \"accuracy\": {}, \"pareto\": {}}}{}",
                p.precision,
                json_f64(p.energy_pj),
                json_f64(p.accuracy),
                p.pareto,
                if j + 1 < pts.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(
            out,
            "    ]{}",
            if i + 1 < frontier.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  },\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"network\": \"{}\", \"precision\": \"{}\", \"mode\": \"{}\", \"mem\": \"{}\", \"cycles\": {}, \"instret\": {}, \"energy_pj\": {}, \"accuracy\": {}}}{}",
            r.network,
            r.precision,
            mode_name(r.mode),
            mem_name(r.mem),
            r.cycles,
            r.instret,
            json_f64(r.energy_pj),
            json_f64(r.accuracy),
            if i + 1 < rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Finite `f64` as JSON: integral values get a `.0` so the field parses
/// as a float everywhere.
fn json_f64(v: f64) -> String {
    if v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_floats_stay_floats() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.984375), "0.984375");
        assert_eq!(json_f64(1234567.0), "1234567.0");
    }

    #[test]
    fn frontier_marks_pareto_points() {
        let row = |precision: &str, energy_pj: f64, accuracy: f64| NnRow {
            network: "N".to_string(),
            precision: precision.to_string(),
            mode: VecMode::Manual,
            mem: MemLevel::L1,
            cycles: 1,
            instret: 1,
            energy_pj,
            accuracy,
        };
        let rows = vec![
            row("binary8", 1.0, 0.25), // dominated: binary8alt ties energy, wins accuracy
            row("binary8alt", 1.0, 0.5), // pareto
            row("binary16", 2.0, 1.0), // pareto
            row("binary32", 4.0, 1.0), // dominated by binary16
            row("tuned", 0.5, 1.0),    // mixed assignments stay off the uniform frontier
        ];
        let frontier = nn_frontier(&rows);
        assert_eq!(frontier.len(), 1);
        let (net, pts) = &frontier[0];
        assert_eq!(net, "N");
        let flags: Vec<(&str, bool)> = pts
            .iter()
            .map(|p| (p.precision.as_str(), p.pareto))
            .collect();
        assert_eq!(
            flags,
            [
                ("binary8", false),
                ("binary8alt", true),
                ("binary16", true),
                ("binary32", false),
            ]
        );
    }
}
