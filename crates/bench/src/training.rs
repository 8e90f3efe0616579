//! Mixed-precision training sweep: both `smallfloat-nn` tasks trained
//! from scratch on the cycle-accurate simulator at the five uniform
//! storage formats plus the per-pass tuned assignment, against the `f64`
//! host reference loss curve. The `train_table` binary renders the table
//! and exports the committed `BENCH_training.json` record — every number
//! is a deterministic simulator output, so the file regenerates
//! byte-identically at any worker count. The host-side warm-pool
//! counters are not simulator outputs and stay out of the record.

use crate::nn::{fmt_name, nets, scheme};
use crate::par::par_map;
use smallfloat::{MemLevel, VecMode};
use smallfloat_isa::FpFmt;
use smallfloat_nn::train::{
    loss_parity_error, train, train_f64, training_tuner_config, tune_training, Exec,
    PassAssignment, PhaseRun, TrainConfig, TrainTune,
};
use std::fmt::Write as _;

/// One training run of the sweep.
#[derive(Clone, Debug)]
pub struct TrainRow {
    /// Network name (`MLP` / `CNN`).
    pub network: String,
    /// Precision scheme: a uniform format name or `tuned`.
    pub precision: String,
    /// Max per-step loss deviation from the `f64` reference, relative to
    /// `max(|reference|, 0.25)`.
    pub loss_parity: f64,
    /// Loss after the final step.
    pub final_loss: f64,
    /// Final accuracy over the task's evaluation set.
    pub accuracy: f64,
    /// Total simulated cycles over the whole run.
    pub cycles: u64,
    /// Total retired instructions.
    pub instret: u64,
    /// Total energy (pJ).
    pub energy_pj: f64,
    /// Per-(layer, phase) attribution of the run.
    pub phases: Vec<PhaseRun>,
}

/// Per-network tuner outcome plus its reference context.
#[derive(Clone, Debug)]
pub struct TrainTuneRow {
    /// Network name.
    pub network: String,
    /// Tuner outcome (assignment, trace).
    pub tune: TrainTune,
    /// Final loss of the `f64` reference run.
    pub reference_final_loss: f64,
    /// Accuracy of the `f64` reference run.
    pub reference_accuracy: f64,
}

/// The full sweep: for each network, the five uniform formats plus the
/// per-pass tuned assignment, trained with the default configuration
/// (auto-vectorized with expanding accumulation, L1). The two nets'
/// references and tuners run as one grid, then every (net × scheme)
/// training run as another; rows come back in grid order.
pub fn training_sweep() -> (TrainConfig, Vec<TrainRow>, Vec<TrainTuneRow>) {
    let cfg = TrainConfig::default();
    let tcfg = training_tuner_config();
    let exec = Exec::Sim {
        mode: VecMode::Auto,
        level: MemLevel::L1,
    };
    let nets = nets();
    let (references, tunes): (Vec<Vec<f64>>, Vec<TrainTuneRow>) = par_map(nets.len(), |i| {
        let (net, ds) = &nets[i];
        let reference = train_f64(net, ds, &cfg);
        let tune = TrainTuneRow {
            network: net.name.to_string(),
            tune: tune_training(net, ds, &cfg, &tcfg, &reference.losses),
            reference_final_loss: reference.losses[cfg.steps - 1],
            reference_accuracy: reference.accuracy,
        };
        (reference.losses, tune)
    })
    .into_iter()
    .unzip();
    let schemes = FpFmt::ALL.len() + 1;
    let rows = par_map(nets.len() * schemes, |i| {
        let (n, s) = (i / schemes, i % schemes);
        let (net, ds) = &nets[n];
        let (precision, pa) = match scheme(s) {
            Some(f) => (fmt_name(f), PassAssignment::uniform(net, f)),
            None => ("tuned", tunes[n].tune.assignment.clone()),
        };
        let t = train(net, ds, &pa, &cfg, &exec);
        TrainRow {
            network: net.name.to_string(),
            precision: precision.to_string(),
            loss_parity: loss_parity_error(&t.losses, &references[n]),
            final_loss: t.losses[cfg.steps - 1],
            accuracy: t.accuracy,
            cycles: t.cycles,
            instret: t.instret,
            energy_pj: t.energy_pj,
            phases: t.phases,
        }
    });
    (cfg, rows, tunes)
}

/// Human-readable table of the sweep.
pub fn training_render(cfg: &TrainConfig, rows: &[TrainRow], tunes: &[TrainTuneRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "training: {} steps, batch {}, lr {}, momentum {} (auto-SIMD, expanding, L1)",
        cfg.steps, cfg.batch, cfg.lr, cfg.momentum
    )
    .unwrap();
    for tune in tunes {
        writeln!(
            out,
            "\n{} — f64 reference: final loss {:.4}, accuracy {:.4}",
            tune.network, tune.reference_final_loss, tune.reference_accuracy
        )
        .unwrap();
        writeln!(
            out,
            "{} — per-pass tuned ({} evaluations): {}",
            tune.network,
            tune.tune.result.evaluations,
            tune.tune
                .result
                .assignment
                .iter()
                .map(|(n, f)| format!("{n}={}", fmt_name(*f)))
                .collect::<Vec<_>>()
                .join(" ")
        )
        .unwrap();
        writeln!(
            out,
            "{:<12} {:>11} {:>12} {:>12} {:>10} {:>9}",
            "precision", "cycles/step", "energy/step", "loss parity", "final", "accuracy"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.network == tune.network) {
            writeln!(
                out,
                "{:<12} {:>11} {:>10.0}pJ {:>12.4} {:>10.4} {:>8.1}%",
                r.precision,
                r.cycles / cfg.steps as u64,
                r.energy_pj / cfg.steps as f64,
                r.loss_parity,
                r.final_loss,
                r.accuracy * 100.0
            )
            .unwrap();
        }
        if let Some(t) = rows
            .iter()
            .find(|r| r.network == tune.network && r.precision == "tuned")
        {
            writeln!(
                out,
                "{:<10} {:>7} {:>12} {:>12} {:>12} {:>9}",
                "layer", "phase", "fmt", "cycles", "energy", "sqnr"
            )
            .unwrap();
            for p in &t.phases {
                writeln!(
                    out,
                    "{:<10} {:>7} {:>12} {:>12} {:>10.0}pJ {}",
                    p.layer,
                    p.phase.name(),
                    fmt_name(p.fmt),
                    p.stats.cycles,
                    p.stats.energy_pj,
                    if p.sqnr_db.is_finite() {
                        format!("{:>7.1}dB", p.sqnr_db)
                    } else {
                        "  exact".to_string()
                    }
                )
                .unwrap();
            }
        }
    }
    out
}

/// Finite `f64` as JSON (`.0` suffix keeps integral values floats);
/// non-finite values (exact-phase SQNR) become `null`.
fn json_opt_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The committed `BENCH_training.json` record (no external serializer).
/// Deterministic: regenerating must reproduce the checked-in file byte
/// for byte.
pub fn training_json(cfg: &TrainConfig, rows: &[TrainRow], tunes: &[TrainTuneRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"nn_training\",\n");
    out.push_str(
        "  \"unit\": \"total simulated cycles / retired instructions / energy (pJ) over one full training run; loss_parity is the max per-step deviation from the f64 reference loss relative to max(|reference|, 0.25); accuracy is top-1 on the task's 64-sample set after training\",\n",
    );
    out.push_str(
        "  \"methodology\": \"cargo run --release -p smallfloat-bench --bin train_table -- --json BENCH_training.json. Both smallfloat-nn tasks train from scratch (seeded binary32 init) on the cycle-accurate simulator: binary32 master weights with SGD/momentum, activations and gradients stored at the row's format, every accumulation through a binary32 accumulator (vfsdotpex/vfdotpex via the auto-vectorizer's expanding lowering), loss head at f64 on the host. The five registry formats run uniformly plus the per-pass tuned assignment (independent forward/backward formats per layer, greedy under max 5% loss parity, candidates evaluated by complete simulated training runs; evaluations counts the greedy protocol's evaluations, each candidate up to and including the accepted one). Phases attribute each (layer, fwd/bwd/update) cycles, energy and SQNR vs the f64 shadow. All numbers are deterministic simulator outputs (host-cache counters such as the runner's warm forks and cold trains are not, and are not recorded): the file must regenerate byte-identically at any host worker count.\",\n",
    );
    writeln!(
        out,
        "  \"config\": {{\"steps\": {}, \"batch\": {}, \"lr\": {}, \"momentum\": {}, \"init_seed\": {}}},",
        cfg.steps, cfg.batch, cfg.lr, cfg.momentum, cfg.init_seed
    )
    .unwrap();
    out.push_str("  \"tuned\": {\n");
    for (i, t) in tunes.iter().enumerate() {
        writeln!(
            out,
            "    \"{}\": {{\"assignment\": {{{}}}, \"evaluations\": {}, \"reference_final_loss\": {}, \"reference_accuracy\": {}}}{}",
            t.network,
            t.tune
                .result
                .assignment
                .iter()
                .map(|(n, f)| format!("\"{n}\": \"{}\"", fmt_name(*f)))
                .collect::<Vec<_>>()
                .join(", "),
            t.tune.result.evaluations,
            json_opt_f64(t.reference_final_loss),
            json_opt_f64(t.reference_accuracy),
            if i + 1 < tunes.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  },\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"network\": \"{}\", \"precision\": \"{}\", \"loss_parity\": {}, \"final_loss\": {}, \"accuracy\": {}, \"cycles\": {}, \"instret\": {}, \"energy_pj\": {}, \"phases\": [",
            r.network,
            r.precision,
            json_opt_f64(r.loss_parity),
            json_opt_f64(r.final_loss),
            json_opt_f64(r.accuracy),
            r.cycles,
            r.instret,
            json_opt_f64(r.energy_pj),
        )
        .unwrap();
        for (j, p) in r.phases.iter().enumerate() {
            writeln!(
                out,
                "      {{\"layer\": \"{}\", \"phase\": \"{}\", \"fmt\": \"{}\", \"cycles\": {}, \"instret\": {}, \"energy_pj\": {}, \"sqnr_db\": {}}}{}",
                p.layer,
                p.phase.name(),
                fmt_name(p.fmt),
                p.stats.cycles,
                p.stats.instret,
                json_opt_f64(p.stats.energy_pj),
                json_opt_f64(p.sqnr_db),
                if j + 1 < r.phases.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(out, "    ]}}{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_null_for_non_finite() {
        assert_eq!(json_opt_f64(f64::INFINITY), "null");
        assert_eq!(json_opt_f64(1.0), "1.0");
        assert_eq!(json_opt_f64(0.1875), "0.1875");
    }
}
