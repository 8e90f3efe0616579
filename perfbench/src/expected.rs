//! The committed reference outputs the workloads are checked against:
//! `BENCH_training.json` (the `train_table` record) and `BENCH_nn.json`
//! (the `nn_table` record), compiled in from the repository root so the
//! benchmark always checks against the records committed beside it.

use crate::json::Json;
use smallfloat_isa::FpFmt;
use smallfloat_kernels::VecMode;
use smallfloat_nn::train::PassAssignment;
use smallfloat_nn::{Assignment, Network};
use smallfloat_sim::MemLevel;

pub const TRAINING_JSON: &str = include_str!("../../BENCH_training.json");
pub const NN_JSON: &str = include_str!("../../BENCH_nn.json");

/// One (layer, phase) entry of a training row.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    pub layer: String,
    pub phase: String,
    pub fmt: String,
    pub cycles: u64,
    pub instret: u64,
    pub energy_pj: f64,
}

/// One `BENCH_training.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainRow {
    pub network: String,
    pub precision: String,
    pub loss_parity: f64,
    pub final_loss: f64,
    pub accuracy: f64,
    pub cycles: u64,
    pub instret: u64,
    pub energy_pj: f64,
    pub phases: Vec<PhaseRow>,
}

/// One `BENCH_nn.json` row.
#[derive(Clone, Debug, PartialEq)]
pub struct NnRow {
    pub network: String,
    pub precision: String,
    pub mode: VecMode,
    pub mem: MemLevel,
    pub cycles: u64,
    pub instret: u64,
    pub energy_pj: f64,
    pub accuracy: f64,
}

fn fmt_named(name: &str) -> Result<FpFmt, String> {
    FpFmt::from_name(name).ok_or_else(|| format!("unknown format `{name}`"))
}

/// The rows of a document in the `BENCH_training.json` shape.
pub fn training_rows(doc: &Json) -> Result<Vec<TrainRow>, String> {
    doc.arr("rows")?
        .iter()
        .map(|r| {
            Ok(TrainRow {
                network: r.str("network")?.to_string(),
                precision: r.str("precision")?.to_string(),
                loss_parity: r.num("loss_parity")?,
                final_loss: r.num("final_loss")?,
                accuracy: r.num("accuracy")?,
                cycles: r.int("cycles")?,
                instret: r.int("instret")?,
                energy_pj: r.num("energy_pj")?,
                phases: r
                    .arr("phases")?
                    .iter()
                    .map(|p| {
                        Ok(PhaseRow {
                            layer: p.str("layer")?.to_string(),
                            phase: p.str("phase")?.to_string(),
                            fmt: p.str("fmt")?.to_string(),
                            cycles: p.int("cycles")?,
                            instret: p.int("instret")?,
                            energy_pj: p.num("energy_pj")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect()
}

/// The committed per-pass tuned assignment of `net` in the
/// `BENCH_training.json` shape (`"layer@fwd"`/`"layer@bwd"` keys).
pub fn training_tuned(doc: &Json, net: &Network) -> Result<PassAssignment, String> {
    let a = doc.get("tuned")?.get(net.name)?.get("assignment")?;
    let pass = |suffix: &str| -> Result<Assignment, String> {
        net.layers
            .iter()
            .map(|l| {
                let fmt = fmt_named(a.str(&format!("{}@{suffix}", l.name()))?)?;
                Ok((l.name().to_string(), fmt))
            })
            .collect()
    };
    Ok(PassAssignment {
        fwd: pass("fwd")?,
        bwd: pass("bwd")?,
    })
}

/// The rows of a document in the `BENCH_nn.json` shape.
pub fn nn_rows(doc: &Json) -> Result<Vec<NnRow>, String> {
    doc.arr("rows")?
        .iter()
        .map(|r| {
            Ok(NnRow {
                network: r.str("network")?.to_string(),
                precision: r.str("precision")?.to_string(),
                mode: match r.str("mode")? {
                    "scalar" => VecMode::Scalar,
                    "auto" => VecMode::Auto,
                    "manual" => VecMode::Manual,
                    m => return Err(format!("unknown mode `{m}`")),
                },
                mem: match r.str("mem")? {
                    "L1" => MemLevel::L1,
                    "L2" => MemLevel::L2,
                    "L3" => MemLevel::L3,
                    m => return Err(format!("unknown memory level `{m}`")),
                },
                cycles: r.int("cycles")?,
                instret: r.int("instret")?,
                energy_pj: r.num("energy_pj")?,
                accuracy: r.num("accuracy")?,
            })
        })
        .collect()
}

/// The committed tuned per-layer assignment of `net` in the
/// `BENCH_nn.json` shape.
pub fn nn_tuned(doc: &Json, net: &Network) -> Result<Assignment, String> {
    let a = doc.get("tuned")?.get(net.name)?.get("assignment")?;
    net.layers
        .iter()
        .map(|l| Ok((l.name().to_string(), fmt_named(a.str(l.name())?)?)))
        .collect()
}

/// `got` equals `want` within `rel` relative error (energy totals).
pub fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(f64::MIN_POSITIVE)
}
