//! `perfbench --workload <train|infer_sweep|serve> --seed <n> --seconds <s>
//! --trace <0|1>`: run one workload and print its result as the last line
//! of standard output. See `README.md`.

use perfbench::{serve, sweep, train, Options, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

fn parse_args() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad `{flag} {value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|(workload, opts)| match workload.as_str() {
        "train" => train::run(&opts),
        "infer_sweep" => sweep::run(&opts),
        _ => serve::run(&opts),
    });
    match result {
        Ok(report) => {
            println!("{}", report.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
