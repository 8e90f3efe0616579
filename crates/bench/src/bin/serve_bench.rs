//! Sharded batch-inference serving benchmark.
//!
//! Default: the committed sweep (net × format × core count,
//! simulated-clock-domain rps and latency percentiles). Flags:
//!
//! * `--json <path>` — also write the `BENCH_serving.json` record;
//! * `--requests <n>` — batch size per point (default 64);
//! * `--smoke` — the check.sh gate: a small batch on 1 and 2 cores with
//!   every request replayed bit-for-bit on the single-core reference;
//!   exits nonzero on any divergence.

use smallfloat_bench::serving::{serving_json, serving_render, serving_sweep, smoke};

fn main() {
    let mut json_path: Option<String> = None;
    let mut requests = 64usize;
    let mut run_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => run_smoke = true,
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--requests" => {
                requests = args
                    .next()
                    .expect("--requests needs a count")
                    .parse()
                    .expect("--requests needs an integer")
            }
            other => panic!("unknown flag {other}"),
        }
    }
    if run_smoke {
        match smoke() {
            Ok(msg) => println!("{msg}"),
            Err(msg) => {
                eprintln!("serving smoke FAILED: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    let rows = serving_sweep(requests);
    print!("{}", serving_render(&rows));
    if let Some(path) = json_path {
        std::fs::write(&path, serving_json(&rows)).expect("JSON written");
        eprintln!("wrote {path}");
    }
}
