//! Differential replay fleet: record every benchmark grid point on the
//! per-instruction path, replay every segment on the block micro-op
//! cache in parallel, and bisect any divergence to the exact retired
//! instruction.
//!
//! Usage: `testrunner [--full] [--snap-every N]`
//!   --full         replay the whole workload × precision × mode grid
//!                  (default: rotating one-point-per-workload subset)
//!   --snap-every N snapshot interval in retired instructions
//!
//! `SMALLFLOAT_SERIAL=1` serializes segment replay. Exits nonzero when
//! any segment fails to replay bit-identically.
use smallfloat_bench::replay::{run_fleet, SNAP_EVERY};

fn main() {
    let mut full = false;
    let mut snap_every = SNAP_EVERY;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--snap-every" => {
                snap_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--snap-every takes a positive integer");
            }
            other => {
                eprintln!("unknown argument `{other}` (expected --full / --snap-every N)");
                std::process::exit(2);
            }
        }
    }
    let report = run_fleet(full, snap_every);
    print!("{}", report.summary());
    if !report.is_clean() {
        std::process::exit(1);
    }
}
