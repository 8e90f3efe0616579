//! Kernel runner CLI: execute one benchmark variant on the simulator and
//! print its statistics; `--hot-blocks` additionally prints the top-10
//! basic blocks by dynamic instruction count (pc range, static length,
//! execution count and share of retired instructions).
//!
//!     cargo run --release -p smallfloat-kernels --example runner -- \
//!         GEMM float16 auto --hot-blocks
//!
//! Arguments (all optional, any order): a workload name (SVM, GEMM, ATAX,
//! SYRK, SYR2K, FDTD2D), a precision label (float, float16, float16alt,
//! float8, float8alt) and a mode label (scalar, auto, manual). Defaults:
//! `GEMM float16 auto`. `SMALLFLOAT_HOT_BLOCKS=1` prints the report for
//! every simulated run regardless of the flag.

use smallfloat_kernels::bench::{run, suite, Precision, VecMode};
use smallfloat_kernels::last_hot_blocks;
use smallfloat_sim::{hot_block_report, MemLevel};

fn main() {
    let mut workload = "GEMM".to_string();
    let mut prec = Precision::F16;
    let mut mode = VecMode::Auto;
    let mut hot = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--hot-blocks" => hot = true,
            "scalar" => mode = VecMode::Scalar,
            "auto" => mode = VecMode::Auto,
            "manual" => mode = VecMode::Manual,
            other => match Precision::from_label(other) {
                Some(p) => prec = p,
                None => workload = other.to_uppercase(),
            },
        }
    }
    let benchmarks = suite();
    let w = benchmarks
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(&workload))
        .unwrap_or_else(|| {
            let names: Vec<&str> = benchmarks.iter().map(|b| b.name()).collect();
            panic!("unknown workload `{workload}`; expected one of {names:?}")
        });
    let result = run(w.as_ref(), &prec, mode, MemLevel::L1);
    println!(
        "{} {} {} @ L1\n{}",
        w.name(),
        prec.label(),
        mode.label(),
        result.stats
    );
    if hot {
        println!(
            "top blocks by dynamic instructions:\n{}",
            hot_block_report(&last_hot_blocks(10), result.stats.instret)
        );
    }
}
