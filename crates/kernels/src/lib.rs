//! The paper's evaluation workloads: five Polybench/C kernels (GEMM, ATAX,
//! SYRK, SYR2K, FDTD-2D) and the EMG gesture-recognition SVM application,
//! each available as
//!
//! * a type-parametric IR kernel (scalar and auto-vectorized lowering via
//!   `smallfloat-xcc`), and
//! * a hand-vectorized variant written with the Xfvec/Xfaux intrinsics
//!   (pointer bumping, `vfmac`, `vfdotpex`, `vfcpk`) — the paper's "manual
//!   vectorization",
//!
//! together with deterministic workload generators, the simulator [`runner`]
//! and QoR (SQNR / classification-accuracy) measurement.

pub mod bench;
pub mod mg;
pub mod polybench;
pub mod polybench_extra;
pub mod runner;
pub mod svm;

pub use bench::{Benchmark, Precision, VecMode};
pub use mg::Mg;
pub use runner::{
    array_span, decode_array, last_hot_blocks, launch, pool_counters, quantize_array, run_compiled,
    RunResult,
};
