#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   scripts/check.sh          # build + tests (the CI tier-1 definition)
#   scripts/check.sh --full   # also rustfmt + clippy + release test run
#                             # + the perfbench tests
#
# The figure/table binaries and benches are exercised by the test suite;
# BENCH_sim_dispatch.json / BENCH_sim_blocks.json are refreshed manually via
#   SMALLFLOAT_BENCH_JSON=out.json cargo bench -p smallfloat-bench --bench <name>
# and BENCH_serving.json via
#   cargo run --release -p smallfloat-bench --bin serve_bench -- --json BENCH_serving.json
# and BENCH_training.json via
#   cargo run --release -p smallfloat-bench --bin train_table -- --json BENCH_training.json
#
# The basic-block micro-op cache is on by default; SMALLFLOAT_NOBLOCKS=1 forces
# every Cpu::run onto the per-instruction path.
#
# perfbench/ is a separate cargo workspace (the repository benchmark, see
# BENCHMARK.json) built against crates/* by path: building it here means a
# sim/kernels API change that breaks the benchmark fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> perfbench build (release)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> binary8 + binary8alt (E4M3) exhaustive differential suites + host-f64 bridge (release)"
cargo test --release -q -p smallfloat-softfp --test fastpath_b8_exhaustive --test fastpath_b8alt_exhaustive --test fastpath_f64_bridge

echo "==> xcc: typed interpreter vs simulator differential suites (codegen_sim, fuzz_codegen) (release)"
cargo test --release -q -p smallfloat-xcc

echo "==> isa/asm round-trip property suites (.ab mnemonics, vfsdotpex, alt-bank edges)"
cargo test --release -q -p smallfloat-isa --test roundtrip
cargo test --release -q -p smallfloat-asm

echo "==> two-tier differential grid (reference vs blocks) + golden trace (release)"
cargo test --release -q -p smallfloat-sim --test blockpath_differential --test golden_trace

echo "==> snapshot/restore + record-replay gates (release)"
cargo test --release -q -p smallfloat-sim --test snapshot_roundtrip --test replay

echo "==> replay fleet: rotating subset on the block engine (segment-parallel differential testrunner)"
cargo run --release -q -p smallfloat-bench --bin testrunner

echo "==> vdotpex4_f8 exhaustive differential suite (release)"
cargo test --release -q -p smallfloat-softfp --test vdotpex4_f8_differential

echo "==> nn QoR + training regression suite (release: end-to-end formats/modes, manual-SIMD floors, pinned tuned assignments; training smoke = few-step loss parity vs the f64 reference, pinned golden loss bits on the block engine, FD gradient checks. The per-pass training tuner grid runs under --full)"
cargo test --release -q -p smallfloat-nn -- --skip per_pass

echo "==> cluster + concurrent-fork gates (release)"
cargo test --release -q -p smallfloat-cluster
cargo test --release -q -p smallfloat-sim --test concurrent_forks

echo "==> serving smoke: small batch on 1 and 2 cores, every request replayed on the single-core reference"
cargo run --release -q -p smallfloat-bench --bin serve_bench -- --smoke

if [[ "${1:-}" == "--full" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --check
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo test --workspace --release -q (includes the per-pass training tuner grid: pinned MLP assignment, frontier dominance, worker-count independence)"
    cargo test --workspace --release -q
    echo "==> replay fleet: full workload x precision x mode grid on the block engine"
    cargo run --release -q -p smallfloat-bench --bin testrunner -- --full
    echo "==> perfbench tests (release)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> cargo doc --no-deps --workspace (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
fi

echo "OK"
