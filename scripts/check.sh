#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   scripts/check.sh          # build + tests (the CI tier-1 definition;
#                             # Cargo.toml's default-members make the plain
#                             # `cargo build`/`cargo test -q` below cover every
#                             # workspace crate, not just the root package)
#   scripts/check.sh --full   # also rustfmt + clippy + release test run
#                             # + the exhaustive binary16 host-path sweep
#                             # + the perfbench tests
#
# The softfp fast path (binary8 tables, host-FPU leaves, bit-level
# kernels) is gated against the generic reference `ops` in release:
# the binary8 exhaustive suites, the host-f64 bridge, the >=1M-case sampled
# 16/32-bit suite, the host-FPU round-to-nearest suite and the expanding
# dot-product suite (every 8-bit lane pair, >=1M sampled 16-bit cases).
# The host-FPU suite's exhaustive binary16 add/mul sweep (all 2^32 pairs,
# minutes on two threads, so #[ignore]d) runs under --full: it is the one
# exhaustive test of the binary16 host leaves.
#
# The figure/table binaries are exercised by the test suite. Each committed
# BENCH_*.json names its generator in its "methodology" (checked by
# tests/records.rs) and is refreshed manually, e.g.
#   cargo run --release -p smallfloat-bench --bin nn_table -- --json BENCH_nn.json
#   cargo run --release -p smallfloat-bench --bin serve_bench -- --json BENCH_serving.json
#   cargo run --release -p smallfloat-bench --bin train_table -- --json BENCH_training.json
# --full regenerates every record (simulator outputs only) at the default
# worker count and with SMALLFLOAT_SERIAL=1, and requires each to match the
# committed file byte for byte (tests/records.rs checks that every root
# BENCH_*.json is a `cmp` target of that step). That step does not exercise
# the per-sample conv fan-out inside `train`/`infer_sim`: train_table and
# nn_table run them from inside their own par_map grids, where nested
# fan-outs are serial. The release nn step's sample_parallel suite does:
# CNN `train` and `infer_sim` at forced 1, 2 and 4 workers, bit for bit.
# Host speed is measured end to end by perfbench/ (see below); the workspace
# has no `cargo bench` targets.
#
# The basic-block micro-op cache is on by default; SMALLFLOAT_NOBLOCKS=1 forces
# every Cpu::run onto the per-instruction path. Both tiers fetch through one
# code window and run the same lowered op per instruction (its one semantic
# definition), except where block lowering fuses adjacent ops into one
# micro-op: the two-tier grid pins accounting and control, and the fused-op
# differential (tests/fused_differential.rs: every pattern of the fusion table
# on Cpu::run with blocks on against Cpu::step, register aliasing, a trap
# inside a fused op, self-killing stores, every budget) pins each fused
# handler's semantics against the unfused ops. The
# semantic oracles (tests/programs.rs, tests/vector_semantics.rs: hand-computed
# expectations on a step() loop and on run() with blocks off and on) run in
# release next to the grid, the golden trace, the code-window invalidation
# contract (tests/predecode.rs), the handler-level FP differential
# (tests/fp_leaf_differential.rs: every handler with a host-FPU leaf against
# the generic ops:: chain, static and dynamic rounding, a reserved frm) and
# the sim crate's unit tests (--lib), so budget arithmetic is also checked
# under release (wrapping) overflow.
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

# No bench targets remain; this still compiles every target's test harness
# under the bench profile.
echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> perfbench build (release)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
# perfbench divides host times by a calibration loop whose speed depends on
# where the linker puts it (its address mod 64; 8-13 % apart between
# placements), so print the placement: normalised figures of two builds
# compare only with it in view.
perfbench_bin=perfbench/target/release/perfbench
if command -v nm >/dev/null && [[ -f "$perfbench_bin" ]]; then
    calib=$(nm -C "$perfbench_bin" | awk '$3 == "perfbench::calib::work" && !n++ { print $1 }')
    if [[ -n "$calib" ]]; then
        echo "perfbench::calib::work at 0x$calib: $((16#$calib % 64)) mod 64"
    fi
fi

echo "==> softfp differential suites (release): binary8 + binary8alt (E4M3) exhaustive, host-f64 bridge, >=1M-case sampled 16/32-bit fast path, host-FPU round-to-nearest path, expanding dot products (vfdotpex/vfsdotpex, fmulex/fmacex)"
cargo test --release -q -p smallfloat-softfp --test fastpath_b8_exhaustive --test fastpath_b8alt_exhaustive --test fastpath_f64_bridge --test fastpath_sampled --test fastpath_host_rne --test dotp_differential

echo "==> xcc: typed interpreter vs simulator differential suites (codegen_sim, fuzz_codegen) (release)"
cargo test --release -q -p smallfloat-xcc

echo "==> isa/asm round-trip property suites (.ab mnemonics, vfsdotpex, alt-bank edges) + asm parser boundary fuzzing"
cargo test --release -q -p smallfloat-isa --test roundtrip
cargo test --release -q -p smallfloat-asm

echo "==> sim unit tests (block.rs, mem.rs under release overflow semantics) + two-tier differential grid (per-instruction vs blocks) + fused-op differential (fused micro-ops vs step) + semantic oracles (programs, vector_semantics) + handler-level FP differential (host leaves vs ops::) + golden trace + code-window invalidation (release)"
cargo test --release -q -p smallfloat-sim --lib --test blockpath_differential --test fused_differential --test programs --test vector_semantics --test fp_leaf_differential --test golden_trace --test predecode

echo "==> snapshot/restore + record-replay gates (release)"
cargo test --release -q -p smallfloat-sim --test snapshot_roundtrip --test replay

echo "==> replay fleet: rotating subset on the block engine (segment-parallel differential testrunner)"
cargo run --release -q -p smallfloat-bench --bin testrunner

echo "==> vdotpex4_f8 exhaustive differential suite (release)"
cargo test --release -q -p smallfloat-softfp --test vdotpex4_f8_differential

echo "==> nn QoR + training regression suite (release: end-to-end formats/modes, manual-SIMD floors, pinned tuned assignments; training smoke = few-step loss parity vs the f64 reference, pinned golden loss bits on the block engine, FD gradient checks; sample_parallel = CNN train/infer_sim bit-identical at 1, 2 and 4 host workers. The per-pass training tuner grid runs under --full)"
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
    echo "==> cargo test --workspace --release -q (includes the per-pass training tuner grid: pinned MLP assignment, frontier dominance)"
    cargo test --workspace --release -q
    echo "==> exhaustive binary16 add/mul host-path sweep (all 2^32 pairs, release)"
    cargo test --release -q -p smallfloat-softfp --test fastpath_host_rne -- --ignored
    echo "==> BENCH_nn.json + BENCH_training.json + BENCH_serving.json regenerate byte-identically (default workers, then SMALLFLOAT_SERIAL=1)"
    regen=$(mktemp -d)
    trap 'rm -rf "$regen"' EXIT
    for serial in 0 1; do
        SMALLFLOAT_SERIAL=$serial ./target/release/nn_table --json "$regen/nn.json" >/dev/null
        SMALLFLOAT_SERIAL=$serial ./target/release/train_table --json "$regen/training.json" >/dev/null
        SMALLFLOAT_SERIAL=$serial ./target/release/serve_bench --json "$regen/serving.json" >/dev/null
        cmp "$regen/nn.json" BENCH_nn.json
        cmp "$regen/training.json" BENCH_training.json
        cmp "$regen/serving.json" BENCH_serving.json
    done
    echo "==> replay fleet: full workload x precision x mode grid on the block engine"
    cargo run --release -q -p smallfloat-bench --bin testrunner -- --full
    echo "==> perfbench tests (release)"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> cargo doc --no-deps --workspace (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
fi

echo "OK"
