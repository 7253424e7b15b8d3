#!/usr/bin/env bash
# Local CI gate: formatting, lints, tier-1 tests, and a smoke run of the
# repro harness with timings (exercises the sweep runner + run cache).
# Run from anywhere; `just ci` delegates here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc: intra-doc links resolve (-D broken/private_intra_doc_links) =="
# Fails when a doc comment links to an item that no longer exists, or
# when public docs link to a private item. The vendored offline shims
# (proptest, rand, criterion) are excluded: they stand in for crates.io
# packages, and the proptest shim's own `vec` link is ambiguous.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps \
    --exclude proptest --exclude rand --exclude criterion

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== workspace tests =="
# Tier-1 `cargo test` runs only the root package; this adds every
# crate's unit tests and ihw-bench's integration tests (runner
# determinism, serve concurrency and hostile payloads, schema goldens).
cargo test --workspace -q

echo "== release-only tests: exhaustive SFU sweeps, paper-scale MD pin =="
# The #[ignore]d sweeps of tests/sfu_word_differential.rs: every one of
# the 2^32 inputs of ircp32, irsqrt32, isqrt32, ilog2_32 and iexp2_32
# (for ilog2_32 this includes its 2^31 - 2^24 positive normals, whose
# results depend on the exponent too) against the Format-generic
# bodies, bit for bit. The tier-1 tests sweep 2^24 cases per unit; only
# this step proves the branch-free bodies on every input.
cargo test --release --test sfu_word_differential -- --ignored
# The #[ignore]d paper-scale MD pin of tests/workload_pins.rs: outputs,
# OpCounts, int and mem ops bit for bit under five configs (the Quick
# pins run in the tier-1 tests).
cargo test --release --test workload_pins -- --ignored

echo "== ihw-lint: workspace invariant audit (deny new findings) =="
# Exits non-zero on findings not in lint-baseline.txt; the JSON
# diagnostics (schema ihw-lint/1) are kept as a CI artifact.
cargo run --release -p ihw-lint -- --json-out target/ihw-lint.json

echo "== ihw-analyze: static error bounds (deny new findings) =="
# Exits non-zero on findings not in analyze-baseline.txt; the bound per
# output is the combined min(interval, affine) pass and the advisory
# A009 cancellation-recovered rule never gates. The JSON diagnostics
# (schema ihw-analyze/2) are kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- analyze --json-out target/ihw-analyze.json

echo "== ihw-racecheck: memory-dependence audit (deny new findings) =="
# Exits non-zero on findings not in racecheck-baseline.txt; the JSON
# diagnostics (schema ihw-racecheck/1) are kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- racecheck --json-out target/ihw-racecheck.json

echo "== ihw-autotune: precision autotuner + A008 gate (deny new findings) =="
# Exits non-zero on A008 over-provisioned-precision findings not in
# autotune-baseline.txt; the JSON document (schema ihw-autotune/1,
# per-kernel Pareto fronts + findings) is kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- autotune --json-out target/ihw-autotune.json

echo "== ihw-converge: convergence certification + A010 gate (deny new findings) =="
# Exits non-zero on A010 imprecision-divergence-risk findings not in
# converge-baseline.txt; the documented EXPECTED_DIVERGENT pairs are
# advisory and never gate. The JSON document (schema ihw-converge/1,
# per-pair certificates + findings) is kept as a CI artifact.
cargo run --release -p ihw-bench --bin repro -- converge --json-out target/ihw-converge.json

echo "== solverbench: certificates vs measured solver trajectories =="
# Fails (exit 1) if any certified kernel × config pair measures worse
# than its certificate — more sweeps than N(ε) or a final error above
# the effective tolerance. The record goes to target/ and must match
# the committed BENCH_solvers.json byte for byte: it holds no timings,
# so a drifted certificate or trajectory fails here instead of
# silently rewriting the record (refresh it with
# `repro converge --bench`).
cargo run --release -p ihw-bench --bin repro -- converge --bench --out target/BENCH_solvers.json
cmp target/BENCH_solvers.json BENCH_solvers.json

echo "== racebench: interpreted vs compiled (bit-identity + throughput) =="
# Fails if any compiled run diverges from the interpreted-sequential
# reference, or if the geomean compiled-sequential speedup over that
# reference drops below the recorded 5.0x floor across the four stock
# kernels × five stock configs. The record (schema ihw-racebench/4)
# goes to target/, not over the committed BENCH_kernel_throughput.json:
# its geomean depends on the host, so a CI run must not rewrite it
# (refresh the committed record with `just racecheck --bench`).
# The floor assumes the committed .cargo/config.toml
# (target-cpu=native): the compiled lane loops rely on
# auto-vectorization.
cargo run --release -p ihw-bench --bin repro -- racecheck --bench --min-compiled-speedup 5.0 \
    --out target/BENCH_kernel_throughput.json

echo "== vectorize: compiled lane loops keep their vector code =="
# Fails when more gpu_sim::compile::map* instances in the release repro
# binary lack ymm/zmm code than vectorize-baseline.txt lists, when no
# instance is found, or when objdump is missing.
cargo build --release -p ihw-bench
bash scripts/vectorize-gate.sh

echo "== perfbench: unit tests + launch, serve_shared and paper smoke =="
# The repository benchmark (perfbench/, its own Cargo workspace). The
# smoke runs fail unless every launch is bit-identical to its
# sequential reference, every served reply matches its oracle buffers
# and static bounds, and the paper pass renders the `repro all` tables
# byte for byte (`correct` true, `failed` 0).
bash scripts/perfbench-smoke.sh

echo "== smoke: repro --timings table5 fig14 =="
cargo run --release -p ihw-bench --bin repro -- --timings table5 fig14

echo "CI OK"
