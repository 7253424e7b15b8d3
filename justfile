# Developer entry points. `just` is optional — every recipe is a thin
# wrapper over scripts/ or cargo, so the commands also work directly.

# Format check, clippy -D warnings, tier-1 build+tests, workspace tests,
# the analysis gates, the lane-loop vectorization gate, perfbench smoke
# and a repro smoke run.
ci:
    bash scripts/ci.sh

# Tier-1 gate only (what the roadmap requires to stay green).
test:
    cargo build --release
    cargo test -q

# Full workspace test suite.
test-all:
    cargo test --workspace -q

# Regenerate every table/figure with timings and cache statistics.
repro *ARGS:
    cargo run --release -p ihw-bench --bin repro -- --timings {{ARGS}} all

fmt:
    cargo fmt --all

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Workspace invariant audit (bit-determinism lint, see DESIGN.md §7).
# Fails on findings not in lint-baseline.txt.
lint *ARGS:
    cargo run --release -p ihw-lint -- {{ARGS}}

# Static error-bound & imprecision-taint analysis (see DESIGN.md §8);
# runs the interval and affine relational domains and reports
# min(interval, affine) per output (§12 — `--domain` selects one).
# Fails on findings not in analyze-baseline.txt.
analyze *ARGS:
    cargo run --release -p ihw-bench --bin repro -- analyze {{ARGS}}

# Memory-dependence / race analysis, whose store-shape proof licenses
# the compiled engine's lane blocks (see DESIGN.md §9). Fails on
# findings not in racecheck-baseline.txt. `just racecheck --bench`
# records BENCH_kernel_throughput.json (interpreted vs compiled).
racecheck *ARGS:
    cargo run --release -p ihw-bench --bin repro -- racecheck {{ARGS}}

# Static-bound-driven precision autotuner: per-site sensitivity
# analysis, branch-and-bound config search, energy-vs-bound Pareto
# fronts (see DESIGN.md §11). Fails on A008 findings not in
# autotune-baseline.txt. `just autotune --target 1e-3 --json` prints
# the machine-readable fronts.
autotune *ARGS:
    cargo run --release -p ihw-bench --bin repro -- autotune {{ARGS}}

# Convergence certification for iterative (feedback-bound) kernels:
# per-launch error-transfer summaries e' ≤ ρ·e + c, closed-form N(ε)
# and certified net energy when ρ < 1, the A010 divergence-risk rule
# when ρ ≥ 1 (see DESIGN.md §13). Fails on A010 findings not in
# converge-baseline.txt (expected divergences never gate).
# `just converge --bench` records BENCH_solvers.json, pairing every
# certificate with a measured solver trajectory.
converge *ARGS:
    cargo run --release -p ihw-bench --bin repro -- converge {{ARGS}}

# Compiled-engine perf gate: fails if the geomean compiled-sequential
# speedup over the interpreted-sequential reference drops below the
# recorded 5.0x floor (see BENCH_kernel_throughput.json), or if any
# row diverges bit-wise from the interpreter.
bench-compiled:
    cargo run --release -p ihw-bench --bin repro -- racecheck --bench \
        --engine compiled --threads 16384 --repeats 2 --min-compiled-speedup 5.0 \
        --out target/bench-compiled.json

# Repository benchmark smoke gate: perfbench unit tests, a 5-second
# `launch` run that fails unless every launch is bit-identical to its
# sequential reference, a 1-second `serve_shared` run that fails unless
# every reply matches its oracle, and a 1-second `paper` run that fails
# unless the pass renders the `repro all` tables byte for byte (see
# perfbench/README.md).
perfbench-smoke:
    bash scripts/perfbench-smoke.sh
