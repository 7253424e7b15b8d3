#!/usr/bin/env bash
# Vectorization gate: fails when more compiled lane loops are scalar
# than vectorize-baseline.txt allows.
#
# The compiled engine's speed rests on LLVM auto-vectorizing every
# `gpu_sim::compile::map1`/`map2`/`map3` instance (DESIGN.md §10), and
# no differential test sees a loop turn scalar: a one-token change in a
# unit body can halve `launch` throughput with every test green. This
# disassembles the release `repro` binary, counts the `map*` bodies
# that have no ymm/zmm operand, and fails when that count exceeds the
# number of reason lines in vectorize-baseline.txt. Every instance
# demangles to the bare `gpu_sim::compile::mapN` (the mangled names
# differ only by a hash), so the baseline is a count, one written reason
# per scalar instance. It assumes the committed .cargo/config.toml
# (target-cpu=native) on an AVX2 or AVX-512 host.
#
# Run after `cargo build --release -p ihw-bench`; scripts/ci.sh does.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=target/release/repro
baseline=vectorize-baseline.txt

if ! command -v objdump >/dev/null; then
    echo "vectorize gate: objdump not found; it is needed to disassemble $bin" >&2
    exit 1
fi
if [ ! -f "$bin" ]; then
    echo "vectorize gate: $bin not found; run cargo build --release -p ihw-bench" >&2
    exit 1
fi

read -r total scalar < <(objdump -d -C "$bin" | awk '
    /^[0-9a-f]+ <.*>:$/ {
        if (inmap) { total++; if (!vec) scalar++ }
        inmap = /<gpu_sim::compile::map[123]>:$/
        vec = 0
        next
    }
    inmap && /%[yz]mm/ { vec = 1 }
    END {
        if (inmap) { total++; if (!vec) scalar++ }
        print total + 0, scalar + 0
    }')
allowed=$(grep -cvE '^[[:space:]]*(#|$)' "$baseline" || true)

echo "vectorize gate: $scalar of $total gpu_sim::compile::map* instances have no ymm/zmm code (baseline $allowed)"
if [ "$total" -eq 0 ]; then
    echo "vectorize gate: no gpu_sim::compile::map* instance in $bin (renamed or inlined?)" >&2
    exit 1
fi
if [ "$scalar" -gt "$allowed" ]; then
    echo "vectorize gate: more scalar lane loops than $baseline lists:" >&2
    grep -vE '^[[:space:]]*(#|$)' "$baseline" >&2 || true
    exit 1
fi
