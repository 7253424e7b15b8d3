#!/usr/bin/env bash
# Repository benchmark smoke gate: perfbench's own unit tests, then
# three short untraced runs that fail unless every output check passed
# (`correct` true and `failed` 0 in the result line): 5 seconds of
# `launch`; 1 second of `serve_shared`, whose passes check every reply
# of the 2-tenant mix against its oracle buffers and static bounds; and
# 1 second of `paper`, whose cold pass must render the
# `repro --jobs 1 all` tables byte for byte (its digest check). Run from
# anywhere; `just perfbench-smoke` and scripts/ci.sh delegate here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --manifest-path perfbench/Cargo.toml

smoke() {
    local workload=$1 seconds=$2
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
        | tail -n 1 \
        | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("perfbench %s smoke: correct=%s attempted=%d failed=%d"
      % (sys.argv[1], r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$workload"
}

smoke launch 5
smoke serve_shared 1
smoke paper 1
