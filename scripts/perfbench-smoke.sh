#!/usr/bin/env bash
# Repository benchmark smoke gate: perfbench's own unit tests, then a
# 5-second untraced `launch` run that fails unless every output check
# passed (`correct` true and `failed` 0 in the result line). Run from
# anywhere; `just perfbench-smoke` and scripts/ci.sh delegate here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --manifest-path perfbench/Cargo.toml

python3 perfbench/run.py --workload launch --seed 1 --seconds 5 --trace 0 \
    | tail -n 1 \
    | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("perfbench launch smoke: correct=%s attempted=%d failed=%d"
      % (r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
'
