#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    python3 perfbench/compare.py collect OUT [--runs 10] [--first-seed 1]
        [--workloads w1,w2] [--trace 0|1] [--seconds S]
    python3 perfbench/compare.py pair BASE_REPO CHANGE_REPO BASE_OUT CHANGE_OUT [same options]
    python3 perfbench/compare.py spread SET
    python3 perfbench/compare.py compare BASE CHANGE

`collect` runs `perfbench/run.py` once per (workload, seed), seeds
first-seed .. first-seed+runs-1, and stores each run's standard output
as OUT/<workload>/<seed>.txt. `pair` does the same for two checkouts
(say a parent commit and a change), alternating which side runs first
from seed to seed, as a claim needs. `spread` prints, per (workload, metric),
the median, the quartiles and their distance as a share of the median.
`compare` pairs the i-th runs of BASE and CHANGE in seed order and reports each
(workload, metric) as improved, regressed or unresolved: a side wins
only when it is better in at least nine tenths of the pairs and the
medians differ by more than BASE's interquartile distance. It also
says whether CHANGE's median is within the bound BENCHMARK.json fixes
for that metric. Quartiles are `statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}, b


def load(path):
    """{workload: {seed: result}} from a collected set."""
    runs = {}
    for w in sorted(os.listdir(path)):
        d = os.path.join(path, w)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name)) as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
            runs.setdefault(w, {})[name.rsplit(".", 1)[0]] = json.loads(lines[-1])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def by_metric(runs):
    out = {}
    for seed, r in runs.items():
        for name, m in r["metrics"].items():
            out.setdefault(name, {})[seed] = m["value"]
    return out


def run_one(repo, out_dir, w, seed, seconds, trace, env=None):
    """Runs repo's benchmark once and stores its output as out_dir/w/seed.txt."""
    os.makedirs(os.path.join(out_dir, w), exist_ok=True)
    cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"), "--workload", w,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"{repo}: {w} seed {seed} exited {out.returncode}")
    with open(os.path.join(out_dir, w, f"{seed}.txt"), "w") as f:
        f.write(out.stdout)
    result = json.loads(out.stdout.splitlines()[-1])
    print(f"{repo}: {w} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)


def plan(a):
    _, bench = spec()
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(a.first_seed, a.first_seed + a.runs)
    return workloads, seeds, a.seconds or bench["run_seconds"]


def collect(a):
    workloads, seeds, seconds = plan(a)
    for w in workloads:
        for seed in seeds:
            run_one(ROOT, a.out, w, seed, seconds, a.trace)


def pair(a):
    """Alternates two checkouts run by run, each built in its own
    perfbench/target, so slow drift of the host hits both sides alike."""
    workloads, seeds, seconds = plan(a)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    sides = [(os.path.abspath(a.base_repo), a.base_out), (os.path.abspath(a.change_repo), a.change_out)]
    for w in workloads:
        for i, seed in enumerate(seeds):
            for repo, out in sides if i % 2 == 0 else sides[::-1]:
                run_one(repo, out, w, seed, seconds, a.trace, env)


def spread(a):
    metrics, _ = spec()
    print(f"{'workload':<13} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6} {'n':>3} {'failed':>6}")
    for w, runs in load(a.set).items():
        failed = sum(r["failed"] for r in runs.values())
        for name, vals in by_metric(runs).items():
            med, q1, q3, rel = summary(list(vals.values()))
            bound = metrics.get(name, {}).get("bound")
            flag = "" if bound is None or rel < bound / 3 else (" !" if rel >= bound else " ~")
            print(f"{w:<13} {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f} "
                  f"{'' if bound is None else bound:>6} {len(vals):>3} {failed:>6}{flag}")


def compare(a):
    metrics, _ = spec()
    base, change = load(a.base), load(a.change)
    print(f"{'workload':<13} {'metric':<28} {'base med':>12} {'base q1..q3':>25} {'change med':>12} "
          f"{'change q1..q3':>25} {'wins':>7} {'verdict':<10} within-bound")
    for w in sorted(set(base) & set(change)):
        bm, cm = by_metric(base[w]), by_metric(change[w])
        for name in bm:
            if name not in cm:
                continue
            spec_m = metrics.get(name, {})
            lower = spec_m.get("better", "lower") == "lower"
            # The i-th runs of each set in seed order: the same seed when
            # both sets used the same seeds.
            pairs = list(zip(sorted(bm[name], key=int), sorted(cm[name], key=int)))
            if not pairs:
                continue
            b = [bm[name][x] for x, _ in pairs]
            c = [cm[name][y] for _, y in pairs]
            bmed, bq1, bq3, _ = summary(b)
            cmed, cq1, cq3, _ = summary(c)
            better = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
            worse = sum((y > x) if lower else (y < x) for x, y in zip(b, c))
            apart = abs(cmed - bmed) > (bq3 - bq1)
            if better >= 0.9 * len(pairs) and apart:
                verdict = "improved"
            elif worse >= 0.9 * len(pairs) and apart:
                verdict = "regressed"
            else:
                verdict = "unresolved"
            bound = spec_m.get("bound")
            within = ""
            if bound is not None and bmed:
                loss = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
                within = "yes" if loss <= bound else f"NO ({loss:+.3f} > {bound})"
            print(f"{w:<13} {name:<28} {bmed:>12.6g} {f'{bq1:.6g}..{bq3:.6g}':>25} {cmed:>12.6g} "
                  f"{f'{cq1:.6g}..{cq3:.6g}':>25} {f'{better}/{len(pairs)}':>7} {verdict:<10} {within}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    pr = sub.add_parser("pair")
    for name in ("base_repo", "change_repo", "base_out", "change_out"):
        pr.add_argument(name)
    for c in (c, pr):
        c.add_argument("--runs", type=int, default=10)
        c.add_argument("--first-seed", type=int, default=1)
        c.add_argument("--workloads", default="")
        c.add_argument("--trace", type=int, choices=(0, 1), default=0)
        c.add_argument("--seconds", type=int, default=0)
    s = sub.add_parser("spread")
    s.add_argument("set")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    a = p.parse_args()
    {"collect": collect, "pair": pair, "spread": spread, "compare": compare}[a.cmd](a)


if __name__ == "__main__":
    main()
