#!/usr/bin/env python3
"""Repeatability check for pisa_bench.

    python3 pisa_bench/repeat.py [--runs 10] [--seconds S] [--trace 0|1]
                                 [--workloads a,b] [--seed-base N]
                                 [--save FILE] [--compare FILE]

Runs the benchmark command from BENCHMARK.json --runs times per workload,
each run with its own seed (seed-base + run index) and the workload order
reversed on every other run. For every metric x workload it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, and flags a spread wider than the metric's bound in
BENCHMARK.json (setup_s is reported but not flagged: its bound covers only
the shift of its median). --save writes the raw values as JSON; --compare
FILE checks that no median here is worse than the saved one by more than
the bound. Exits non-zero when anything is flagged or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in
               (spec["per_layer"] if args.trace else spec["end_to_end"])}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    failures = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + i
            got = run_once(spec, w, seed, args.seconds, args.trace)
            if got is None:
                print(f"run failed: {w} seed {seed}", file=sys.stderr)
                failures += 1
                continue
            for name, v in got.items():
                values[w].setdefault(name, []).append(v)
            print(f"  done {w} seed {seed}", file=sys.stderr, flush=True)

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)

    flagged = 0
    print(f"{'workload':14} {'metric':34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, m in metrics.items():
            vals = values[w].get(name, [])
            if len(vals) < 2:
                continue
            q1, q2, q3, spread = summarize(vals)
            bound = m.get("bound")
            note = ""
            if bound is not None and name != "setup_s" and spread > bound:
                note = "  SPREAD > BOUND"
                flagged += 1
            if baseline and bound is not None:
                base = baseline.get(w, {}).get(name)
                if base:
                    b2 = statistics.median(base)
                    worse = (q2 - b2) / b2 if m["better"] == "lower" \
                        else (b2 - q2) / b2
                    note += f"  vs saved median {b2:.6g} ({worse:+.1%})"
                    if worse > bound:
                        note += " WORSE THAN BOUND"
                        flagged += 1
            print(f"{w:14} {name:34} {len(vals):3} {q2:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.1%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}{note}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    if failures or flagged:
        print(f"{failures} failed runs, {flagged} flagged metrics",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
