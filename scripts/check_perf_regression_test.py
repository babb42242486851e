#!/usr/bin/env python3
"""Self-test for check_perf_regression.py: a run that loses a guarded
section or renames a guarded key must fail, not pass silently, and the PIR
microbenches must sit behind the cliff threshold.

Builds its inputs from the committed snapshots at the repo root (so the
rows carry the real schema), runs the guard on an identical copy (must
pass), then on copies with pir_sweep removed and with a key renamed, among
them durability_sweep's num_threads, the key its WAL-off/on pairs match on
(each must exit 2 and name the section), and on BENCH_pir.json copies whose
BM_PirScan rows are 1.5x slower (must pass: inside --tcp-threshold), 2.5x
slower (must exit 1) and missing (must exit 2). Run directly or through
ctest:

    python3 scripts/check_perf_regression_test.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GUARD = os.path.join(HERE, "check_perf_regression.py")


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


MICRO = ("BENCH_paillier.json", "BENCH_bigint.json", "BENCH_pir.json")


def run_guard(baseline_dir, system, pir=None):
    """Runs the guard against `system` as the current BENCH_system.json and
    `pir` (default: the committed one) as the current BENCH_pir.json."""
    with tempfile.TemporaryDirectory() as cur:
        for name in MICRO:
            with open(os.path.join(cur, name), "w") as f:
                json.dump(pir if pir and name == "BENCH_pir.json"
                          else load(name), f)
        with open(os.path.join(cur, "BENCH_system.json"), "w") as f:
            json.dump(system, f)
        return subprocess.run(
            [sys.executable, GUARD, "--baseline-dir", baseline_dir,
             "--current-dir", cur], capture_output=True, text=True)


def scale_pir_scan(factor):
    pir = load("BENCH_pir.json")
    for row in pir["results"]:
        if row["name"].startswith("BM_PirScan"):
            row["ns_per_iter"] *= factor
    return pir


def rename_key(system, section, old, new):
    for row in system[section]:
        row[new] = row.pop(old)
    return system


def main():
    system = load("BENCH_system.json")

    failures = []
    with tempfile.TemporaryDirectory() as base:
        for name in MICRO:
            with open(os.path.join(base, name), "w") as f:
                json.dump(load(name), f)
        with open(os.path.join(base, "BENCH_system.json"), "w") as f:
            json.dump(system, f)

        identical = run_guard(base, system)
        if identical.returncode != 0:
            failures.append("identical run did not pass:\n" + identical.stdout +
                            identical.stderr)

        dropped = copy.deepcopy(system)
        del dropped["pir_sweep"]
        renamed_metric = rename_key(copy.deepcopy(system), "scaling",
                                    "su_request_total_ms", "request_total_ms")
        renamed_match = rename_key(copy.deepcopy(system), "throughput",
                                   "mode", "kind")
        renamed_lanes = rename_key(copy.deepcopy(system), "durability_sweep",
                                   "num_threads", "lanes")
        for what, current, section in (
                ("pir_sweep removed", dropped, "pir_sweep"),
                ("scaling key renamed", renamed_metric, "scaling"),
                ("throughput key renamed", renamed_match, "throughput"),
                ("durability_sweep key renamed", renamed_lanes,
                 "durability_sweep")):
            r = run_guard(base, current)
            if r.returncode != 2 or section not in r.stderr:
                failures.append(f"{what}: exit {r.returncode}, expected 2 "
                                f"naming {section}:\n{r.stderr}")

        noisy = run_guard(base, system, scale_pir_scan(1.5))
        if noisy.returncode != 0:
            failures.append("BM_PirScan 1.5x slower did not pass:\n" +
                            noisy.stdout + noisy.stderr)
        cliff = run_guard(base, system, scale_pir_scan(2.5))
        if cliff.returncode != 1 or "BM_PirScan" not in cliff.stdout:
            failures.append(f"BM_PirScan 2.5x slower: exit {cliff.returncode}, "
                            f"expected 1:\n{cliff.stdout}")
        no_pir = load("BENCH_pir.json")
        no_pir["results"] = [r for r in no_pir["results"]
                             if not r["name"].startswith("BM_Pir")]
        missing = run_guard(base, system, no_pir)
        if missing.returncode != 2 or "BENCH_pir.json" not in missing.stderr:
            failures.append(f"BM_Pir rows removed: exit {missing.returncode}, "
                            f"expected 2 naming BENCH_pir.json:\n"
                            f"{missing.stderr}")

    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    if failures:
        sys.exit(1)
    print("check_perf_regression.py self-test passed (8 cases)")


if __name__ == "__main__":
    main()
