#!/usr/bin/env python3
"""Build pisa_bench from source and run one workload.

    python3 pisa_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures the repository's
own CMake project into .bench_build/ with pisa_bench/pisa_bench.cmake, which
adds the pisa_bench target to it, and builds that target; later calls rebuild
incrementally. Build output goes to standard error. The benchmark's own
standard output is passed through, so its last line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics, or with --trace 1 the per-layer ones. Full
results and span dumps land in .bench_build/results/ and .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paillier_open", "pir_paper", "pir_town", "pu_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"no {need} under {ROOT}; nothing to benchmark")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_pisa_INCLUDE="
                      + os.path.join(HERE, "pisa_bench.cmake")])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "pisa_bench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                OSError) as e:
            fail(f"build failed: {e}")
    return os.path.join(BUILD, "pisa_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    dirs = {d: os.path.join(BUILD, d) for d in ("results", "traces", "tmp")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    cmd = [binary,
           f"--workload={args.workload}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds:g}",
           f"--json-out={os.path.join(dirs['results'], tag + '.json')}",
           f"--tmp-dir={dirs['tmp']}"]
    if args.trace:
        cmd.append(f"--trace-out={os.path.join(dirs['traces'], tag + '.json')}")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
