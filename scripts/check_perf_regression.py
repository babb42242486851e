#!/usr/bin/env python3
"""Perf-regression guard: fresh --quick bench JSON vs the committed snapshots.

Usage (CI runs this from the repo root after building and running the
quick benches in build/):

    python3 scripts/check_perf_regression.py \
        --baseline-dir . --current-dir build [--threshold 1.25]

Guarded metrics (the protocol's hot paths):

  BENCH_paillier.json   BM_Encryption/*, BM_ScalarMul* and
                        BM_NegateBatch* ns_per_iter — the kernels every
                        pipeline stage is made of, and the one batched
                        inverse per SDC request phase.
  BENCH_bigint.json     BM_MontgomeryPow*, BM_ModInverse* and BM_Gcd*
                        ns_per_iter — the modexp kernel under all of the
                        above, and the binary gcd/inverse core.
  BENCH_pir.json        BM_PirScan* and BM_PirDecide* ns_per_iter — one
                        replica's XOR scan of a query batch and the SU's
                        local decision (DESIGN.md §3.10). These ride the
                        looser --tcp-threshold: ten --quick runs of one
                        binary read up to 1.75x apart (fastest to slowest
                        BM_PirDecide), so the guard is a cliff detector (a
                        scan falling back to a sweep per share is over 10x).
  BENCH_system.json     su_request_total_ms and stp_convert_ms_per_entry
                        per scaling / pack_sweep row (matched on
                        paillier_bits, channels, blocks, num_threads,
                        pack_slots) — the end-to-end Figure 5 request
                        latency and the STP conversion hot loop; plus
                        requests_per_sec per throughput row (matched on
                        transport, mode, concurrency) — the DESIGN.md §3.5
                        multi-SU engine and the §3.7 socket path.
                        requests_per_sec is higher-is-better, so its guard
                        direction is inverted: the check fails when
                        current < baseline / threshold. The sim rows are
                        derived from deterministic virtual time, so any
                        drop is a protocol change (extra round-trips, lost
                        batching), not host noise; the transport=tcp rows
                        are wall clock over real loopback sockets and use
                        the looser --tcp-threshold (default 2.0).

Three guards run within the *current* run only (no baseline). The
durability_sweep rows pair durability off/on at each num_threads, and WAL-on
requests_per_sec must stay within `--wal-threshold` (default 1.15, i.e.
<= 15% overhead) of the WAL-off row measured moments earlier on the same
host — write-ahead durability is journal-on-the-fold, and must never tax
the serve path. The denial_sweep rows pair the §3.8 prefilter off/on at
each (transport, deny_pct): at deny mixes >= 80% the filter-ON row must be
at least `--fast-deny-factor`x (default 2.0) FASTER — the direction-aware
inverse of every other guard, because the fast-deny path exists purely to
win throughput and losing it is a protocol bug, not noise. And every
denial_sweep row must report decisions_match = 1: the prefilter may only
accelerate denials, never flip a verdict. Host speed cancels out of all
three pairings, so they are safe to gate on wall clock.

The scenario_sweep rows (DESIGN.md §3.9) add three more. ticks_per_sec per
(use_delta, num_sus, ticks) row is guarded against the committed snapshot
like the tcp rows — wall clock, so behind --tcp-threshold. Within the
current run, each fleet size's full/delta pair must show the incremental
update path at least `--delta-speedup-factor`x (default 3.0) cheaper per
update sent (update_ms_per_send: client encrypt + SDC fold + re-probe) —
the whole point of shipping footprint diffs instead of C-row columns is
that cost no longer scales with the grid, and losing the win (deltas
silently degrading to full columns, dirty tracking gone, re-probes going
grid-wide) is a protocol bug, not noise. And every scenario_sweep row must
report oracle_mismatches = 0: the engine checks each decision against the
plaintext WATCH oracle it runs in lock-step, and one disagreement is a
wrong grant or a wrong denial.

The pir_sweep rows (DESIGN.md §3.10) guard the XOR multi-server PIR query
path three ways. Against the committed snapshot, per (transport, channels,
blocks) row: pir_request_ms and pir_scan_ms_per_request are wall clock, so
they ride --tcp-threshold like the other wall-clock rows, while
pir_bytes_per_request is deterministic framing arithmetic and gets the
tight default threshold — a byte-count jump means the codec grew, not the
host slowed down. Within the current run, every row's Paillier/PIR latency
pair must show the PIR path at least `--pir-latency-factor`x (default 10)
faster — the whole point of the mode is replacing per-entry public-key
work with XOR scans, and losing that win (a modexp creeping onto the query
path, scans going super-linear) is a protocol bug, not noise. And every
pir_sweep row must report decisions_match = 1: swapping the privacy
mechanism must never flip a grant/deny verdict.

A guard must not pass by finding nothing to compare. Every section above is
checked as a whole: when the baseline has rows in a guarded section, the
current run must yield at least one check from it, and every row it reads
must carry the keys the guard reads. A run that drops a section (say
pir_sweep) or renames a key fails with exit 2, naming the section.

Exits 1 when any guarded metric is more than `threshold`x worse than the
committed snapshot, 2 when a snapshot/run file is missing or unparseable, or
a guarded section has no overlapping row in the current run.
Quick-mode measurement windows are short, so the default threshold is a
generous 1.25x: real regressions on these paths (an extra modexp, a lost
CRT/fusion/packing/batching win) are 2x-class, far above the noise floor.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys

PAILLIER_PATTERNS = ("BM_Encryption/*", "BM_ScalarMul*", "BM_NegateBatch*")
BIGINT_PATTERNS = ("BM_MontgomeryPow*", "BM_ModInverse*", "BM_Gcd*")
PIR_PATTERNS = ("BM_PirScan*", "BM_PirDecide*")
SYSTEM_SECTIONS = ("scaling", "pack_sweep")
SYSTEM_KEY = ("paillier_bits", "channels", "blocks", "num_threads", "pack_slots")
# Lower-is-better per-row metrics; rows from older snapshots may lack the
# per-entry field, so each metric is guarded only where both sides have it.
SYSTEM_METRICS = ("su_request_total_ms", "stp_convert_ms_per_entry")
# Rows predating the socket path carry no "transport" field; they are the
# virtual-time SimulatedNetwork rows, so the key defaults to "sim".
THROUGHPUT_KEY = ("transport", "mode", "concurrency")


def throughput_key(row):
    return (row.get("transport", "sim"), row["mode"], row["concurrency"])


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


# Each check is (label, baseline, current, higher_is_better).


def microbench_checks(label, patterns, baseline, current):
    base = {r["name"]: r["ns_per_iter"] for r in baseline.get("results", [])}
    cur = {r["name"]: r["ns_per_iter"] for r in current.get("results", [])}
    for name in sorted(base):
        if not any(fnmatch.fnmatch(name, p) for p in patterns):
            continue
        if name in cur:
            yield f"{label} {name}", base[name], cur[name], False


def system_checks(baseline, current, sections=SYSTEM_SECTIONS):
    for section in sections:
        base = {
            tuple(r.get(k, 1) for k in SYSTEM_KEY): r
            for r in baseline.get(section, [])
        }
        cur = {
            tuple(r.get(k, 1) for k in SYSTEM_KEY): r
            for r in current.get(section, [])
        }
        for key in sorted(base):
            if key not in cur:
                continue
            label = "n={} C={} B={} t={} k={}".format(*key)
            for metric in SYSTEM_METRICS:
                if metric in base[key]:
                    yield (f"{metric} {section} {label}", base[key][metric],
                           cur[key][metric], False)


def throughput_checks(baseline, current, threshold, tcp_threshold):
    """Yields full 5-tuples: the tcp rows carry their own threshold.

    Sim rows are virtual-time deterministic, so they get the tight default
    threshold. The transport="tcp" rows are wall clock over real sockets —
    still guarded (a lost pipeline or a per-frame syscall storm is a >2x
    cliff), but behind the looser --tcp-threshold so host jitter cannot
    fail the build.
    """
    base = {
        throughput_key(r): r["requests_per_sec"]
        for r in baseline.get("throughput", [])
    }
    cur = {
        throughput_key(r): r["requests_per_sec"]
        for r in current.get("throughput", [])
    }
    for key in sorted(base):
        if key in cur:
            label = "{} {} x{}".format(*key)
            t = tcp_threshold if key[0] == "tcp" else threshold
            yield f"requests_per_sec {label}", base[key], cur[key], True, t


def durability_checks(current):
    """WAL-on vs WAL-off requests_per_sec, paired per num_threads.

    Compares within the current run only: the two rows ran back to back on
    the same host under the same load, so the ratio is the durability cost
    itself, not machine drift. The WAL-off row plays the 'baseline' column.
    """
    rows = current.get("durability_sweep", [])
    off = {r["num_threads"]: r["requests_per_sec"]
           for r in rows if not r["durability"]}
    on = {r["num_threads"]: r["requests_per_sec"]
          for r in rows if r["durability"]}
    for n in sorted(off):
        if n in on:
            yield f"wal_overhead requests_per_sec threads={n}", off[n], on[n], True


def denial_checks(current, factor):
    """Prefilter-on vs prefilter-off requests_per_sec at deny-heavy mixes.

    Within the current run only, like the WAL pair: the two rows of a
    (transport, deny_pct) pair ran back to back on the same host, so the
    ratio is the §3.8 fast-deny win itself. Direction-aware and inverted
    relative to every other guard: the filter-ON row must be at least
    `factor`x FASTER than the filter-off row at deny_pct >= 80 — a one-round
    32-byte FastDenyMsg replacing the blinded-conversion pipeline is a
    multiple-x cliff, so losing it (filter silently off, probes never
    confirming, denials re-entering the full path) trips this even on a
    noisy host. Encoded in the common check tuple by swapping the roles:
    'baseline' = factor * filter-off, 'current' = filter-on, higher-is-
    better with threshold 1.0.
    """
    rows = current.get("denial_sweep", [])
    off = {(r["transport"], r["deny_pct"]): r["requests_per_sec"]
           for r in rows if not r["filter"]}
    on = {(r["transport"], r["deny_pct"]): r["requests_per_sec"]
          for r in rows if r["filter"]}
    for key in sorted(off):
        transport, deny_pct = key
        if deny_pct < 80 or key not in on:
            continue
        yield (f"fast_deny requests_per_sec {transport} deny={deny_pct}%",
               factor * off[key], on[key], True)


# Keyed without the tick count: the committed snapshot is a full-length
# run, CI's --quick run shortens the schedule, and per-tick throughput is
# comparable across schedule lengths.
SCENARIO_KEY = ("use_delta", "num_sus")


def scenario_checks(baseline, current, tcp_threshold):
    """ticks_per_sec per scenario row vs the committed snapshot.

    The scenario engine is wall clock end to end (client crypto + SDC
    pipeline + mobility bookkeeping), so like the tcp rows it rides the
    looser --tcp-threshold; a real loss (requests re-entering the full
    pipeline, update path degrading) is a multiple-x cliff.
    """
    base = {tuple(r[k] for k in SCENARIO_KEY): r["ticks_per_sec"]
            for r in baseline.get("scenario_sweep", [])}
    cur = {tuple(r[k] for k in SCENARIO_KEY): r["ticks_per_sec"]
           for r in current.get("scenario_sweep", [])}
    for key in sorted(base):
        if key in cur:
            label = "scenario ticks_per_sec {} sus={}".format(
                "delta" if key[0] else "full", key[1])
            yield label, base[key], cur[key], True, tcp_threshold


def delta_speedup_checks(current, factor):
    """Incremental vs full-column per-update cost, paired per fleet size.

    Within the current run only, like the WAL and fast-deny pairs: the two
    rows ran the identical seeded schedule in interleaved fresh runs until
    each had >= 150 ms of updates on the clock, so the update_ms_per_send
    ratio is the §3.9 incremental win itself. Role-swap
    encoding: 'current' = factor * delta cost, lower-is-better with
    threshold 1.0, so the check fails exactly when the delta path is less
    than `factor`x cheaper per update than the full-column path.
    """
    rows = current.get("scenario_sweep", [])
    full = {(r["num_sus"], r["ticks"]): r["update_ms_per_send"]
            for r in rows if not r["use_delta"]}
    delta = {(r["num_sus"], r["ticks"]): r["update_ms_per_send"]
             for r in rows if r["use_delta"]}
    for key in sorted(full):
        if key in delta and delta[key] > 0:
            yield (f"delta_speedup update_ms_per_send sus={key[0]} "
                   f"ticks={key[1]}", full[key], factor * delta[key], False)


PIR_KEY = ("transport", "channels", "blocks")
# Wall-clock per-row metrics guarded against the committed snapshot behind
# the looser --tcp-threshold (lower is better).
PIR_WALL_METRICS = ("pir_request_ms", "pir_scan_ms_per_request")


def pir_snapshot_checks(baseline, current, threshold, tcp_threshold):
    """pir_sweep latency / scan / wire bytes vs the committed snapshot.

    Yields full 5-tuples like throughput_checks: the wall-clock metrics
    carry --tcp-threshold (host jitter must not fail the build; a real
    loss — a modexp on the query path, the scan kernel degrading to
    byte-at-a-time — is a multiple-x cliff), while pir_bytes_per_request
    is deterministic codec arithmetic and carries the tight default
    threshold.
    """
    base = {tuple(r[k] for k in PIR_KEY): r
            for r in baseline.get("pir_sweep", [])}
    cur = {tuple(r[k] for k in PIR_KEY): r
           for r in current.get("pir_sweep", [])}
    for key in sorted(base):
        if key not in cur:
            continue
        label = "pir {} C={} B={}".format(*key)
        for metric in PIR_WALL_METRICS:
            if base[key].get(metric, 0) > 0:
                yield (f"{metric} {label}", base[key][metric],
                       cur[key][metric], False, tcp_threshold)
        if base[key].get("pir_bytes_per_request", 0) > 0:
            yield (f"pir_bytes_per_request {label}",
                   base[key]["pir_bytes_per_request"],
                   cur[key]["pir_bytes_per_request"], False, threshold)


def pir_floor_checks(current, factor):
    """PIR vs Paillier query latency, paired within every pir_sweep row.

    Within the current run only, like the WAL / fast-deny / delta pairs:
    both paths served the identical seeded world moments apart on the same
    host, so the latency ratio is the §3.10 win itself. Role-swap
    encoding: 'current' = factor * PIR latency, lower-is-better with
    threshold 1.0, so the check fails exactly when the PIR path is less
    than `factor`x faster than the blinded-conversion path at the matched
    grid.
    """
    for r in current.get("pir_sweep", []):
        if r.get("pir_request_ms", 0) <= 0:
            continue
        label = "pir_latency_floor {} C={} B={}".format(
            r["transport"], r["channels"], r["blocks"])
        yield (label, r["paillier_request_ms"],
               factor * r["pir_request_ms"], False)


def pir_decision_checks(current):
    """Every pir_sweep row must report decisions_match == 1.

    Both the Paillier and the PIR serve of each request are compared to
    the PlainWatch oracle inside the bench; a 0 here means one privacy
    mechanism flipped a grant/deny verdict — always a bug, never noise.
    """
    for r in current.get("pir_sweep", []):
        label = "decisions_match pir {} C={} B={}".format(
            r["transport"], r["channels"], r["blocks"])
        yield label, 1.0, float(r["decisions_match"]), True


def scenario_oracle_checks(current):
    """Every scenario_sweep row must report oracle_mismatches == 0.

    The engine checks each decision against the plaintext WATCH oracle it
    runs in lock-step; one disagreement is a wrong grant or a wrong denial
    — always a bug, never noise. Encoded like decisions_match: 1 when the
    row agrees, 0 otherwise (a row without the field counts as 0), so a
    disagreement yields ratio inf -> REGRESSION.
    """
    for r in current.get("scenario_sweep", []):
        label = "oracle_mismatches == 0 scenario {} sus={} ticks={}".format(
            "delta" if r["use_delta"] else "full", r["num_sus"], r["ticks"])
        yield label, 1.0, float(r.get("oracle_mismatches", 1) == 0), True


def decision_checks(current):
    """Every denial_sweep row must report decisions_match == 1.

    The prefilter is only a fast path: a row where any grant/deny verdict
    deviated from the constructed mix means a false denial (or a false
    grant) escaped the test suites onto the bench workload — always a bug,
    never noise, so the 'threshold' is exact.
    """
    for r in current.get("denial_sweep", []):
        label = "decisions_match {} deny={}% filter={}".format(
            r["transport"], r["deny_pct"], "on" if r["filter"] else "off")
        # baseline 1 (expected), current value, lower-is-worse inverted via
        # higher_is_better so a 0 yields ratio inf -> REGRESSION.
        yield label, 1.0, float(r["decisions_match"]), True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=".",
                    help="directory holding the committed BENCH_*.json")
    ap.add_argument("--current-dir", default="build",
                    help="directory holding the fresh --quick BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="fail when current > threshold * baseline")
    ap.add_argument("--wal-threshold", type=float, default=1.15,
                    help="fail when WAL-on requests_per_sec < WAL-off / this "
                         "(durability overhead cap, within the current run)")
    ap.add_argument("--tcp-threshold", type=float, default=2.0,
                    help="threshold for the transport=tcp throughput rows "
                         "(wall clock over real sockets, so looser than the "
                         "virtual-time rows) and the other wall-clock cliff "
                         "detectors: the scenario and pir_sweep rows and the "
                         "BENCH_pir.json microbenches")
    ap.add_argument("--fast-deny-factor", type=float, default=2.0,
                    help="fail when the prefilter-on requests_per_sec at a "
                         ">=80%% deny mix is below this multiple of the "
                         "prefilter-off row (within the current run)")
    ap.add_argument("--delta-speedup-factor", type=float, default=3.0,
                    help="fail when the scenario sweep's incremental update "
                         "path is less than this many times cheaper per "
                         "update sent than the full-column path (within the "
                         "current run)")
    ap.add_argument("--pir-latency-factor", type=float, default=10.0,
                    help="fail when the PIR query path is less than this "
                         "many times faster than the Paillier path at the "
                         "matched grid (within the current run)")
    args = ap.parse_args()

    # Each check is (label, baseline, current, higher_is_better, threshold);
    # the within-run pairs carry their own threshold.
    checks = []

    def guard(section, baseline_rows, gen, threshold=None):
        """Adds one guarded section's checks. A section the baseline has
        rows in must yield at least one check, and every row the guard reads
        must carry its keys — otherwise the run fails (exit 2)."""
        try:
            found = list(gen)
        except KeyError as e:
            print(f"error: {section}: a current-run row has no {e} field",
                  file=sys.stderr)
            sys.exit(2)
        if baseline_rows and not found:
            print(f"error: {section}: no row in the current run overlaps the "
                  "baseline", file=sys.stderr)
            sys.exit(2)
        checks.extend(c if threshold is None else (*c, threshold)
                      for c in found)

    for label, patterns, threshold in (
            ("paillier", PAILLIER_PATTERNS, args.threshold),
            ("bigint", BIGINT_PATTERNS, args.threshold),
            ("pir", PIR_PATTERNS, args.tcp_threshold)):
        baseline = load(f"{args.baseline_dir}/BENCH_{label}.json")
        guarded = [r for r in baseline.get("results", [])
                   if any(fnmatch.fnmatch(r["name"], p) for p in patterns)]
        guard(f"BENCH_{label}.json results", guarded, microbench_checks(
            label, patterns, baseline,
            load(f"{args.current_dir}/BENCH_{label}.json")), threshold)
    base = load(f"{args.baseline_dir}/BENCH_system.json")
    cur = load(f"{args.current_dir}/BENCH_system.json")
    for section in SYSTEM_SECTIONS:
        guard(section, base.get(section),
              system_checks(base, cur, (section,)),
              args.threshold)
    guard("throughput", base.get("throughput"),
          throughput_checks(base, cur, args.threshold, args.tcp_threshold))
    guard("durability_sweep", base.get("durability_sweep"),
          durability_checks(cur), args.wal_threshold)
    guard("denial_sweep", base.get("denial_sweep"),
          denial_checks(cur, args.fast_deny_factor), 1.0)
    guard("scenario_sweep", base.get("scenario_sweep"),
          scenario_checks(base, cur, args.tcp_threshold))
    guard("scenario_sweep", base.get("scenario_sweep"),
          delta_speedup_checks(cur, args.delta_speedup_factor), 1.0)
    guard("scenario_sweep", base.get("scenario_sweep"),
          scenario_oracle_checks(cur), 1.0)
    guard("denial_sweep", base.get("denial_sweep"), decision_checks(cur), 1.0)
    guard("pir_sweep", base.get("pir_sweep"),
          pir_snapshot_checks(base, cur, args.threshold, args.tcp_threshold))
    guard("pir_sweep", base.get("pir_sweep"),
          pir_floor_checks(cur, args.pir_latency_factor), 1.0)
    guard("pir_sweep", base.get("pir_sweep"), pir_decision_checks(cur), 1.0)

    if not checks:
        print("error: no overlapping guarded metrics between baseline and "
              "current runs", file=sys.stderr)
        sys.exit(2)

    failures = 0
    print(f"{'metric':62s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for label, base, cur, higher_is_better, threshold in checks:
        # Normalize so ratio > 1 always means "current is worse".
        if higher_is_better:
            ratio = base / cur if cur > 0 else float("inf")
        else:
            ratio = cur / base if base > 0 else float("inf")
        status = "ok" if ratio <= threshold else "REGRESSION"
        if status != "ok":
            failures += 1
        print(f"{label:62s} {base:12.1f} {cur:12.1f} {ratio:6.2f}x  {status}")

    if failures:
        print(f"\n{failures} metric(s) regressed beyond their threshold; "
              "if intentional, regenerate the committed snapshots "
              "(EXPERIMENTS.md microbench recipe).", file=sys.stderr)
        sys.exit(1)
    print(f"\nAll {len(checks)} guarded metrics passed.")


if __name__ == "__main__":
    main()
