#!/usr/bin/env python3
"""Compare a BENCH_*.json record against a checked-in baseline.

Part of the perf-tracking loop (DESIGN.md §9): the micro benches emit
machine-readable results via bench::Reporter, baselines live in
bench/baselines/, and this script is the regression gate CI runs.

Usage:
    bench_compare.py CURRENT.json BASELINE[.json|dir] [options]

BASELINE may be a file or a directory; a directory is resolved to
<dir>/<basename of CURRENT>.

Two kinds of gates, matching the two kinds of data in the record:

* counters — exact integer counts that are pure functions of fixed
  seeds. Deterministic, so they are compared strictly on every host, in
  one of two ways:
    - coverage counters (COVERAGE_COUNTERS: events, tasks, waterfalls,
      hops, ...) count the work a case covers. They must match the
      baseline exactly: a drop means the case lost coverage, a rise that
      it measures different work, and either fails.
    - every other counter is a cost (cost-model evaluations, rounds,
      drops): an *increase* is an algorithmic regression and fails; a
      decrease is reported as an improvement (refresh the baseline to
      lock it in).

* wall_s medians — wall-clock, trustworthy only on the machine that
  produced the baseline. By default (--wall auto) they are compared only
  when the host fingerprints match; --wall force compares regardless,
  --wall skip never compares. The threshold is noise-aware: a case fails
  only when the median grew by more than
      threshold + cv_mult * max(cv_current, cv_baseline)
  where cv is the robust coefficient of variation (1.4826·MAD/median)
  each record carries — so noisy measurements widen their own gate
  instead of flaking.

A case present in the baseline but missing from the current record fails
(lost coverage is how perf gates rot); a new case in the current record is
reported but passes.

Exit codes: 0 ok, 1 regression (or lost case), 2 usage / malformed input.
"""

import argparse
import json
import math
import os
import sys

# Counters that measure how much work a case covers, not what it costs.
COVERAGE_COUNTERS = frozenset(
    {"events", "tasks", "waterfalls", "hops", "slots", "delivered",
     "decisions"})


def fail_usage(msg: str) -> "NoReturn":  # noqa: F821 (py3.8-friendly)
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_record(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail_usage(f"cannot read {path}: {exc}")
    if rec.get("schema") != 1:
        fail_usage(f"{path}: unsupported schema {rec.get('schema')!r}")
    for key in ("bench", "host", "cases"):
        if key not in rec:
            fail_usage(f"{path}: missing required field '{key}'")
    return rec


def cases_by_name(rec: dict) -> dict:
    return {c["name"]: c for c in rec["cases"]}


def compare(current: dict, baseline: dict, *, wall: str, threshold: float,
            cv_mult: float) -> int:
    if current["bench"] != baseline["bench"]:
        fail_usage(
            f"bench mismatch: current is '{current['bench']}', baseline is "
            f"'{baseline['bench']}'")

    same_host = current["host"] == baseline["host"]
    compare_wall = wall == "force" or (wall == "auto" and same_host)
    if wall == "auto" and not same_host:
        print(f"note: host differs from baseline "
              f"({current['host']} vs {baseline['host']}); "
              f"skipping wall-clock gates, counters still apply")

    cur = cases_by_name(current)
    base = cases_by_name(baseline)
    failures = []
    notes = []

    for name in sorted(base):
        if name not in cur:
            failures.append(f"{name}: case missing from current record")
            continue
        c, b = cur[name], base[name]

        for counter, base_value in sorted(b.get("counters", {}).items()):
            cur_value = c.get("counters", {}).get(counter)
            if cur_value is None:
                failures.append(f"{name}: counter '{counter}' disappeared "
                                f"(baseline {base_value})")
            elif counter in COVERAGE_COUNTERS and cur_value != base_value:
                failures.append(
                    f"{name}: coverage counter '{counter}' changed "
                    f"{base_value} -> {cur_value}; it must match the "
                    f"baseline exactly")
            elif cur_value > base_value:
                delta = (f"+{100.0 * (cur_value / base_value - 1):.1f}%"
                         if base_value else f"+{cur_value} from zero")
                failures.append(
                    f"{name}: counter '{counter}' regressed "
                    f"{base_value} -> {cur_value} ({delta})")
            elif cur_value < base_value:
                notes.append(
                    f"{name}: counter '{counter}' improved "
                    f"{base_value} -> {cur_value}; refresh the baseline")

        if not compare_wall:
            continue
        cw, bw = c.get("wall_s", {}), b.get("wall_s", {})
        cur_median, base_median = cw.get("median", 0.0), bw.get("median", 0.0)
        if base_median <= 0.0 or cur_median <= 0.0:
            notes.append(f"{name}: non-positive median, wall gate skipped")
            continue
        ratio = cur_median / base_median - 1.0
        gate = threshold + cv_mult * max(cw.get("cv", 0.0),
                                         bw.get("cv", 0.0))
        verdict = "FAIL" if ratio > gate else "ok"
        print(f"{verdict:4s} {name}: median {base_median:.6f}s -> "
              f"{cur_median:.6f}s ({ratio:+.1%}, gate {gate:.1%})")
        if ratio > gate:
            failures.append(
                f"{name}: wall median regressed {ratio:+.1%} "
                f"(gate {gate:.1%})")

    for name in sorted(set(cur) - set(base)):
        notes.append(f"{name}: new case, not in baseline")

    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\n{len(failures)} regression(s) vs baseline "
              f"(git {baseline.get('git_commit', 'unknown')}):",
              file=sys.stderr)
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print(f"all gates passed vs baseline "
          f"(git {baseline.get('git_commit', 'unknown')})")
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", help="BENCH_*.json produced by this run")
    parser.add_argument("baseline",
                        help="baseline record, or a directory holding one "
                             "with the same filename")
    parser.add_argument("--wall", choices=("auto", "force", "skip"),
                        default="auto",
                        help="when to gate wall-clock medians "
                             "(default: auto = same host only)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="base allowed median growth (default 0.10)")
    parser.add_argument("--cv-mult", type=float, default=3.0,
                        help="noise widening: gate += cv_mult * max(cv) "
                             "(default 3.0)")
    args = parser.parse_args(argv)

    if args.threshold < 0 or args.cv_mult < 0:
        fail_usage("threshold and cv-mult must be non-negative")
    if not math.isfinite(args.threshold) or not math.isfinite(args.cv_mult):
        fail_usage("threshold and cv-mult must be finite")

    baseline_path = args.baseline
    if os.path.isdir(baseline_path):
        baseline_path = os.path.join(baseline_path,
                                     os.path.basename(args.current))
    current = load_record(args.current)
    baseline = load_record(baseline_path)
    return compare(current, baseline, wall=args.wall,
                   threshold=args.threshold, cv_mult=args.cv_mult)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
