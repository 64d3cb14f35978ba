#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny scale.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark with --tiny in
both modes and checks that the result line is well formed and that every
end-to-end (--trace 0) or per-layer (--trace 1) metric is emitted with the
unit BENCHMARK.json gives it, and nothing else. It then removes one task
from a result (--corrupt-one-task) in both modes and checks that the
conservation check rejects the run without printing a result.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def check_result(spec, workload, trace):
    proc = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (where, proc.returncode,
                                                    proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        raise AssertionError("%s: bad status %s" % (where, result))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise AssertionError("%s: missing %s, unexpected %s" % (
            where, sorted(set(wanted) - set(got)),
            sorted(set(got) - set(wanted))))
    for name, unit in wanted.items():
        value = got[name]
        if value.get("unit") != unit or \
                not isinstance(value.get("value"), (int, float)):
            raise AssertionError("%s: %s is %s, want unit %s" % (
                where, name, value, unit))


def check_corruption_caught(workload, trace):
    proc = run(workload, trace, "--corrupt-one-task")
    where = "%s --trace %d --corrupt-one-task" % (workload, trace)
    if proc.returncode == 0:
        raise AssertionError(where + ": corrupted result was accepted")
    if "check failed [conservation]" not in proc.stderr:
        raise AssertionError(where + ": conservation check did not fire:\n" +
                             proc.stderr[-2000:])
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        raise AssertionError(where + ": printed a result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace)
            print("selftest: %s --trace %d emits every metric" %
                  (workload, trace))
    for trace in (0, 1):
        check_corruption_caught("fleet", trace)
    print("selftest: a result with one task removed trips the conservation "
          "check")
    print("selftest: ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest: FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
