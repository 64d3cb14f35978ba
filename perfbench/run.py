#!/usr/bin/env python3
"""Build and run the LEIME repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet|sweep|wild --seed N \
        --seconds S --trace 0|1

Configures perfbench/ (which compiles ../src) into .bench_build/perfbench
with an optimized build type, builds the benchmark binary, and runs it.
Build output goes to stderr; the binary's last stdout line is the JSON
result. With --trace 1 the span trace is written to
.bench_build/trace/<workload>-seed<N>.json. Extra arguments (--tiny,
--corrupt-one-task) are passed through to the binary.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "leime_perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "leime_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    if args.trace == "1":
        trace_dir = os.path.join(ROOT, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("leime_perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != RESULT_KEYS or not result["correct"]:
        fail("leime_perfbench printed no valid result")


if __name__ == "__main__":
    main()
