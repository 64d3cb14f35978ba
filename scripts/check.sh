#!/usr/bin/env bash
# Repo verification gate.
#
#   1. Tier-1: configure + build + full ctest suite (ROADMAP.md contract).
#   2. Zero-alloc: the steady-state allocation gates of the EventQueue,
#      of the attribution ledger and its completion fold, of the per-slot
#      decision round (lane-batched eq. 19/20 decisions, direct and
#      through policy::Engine, behind the per-device slot memo, split
#      across the decision pool) and of a whole run (allocations that do
#      not grow with the fleet), plus the memo's and the parallel rounds'
#      differential suites, run explicitly so the DESIGN.md §10 / §12.2 /
#      §12.3 / §13 properties show up by name even though they also ride
#      inside sim_test.
#   3. Policy: the differential/property suite proving the policy core's
#      warm-started B&B and fleet decisions result-identical to the
#      reference searches (DESIGN.md §12), run explicitly even though it
#      also rides inside ctest.
#   4. Bench: re-measure micro_sim, micro_exit_setting, tab_topology,
#      tab_latency_breakdown, tab_regret and obs_overhead and gate each
#      against bench/baselines/ with scripts/bench_compare.py (counters
#      strict everywhere — including the warm-vs-cold B&B evaluation
#      ratio, the attribution waterfall/hop/conservation counters, the
#      fast-path regret counters and the waterfalls the obs_overhead
#      attribution case assembles — wall medians same-host only). Each
#      bench is its own pass. Skipped when python3 is unavailable.
#   5. TSan:   rebuild the parallel-runtime, shared-policy-engine, obs and
#              sim tests with -DLEIME_SANITIZE=thread and re-run them,
#              guarding the executor thread pool, policy::Engine's
#              warm-start scratch,
#              the provenance recorder, the shard barrier protocol
#              (ShardPool + the sharded window loop, via sim_test's
#              Sharded*/ShardPool* suites and runtime_test's sharded
#              golden) and the parallel decision rounds (sim_test's
#              ParallelDecide.* and DecideAlloc.* suites) against data
#              races. Skipped (with a notice) when
#              the toolchain lacks libtsan.
#
# Every pass runs even when an earlier one fails (a same-host wall flake
# in one bench must not hide the other gates or the TSan pass); the
# failing passes are listed at the end and the script exits non-zero.
#
# Env knobs: JOBS (parallel build jobs, default nproc),
#            LEIME_SKIP_TSAN=1 to skip the sanitizer pass,
#            LEIME_SKIP_BENCH=1 to skip the bench gates.
set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
failed=()

# run_pass NAME CMD...: runs CMD and records NAME when it fails.
run_pass() {
  local name="$1"
  shift
  if ! "$@"; then
    echo "!! check.sh: pass failed: $name" >&2
    failed+=("$name")
  fi
}

tier1() {
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "$JOBS" &&
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

# bench_gate NAME: re-measures build/bench/NAME and compares it with its
# checked-in baseline.
bench_gate() {
  local name="$1"
  (cd build && "./bench/$name" --out "BENCH_$name.json" >/dev/null) &&
    python3 scripts/bench_compare.py "build/BENCH_$name.json" \
      bench/baselines/
}

tsan() {
  cmake -B build-tsan -S . -DLEIME_SANITIZE=thread >/dev/null &&
    cmake --build build-tsan -j "$JOBS" \
      --target runtime_test sim_test policy_test obs_test &&
    ctest --test-dir build-tsan --output-on-failure \
      -R '^(runtime_test|sim_test|policy_test|obs_test)$'
}

echo "== tier-1: build + ctest =="
run_pass "tier-1" tier1

echo "== zero-alloc: EventQueue + attribution + decision-round + run gates,"
echo "   slot-memo and parallel-decide suites =="
run_pass "zero-alloc" ./build/tests/sim_test --gtest_filter=\
'EventQueueAlloc.*:AttributionAlloc.*:DecideAlloc.*:RunAlloc.*:DecideMemo.*:'\
'ParallelDecide.*'

echo "== policy: differential equivalence suite =="
run_pass "policy" ./build/tests/policy_test

if [[ "${LEIME_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== bench gate skipped (LEIME_SKIP_BENCH=1) =="
elif command -v python3 >/dev/null 2>&1; then
  for bench in micro_sim micro_exit_setting tab_topology \
      tab_latency_breakdown tab_regret obs_overhead; do
    echo "== bench gate: $bench =="
    run_pass "bench: $bench" bench_gate "$bench"
  done
else
  echo "== bench gate skipped: python3 unavailable =="
fi

if [[ "${LEIME_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== tsan pass skipped (LEIME_SKIP_TSAN=1) =="
else
  probe="$(mktemp)"
  if echo 'int main(){}' | "${CXX:-c++}" -fsanitize=thread -x c++ - \
      -o "$probe" 2>/dev/null; then
    rm -f "$probe"
    echo "== tsan: runtime + sim + policy + obs tests under" \
      "-fsanitize=thread =="
    run_pass "tsan" tsan
  else
    rm -f "$probe"
    echo "== tsan pass skipped: ThreadSanitizer unavailable on this" \
      "toolchain =="
  fi
fi

if ((${#failed[@]} > 0)); then
  echo "== check.sh: ${#failed[@]} pass(es) FAILED: =="
  for name in "${failed[@]}"; do echo "   - $name"; done
  exit 1
fi
echo "== check.sh: all passes OK =="
