#!/usr/bin/env bash
# Lints every metric name registered in the source tree against the
# naming contract enforced at runtime by obs::MetricsRegistry:
#
#     ^leime_[a-z0-9_]+$
#
# The registry throws on a bad name, but only on the code path that
# registers it — a misnamed metric behind a rarely-taken branch would
# ship. This lint catches them statically: every string literal passed
# to counter(...) / gauge(...) / histogram(...) under src/, bench/ and
# examples/ must match. tests/ is exempt (negative tests register bad
# names on purpose). Run by CI (.github/workflows/ci.yml, obs job).
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='^leime_[a-z0-9_]+$'
fail=0
found=0

# Registration sites with a literal first argument, e.g.
#   registry.counter("leime_tasks_generated_total")
#   reg->histogram("leime_tct_seconds", {...})
while IFS=: read -r file line name; do
  found=$((found + 1))
  if ! [[ "$name" =~ $pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $pattern" >&2
    fail=1
  fi
done < <(grep -rnoE '(counter|gauge|histogram)\s*\(\s*"[^"]*"' \
           --include='*.cpp' --include='*.h' src bench examples \
         | sed -E 's/\s*\((counter|gauge|histogram)\s*\(\s*"/:\1("/' \
         | sed -E 's/:(counter|gauge|histogram)\("([^"]*)"$/:\2/')

if [[ "$found" -eq 0 ]]; then
  echo "lint_metric_names: no registration sites found — lint is broken" >&2
  exit 2
fi

# Second pass: profiler section/counter names (src/prof, DESIGN.md §9).
# Dot-separated so they can never collide with the underscore-only metric
# namespace above, and each name must be unique across instrumentation
# sites — two sites sharing a name would merge into one node and make the
# flamegraph lie about where time went. Comment lines are skipped (the
# profiler header quotes example names in its docs).
prof_pattern='^leime\.[a-z0-9_.]+$'
prof_found=0
declare -A prof_seen
while IFS=: read -r file line name; do
  prof_found=$((prof_found + 1))
  if ! [[ "$name" =~ $prof_pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $prof_pattern" >&2
    fail=1
  fi
  if [[ -n "${prof_seen[$name]:-}" ]]; then
    echo "DUP  $file:$line  '$name' already used at ${prof_seen[$name]}" >&2
    fail=1
  else
    prof_seen[$name]="$file:$line"
  fi
done < <(grep -rn --include='*.cpp' --include='*.h' \
           -E 'LEIME_PROF_(SCOPE|COUNT)\(\s*"' src bench examples \
         | grep -vE '^[^:]+:[0-9]+:\s*//' \
         | sed -E 's/^([^:]+):([0-9]+):.*LEIME_PROF_(SCOPE|COUNT)\(\s*"([^"]*)".*/\1:\2:\4/')

if [[ "$prof_found" -eq 0 ]]; then
  echo "lint_metric_names: no profiler sites found — lint is broken" >&2
  exit 2
fi

# Third pass: the leime_net_* namespace (src/net). The fabric composes
# per-port names at runtime (prefix + port name + suffix), so the
# registration-site pass above only ever sees the literal fragments —
# lint those instead: every "leime_net_..." prefix literal and every
# "_..." suffix concatenated onto one must stay inside the registry
# alphabet. The dynamic middle is a Topology node name ("dev3", "ap0"),
# lowercase-alnum by construction (net/topology_test covers it).
net_prefix_pattern='^leime_net_[a-z0-9_]*$'
net_suffix_pattern='^_[a-z0-9_]+$'
net_found=0
while IFS=: read -r file line name; do
  net_found=$((net_found + 1))
  if ! [[ "$name" =~ $net_prefix_pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $net_prefix_pattern" >&2
    fail=1
  fi
done < <(grep -rnoE '"leime_net_[^"]*"' --include='*.cpp' --include='*.h' \
           src bench examples | sed -E 's/"([^"]*)"$/\1/')
while IFS=: read -r file line name; do
  net_found=$((net_found + 1))
  if ! [[ "$name" =~ $net_suffix_pattern ]]; then
    echo "BAD  $file:$line  suffix '$name' does not match $net_suffix_pattern" >&2
    fail=1
  fi
done < <(grep -rnoE '(prefix|name)\s*\+\s*"_[^"]*"' \
           --include='*.cpp' --include='*.h' src/net \
         | sed -E 's/(prefix|name)\s*\+\s*"([^"]*)"$/\2/')

if [[ "$net_found" -eq 0 ]]; then
  echo "lint_metric_names: no leime_net_* fragments found — lint is broken" >&2
  exit 2
fi

# Fourth pass: the leime_attr_* / leime_slo_* namespaces (DESIGN.md §13).
# Attribution composes per-stage and per-component histogram names at
# runtime (prefix + attr_stage_name/calib_component_name + suffix), so —
# like the net pass — the fragments are linted: every literal in either
# namespace must stay inside the registry alphabet, every "_..." suffix
# concatenated onto a prefix must too, and fully-literal names must be
# unique across registration sites (two sites sharing one would silently
# merge their instruments). The dynamic middle is attr_stage_name /
# calib_component_name, pinned to [a-z0-9_] by tests/obs/attribution_test.
obs13_pattern='^leime_(attr|slo)_[a-z0-9_]*$'
obs13_suffix_pattern='^_[a-z0-9_]+$'
obs13_found=0
declare -A obs13_seen
while IFS=: read -r file line name; do
  obs13_found=$((obs13_found + 1))
  if ! [[ "$name" =~ $obs13_pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $obs13_pattern" >&2
    fail=1
  fi
  # Complete metric names end in a unit/_total/_rate suffix; composition
  # prefixes (leime_attr_, leime_attr_calib_) end in an underscore and are
  # exempt from the duplicate check (both composed families share them).
  if [[ "$name" != *_ ]]; then
    if [[ -n "${obs13_seen[$name]:-}" ]]; then
      echo "DUP  $file:$line  '$name' already used at ${obs13_seen[$name]}" >&2
      fail=1
    else
      obs13_seen[$name]="$file:$line"
    fi
  fi
done < <(grep -rnoE '"leime_(attr|slo)_[^"]*"' \
           --include='*.cpp' --include='*.h' src bench examples \
         | sed -E 's/"([^"]*)"$/\1/')
while IFS=: read -r file line name; do
  obs13_found=$((obs13_found + 1))
  if ! [[ "$name" =~ $obs13_suffix_pattern ]]; then
    echo "BAD  $file:$line  suffix '$name' does not match $obs13_suffix_pattern" >&2
    fail=1
  fi
done < <(grep -rnoE 'prefix\s*\+\s*"_[^"]*"' \
           --include='*.cpp' --include='*.h' src/sim \
         | sed -E 's/prefix\s*\+\s*"([^"]*)"$/\1/')

if [[ "$obs13_found" -eq 0 ]]; then
  echo "lint_metric_names: no leime_attr_*/leime_slo_* names found — lint is broken" >&2
  exit 2
fi

# Fifth pass: the leime_prov_* / leime_regret_* namespaces (DESIGN.md §14).
# Provenance counters are monotone tallies (must carry _total) and the
# regret histograms carry a unit suffix; all names are plain literals in
# sim/observer.cpp, so beyond the alphabet this pass pins uniqueness —
# a copy-pasted registration would silently merge two instruments — and
# fails loudly if the block disappears in a refactor.
prov_pattern='^leime_(prov|regret)_[a-z0-9_]+$'
prov_name_found=0
declare -A prov_seen
while IFS=: read -r file line name; do
  prov_name_found=$((prov_name_found + 1))
  if ! [[ "$name" =~ $prov_pattern ]]; then
    echo "BAD  $file:$line  '$name' does not match $prov_pattern" >&2
    fail=1
  fi
  if [[ "$name" == leime_prov_* && "$name" != *_total ]]; then
    echo "BAD  $file:$line  '$name' is a leime_prov_* counter without _total" >&2
    fail=1
  fi
  if [[ "$name" != *_ ]]; then
    if [[ -n "${prov_seen[$name]:-}" ]]; then
      echo "DUP  $file:$line  '$name' already used at ${prov_seen[$name]}" >&2
      fail=1
    else
      prov_seen[$name]="$file:$line"
    fi
  fi
done < <(grep -rnoE '"leime_(prov|regret)_[^"]*"' \
           --include='*.cpp' --include='*.h' src bench examples \
         | sed -E 's/"([^"]*)"$/\1/')

if [[ "$prov_name_found" -eq 0 ]]; then
  echo "lint_metric_names: no leime_prov_*/leime_regret_* names found — lint is broken" >&2
  exit 2
fi
if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "lint_metric_names: $found registered names all match $pattern"
echo "lint_metric_names: $prof_found profiler names all match $prof_pattern, no duplicates"
echo "lint_metric_names: $net_found leime_net_* fragments stay inside the registry alphabet"
echo "lint_metric_names: $obs13_found leime_attr_*/leime_slo_* fragments stay inside the registry alphabet, no duplicates"
echo "lint_metric_names: $prov_name_found leime_prov_*/leime_regret_* names well-formed, no duplicates"
