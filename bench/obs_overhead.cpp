// obs_overhead — proves the observability layer's zero-overhead-when-
// disabled contract (DESIGN.md §8).
//
// Every Observer hook site in the simulator is a branch on a null pointer
// when observability is off. This harness quantifies that cost by timing
// three variants of the same scenario, interleaved round-robin so thermal
// and cache drift hit all variants equally:
//
//   disabled  — ScenarioConfig::obs all off (the production default)
//   noop      — an externally-attached Observer with every hook empty:
//               the branch is taken, the virtual call happens, nothing is
//               recorded. Upper-bounds the cost of the hook *sites*.
//   recording — RecordingObserver with metrics + 1-in-1 tracing +
//               time-series, for context (this one is allowed to cost).
//   attribution — recording plus per-task latency waterfalls and the SLO
//               monitor (DESIGN.md §13), so the ledger's cost is visible
//               next to the pillar it extends (also allowed to cost).
//   provenance — attribution plus 1-in-1 decision provenance with a
//               1-in-4 exhaustive oracle (DESIGN.md §14), the most
//               expensive configuration the repo ships (allowed to cost;
//               shown so regret accounting's price is measured, not
//               guessed).
//
// Usage:
//   obs_overhead [--check] [--rounds N] [--duration S] [--out FILE]
//                [--no-json]
//
// --check exits non-zero when the noop-vs-disabled overhead exceeds 2%
// (the CI gate; see .github/workflows/ci.yml). Wall-clock noise on shared
// runners is real, so the gate compares the *median* round of each variant
// with outlier-immune MAD statistics (util::robust_summarize) — the
// earlier min-of-rounds gate was flaky because a single lucky round of
// either variant could push the ratio past the budget in both directions.
// The default duration keeps each run long enough (tens of ms) that timer
// granularity does not dominate the ratio. Results are also exported as
// BENCH_obs_overhead.json via bench::Reporter; the attribution case
// carries a strict `waterfalls` counter (waterfalls assembled per run), and
// scripts/check.sh gates the record against bench/baselines/ like
// micro_sim: counters strictly, wall medians on the baseline's host only.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "models/zoo.h"
#include "reporter.h"
#include "sim/observer.h"
#include "sim/simulation.h"
#include "util/clock.h"
#include "util/table.h"

namespace {

using namespace leime;

sim::ScenarioConfig make_scenario(double duration) {
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  for (int i = 0; i < 4; ++i) {
    sim::DeviceSpec d;
    d.mean_rate = 2.0;
    cfg.devices.push_back(d);
  }
  cfg.duration = duration;
  cfg.warmup = 1.0;
  return cfg;
}

/// Times one run. `waterfalls` (may be null) receives the number of
/// attribution waterfalls the run assembled.
double time_run(const sim::ScenarioConfig& cfg, std::size_t* completed,
                std::uint64_t* waterfalls = nullptr) {
  const auto t0 = util::WallClock::now();
  const auto r = sim::run_scenario(cfg);
  const double wall = util::seconds_since(t0);
  *completed += r.total_completed;  // defeat dead-code elimination
  if (waterfalls) *waterfalls = r.attribution.tasks;
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool json = true;
  int rounds = 7;
  double duration = 20000.0;  // ~300ms/run: long enough to swamp jitter
  std::string out_path;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--check") check = true;
    else if (arg == "--rounds" && a + 1 < argc) rounds = std::stoi(argv[++a]);
    else if (arg == "--duration" && a + 1 < argc)
      duration = std::stod(argv[++a]);
    else if (arg == "--out" && a + 1 < argc) out_path = argv[++a];
    else if (arg == "--no-json") json = false;
    else {
      std::cerr << "usage: obs_overhead [--check] [--rounds N] "
                   "[--duration S] [--out FILE] [--no-json]\n";
      return 2;
    }
  }

  const auto base = make_scenario(duration);

  auto noop_cfg = base;
  sim::Observer noop;  // every hook is the empty default
  noop_cfg.observer = &noop;

  auto recording_cfg = base;
  recording_cfg.obs.metrics = true;
  recording_cfg.obs.trace_sample = 1;
  recording_cfg.obs.timeseries = true;

  auto attribution_cfg = recording_cfg;
  attribution_cfg.obs.attribution = true;
  attribution_cfg.obs.slo.deadline = 0.5;

  auto provenance_cfg = attribution_cfg;
  provenance_cfg.obs.provenance.sample_n = 1;
  provenance_cfg.obs.provenance.oracle_sample_n = 4;

  std::size_t sink = 0;
  // Warmup pass so first-touch page faults and lazy init don't bill the
  // first variant measured.
  time_run(base, &sink);

  // Rounds stay interleaved (the whole point of the harness), so the
  // variants are timed by hand and adopted via add_case afterwards.
  std::vector<double> disabled, noop_s, recording, attribution, provenance;
  std::uint64_t waterfalls = 0;  // per attribution run (seed-deterministic)
  for (int r = 0; r < rounds; ++r) {
    disabled.push_back(time_run(base, &sink));
    noop_s.push_back(time_run(noop_cfg, &sink));
    recording.push_back(time_run(recording_cfg, &sink));
    attribution.push_back(time_run(attribution_cfg, &sink, &waterfalls));
    provenance.push_back(time_run(provenance_cfg, &sink));
  }

  bench::Reporter reporter("obs_overhead", {1, rounds});
  const auto& c_disabled = reporter.add_case("disabled", disabled, 1);
  const auto& c_noop = reporter.add_case("noop_observer", noop_s);
  const auto& c_recording = reporter.add_case("recording", recording);
  auto& c_attribution = reporter.add_case("attribution", attribution);
  // Strict counter: the attribution case must keep assembling exactly this
  // many waterfalls per run, or its wall time measures different work.
  c_attribution.counters["waterfalls"] = waterfalls;
  const auto& c_provenance = reporter.add_case("provenance", provenance);
  const double overhead =
      c_noop.wall.median / c_disabled.wall.median - 1.0;

  util::TablePrinter t({"variant", "median wall (s)", "cv", "vs disabled"});
  auto pct = [&](double v) {
    return util::fmt(100.0 * (v / c_disabled.wall.median - 1.0), 2) + "%";
  };
  t.add_row({"disabled", util::fmt(c_disabled.wall.median, 4),
             util::fmt(c_disabled.wall.cv, 3), "-"});
  t.add_row({"noop observer", util::fmt(c_noop.wall.median, 4),
             util::fmt(c_noop.wall.cv, 3), pct(c_noop.wall.median)});
  t.add_row({"recording", util::fmt(c_recording.wall.median, 4),
             util::fmt(c_recording.wall.cv, 3),
             pct(c_recording.wall.median)});
  t.add_row({"attribution", util::fmt(c_attribution.wall.median, 4),
             util::fmt(c_attribution.wall.cv, 3),
             pct(c_attribution.wall.median)});
  t.add_row({"provenance", util::fmt(c_provenance.wall.median, 4),
             util::fmt(c_provenance.wall.cv, 3),
             pct(c_provenance.wall.median)});
  t.print(std::cout);
  std::cout << "noop overhead (ratio of median rounds): "
            << util::fmt(100.0 * overhead, 2) << "% over " << rounds
            << " rounds (" << sink << " tasks)\n";

  if (json) {
    const std::string path =
        out_path.empty() ? reporter.default_path() : out_path;
    reporter.write_json(path);
    std::cout << "wrote " << path << "\n";
  }

  if (check) {
    // The 2% budget plus a noise allowance derived from the measured
    // round-to-round variation: the standard error of a median over n
    // rounds is ~1.2533·σ/√n, the ratio of two medians combines both CVs
    // in quadrature, and the 2× keeps the false-positive rate negligible.
    // On a quiet runner the allowance is well under 1%; on a preempted one
    // it widens instead of flaking the build.
    constexpr double kGate = 0.02;
    const double noise =
        1.2533 *
        std::sqrt(c_disabled.wall.cv * c_disabled.wall.cv +
                  c_noop.wall.cv * c_noop.wall.cv) /
        std::sqrt(static_cast<double>(rounds));
    const double gate = kGate + 2.0 * noise;
    if (overhead > gate) {
      std::cerr << "FAIL: noop-observer overhead "
                << util::fmt(100.0 * overhead, 2) << "% exceeds the "
                << util::fmt(100.0 * kGate, 0) << "% budget + "
                << util::fmt(100.0 * (gate - kGate), 2)
                << "% noise allowance\n";
      return 1;
    }
    std::cout << "OK: within the " << util::fmt(100.0 * kGate, 0)
              << "% disabled-path budget (+"
              << util::fmt(100.0 * (gate - kGate), 2)
              << "% noise allowance)\n";
  }
  return 0;
}
