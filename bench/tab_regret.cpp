// tab_regret — fast-path regret vs the exhaustive oracle under churn
// (DESIGN.md §14). Two questions, answered with the provenance pillar's
// own accounting rather than bespoke bench plumbing:
//
//  1. Exit-setting: does the policy core's fast path (warm-started B&B)
//     ever trade optimality for speed? It must not — the bit-identity
//     contract says warm results equal the reference search — so the
//     oracle regret accounted on the micro_exit_setting churn=64 trace
//     must be *exactly* zero on every decision.
//
//  2. Offload: per-slot decisions on a small LEIME fleet with 1-in-1
//     oracle sampling, each checked against
//     core::minimize_drift_plus_penalty. Regret must never be negative;
//     under a heuristic such as the eq. 20 balance rule it can be
//     positive, and the bench measures how much.
//
// Emits BENCH_tab_regret.json (bench::Reporter schema) for
// scripts/bench_compare.py: decision/oracle/regret counters are pure
// functions of the fixed seeds, so they gate strictly across hosts; wall
// medians gate same-host only.
//
// Usage:
//   tab_regret [--repeats N] [--warmup N] [--out FILE] [--no-json]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/partition.h"
#include "models/profile.h"
#include "models/zoo.h"
#include "obs/provenance.h"
#include "policy/engine.h"
#include "reporter.h"
#include "sim/observer.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace leime;

// Same random-instance generators as micro_exit_setting so the churn=64
// trace is the one the perf gate already watches. m=64 keeps the per-slot
// exhaustive oracle (the two-best scan) cheap enough to run 1-in-1.
models::ModelProfile random_profile(int m, util::Rng& rng) {
  std::vector<models::UnitSpec> units;
  std::vector<models::ExitSpec> exits;
  std::vector<double> rates;
  for (int i = 0; i < m; ++i) {
    units.push_back({"u" + std::to_string(i), rng.uniform(1e6, 5e8),
                     rng.uniform(1e3, 5e6)});
    exits.push_back({rng.uniform(1e4, 1e6), 0.0});
    rates.push_back(i + 1 == m ? 1.0 : rng.uniform());
  }
  std::sort(rates.begin(), rates.end());
  rates.back() = 1.0;
  for (int i = 0; i < m; ++i)
    exits[static_cast<std::size_t>(i)].exit_rate =
        rates[static_cast<std::size_t>(i)];
  return models::ModelProfile("rand", 1e5, std::move(units), std::move(exits));
}

core::Environment random_env(util::Rng& rng) {
  core::Environment env;
  env.caps = {rng.uniform(1e9, 4e10), rng.uniform(5e10, 4e11),
              rng.uniform(1e12, 1e13)};
  env.net = {rng.uniform(1e5, 2e7), rng.uniform(0.005, 0.2),
             rng.uniform(1e6, 5e7), rng.uniform(0.01, 0.1)};
  return env;
}

std::vector<core::Environment> churn_trace(int steps, util::Rng& rng) {
  std::vector<core::Environment> trace;
  core::Environment env = random_env(rng);
  for (int s = 0; s < steps; ++s) {
    if (s % 8 == 0) {
      env = random_env(rng);
    } else {
      env.net.dev_edge_bw *= rng.uniform(0.9, 1.1);
      env.net.dev_edge_lat *= rng.uniform(0.95, 1.05);
      env.caps.edge_flops *= rng.uniform(0.95, 1.05);
    }
    trace.push_back(env);
  }
  return trace;
}

/// Everything the gate needs from one provenance-instrumented pass.
struct RegretAccount {
  obs::ProvenanceSummary summary;
  std::vector<obs::DecisionRecord> window;
  std::uint64_t regret_zero = 0;      ///< oracle records with regret == 0
  std::uint64_t regret_positive = 0;  ///< oracle records with regret > 0
  std::uint64_t explored = 0;
};

RegretAccount account(const obs::ProvenanceRecorder& rec) {
  RegretAccount a;
  a.summary = rec.summary();
  a.window = rec.window();
  for (const auto& r : a.window) {
    a.explored += r.explored;
    if (r.oracle) {
      if (r.regret == 0.0)
        ++a.regret_zero;
      else if (r.regret > 0.0)
        ++a.regret_positive;
    }
  }
  return a;
}

/// A fresh 1-in-1 recorder with the ring sized to hold every decision.
obs::ProvenanceConfig full_capture(std::size_t capacity) {
  obs::ProvenanceConfig cfg;
  cfg.sample_n = 1;
  cfg.oracle_sample_n = 1;
  cfg.ring_capacity = capacity;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter::Options opts;
  std::string out_path;
  bool json = true;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--repeats" && a + 1 < argc)
      opts.repeats = std::atoi(argv[++a]);
    else if (arg == "--warmup" && a + 1 < argc)
      opts.warmup = std::atoi(argv[++a]);
    else if (arg == "--out" && a + 1 < argc)
      out_path = argv[++a];
    else if (arg == "--no-json")
      json = false;
    else {
      std::cerr << "usage: tab_regret [--repeats N] [--warmup N] "
                   "[--out FILE] [--no-json]\n";
      return 2;
    }
  }

  bench::Reporter reporter("tab_regret", opts);
  util::TablePrinter table({"case", "decisions", "oracle", "regret=0",
                            "regret>0", "mean_regret", "max_regret"});
  const auto add_row = [&](const std::string& name, const RegretAccount& a,
                           obs::DecisionKind kind) {
    const auto& h = a.summary.kind_regret[static_cast<std::size_t>(kind)];
    const auto n = h.stats().count();
    table.add_row({name, std::to_string(a.summary.decisions),
                   std::to_string(a.summary.oracle_runs),
                   std::to_string(a.regret_zero),
                   std::to_string(a.regret_positive),
                   util::fmt(n ? h.stats().sum() / static_cast<double>(n) : 0.0,
                             6),
                   util::fmt(h.stats().max(), 6)});
  };

  const int m = 64, steps = 64;
  util::Rng rng(4242);
  const auto profile = random_profile(m, rng);
  const auto trace = churn_trace(steps, rng);

  // Exit-setting, reference search per slot (every record path=cold).
  RegretAccount cold;
  auto& c_cold = reporter.run_case("exit_cold/churn=64", [&] {
    policy::Engine engine{policy::Config{}};
    obs::ProvenanceRecorder rec(full_capture(steps));
    engine.attach_provenance(&rec);
    for (const auto& e : trace)
      engine.exit_setting(core::CostModel(profile, e));
    cold = account(rec);
  });
  c_cold.counters["decisions"] = cold.summary.decisions;
  c_cold.counters["oracle_runs"] = cold.summary.oracle_runs;
  c_cold.counters["regret_zero"] = cold.regret_zero;
  c_cold.counters["regret_positive"] = cold.regret_positive;
  c_cold.counters["explored"] = cold.explored;

  // Warm-started B&B over the same trace: fewer evaluations, zero regret.
  RegretAccount warm;
  auto& c_warm = reporter.run_case("exit_warm/churn=64", [&] {
    policy::Config config;
    config.warm_start = true;
    policy::Engine engine(config);
    obs::ProvenanceRecorder rec(full_capture(steps));
    engine.attach_provenance(&rec);
    policy::Incumbent incumbent;
    for (const auto& e : trace)
      engine.exit_setting(core::CostModel(profile, e), &incumbent);
    warm = account(rec);
  });
  c_warm.counters["decisions"] = warm.summary.decisions;
  c_warm.counters["oracle_runs"] = warm.summary.oracle_runs;
  c_warm.counters["regret_zero"] = warm.regret_zero;
  c_warm.counters["regret_positive"] = warm.regret_positive;
  c_warm.counters["explored"] = warm.explored;
  c_warm.counters["warm_starts"] =
      warm.summary.paths[static_cast<std::size_t>(
          obs::DecisionPath::kWarmStart)];

  // Offload: a small LEIME fleet, every slot decision oracle-checked
  // against the exact dpp minimizer.
  RegretAccount offload;
  auto& c_offload = reporter.run_case("offload/fleet=8", [&] {
    const auto squeeze = models::make_squeezenet();
    sim::ScenarioConfig cfg;
    cfg.partition = core::make_partition(squeeze, {4, 8, squeeze.num_units()});
    for (int i = 0; i < 8; ++i) {
      sim::DeviceSpec dev;
      dev.flops = core::kRaspberryPiFlops;
      dev.mean_rate = 1.0;
      cfg.devices.push_back(dev);
    }
    cfg.policy = "LEIME";
    cfg.duration = 20.0;
    cfg.warmup = 2.0;
    cfg.seed = 20260808;
    sim::ObsConfig obs_cfg;
    obs_cfg.provenance = full_capture(1 << 12);
    sim::RecordingObserver obs(obs_cfg, cfg.devices.size());
    cfg.observer = &obs;
    sim::run_scenario(cfg);
    offload = account(*obs.provenance());
  });
  const auto& off_hist = offload.summary.kind_regret[static_cast<std::size_t>(
      obs::DecisionKind::kOffload)];
  c_offload.counters["decisions"] = offload.summary.decisions;
  c_offload.counters["oracle_runs"] = offload.summary.oracle_runs;
  c_offload.counters["regret_zero"] = offload.regret_zero;
  c_offload.counters["regret_positive"] = offload.regret_positive;
  if (off_hist.stats().count() > 0)
    c_offload.rates["mean_regret"] =
        off_hist.stats().sum() /
        static_cast<double>(off_hist.stats().count());

  add_row("exit_cold/churn=64", cold, obs::DecisionKind::kExitSetting);
  add_row("exit_warm/churn=64", warm, obs::DecisionKind::kExitSetting);
  add_row("offload/fleet=8", offload, obs::DecisionKind::kOffload);

  std::cout << "oracle regret accounting (provenance pillar, 1-in-1 "
               "sampling):\n\n";
  table.print(std::cout);
  std::cout << "\n";
  reporter.print_table(std::cout);
  if (json) {
    const std::string path =
        out_path.empty() ? reporter.default_path() : out_path;
    reporter.write_json(path);
    std::cout << "wrote " << path << "\n";
  }

  // Acceptance: the exit-setting searches are regret-free (bit-identity
  // contract); offload decisions account regret that is never negative.
  bool ok = true;
  for (const auto* a : {&cold, &warm}) {
    ok = ok && a->summary.decisions > 0 &&
         a->summary.oracle_runs == a->summary.decisions &&
         a->regret_zero == a->summary.oracle_runs && a->regret_positive == 0;
  }
  ok = ok && warm.explored < cold.explored;
  ok = ok && offload.summary.oracle_runs > 0;
  for (const auto& r : offload.window)
    ok = ok && (!r.oracle || r.regret >= 0.0);
  std::cout << (ok ? "OK: cold and warm-started exit settings are "
                     "regret-free, offload regret >= 0"
                   : "WARNING: regret accounting violated a contract — "
                     "inspect the provenance window")
            << "\n";
  return ok ? 0 : 1;
}
