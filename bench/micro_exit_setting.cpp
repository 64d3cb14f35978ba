// Microbenchmark (Theorem 2) — exit-setting search cost: exhaustive O(m^2)
// vs branch-and-bound O(m ln m) average, on random monotone-σ profiles;
// plus the per-slot offload solvers (eqs. 19/20) over a 4096-device fleet,
// batched, one device per call, and as repeated decision rounds behind the
// per-device slot memo.
//
// Emits BENCH_micro_exit_setting.json (bench::Reporter schema). The
// evaluation/round counters are pure functions of the fixed RNG seed, so
// scripts/bench_compare.py gates them strictly — an algorithmic regression
// in the §III-C pruning (more cost-model evaluations) fails the perf job
// on any host, independent of wall-clock noise.
//
// Usage:
//   micro_exit_setting [--repeats N] [--warmup N] [--out FILE] [--no-json]
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/profile.h"
#include "policy/engine.h"
#include "policy/slot_memo.h"
#include "reporter.h"
#include "util/rng.h"

namespace {

using namespace leime;

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

/// Random per-slot device state over a shared partition (the ranges of
/// tests/policy/policy_diff_test.cpp).
core::DeviceSlotState random_slot_state(const core::MeDnnPartition& partition,
                                        util::Rng& rng) {
  core::DeviceSlotState s;
  s.partition = &partition;
  s.device_flops = rng.uniform(1e9, 4e10);
  s.edge_share_flops = rng.uniform(1e9, 1e11);
  s.bandwidth = rng.uniform(1e5, 2e7);
  s.latency = rng.uniform(0.001, 0.1);
  s.queue_device = rng.uniform(0.0, 20.0);
  s.queue_edge = rng.uniform(0.0, 20.0);
  s.arrivals = rng.uniform(0.0, 5.0);
  s.uplink_backlog_bytes = rng.uniform(0.0, 1e5);
  s.config.V = rng.uniform(1.0, 200.0);
  s.config.tau = 1.0;
  return s;
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
      std::cerr << "usage: micro_exit_setting [--repeats N] [--warmup N] "
                   "[--out FILE] [--no-json]\n";
      return 2;
    }
  }

  bench::Reporter reporter("micro_exit_setting", opts);

  // Same profile per m for both algorithms (fixed seed), so the counters
  // are comparable and the exhaustive result stays the B&B oracle.
  // Exhaustive stops at m=256: its m^2 cost at 1024 would dominate the
  // bench's run time without adding information (B&B covers 1024).
  for (const int m : {16, 64, 256, 1024}) {
    util::Rng rng(42);
    const auto profile = random_profile(m, rng);
    const core::CostModel cm(profile, random_env(rng));

    if (m <= 256) {
      core::ExitSettingResult r;
      auto& c = reporter.run_case("exhaustive/m=" + std::to_string(m),
                                  [&] { r = core::exhaustive_exit_setting(cm); });
      c.counters["evaluations"] = r.evaluations;
      if (c.wall.median > 0.0)
        c.rates["evals_per_s"] =
            static_cast<double>(r.evaluations) / c.wall.median;
    }

    core::ExitSettingResult r;
    auto& c = reporter.run_case(
        "bb/m=" + std::to_string(m),
        [&] { r = core::branch_and_bound_exit_setting(cm); });
    c.counters["evaluations"] = r.evaluations;
    c.counters["rounds"] = static_cast<std::uint64_t>(r.rounds);
    if (c.wall.median > 0.0)
      c.rates["evals_per_s"] =
          static_cast<double>(r.evaluations) / c.wall.median;
  }

  // Policy-core fast paths on a churn trace: 64 slots over one m=256
  // profile, slot-to-slot drift plus a full environment jump every 8
  // slots. Cold runs the reference B&B per slot; warm carries the previous
  // slot's incumbent through policy::Engine. The evaluation counters are
  // seed-deterministic, so bench_compare.py gates the warm/cold ratio
  // strictly on any host (wall medians gate same-host only).
  {
    const int m = 256, steps = 64;
    util::Rng rng(4242);
    const auto profile = random_profile(m, rng);
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

    std::uint64_t cold_evals = 0;
    auto& cold = reporter.run_case("bb_cold/churn=64", [&] {
      cold_evals = 0;
      for (const auto& e : trace) {
        const core::CostModel cm(profile, e);
        cold_evals += core::branch_and_bound_exit_setting(cm).evaluations;
      }
    });
    cold.counters["evaluations"] = cold_evals;

    std::uint64_t warm_evals = 0;
    auto& warm = reporter.run_case("bb_warm/churn=64", [&] {
      // Fresh engine + incumbent per repeat so every timed pass replays
      // the same warm/cold decision sequence.
      warm_evals = 0;
      leime::policy::Config config;
      config.warm_start = true;
      leime::policy::Engine engine(config);
      leime::policy::Incumbent incumbent;
      for (const auto& e : trace) {
        const core::CostModel cm(profile, e);
        warm_evals += engine.exit_setting(cm, &incumbent).evaluations;
      }
    });
    warm.counters["evaluations"] = warm_evals;
    if (cold_evals > 0)
      warm.rates["evals_pct_of_cold"] =
          100.0 * static_cast<double>(warm_evals) /
          static_cast<double>(cold_evals);
  }

  // Per-slot offload decisions (eqs. 19/20) for one 4096-device fleet:
  // the whole slot in one batched call, and eq. 19 one device per call
  // (the batch-of-one path a lone device takes). `evaluations` counts
  // objective (eq. 19) or T_d − T_e (eq. 20) evaluations over the fleet,
  // so evaluations / decisions is the per-decision work; both counters
  // are seed-deterministic and gated strictly.
  {
    util::Rng rng(1919);
    const auto profile = random_profile(16, rng);
    const auto partition = core::make_partition(profile, {4, 9, 16});
    std::vector<core::DeviceSlotState> fleet;
    for (int i = 0; i < 4096; ++i)
      fleet.push_back(random_slot_state(partition, rng));
    std::vector<double> x(fleet.size());
    const auto decisions = static_cast<std::uint64_t>(fleet.size());
    auto record = [&](bench::BenchCase& c, std::uint64_t evaluations) {
      c.counters["decisions"] = decisions;
      c.counters["evaluations"] = evaluations;
      c.rates["evals_per_decision"] =
          static_cast<double>(evaluations) / static_cast<double>(decisions);
      if (c.wall.median > 0.0)
        c.rates["decisions_per_s"] =
            static_cast<double>(decisions) / c.wall.median;
    };

    std::uint64_t evals = 0;
    auto& eq19 = reporter.run_case("eq19/fleet=4096", [&] {
      evals = 0;
      core::minimize_drift_plus_penalty(fleet, x, &evals);
    });
    record(eq19, evals);

    auto& single = reporter.run_case("eq19/single", [&] {
      evals = 0;
      for (std::size_t i = 0; i < fleet.size(); ++i)
        core::minimize_drift_plus_penalty({&fleet[i], 1}, {&x[i], 1}, &evals);
    });
    record(single, evals);

    auto& eq20 = reporter.run_case("eq20/fleet=4096", [&] {
      evals = 0;
      core::balance_offload_ratio(fleet, x, &evals);
    });
    record(eq20, evals);

    // The simulator's decision rounds behind the per-device slot memo
    // (policy/slot_memo.h): K rounds over the same fleet, where in round r
    // every device with k % 4 == r % 4 sees its queue one task longer.
    // Each round after the first changes half the fleet's states (the
    // devices bumped now and those bumped the round before), so `solves`
    // is 4096 + (K - 1) * 2048 of K * 4096 `decisions`; both strict.
    constexpr std::size_t kRounds = 8;
    const core::LeimePolicy leime;
    std::uint64_t solves = 0;
    auto& rounds = reporter.run_case("eq19/rounds fleet=4096", [&] {
      solves = 0;
      policy::SlotMemo memo;
      for (std::size_t r = 0; r < kRounds; ++r)
        solves += memo.round(
            fleet.size(),
            [&](std::size_t k) {
              core::DeviceSlotState s = fleet[k];
              if (k % 4 == r % 4) s.queue_device += 1.0;
              return s;
            },
            [&](std::span<const core::DeviceSlotState> states,
                std::span<double> out) { leime.decide_batch(states, out); });
    });
    rounds.counters["decisions"] = kRounds * decisions;
    rounds.counters["solves"] = solves;
    rounds.rates["solves_per_decision"] =
        static_cast<double>(solves) / static_cast<double>(kRounds * decisions);
    if (rounds.wall.median > 0.0)
      rounds.rates["decisions_per_s"] =
          static_cast<double>(kRounds * decisions) / rounds.wall.median;
  }

  reporter.print_table(std::cout);
  if (json) {
    const std::string path =
        out_path.empty() ? reporter.default_path() : out_path;
    reporter.write_json(path);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}
