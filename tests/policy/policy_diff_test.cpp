// Differential/property suite for the policy core's fast path: across
// randomized churn traces the engine with warm start enabled returns the
// *identical* (combo, cost) the cold reference search returns — exact
// integer equality on the combo and bit-for-bit equality on the cost
// double — and the engine's fleet decisions reproduce the sequential
// per-device loop within 0 ULP. Trace substreams are addressed via
// util::Rng::split so every trace replays bit-for-bit on any platform.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/profile.h"
#include "policy/engine.h"
#include "policy/warm_start.h"
#include "util/rng.h"

namespace leime::policy {
namespace {

/// Random chain profile with monotone exit rates (Theorem 1's assumption;
/// same construction as tests/core/exit_setting_test.cpp).
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
  return models::ModelProfile("rand", 1e5, std::move(units),
                              std::move(exits));
}

core::Environment random_env(util::Rng& rng) {
  core::Environment env;
  env.caps = {rng.uniform(1e9, 4e10), rng.uniform(5e10, 4e11),
              rng.uniform(1e12, 1e13)};
  env.net = {rng.uniform(1e5, 2e7), rng.uniform(0.005, 0.2),
             rng.uniform(1e6, 5e7), rng.uniform(0.01, 0.1)};
  return env;
}

/// Small multiplicative drift: the kind of slot-to-slot bandwidth/load
/// wobble that keeps an incumbent near-optimal.
void drift_env(core::Environment& env, util::Rng& rng) {
  env.net.dev_edge_bw *= rng.uniform(0.9, 1.1);
  env.net.dev_edge_lat *= rng.uniform(0.95, 1.05);
  env.caps.edge_flops *= rng.uniform(0.9, 1.1);
}

// The tentpole property: 1000 randomized churn traces, every step's
// engine result identical to the cold reference. Churn comes in three
// strengths — drift (incumbent stays useful), environment jumps
// (incumbent becomes far from optimal) and model swaps (incumbent becomes
// *incompatible*: different m) — plus bit-for-bit replays of earlier
// environments, which seed the search with an incumbent that was optimal
// for a different environment.
TEST(PolicyDiff, WarmEngineMatchesColdSearchOnChurnTraces) {
  const util::Rng base(0xD1FFull);
  const int kTraces = 1000;
  const int kSteps = 8;

  // Counts the path every search took, across all traces.
  obs::ProvenanceConfig every_decision;
  every_decision.sample_n = 1;
  every_decision.ring_capacity = 1;
  obs::ProvenanceRecorder rec(every_decision);
  std::uint64_t swaps = 0;
  for (int trace = 0; trace < kTraces; ++trace) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trace));
    Config config;
    config.warm_start = true;
    Engine engine(config);
    engine.attach_provenance(&rec);
    Incumbent incumbent;

    int m = static_cast<int>(rng.uniform_int(8, 32));
    models::ModelProfile profile = random_profile(m, rng);
    core::Environment env = random_env(rng);
    std::vector<core::Environment> history;

    for (int step = 0; step < kSteps; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.15) {
        // Model swap: new unit count invalidates the incumbent entirely.
        m = static_cast<int>(rng.uniform_int(8, 32));
        profile = random_profile(m, rng);
        ++swaps;
      } else if (roll < 0.35) {
        env = random_env(rng);  // jump
      } else if (roll < 0.55 && !history.empty()) {
        // Replay an earlier environment bit-for-bit.
        env = history[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(history.size()) - 1))];
      } else {
        drift_env(env, rng);
      }
      history.push_back(env);

      const core::CostModel cm(profile, env);
      const auto fast = engine.exit_setting(cm, &incumbent);
      const auto cold = core::branch_and_bound_exit_setting(cm);

      ASSERT_EQ(fast.combo, cold.combo)
          << "trace " << trace << " step " << step << " m=" << m;
      // Bit-for-bit: both paths evaluate expected_tct on the same combo.
      ASSERT_EQ(fast.cost, cold.cost)
          << "trace " << trace << " step " << step;
    }
  }
  // The trace mix must actually exercise every path or the property is
  // vacuous.
  const auto paths = rec.summary().paths;
  EXPECT_GT(paths[static_cast<std::size_t>(obs::DecisionPath::kWarmStart)],
            1000u);
  EXPECT_GT(swaps, 300u);
}

// Warm-start in isolation (no engine around it): seeded from last step's
// combo — or a deliberately stale-but-compatible one — the warm search
// returns the cold result on every instance, and its round structure
// matches the cold search exactly.
TEST(PolicyDiff, WarmStartMatchesColdForAnyCompatibleIncumbent) {
  const util::Rng base(0xBB5EEDull);
  std::vector<double> scratch;
  for (int trial = 0; trial < 1000; ++trial) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    const int m = static_cast<int>(rng.uniform_int(8, 40));
    const auto profile = random_profile(m, rng);
    core::Environment env = random_env(rng);
    core::ExitCombo seed{1, 2, m};
    for (int step = 0; step < 3; ++step) {
      const core::CostModel cm(profile, env);
      const auto cold = core::branch_and_bound_exit_setting(cm);
      const auto warm = warm_start_branch_and_bound(cm, seed, scratch);
      ASSERT_EQ(warm.result.combo, cold.combo)
          << "trial " << trial << " step " << step << " seed {" << seed.e1
          << "," << seed.e2 << "}";
      ASSERT_EQ(warm.result.cost, cold.cost)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(warm.result.rounds, cold.rounds)
          << "trial " << trial << " step " << step;
      // Next step: genuine incumbent (the optimum) under a drifted env, or
      // an adversarial random compatible seed.
      if (rng.uniform() < 0.5) {
        seed = warm.result.combo;
      } else {
        const int e1 = static_cast<int>(rng.uniform_int(1, m - 2));
        const int e2 = static_cast<int>(rng.uniform_int(e1 + 1, m - 1));
        seed = {e1, e2, m};
      }
      drift_env(env, rng);
    }
  }
}

/// Random but feasible per-slot device state over a shared partition.
core::DeviceSlotState random_state(const core::MeDnnPartition* partition,
                                   util::Rng& rng) {
  core::DeviceSlotState s;
  s.partition = partition;
  s.device_flops = rng.uniform(1e9, 4e10);
  s.edge_share_flops = rng.uniform(1e9, 1e11);
  s.bandwidth = rng.uniform(1e5, 2e7);
  s.latency = rng.uniform(0.001, 0.1);
  s.queue_device = rng.uniform(0.0, 20.0);
  s.queue_edge = rng.uniform(0.0, 20.0);
  s.arrivals = rng.uniform(0.0, 5.0);
  s.uplink_backlog_bytes = rng.uniform(0.0, 1e5);
  s.edge_available = rng.uniform() < 0.9;
  s.config.V = rng.uniform(1.0, 200.0);
  s.config.tau = 1.0;
  return s;
}

// The Engine's decide_fleet (one decide_batch call) must equal the
// sequential per-device loop within 0 ULP, duplicate states included.
TEST(PolicyDiff, EngineDecideFleetMatchesSequential) {
  util::Rng rng(0xF1EE7ull);
  const auto profile = random_profile(12, rng);
  const auto partition = core::make_partition(profile, {3, 7, 12});
  const core::LeimePolicy policy;
  std::vector<core::DeviceSlotState> states;
  for (int i = 0; i < 24; ++i)
    states.push_back(random_state(&partition, rng));
  states[5] = states[2];
  states[20] = states[2];

  const Engine engine;
  std::vector<double> out;
  engine.decide_fleet(policy, states, out);
  ASSERT_EQ(out.size(), states.size());
  for (std::size_t i = 0; i < states.size(); ++i)
    ASSERT_EQ(out[i], policy.decide(states[i])) << i;
}

}  // namespace
}  // namespace leime::policy
