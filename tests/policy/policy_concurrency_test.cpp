// Shared-Engine concurrency: N threads hammer one policy::Engine with
// warm start enabled (thread-local warm scratch, per-thread incumbents) and each thread's result stream must be exactly
// the stream a single thread computes with the cold reference — i.e.
// independent of the thread count and of any interleaving.
// scripts/check.sh runs this binary under ThreadSanitizer, which turns
// any unsynchronized shared access into a hard failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/exit_setting.h"
#include "models/profile.h"
#include "policy/engine.h"
#include "policy/warm_start.h"
#include "util/rng.h"

namespace leime::policy {
namespace {

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

TEST(PolicyConcurrency, SharedEngineStreamsAreThreadCountIndependent) {
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 200;

  // A small pool of shared observations, each thread walking it in its own
  // split-addressed order, so every thread's incumbent keeps changing.
  util::Rng pool_rng(0x90017ull);
  std::vector<models::ModelProfile> profiles;
  std::vector<core::Environment> envs;
  for (int i = 0; i < 6; ++i)
    profiles.push_back(
        random_profile(static_cast<int>(pool_rng.uniform_int(8, 24)),
                       pool_rng));
  for (int i = 0; i < 24; ++i) envs.push_back(random_env(pool_rng));

  // Per-thread observation sequences and their cold-reference results,
  // computed up front on one thread.
  const util::Rng base(0xC0C0ull);
  std::vector<std::vector<std::pair<int, int>>> sequences(kThreads);
  std::vector<std::vector<core::ExitSettingResult>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(t));
    for (int c = 0; c < kCallsPerThread; ++c) {
      const int p = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(profiles.size()) - 1));
      const int e = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(envs.size()) - 1));
      sequences[t].push_back({p, e});
      const core::CostModel cm(profiles[static_cast<std::size_t>(p)],
                               envs[static_cast<std::size_t>(e)]);
      expected[t].push_back(core::branch_and_bound_exit_setting(cm));
    }
  }

  Config config;
  config.warm_start = true;
  Engine engine(config);

  std::vector<std::string> failures(kThreads);
  // Calls whose incumbent could seed the search: each thread writes only
  // its own slot, so the count adds no synchronization that could hide a
  // race inside the engine.
  std::vector<int> seeded(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Incumbent incumbent;  // per-stream state, never shared
      for (int c = 0; c < kCallsPerThread; ++c) {
        const auto [p, e] = sequences[static_cast<std::size_t>(t)]
                                     [static_cast<std::size_t>(c)];
        const core::CostModel cm(profiles[static_cast<std::size_t>(p)],
                                 envs[static_cast<std::size_t>(e)]);
        if (incumbent.valid &&
            incumbent_compatible(incumbent.combo, cm.num_exits()))
          ++seeded[static_cast<std::size_t>(t)];
        const auto got = engine.exit_setting(cm, &incumbent);
        const auto& want =
            expected[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
        if (!(got.combo == want.combo) || got.cost != want.cost) {
          failures[static_cast<std::size_t>(t)] =
              "thread " + std::to_string(t) + " call " + std::to_string(c) +
              ": got {" + std::to_string(got.combo.e1) + "," +
              std::to_string(got.combo.e2) + "} want {" +
              std::to_string(want.combo.e1) + "," +
              std::to_string(want.combo.e2) + "}";
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;

  // The warm path was genuinely exercised: each stream's first call is
  // cold, and profiles with a different m than the incumbent's fall back
  // to the cold search.
  int total_seeded = 0;
  for (const int n : seeded) total_seeded += n;
  EXPECT_GT(total_seeded, kThreads);
}

TEST(PolicyConcurrency, ConcurrentFleetDecisionsAreIndependent) {
  // decide_fleet is const and stateless: many threads may decide fleets
  // over one Engine concurrently.
  util::Rng rng(0xF1337ull);
  const auto profile = random_profile(12, rng);
  const auto partition = core::make_partition(profile, {3, 7, 12});
  const core::LeimePolicy policy;

  std::vector<core::DeviceSlotState> states;
  for (int i = 0; i < 16; ++i) {
    core::DeviceSlotState s;
    s.partition = &partition;
    s.device_flops = rng.uniform(1e9, 4e10);
    s.edge_share_flops = rng.uniform(1e9, 1e11);
    s.bandwidth = rng.uniform(1e5, 2e7);
    s.latency = rng.uniform(0.001, 0.1);
    s.queue_device = rng.uniform(0.0, 20.0);
    s.queue_edge = rng.uniform(0.0, 20.0);
    s.arrivals = rng.uniform(0.0, 5.0);
    states.push_back(s);
  }
  states[3] = states[1];
  states[10] = states[1];

  const Engine engine;
  std::vector<double> reference;
  engine.decide_fleet(policy, states, reference);

  std::vector<std::thread> threads;
  // vector<char>, not vector<bool>: each thread needs its own addressable
  // byte or the flags themselves would race.
  std::vector<char> ok(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> out;
      for (int rep = 0; rep < 50; ++rep) {
        engine.decide_fleet(policy, states, out);
        for (std::size_t i = 0; i < out.size(); ++i)
          if (out[i] != reference[i]) return;
      }
      ok[static_cast<std::size_t>(t)] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_TRUE(ok[static_cast<std::size_t>(t)]);
}

}  // namespace
}  // namespace leime::policy
