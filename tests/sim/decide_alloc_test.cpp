// Zero-allocation gate for the per-slot decision round: once its scratch
// has grown to the fleet's size, a batched eq. 19/20 round — direct or
// through policy::Engine, behind the per-device slot memo on all-hit,
// all-miss and mixed rounds, and split across the decision pool —
// performs no heap allocations (the simulation keeps the scratch and
// the pool across slots; DESIGN.md §10, §12).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/zoo.h"
#include "policy/engine.h"
#include "policy/slot_memo.h"
#include "sim/parallel_decide.h"
#include "support/alloc_hooks.h"
#include "util/rng.h"

namespace leime::sim {
namespace {

std::vector<core::DeviceSlotState> fleet(const core::MeDnnPartition& part) {
  util::Rng rng(0xDEC1DEull);
  std::vector<core::DeviceSlotState> states;
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 3) {  // a homogeneous class: bit-identical to a neighbour
      states.push_back(states.back());
      continue;
    }
    core::DeviceSlotState s;
    s.partition = &part;
    s.device_flops = rng.uniform(1e9, 4e10);
    s.edge_share_flops = rng.uniform(1e9, 1e11);
    s.bandwidth = rng.uniform(1e5, 2e7);
    s.latency = rng.uniform(0.001, 0.1);
    s.queue_device = rng.uniform(0.0, 20.0);
    s.queue_edge = rng.uniform(0.0, 20.0);
    s.arrivals = rng.uniform(0.0, 5.0);
    s.edge_available = i % 5 != 0;
    states.push_back(s);
  }
  return states;
}

TEST(DecideAlloc, SteadyStateDecisionRoundsAllocateNothing) {
  const auto profile = models::make_inception_v3();
  const auto part = core::make_partition(profile, {10, 14, profile.num_units()});
  const auto states = fleet(part);
  std::vector<double> out(states.size());
  const policy::Engine engine;

  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    const auto policy = core::make_policy(name);
    // Warm-up: interns the profiler section names.
    engine.decide_fleet(*policy, states, out);

    const std::uint64_t before = testsupport::allocation_count();
    for (int round = 0; round < 50; ++round) {
      policy->decide_batch(states, out);
      engine.decide_fleet(*policy, states, out);
    }
    EXPECT_EQ(testsupport::allocation_count() - before, 0u) << name;
  }
}

// Behind the per-device slot memo (policy/slot_memo.h), rounds after the
// first — all-hit, all-miss and mixed, solved by the policy's
// decide_batch — allocate nothing.
TEST(DecideAlloc, SteadyStateMemoRoundsAllocateNothing) {
  const auto profile = models::make_inception_v3();
  const auto part = core::make_partition(profile, {10, 14, profile.num_units()});

  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    SCOPED_TRACE(name);
    const auto policy = core::make_policy(name);
    const auto solve = [&](std::span<const core::DeviceSlotState> s,
                           std::span<double> x) { policy->decide_batch(s, x); };
    auto states = fleet(part);
    const auto observe = [&](std::size_t k) { return states[k]; };
    // Moves the queue of every device with k % stride == phase.
    const auto churn = [&](std::size_t stride, std::size_t phase) {
      for (std::size_t k = phase; k < states.size(); k += stride)
        states[k].queue_device += 1.0;
    };
    policy::SlotMemo memo;
    memo.round(states.size(), observe, solve);  // round 0
    churn(1, 0);
    EXPECT_EQ(memo.round(states.size(), observe, solve), states.size());

    const std::uint64_t before = testsupport::allocation_count();
    std::size_t solved = 0;
    for (std::size_t round = 0; round < 30; ++round) {
      if (round % 3 == 0) churn(1, 0);         // all miss
      if (round % 3 == 1) churn(3, round % 2);  // mixed
      solved += memo.round(states.size(), observe, solve);  // else all hit
    }
    EXPECT_EQ(testsupport::allocation_count() - before, 0u);
    EXPECT_GT(solved, 10 * states.size());
    EXPECT_LT(solved, 20 * states.size());
  }
}

// A fleet above kParallelDecideMin, solved through the memo by a 4-thread
// ParallelDecide: once the first round has created the pool, pooled
// rounds (all-miss and mixed) and all-hit rounds allocate nothing.
TEST(DecideAlloc, SteadyStatePooledRoundsAllocateNothing) {
  const auto profile = models::make_inception_v3();
  const auto part = core::make_partition(profile, {10, 14, profile.num_units()});
  const auto base = fleet(part);
  std::vector<core::DeviceSlotState> states;
  while (states.size() < 2 * kParallelDecideMin) {
    for (auto s : base) {
      s.queue_device += static_cast<double>(states.size() % 97);
      states.push_back(s);
    }
  }
  const auto observe = [&](std::size_t k) { return states[k]; };
  const auto churn = [&](std::size_t stride) {
    for (std::size_t k = 0; k < states.size(); k += stride)
      states[k].queue_edge += 1.0;
  };

  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    SCOPED_TRACE(name);
    const auto policy = core::make_policy(name);
    ParallelDecide decide(4);
    const auto solve = [&](std::span<const core::DeviceSlotState> s,
                           std::span<double> x) {
      decide.solve(*policy, s, x);
    };
    policy::SlotMemo memo;
    memo.round(states.size(), observe, solve);  // round 0 creates the pool
    EXPECT_EQ(decide.pool_threads(), 4);

    const std::uint64_t before = testsupport::allocation_count();
    std::size_t solved = 0;
    for (std::size_t round = 0; round < 9; ++round) {
      if (round % 3 == 0) churn(1);  // all miss
      if (round % 3 == 1) churn(2);  // mixed, still above the threshold
      solved += memo.round(states.size(), observe, solve);  // else all hit
    }
    EXPECT_EQ(testsupport::allocation_count() - before, 0u);
    EXPECT_EQ(solved, 3 * states.size() + 3 * (states.size() / 2));
  }
}

}  // namespace
}  // namespace leime::sim
