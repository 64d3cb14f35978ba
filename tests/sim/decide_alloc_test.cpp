// Zero-allocation gate for the per-slot decision round: once its scratch
// has grown to the fleet's size, a batched eq. 19/20 round — with or
// without the batch_eq20 dedup — performs no heap allocations (the
// simulation keeps the scratch across slots; DESIGN.md §10, §12).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/zoo.h"
#include "policy/batch.h"
#include "policy/engine.h"
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
  policy::Config on;
  on.batch_eq20 = true;
  const policy::Engine dedup(on);
  const policy::Engine plain;
  policy::FleetScratch scratch;

  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    const auto policy = core::make_policy(name);
    // Warm-up: grows the scratch and interns the profiler section names.
    dedup.decide_fleet(*policy, states, out, &scratch);
    plain.decide_fleet(*policy, states, out);

    const std::uint64_t before = testsupport::allocation_count();
    for (int round = 0; round < 50; ++round) {
      policy->decide_batch(states, out);
      plain.decide_fleet(*policy, states, out);
      dedup.decide_fleet(*policy, states, out, &scratch);
    }
    EXPECT_EQ(testsupport::allocation_count() - before, 0u) << name;
  }
  EXPECT_EQ(dedup.stats().batch_reused, 3u * 51u * 16u);
}

}  // namespace
}  // namespace leime::sim
