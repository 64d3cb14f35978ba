// A run's allocations past its build do not grow with the fleet: at a
// fixed number of tasks per device, doubling the devices adds at most a
// few (the growth steps of the run-wide task buffers), not an allocation
// per device. Run allocations are counted as the repository benchmark's
// sim.allocs_per_event counts them: a full run minus a near-zero-horizon
// run of the same fleet, which pays the same build.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/partition.h"
#include "models/zoo.h"
#include "sim/simulation.h"
#include "support/alloc_hooks.h"
#include "util/units.h"

namespace leime::sim {
namespace {

ScenarioConfig fleet(std::size_t n, const std::string& policy,
                     double duration) {
  const auto profile = models::make_squeezenet();
  ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  for (std::size_t i = 0; i < n; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * (1.0 + 0.1 * (i % 3));
    dev.mean_rate = 2.0;
    dev.arrival = ArrivalKind::kPeriodic;  // a fixed task count per device
    cfg.devices.push_back(dev);
  }
  cfg.policy = policy;
  cfg.edge_flops *= static_cast<double>(n);
  cfg.edge_cloud_bw *= static_cast<double>(n);
  cfg.duration = duration;
  cfg.warmup = duration > 1.0 ? 1.0 : 0.0;
  cfg.seed = 5;
  return cfg;
}

std::uint64_t allocations(const ScenarioConfig& cfg, std::size_t* tasks) {
  const std::uint64_t before = testsupport::allocation_count();
  const SimResult r = run_scenario(cfg);
  const std::uint64_t n = testsupport::allocation_count() - before;
  if (tasks) *tasks = r.generated;
  return n;
}

/// Allocations of the run beyond its build probe, and its task count.
std::uint64_t run_allocations(std::size_t n, const std::string& policy,
                              std::size_t* tasks) {
  const std::uint64_t full = allocations(fleet(n, policy, 8.0), tasks);
  return full - allocations(fleet(n, policy, 1e-3), nullptr);
}

TEST(RunAlloc, RunAllocationsDoNotGrowWithDeviceCount) {
  for (const char* policy : {"LEIME", "D-only"}) {
    SCOPED_TRACE(policy);
    std::size_t small_tasks = 0, large_tasks = 0;
    const std::uint64_t small = run_allocations(100, policy, &small_tasks);
    const std::uint64_t large = run_allocations(400, policy, &large_tasks);
    ASSERT_EQ(large_tasks, 4 * small_tasks);
    // 4x the devices and tasks: two more doublings of each growing buffer.
    EXPECT_LE(large, small + 8) << "small " << small << ", large " << large;
  }
}

}  // namespace
}  // namespace leime::sim
