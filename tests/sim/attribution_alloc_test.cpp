// Zero-allocation steady state of the attribution pillar (DESIGN.md §13).
//
// With attribution and metrics on, every task lifecycle runs through the
// LatencyLedger (pooled entries, interned ports, hop storage that keeps
// its capacity) and the observer's index-addressed completion fold. Once
// the pool, the index and the port table have grown to working depth, a
// lifecycle must not touch the heap: the global operator new/delete
// counters from tests/support/alloc_hooks.cpp make that a hard assertion.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/observer.h"
#include "support/alloc_hooks.h"

namespace leime::sim {
namespace {

TEST(AttributionAlloc, SteadyStateTaskLifecyclesAllocateNothing) {
  constexpr int kDevices = 64;
  constexpr std::uint64_t kDepth = 512;  // tasks in flight
  ObsConfig cfg;
  cfg.metrics = true;
  cfg.attribution = true;
  std::vector<std::string> classes;
  for (int d = 0; d < kDevices; ++d)
    classes.push_back(d % 3 ? "sensor" : "camera");
  RecordingObserver obs(cfg, kDevices, classes);
  // Port names are built once, as a fabric holds them.
  std::vector<std::string> dev_ports, ap_ports;
  for (int d = 0; d < kDevices; ++d) {
    dev_ports.push_back("dev" + std::to_string(d) + "_ap" +
                        std::to_string(d % 4));
    ap_ports.push_back("ap" + std::to_string(d % 4) + "_edge0");
  }

  // Huge ids: the index is sized to the live set, never to the id.
  const std::uint64_t base = std::uint64_t{1} << 40;
  double t = 0.0;
  std::uint64_t completed = 0;
  // Task `i` is generated and uploads at step i; it computes, returns and
  // completes kDepth steps later, so kDepth tasks are always open. Three
  // tasks in five offload; every 97th task parks instead of completing.
  auto offloads = [](std::uint64_t i) { return i % 5 < 3; };
  auto step = [&](std::uint64_t i) {
    t += 0.01;
    const int dev = static_cast<int>(i % kDevices);
    const bool offloaded = offloads(i);
    if (i % 16 == 0) {
      SlotTelemetry s;
      s.x = 0.5;
      s.pred.valid = true;
      s.pred.uplink = 0.02;
      s.pred.edge_service = 0.01;
      s.pred.local_service = 0.03;
      obs.on_slot_decision(dev, t, s);
    }
    const std::uint64_t id = base + i;
    obs.on_task_generated(id, dev, t, 1, offloaded);
    if (offloaded) {
      obs.on_phase_begin(id, dev, "uplink", "uplink", t, t, 0);
      obs.on_net_hop(id, dev_ports[static_cast<std::size_t>(dev)], t,
                     t + 0.001, t + 0.004);
      obs.on_net_hop(id, ap_ports[static_cast<std::size_t>(dev)], t + 0.004,
                     t + 0.005, t + 0.006);
      obs.on_phase_end(id, t + 0.006);
    } else {
      obs.on_phase_begin(id, dev, "local_block1", "device", t, t + 0.002, 0);
    }
    if (i < kDepth) return;
    const std::uint64_t j = i - kDepth;
    const std::uint64_t old = base + j;
    const int old_dev = static_cast<int>(j % kDevices);
    if (j % 97 == 0) {
      obs.on_task_parked(old, old_dev, t);
      return;
    }
    if (offloads(j)) {
      obs.on_phase_begin(old, old_dev, "edge_block1", "edge", t - 0.003,
                         t - 0.002, 0);
      obs.on_phase_end(old, t - 0.001);
      obs.on_phase_begin(old, old_dev, "return_link", "downlink", t - 0.001,
                         t - 0.001, 0);
      obs.on_net_hop(old, ap_ports[static_cast<std::size_t>(old_dev)],
                     t - 0.001, t - 0.001, t - 0.0005);
      obs.on_net_hop(old, dev_ports[static_cast<std::size_t>(old_dev)],
                     t - 0.0005, t - 0.0004, t);
    }
    obs.on_phase_end(old, t);
    obs.on_task_complete(old, old_dev, static_cast<double>(j) * 0.01 + 0.01,
                         t, 1, 0, true);
    ++completed;
  };

  // Warmup: several depths' worth, so the pool, the index, the port table
  // and every recycled entry's hop capacity reach their high water.
  std::uint64_t i = 0;
  for (; i < 8 * kDepth; ++i) step(i);
  const std::uint64_t completed_warm = completed;

  const std::uint64_t allocs_before = testsupport::allocation_count();
  const std::uint64_t frees_before = testsupport::deallocation_count();
  for (const std::uint64_t end = i + 100000; i < end; ++i) step(i);
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  const std::uint64_t frees = testsupport::deallocation_count() - frees_before;

  EXPECT_EQ(allocs, 0u) << "attribution allocated on the task hot path";
  EXPECT_EQ(frees, 0u) << "attribution freed on the task hot path";
  EXPECT_GT(completed - completed_warm, 98000u);

  // The run really folded hops and calibrations.
  const auto sum = obs.attribution_summary();
  EXPECT_EQ(sum.tasks, completed);
  ASSERT_EQ(sum.classes.size(), 2u);
  EXPECT_EQ(sum.ports.size(), dev_ports.size() + 4);
  EXPECT_GT(sum.calibrated_tasks, 0u);
}

}  // namespace
}  // namespace leime::sim
