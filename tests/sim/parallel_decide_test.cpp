// Parallel slot-decision rounds (sim/parallel_decide.h, DESIGN.md §12.3)
// are an execution strategy, not a model change. A round split into chunks
// across the pool must give the decisions of one serial decide_batch call
// bit for bit, and throw its exception; a whole run must give the same
// SimResult and runtime JSONL bytes for any [shards] threads count, across
// LEIME (eq. 19), LEIME-balance (eq. 20) and LEIME+fallback with faults,
// a routed fabric and observability with provenance on.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/sinks.h"
#include "sim/observer.h"
#include "sim/parallel_decide.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/units.h"

namespace leime::sim {
namespace {

const core::MeDnnPartition& test_partition() {
  static const core::MeDnnPartition partition = [] {
    const auto profile = models::make_squeezenet();
    return core::make_partition(profile, {4, 8, profile.num_units()});
  }();
  return partition;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random states with edge-unavailable runs of 1 to 40 devices, so the
/// fallback wrapper's runs straddle chunk boundaries.
std::vector<core::DeviceSlotState> random_states(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::DeviceSlotState> states(n);
  bool available = true;
  std::size_t run_left = 0;
  for (auto& s : states) {
    if (run_left == 0) {
      available = !available;
      run_left = static_cast<std::size_t>(rng.uniform(1.0, 41.0));
    }
    --run_left;
    s.partition = &test_partition();
    s.device_flops = rng.uniform(1e9, 4e10);
    s.edge_share_flops = rng.uniform(1e9, 1e11);
    s.bandwidth = rng.uniform(1e5, 2e7);
    s.latency = rng.uniform(0.001, 0.1);
    s.queue_device = rng.uniform(0.0, 20.0);
    s.queue_edge = rng.uniform(0.0, 20.0);
    s.arrivals = rng.uniform(0.0, 5.0);
    s.edge_available = available;
  }
  return states;
}

TEST(ParallelDecide, SolveMatchesOneSerialBatchBitForBit) {
  for (const char* name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    const auto policy = core::make_policy(name);
    for (const std::size_t n :
         {kParallelDecideMin - 1, kParallelDecideMin + 1, std::size_t{9001}}) {
      const auto states = random_states(n, n);
      std::vector<double> serial(n);
      policy->decide_batch(states, serial);
      for (const int threads : {1, 2, 3, 4, 7}) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                     " threads=" + std::to_string(threads));
        ParallelDecide decide(threads);
        std::vector<double> out(n, -1.0);
        decide.solve(*policy, states, out);
        EXPECT_EQ(decide.pool_threads(),
                  threads > 1 && n >= kParallelDecideMin ? threads : 0);
        std::size_t differ = 0;
        for (std::size_t i = 0; i < n; ++i)
          differ += bits(out[i]) != bits(serial[i]);
        EXPECT_EQ(differ, 0u);
      }
    }
  }
}

TEST(ParallelDecide, RethrowsTheSerialCallsException) {
  const auto policy = core::make_policy("LEIME");
  auto states = random_states(9000, 3);
  for (auto& s : states) s.edge_available = true;
  states[8000].partition = nullptr;  // a later chunk: "null partition"
  ParallelDecide decide(4);
  std::vector<double> out(states.size());
  for (const bool early_too : {false, true}) {
    if (early_too) states[5000].device_flops = 0.0;  // "non-positive FLOPS"
    std::string serial;
    try {
      policy->decide_batch(states, out);
    } catch (const std::invalid_argument& e) {
      serial = e.what();
    }
    ASSERT_FALSE(serial.empty());
    for (int rep = 0; rep < 20; ++rep) {
      try {
        decide.solve(*policy, states, out);
        ADD_FAILURE() << "solve() returned normally";
      } catch (const std::invalid_argument& e) {
        ASSERT_EQ(serial, e.what()) << "repetition " << rep;
      }
    }
  }
  EXPECT_THROW(decide.solve(*policy, states, std::span<double>(out).first(1)),
               std::invalid_argument);
}

/// A fleet large enough that every round solves more than
/// kParallelDecideMin states, with link outages over a contiguous device
/// range (an edge-unavailable run across chunk boundaries), random link
/// outages, an edge crash, a routed fabric and metrics + provenance.
ScenarioConfig big_fleet(const std::string& policy) {
  ScenarioConfig cfg;
  cfg.partition = test_partition();
  const int n = 6000;
  for (int i = 0; i < n; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * (1.0 + 0.1 * (i % 7));
    dev.mean_rate = 0.8 + 0.1 * (i % 5);
    dev.uplink_bw = util::mbps(8.0 + 2.0 * (i % 4));
    dev.difficulty = 0.9 + 0.05 * (i % 3);
    cfg.devices.push_back(dev);
  }
  cfg.policy = policy;
  cfg.edge_flops *= 50.0;
  cfg.lyapunov.tau = 0.5;
  cfg.duration = 2.5;
  cfg.warmup = 0.5;
  cfg.seed = 41;
  cfg.topology.aps = 8;
  cfg.topology.ap_bandwidth = util::mbps(400.0);
  cfg.topology.ap_latency = util::ms(2.0);
  for (int d = 200; d < 900; ++d)
    cfg.faults.link.windows.push_back({0.6, 1.9, d});
  cfg.faults.link.rate = 0.05;
  cfg.faults.link.mean_duration = 0.5;
  cfg.faults.edge.windows = {{1.6, 2.1, -1}};
  cfg.faults.degradation.detection_timeout = 0.1;
  cfg.obs.metrics = true;
  cfg.obs.provenance.sample_n = 7;
  cfg.obs.provenance.oracle_sample_n = 3;
  return cfg;
}

/// Counts each slot's solved decisions.
class RoundSizes final : public Observer {
 public:
  void on_slot_decision(int /*device*/, double t,
                        const SlotTelemetry& tel) override {
    if (tel.solved) ++solved[t];
  }
  std::map<double, std::size_t> solved;
};

std::string jsonl(const std::vector<runtime::RunRecord>& records) {
  runtime::JsonlOptions opts;
  opts.include_timing = false;
  std::ostringstream out;
  runtime::write_jsonl(out, {"policy"}, records, opts);
  return out.str();
}

TEST(ParallelDecide, RunsAreByteIdenticalAtAnyThreadCount) {
  for (const char* policy : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    SCOPED_TRACE(policy);
    {
      // The fleet really crosses the threshold, round after round.
      ScenarioConfig cfg = big_fleet(policy);
      RoundSizes sizes;
      cfg.observer = &sizes;
      run_scenario(cfg);
      std::size_t parallel = 0;
      for (const auto& [t, solved] : sizes.solved)
        parallel += solved >= kParallelDecideMin;
      EXPECT_GE(parallel, 4u) << "of " << sizes.solved.size() << " rounds";
    }
    std::string reference;
    std::vector<runtime::RunRecord> first;
    for (const int threads : {1, 2, 3, 4, 7}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      runtime::Cell cell{0, {policy}, 0, big_fleet(policy)};
      cell.config.shards.threads = threads;
      const auto records = runtime::Executor().run({cell});
      const SimResult& r = records.front().result;
      ASSERT_TRUE(r.provenance.active);
      ASSERT_GT(r.faults.link_outages, 0u);
      ASSERT_TRUE(r.net.active);
      if (threads == 1) {
        reference = jsonl(records);
        first = records;
        continue;
      }
      EXPECT_EQ(jsonl(records), reference);
      const SimResult& a = first.front().result;
      ASSERT_EQ(a.per_device.size(), r.per_device.size());
      for (std::size_t i = 0; i < a.per_device.size(); ++i) {
        const auto& x = a.per_device[i];
        const auto& y = r.per_device[i];
        ASSERT_EQ(bits(x.mean_offload_ratio), bits(y.mean_offload_ratio))
            << "device " << i;
        ASSERT_EQ(bits(x.tct.p95), bits(y.tct.p95)) << "device " << i;
        ASSERT_EQ(x.fallback_slots, y.fallback_slots) << "device " << i;
      }
      EXPECT_EQ(bits(a.mean_device_queue), bits(r.mean_device_queue));
      EXPECT_EQ(bits(a.mean_edge_queue), bits(r.mean_edge_queue));
      ASSERT_EQ(a.timeline.size(), r.timeline.size());
      for (std::size_t i = 0; i < a.timeline.size(); ++i)
        EXPECT_EQ(bits(a.timeline[i].mean_tct), bits(r.timeline[i].mean_tct));
    }
  }
}

}  // namespace
}  // namespace leime::sim
