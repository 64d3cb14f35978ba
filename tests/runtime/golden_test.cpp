// Golden determinism regression: a fixed-seed experiment plan (faults off
// and on) rendered through the JSONL sink must reproduce the committed
// snapshot byte for byte, at any executor thread count. Catches silent
// drift in the simulator's event ordering, the fault layer's RNG usage and
// the sink's number formatting alike.
//
// To refresh the snapshot after an intentional behaviour change:
//   LEIME_REGEN_GOLDEN=1 ./build/tests/runtime_test
// (optionally with --gtest_filter='Golden.*') and commit the new file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/partition.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/experiment_plan.h"
#include "runtime/sinks.h"

#ifndef LEIME_GOLDEN_DIR
#define LEIME_GOLDEN_DIR "tests/golden"
#endif

namespace leime::runtime {
namespace {

sim::ScenarioConfig golden_base() {
  // Hand-picked exit combo (no branch-and-bound in the loop): the snapshot
  // should only depend on the simulator and the sink.
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  sim::DeviceSpec pi;
  pi.flops = core::kRaspberryPiFlops;
  pi.mean_rate = 0.6;
  sim::DeviceSpec nano;
  nano.flops = core::kJetsonNanoFlops;
  nano.mean_rate = 0.9;
  nano.uplink_bw = util::mbps(20.0);
  nano.uplink_lat = util::ms(15.0);
  cfg.devices = {pi, nano};
  cfg.policy = "LEIME+fallback";
  cfg.duration = 25.0;
  cfg.warmup = 2.0;
  return cfg;
}

ExperimentPlan golden_plan(const sim::ScenarioConfig& base) {
  ExperimentPlan plan(base);
  plan.add_axis(
      "injection",
      {{"off", [](sim::ScenarioConfig&) {}},
       {"on", [](sim::ScenarioConfig& cfg) {
          cfg.faults.edge.windows = {{8.0, 14.0}};
          cfg.faults.link.windows = {{5.0, 9.0, /*device=*/0}};
          cfg.faults.edge.rate = 0.01;
          cfg.faults.churn.events = {{1, 12.0, 18.0}};
          cfg.faults.degradation.detection_timeout = 0.5;
          cfg.faults.degradation.task_timeout = 3.0;
          cfg.faults.degradation.probe_period = 0.5;
        }}});
  plan.replications(2).base_seed(20240131);
  return plan;
}

std::string render(int threads, const sim::ScenarioConfig& base) {
  ExecutorOptions opts;
  opts.threads = threads;
  const auto records = Executor(opts).run(golden_plan(base));
  JsonlOptions jopts;
  jopts.include_timing = false;
  std::ostringstream out;
  write_jsonl(out, {"injection"}, records, jopts);
  return out.str();
}

std::string render(int threads) { return render(threads, golden_base()); }

TEST(Golden, JsonlSnapshotIsByteStableAtAnyThreadCount) {
  const std::string path =
      std::string(LEIME_GOLDEN_DIR) + "/runtime_faults.jsonl";
  const auto serial = render(1);
  EXPECT_EQ(serial, render(3))
      << "executor thread count changed the collected bytes";

  if (std::getenv("LEIME_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << serial;
    ASSERT_TRUE(out.good()) << "could not write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden snapshot " << path
      << " (run once with LEIME_REGEN_GOLDEN=1 to create it)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(serial, golden.str())
      << "simulator output drifted from the committed snapshot; if the "
         "change is intentional, rerun with LEIME_REGEN_GOLDEN=1 and commit "
         "the new file";
}

// Sharded execution (DESIGN.md §15) is an execution-strategy choice, not
// a model change: partitioning the fleet across event queues must render
// the exact single-queue bytes through the full plan/executor/sink path —
// fault axis included — for every shard x thread combination. This is the
// golden half of the determinism contract (tests/sim/sharded_test.cpp
// pins the SimResult fields; this pins the serialized output).
TEST(Golden, ShardedExecutionRendersIdenticalBytes) {
  const auto serial = render(1);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    for (const int threads : {1, 4}) {
      sim::ScenarioConfig cfg = golden_base();
      cfg.shards.shards = shards;
      cfg.shards.threads = threads;
      EXPECT_EQ(serial, render(1, cfg))
          << "shards=" << shards << " threads=" << threads
          << " drifted from the single-queue bytes";
    }
  }
  // Shard workers nested inside executor workers: same bytes again.
  sim::ScenarioConfig nested = golden_base();
  nested.shards.shards = 2;
  nested.shards.threads = 2;
  EXPECT_EQ(serial, render(3, nested))
      << "sharding nested under executor threads changed the bytes";
}

// Attribution + SLO ride the same plan-order merge as the metrics
// snapshot, so their JSONL blocks must be byte-identical at any executor
// thread count — and absent entirely when the pillars are off (the golden
// snapshot above pins the disabled bytes).
TEST(Golden, AttributionAndSloBlocksAreThreadCountInvariant) {
  sim::ScenarioConfig obs_on = golden_base();
  obs_on.obs.attribution = true;
  obs_on.obs.slo.deadline = 0.5;
  obs_on.obs.slo.min_window_tasks = 5;
  const auto serial = render(1, obs_on);
  EXPECT_NE(serial.find("\"attribution\":{\"tasks\":"), std::string::npos);
  EXPECT_NE(serial.find("\"slo\":{\"deadline\":"), std::string::npos);
  EXPECT_EQ(serial, render(3, obs_on))
      << "attribution/SLO JSONL depends on the executor thread count";
  // And the pillars never leak into a disabled run's bytes.
  const auto off = render(1);
  EXPECT_EQ(off.find("\"attribution\""), std::string::npos);
  EXPECT_EQ(off.find("\"slo\""), std::string::npos);
}

TEST(Golden, SnapshotCoversFaultsOnAndOff) {
  const auto text = render(1);
  // 2 axis values x 2 replications.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("\"injection\":\"off\""), std::string::npos);
  EXPECT_NE(text.find("\"injection\":\"on\""), std::string::npos);
  // The fault counters ride along in every record.
  EXPECT_NE(text.find("\"failed_over\":"), std::string::npos);
  EXPECT_NE(text.find("\"total_completed\":"), std::string::npos);
  // Timing telemetry must be absent or the bytes could never be stable.
  EXPECT_EQ(text.find("\"worker\""), std::string::npos);
}

}  // namespace
}  // namespace leime::runtime
