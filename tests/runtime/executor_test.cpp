#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "runtime/sinks.h"

namespace leime::runtime {
namespace {

sim::ScenarioConfig base_config() {
  const auto profile = models::make_squeezenet();
  sim::ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {4, 8, profile.num_units()});
  sim::DeviceSpec dev;
  dev.mean_rate = 1.0;
  cfg.devices.push_back(dev);
  cfg.duration = 8.0;
  cfg.warmup = 1.0;
  return cfg;
}

// 3 rates x 2 replications = 6 cells, enough to exercise work stealing.
ExperimentPlan small_plan() {
  ExperimentPlan plan(base_config());
  plan.add_axis("rate", {0.5, 1.0, 2.0},
                [](sim::ScenarioConfig& cfg, double v) {
                  cfg.devices[0].mean_rate = v;
                });
  plan.replications(2).base_seed(7);
  return plan;
}

std::string jsonl_without_timing(const ExperimentPlan& plan,
                                 const std::vector<RunRecord>& records) {
  std::ostringstream out;
  JsonlOptions opts;
  opts.include_timing = false;
  write_jsonl(out, plan.axis_names(), records, opts);
  return out.str();
}

// The determinism contract from the issue: the collected RunRecord set is
// byte-identical (timing telemetry aside) whether the plan runs on one
// worker or four.
TEST(Executor, FourThreadsMatchOneThreadByteForByte) {
  const auto plan = small_plan();
  ExecutorOptions one, four;
  one.threads = 1;
  four.threads = 4;
  const auto a = Executor(one).run(plan);
  const auto b = Executor(four).run(plan);
  ASSERT_EQ(a.size(), b.size());
  const auto text_a = jsonl_without_timing(plan, a);
  const auto text_b = jsonl_without_timing(plan, b);
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, text_b);
  // And the runs actually simulated something.
  for (const auto& rec : a) EXPECT_GT(rec.result.completed, 0u);
}

TEST(Executor, RecordsComeBackInPlanOrder) {
  ExecutorOptions opts;
  opts.threads = 4;
  const auto plan = small_plan();
  const auto records = Executor(opts).run(plan);
  const auto cells = plan.expand();
  ASSERT_EQ(records.size(), cells.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].cell_index, i);
    EXPECT_EQ(records[i].labels, cells[i].labels);
    EXPECT_EQ(records[i].seed, cells[i].config.seed);
    EXPECT_EQ(records[i].replication, cells[i].replication);
    EXPECT_GE(records[i].end_s, records[i].start_s);
    EXPECT_GE(records[i].worker, 0);
  }
}

TEST(Executor, ReplicationsVaryTheOutcome) {
  const auto records = Executor().run(small_plan());
  // Same grid point, different seed streams -> different draws.
  EXPECT_NE(records[0].seed, records[1].seed);
  EXPECT_NE(records[0].result.tct.mean, records[1].result.tct.mean);
}

TEST(Executor, ProgressCallbackCountsEveryCell) {
  ExecutorOptions opts;
  opts.threads = 2;
  std::vector<std::size_t> done_values;
  std::size_t seen_total = 0;
  opts.on_cell_done = [&](std::size_t done, std::size_t total) {
    done_values.push_back(done);
    seen_total = total;
  };
  const auto plan = small_plan();
  Executor(opts).run(plan);
  EXPECT_EQ(done_values.size(), plan.num_cells());
  EXPECT_EQ(seen_total, plan.num_cells());
  // Every completion count appears exactly once (callback is serialized).
  std::vector<std::size_t> expected;
  for (std::size_t i = 1; i <= plan.num_cells(); ++i) expected.push_back(i);
  std::sort(done_values.begin(), done_values.end());
  EXPECT_EQ(done_values, expected);
}

TEST(Executor, WorkerExceptionsPropagate) {
  auto cfg = base_config();
  cfg.devices.clear();  // run_scenario rejects device-less scenarios
  ExperimentPlan plan(cfg);
  plan.replications(3);
  ExecutorOptions opts;
  opts.threads = 2;
  EXPECT_THROW(Executor(opts).run(plan), std::invalid_argument);
}

TEST(Executor, ResolveThreads) {
  EXPECT_EQ(Executor::resolve_threads(3), 3);
  EXPECT_GE(Executor::resolve_threads(0), 1);
  EXPECT_GE(Executor::resolve_threads(-1), 1);
}

TEST(Executor, AutoThreadCellsSplitTheHostBetweenWorkers) {
  // Any cell in auto mode — sharded or not, since a single-queue cell
  // solves large decision rounds on a pool of its own — gets
  // hardware_concurrency / workers threads; explicit counts stay.
  for (const int hw : {1, 4, 64})
    for (const int workers : {1, 2, 3, hw, 2 * hw})
      EXPECT_EQ(Executor::cell_threads(0, workers, hw),
                std::max(1, hw / workers))
          << hw << " hw threads, " << workers << " workers";
  EXPECT_EQ(Executor::cell_threads(3, 2, 4), 3);
  EXPECT_EQ(Executor::cell_threads(1, 8, 4), 1);
}

// On a 512-thread host an auto cell under one worker gets a budget above
// the pool cap (sim::resolve_pool_threads clamps the pool it starts); the
// cell must be accepted and match a one-thread run. The fleet is far
// below kParallelDecideMin, so no pool thread is started.
TEST(Executor, CellsRunOnHostsWiderThanThePoolCap) {
  const auto plan = small_plan();
  ExecutorOptions one;
  one.threads = 1;
  std::string want;
  for (const int threads : {1, Executor::cell_threads(0, 1, 512)}) {
    auto cells = plan.expand();
    for (auto& cell : cells) cell.config.shards.threads = threads;
    std::vector<RunRecord> got;
    ASSERT_NO_THROW(got = Executor(one).run(std::move(cells)))
        << threads << " threads";
    const auto text = jsonl_without_timing(plan, got);
    if (want.empty())
      want = text;
    else
      EXPECT_EQ(text, want) << threads << " threads";
  }
  EXPECT_FALSE(want.empty());
}

}  // namespace
}  // namespace leime::runtime
