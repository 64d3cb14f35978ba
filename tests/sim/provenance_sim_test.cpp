// End-to-end decision provenance (DESIGN.md §14): the pillar must not
// perturb the run, its summary rides SimResult into thread-count-invariant
// runtime JSONL, an SLO fire dumps the flight-recorder window, and the
// dumped records honor the regret contracts (regret >= 0 everywhere,
// memo-hit decisions exactly equal to their oracle cost).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "models/zoo.h"
#include "policy/engine.h"
#include "runtime/executor.h"
#include "runtime/experiment_plan.h"
#include "runtime/sinks.h"
#include "sim/observer.h"
#include "sim/simulation.h"

namespace leime::sim {
namespace {

ScenarioConfig small_fleet(int devices = 2) {
  const auto profile = models::make_inception_v3();
  ScenarioConfig cfg;
  cfg.partition = core::make_partition(profile, {3, 10, profile.num_units()});
  for (int i = 0; i < devices; ++i) {
    DeviceSpec d;
    d.mean_rate = 2.0;
    cfg.devices.push_back(d);
  }
  cfg.duration = 30.0;
  cfg.warmup = 2.0;
  return cfg;
}

/// Value text right after `"key":` on a single-line JSON object.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  std::size_t v = pos + needle.size();
  if (line[v] == '"') {
    const auto end = line.find('"', v + 1);
    return line.substr(v + 1, end - v - 1);
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(v, end - v);
}

TEST(ProvenanceSim, DoesNotPerturbTheRunAndRidesSimResult) {
  auto cfg = small_fleet();
  const auto off = run_scenario(cfg);
  EXPECT_FALSE(off.provenance.active);

  const std::string dir = ::testing::TempDir();
  cfg.obs.provenance.sample_n = 1;
  cfg.obs.provenance.oracle_sample_n = 2;
  cfg.obs.provenance.decisions_out = dir + "prov_decisions.jsonl";
  const auto on = run_scenario(cfg);

  // Null-object contract: the pillar consumes no randomness and schedules
  // no events, so every simulated outcome is bit-identical.
  EXPECT_EQ(on.generated, off.generated);
  EXPECT_EQ(on.total_completed, off.total_completed);
  EXPECT_DOUBLE_EQ(on.tct.mean, off.tct.mean);
  EXPECT_DOUBLE_EQ(on.tct.p95, off.tct.p95);
  EXPECT_DOUBLE_EQ(on.mean_offload_ratio, off.mean_offload_ratio);

  ASSERT_TRUE(on.provenance.active);
  EXPECT_GT(on.provenance.decisions, 0u);
  EXPECT_EQ(on.provenance.sampled, on.provenance.decisions);  // 1-in-1
  EXPECT_GT(on.provenance.oracle_runs, 0u);
  EXPECT_LT(on.provenance.oracle_runs, on.provenance.sampled);  // 1-in-2
  // Per-slot decisions run the direct path.
  EXPECT_EQ(on.provenance.paths[static_cast<std::size_t>(
                obs::DecisionPath::kDirect)],
            on.provenance.sampled);

  std::ifstream decisions(cfg.obs.provenance.decisions_out);
  ASSERT_TRUE(decisions.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(decisions, line)) {
    ++lines;
    EXPECT_EQ(field(line, "type"), "decision");
    EXPECT_EQ(field(line, "kind"), "offload");
    // Every oracle-checked record satisfies regret >= 0 by construction.
    const auto regret = field(line, "regret");
    if (regret != "null") {
      EXPECT_GE(std::stod(regret), 0.0);
    }
  }
  // The export is the bounded window, not an unbounded log.
  EXPECT_GT(lines, 0u);
  EXPECT_LE(lines, cfg.obs.provenance.ring_capacity);
  std::remove(cfg.obs.provenance.decisions_out.c_str());
}

// The PR's acceptance scenario: an impossible deadline fires the SLO
// monitor, which dumps the flight recorder; the dump's records must all
// have regret >= 0, and warm-started decisions must equal their oracle
// cost *exactly* (string-identical round-trip serialization, i.e.
// bit-equal).
TEST(ProvenanceSim, SloFireDumpsFlightRecorderHonoringRegretContracts) {
  auto cfg = small_fleet();
  const std::string dir = ::testing::TempDir();
  ObsConfig obs_cfg;
  obs_cfg.provenance.sample_n = 1;
  obs_cfg.provenance.oracle_sample_n = 1;
  obs_cfg.provenance.ring_capacity = 4096;  // keep every decision in window
  obs_cfg.provenance.dump_out = dir + "prov_flight.jsonl";
  obs_cfg.slo.deadline = 1e-4;  // every completion misses
  obs_cfg.slo.window = 10.0;
  obs_cfg.slo.target_miss_rate = 0.01;
  obs_cfg.slo.burn_threshold = 1.0;
  obs_cfg.slo.min_window_tasks = 5;
  RecordingObserver obs(obs_cfg, cfg.devices.size(), {"cam", "cam"});

  // Seed the flight recorder with engine decisions: a cold search and a
  // warm-started search of the same observation, both oracle-checked.
  policy::Config pol;
  pol.warm_start = true;
  policy::Engine engine(pol);
  engine.attach_provenance(obs.provenance());
  const auto profile = models::make_inception_v3();
  const core::CostModel cm(profile, core::testbed_environment());
  policy::Incumbent incumbent;
  const auto first = engine.exit_setting(cm, &incumbent);
  const auto warm = engine.exit_setting(cm, &incumbent);
  EXPECT_EQ(warm.combo, first.combo);
  EXPECT_EQ(warm.cost, first.cost);

  cfg.observer = &obs;
  const auto r = run_scenario(cfg);
  ASSERT_GT(r.completed, 20u);
  const auto sum = obs.provenance_summary();
  ASSERT_TRUE(sum.active);
  EXPECT_GE(sum.dumps, 1u);
  EXPECT_EQ(
      sum.paths[static_cast<std::size_t>(obs::DecisionPath::kWarmStart)], 1u);
  EXPECT_EQ(sum.paths[static_cast<std::size_t>(obs::DecisionPath::kCold)],
            1u);
  // Oracle on every sample and zero regret histogram mass above zero for
  // exit settings (the §12 bit-identity watchdog).
  const auto& exit_hist = sum.kind_regret[static_cast<std::size_t>(
      obs::DecisionKind::kExitSetting)];
  EXPECT_EQ(exit_hist.stats().count(), 2u);
  EXPECT_DOUBLE_EQ(exit_hist.stats().max(), 0.0);

  std::ifstream dump(obs_cfg.provenance.dump_out);
  ASSERT_TRUE(dump.good());
  std::string line;
  std::size_t alerts = 0, decisions = 0, warm_starts = 0;
  while (std::getline(dump, line)) {
    const auto type = field(line, "type");
    if (type == "alert") {
      ++alerts;
      EXPECT_EQ(field(line, "class"), "cam");
      EXPECT_GE(std::stod(field(line, "burn")), 1.0);
    } else if (type == "decision") {
      ++decisions;
      const auto regret = field(line, "regret");
      ASSERT_NE(regret, "null");  // 1-in-1 oracle: every record checked
      EXPECT_GE(std::stod(regret), 0.0);
      if (field(line, "path") == "warm_start") {
        ++warm_starts;
        // Exact equality: the serialized numbers are shortest-round-trip,
        // so identical text means identical doubles.
        EXPECT_EQ(field(line, "cost"), field(line, "oracle_cost"));
        EXPECT_EQ(regret, "0");
        // The record reports the warm search's own work.
        EXPECT_EQ(field(line, "explored"), std::to_string(warm.evaluations));
      }
    }
  }
  EXPECT_EQ(alerts, sum.dumps);
  EXPECT_GT(decisions, 2u);
  EXPECT_EQ(warm_starts, 1u);
  std::remove(obs_cfg.provenance.dump_out.c_str());
}

// The runtime contract: per-cell provenance summaries ride RunRecord and
// the JSONL sink renders identical bytes for any executor thread count
// (plan-order merge, no wall-clock in the deterministic stream).
TEST(ProvenanceSim, RuntimeJsonlIsThreadCountInvariant) {
  auto cfg = small_fleet(1);
  cfg.duration = 8.0;
  cfg.warmup = 1.0;
  cfg.obs.provenance.sample_n = 2;
  cfg.obs.provenance.oracle_sample_n = 4;
  runtime::ExperimentPlan plan(cfg);
  plan.replications(4).base_seed(11);

  runtime::ExecutorOptions one, four;
  one.threads = 1;
  four.threads = 4;
  const auto a = runtime::Executor(one).run(plan);
  const auto b = runtime::Executor(four).run(plan);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (const auto& rec : a) {
    ASSERT_TRUE(rec.result.provenance.active);
    EXPECT_GT(rec.result.provenance.sampled, 0u);
  }

  runtime::JsonlOptions opts;
  opts.include_timing = false;
  std::ostringstream text_a, text_b;
  runtime::write_jsonl(text_a, plan.axis_names(), a, opts);
  runtime::write_jsonl(text_b, plan.axis_names(), b, opts);
  EXPECT_FALSE(text_a.str().empty());
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_NE(text_a.str().find("\"provenance\":{\"decisions\":"),
            std::string::npos);

  // Disabled runs keep their exact prior bytes: no provenance key at all.
  auto plain_cfg = cfg;
  plain_cfg.obs.provenance = {};
  runtime::ExperimentPlan plain(plain_cfg);
  plain.replications(2).base_seed(11);
  const auto c = runtime::Executor(one).run(plain);
  std::ostringstream text_c;
  runtime::write_jsonl(text_c, plain.axis_names(), c, opts);
  EXPECT_EQ(text_c.str().find("provenance"), std::string::npos);
}

}  // namespace
}  // namespace leime::sim
