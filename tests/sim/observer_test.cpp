#include "sim/observer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "models/zoo.h"
#include "sim/scenario_ini.h"
#include "sim/simulation.h"

#ifndef LEIME_CONFIG_DIR
#error "sim_test must be compiled with LEIME_CONFIG_DIR"
#endif

namespace leime::sim {
namespace {

ScenarioConfig base_scenario(int devices = 2) {
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

const obs::Snapshot::CounterSample& find_counter(const obs::Snapshot& snap,
                                                 const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c;
  throw std::runtime_error("counter not in snapshot: " + name);
}

const obs::Snapshot::GaugeSample& find_gauge(const obs::Snapshot& snap,
                                             const std::string& name) {
  for (const auto& g : snap.gauges)
    if (g.name == name) return g;
  throw std::runtime_error("gauge not in snapshot: " + name);
}

const obs::Snapshot::HistogramSample& find_histogram(
    const obs::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h;
  throw std::runtime_error("histogram not in snapshot: " + name);
}

// RecordingObserver plus per-task ground truth straight from the hooks, so
// the trace spans can be checked against an independent record of each
// task's lifetime.
class GroundTruthObserver : public RecordingObserver {
 public:
  using RecordingObserver::RecordingObserver;

  struct TaskTruth {
    double t_arrive = 0.0;
    double t_complete = -1.0;
    bool counted = false;
  };

  void on_task_generated(std::uint64_t task, int device, double t, int block,
                         bool offloaded) override {
    truth_[task].t_arrive = t;
    RecordingObserver::on_task_generated(task, device, t, block, offloaded);
  }
  void on_task_complete(std::uint64_t task, int device, double t_arrive,
                        double t_complete, int block, int retries,
                        bool counted) override {
    truth_[task].t_complete = t_complete;
    truth_[task].counted = counted;
    EXPECT_DOUBLE_EQ(truth_[task].t_arrive, t_arrive);
    RecordingObserver::on_task_complete(task, device, t_arrive, t_complete,
                                        block, retries, counted);
  }

  const std::map<std::uint64_t, TaskTruth>& truth() const { return truth_; }

 private:
  std::map<std::uint64_t, TaskTruth> truth_;
};

TEST(Observer, EnabledRunMatchesDisabledRun) {
  auto cfg = base_scenario();
  const auto off = run_scenario(cfg);
  cfg.obs.metrics = true;
  cfg.obs.trace_sample = 1;
  cfg.obs.timeseries = true;
  const auto on = run_scenario(cfg);
  // Observation must not perturb the simulation: every aggregate is
  // bit-identical, only the metrics snapshot differs.
  EXPECT_EQ(on.generated, off.generated);
  EXPECT_EQ(on.total_completed, off.total_completed);
  EXPECT_DOUBLE_EQ(on.tct.mean, off.tct.mean);
  EXPECT_DOUBLE_EQ(on.tct.p95, off.tct.p95);
  EXPECT_DOUBLE_EQ(on.mean_offload_ratio, off.mean_offload_ratio);
  EXPECT_DOUBLE_EQ(on.mean_device_queue, off.mean_device_queue);
  EXPECT_TRUE(off.metrics.empty());
  EXPECT_FALSE(on.metrics.empty());
}

TEST(Observer, MetricsMatchSimResult) {
  auto cfg = base_scenario();
  cfg.obs.metrics = true;
  const auto r = run_scenario(cfg);
  const auto& snap = r.metrics;
  EXPECT_EQ(find_counter(snap, "leime_tasks_generated_total").value,
            r.generated);
  EXPECT_EQ(find_counter(snap, "leime_tasks_completed_total").value,
            r.total_completed);
  const auto& tct = find_histogram(snap, "leime_task_tct_seconds");
  EXPECT_EQ(tct.stats.count(), r.completed);
  EXPECT_NEAR(tct.stats.mean(), r.tct.mean, 1e-9);
  EXPECT_DOUBLE_EQ(tct.stats.max(), r.tct.max);
  EXPECT_DOUBLE_EQ(find_gauge(snap, "leime_edge_up").value, 1.0);
  EXPECT_GT(find_counter(snap, "leime_slot_decisions_total").value, 0u);
  // The per-device slot memo (policy/slot_memo.h) solves at most every
  // decision; the rest reuse the device's previous slot.
  EXPECT_LE(find_counter(snap, "leime_slot_decisions_solved_total").value,
            find_counter(snap, "leime_slot_decisions_total").value);
}

TEST(Observer, OneSlotRunSolvesEveryDecision) {
  // A one-slot horizon has two decision rounds: the initial one and the
  // tick closing the slot. The memo is empty for the first; for the second
  // every device's arrival estimate moves from the initial
  // max(1, rate·τ) = 1 to 0.5·(n + rate·τ) = 0.5·n + 0.25 for an integer
  // arrival count n, never 1 again, so the memo has nothing to reuse.
  auto cfg = base_scenario(3);
  for (auto& d : cfg.devices) d.mean_rate = 0.5 / cfg.lyapunov.tau;
  cfg.duration = cfg.lyapunov.tau;
  cfg.warmup = 0.0;
  cfg.obs.metrics = true;
  const auto snap = run_scenario(cfg).metrics;
  const auto decisions =
      find_counter(snap, "leime_slot_decisions_total").value;
  EXPECT_EQ(decisions, 2 * cfg.devices.size());
  EXPECT_EQ(find_counter(snap, "leime_slot_decisions_solved_total").value,
            decisions);
}

// The acceptance contract of the tracing pillar: running wild_faults.ini
// with every task traced, each task's span window reconstructs its TCT —
// first span opens at the arrival time, last span closes at the completion
// time — and the reconstructed population reproduces SimResult::tct.
TEST(Observer, WildFaultsTraceReconstructsTct) {
  auto scenario =
      load_scenario_file(std::string(LEIME_CONFIG_DIR) + "/wild_faults.ini");
  auto cfg = scenario.config;
  ObsConfig obs_cfg;
  obs_cfg.trace_sample = 1;
  GroundTruthObserver obs(obs_cfg, cfg.devices.size());
  cfg.observer = &obs;
  const auto r = run_scenario(cfg);
  ASSERT_GT(r.generated, 100u);

  // Group spans per task.
  std::map<std::uint64_t, std::pair<double, double>> window;  // begin, end
  for (const auto& span : obs.trace().spans()) {
    auto [it, inserted] = window.emplace(
        span.task_id, std::make_pair(span.t_begin, span.t_end));
    if (!inserted) {
      it->second.first = std::min(it->second.first, span.t_begin);
      it->second.second = std::max(it->second.second, span.t_end);
    }
  }

  util::RunningStats reconstructed;
  std::vector<double> tcts;
  for (const auto& [task, truth] : obs.truth()) {
    if (truth.t_complete < 0.0) continue;  // parked / still in flight
    auto it = window.find(task);
    ASSERT_NE(it, window.end()) << "completed task " << task << " untraced";
    EXPECT_NEAR(it->second.first, truth.t_arrive, 1e-9);
    EXPECT_NEAR(it->second.second, truth.t_complete, 1e-9);
    const double tct = it->second.second - it->second.first;
    EXPECT_NEAR(tct, truth.t_complete - truth.t_arrive, 1e-9);
    if (truth.counted) {
      reconstructed.add(tct);
      tcts.push_back(tct);
    }
  }
  // The reconstructed population reproduces the SimResult latency summary.
  ASSERT_EQ(reconstructed.count(), r.tct.count);
  EXPECT_NEAR(reconstructed.mean(), r.tct.mean, 1e-9);
  EXPECT_NEAR(reconstructed.min(), r.tct.min, 1e-9);
  EXPECT_NEAR(reconstructed.max(), r.tct.max, 1e-9);
}

TEST(Observer, TraceSamplerTracesExactlyOneInN) {
  auto cfg = base_scenario(1);
  ObsConfig obs_cfg;
  obs_cfg.trace_sample = 4;
  RecordingObserver obs(obs_cfg, cfg.devices.size());
  cfg.observer = &obs;
  run_scenario(cfg);
  ASSERT_FALSE(obs.trace().spans().empty());
  for (const auto& span : obs.trace().spans())
    EXPECT_EQ(span.task_id % 4, 0u);
}

// The time-series pillar samples Q_i/H_i at exactly the slot granularity
// of the eq. 10-11 queue recursions: between consecutive samples the
// backlog can grow by at most the slot's kept arrivals and shrink by at
// most the service capacity of one slot.
TEST(Observer, SlotSeriesObeysQueueRecursionBounds) {
  auto cfg = base_scenario(2);
  cfg.duration = 40.0;
  cfg.devices[0].mean_rate = 3.0;  // enough load to build a queue
  ObsConfig obs_cfg;
  obs_cfg.timeseries = true;
  RecordingObserver obs(obs_cfg, cfg.devices.size());
  cfg.observer = &obs;
  const auto r = run_scenario(cfg);

  const double tau = cfg.lyapunov.tau;
  std::uint64_t sampled_arrivals = 0;
  for (int d = 0; d < 2; ++d) {
    const auto series = obs.timeseries().device_series(d);
    ASSERT_GT(series.size(), 30u);
    // eq. 10: at most floor(tau F_d / mu1) block-1 jobs finish on the
    // device per slot (+1 for the one in service across the boundary).
    const double b_max =
        std::floor(tau * cfg.devices[d].flops / cfg.partition.mu1) + 1.0;
    std::uint64_t cum_offloaded = 0;
    for (std::size_t k = 0; k < series.size(); ++k) {
      const auto& s = series[k];
      EXPECT_EQ(s.device, d);
      EXPECT_GE(s.x, 0.0);
      EXPECT_LE(s.x, 1.0);
      EXPECT_GE(s.penalty, 0.0);
      sampled_arrivals += s.kept_arrivals + s.offloaded_arrivals;
      cum_offloaded += s.offloaded_arrivals;
      // eq. 11 upper bound: the edge backlog for this device can never
      // exceed what has been offloaded so far.
      EXPECT_LE(s.h, static_cast<double>(cum_offloaded));
      if (k == 0) continue;
      const auto& prev = series[k - 1];
      EXPECT_NEAR(s.t - prev.t, tau, 1e-9);  // slot granularity
      // Q_i(t+1) <= Q_i(t) + kept arrivals (service only removes) ...
      EXPECT_LE(s.q, prev.q + static_cast<double>(s.kept_arrivals) + 1e-9);
      // ... and >= Q_i(t) + kept - b_i (eq. 10 max-service drain).
      EXPECT_GE(s.q, prev.q + static_cast<double>(s.kept_arrivals) - b_max -
                         1e-9);
      // Edge drain bound: block-1 and block-2 jobs share the edge slice,
      // so at most floor(tau f_i^e / mu_min) + 1 jobs finish per slot.
      const double mu_min = std::min(cfg.partition.mu1, cfg.partition.mu2);
      const double c_max =
          std::floor(tau * s.edge_share_flops / mu_min) + 1.0;
      EXPECT_GE(s.h + c_max + 1e-9, prev.h);
    }
  }
  // Every sampled arrival is a generated task (the trailing partial slot
  // after the last tick is the only part of the run never sampled).
  EXPECT_LE(sampled_arrivals, r.generated);
  EXPECT_GT(sampled_arrivals, r.generated * 9 / 10);
}

TEST(Observer, FaultHooksDriveCountersGaugesAndMarks) {
  auto cfg = base_scenario(2);
  cfg.duration = 40.0;
  cfg.faults.edge.windows = {{10.0, 18.0, -1}};
  cfg.faults.churn.events = {{1, 12.0, 25.0}};
  cfg.obs.metrics = true;
  cfg.obs.trace_sample = 1;

  ObsConfig obs_cfg = cfg.obs;
  RecordingObserver obs(obs_cfg, cfg.devices.size());
  cfg.observer = &obs;
  const auto r = run_scenario(cfg);

  const auto snap = obs.registry().snapshot();
  EXPECT_EQ(find_counter(snap, "leime_fault_edge_crashes_total").value,
            r.faults.edge_crashes);
  EXPECT_EQ(find_counter(snap, "leime_fault_churn_events_total").value,
            r.faults.churn_events);
  EXPECT_GE(r.faults.churn_events, 2u);
  // Both the crash window and the churn healed before the end of the run.
  EXPECT_DOUBLE_EQ(find_gauge(snap, "leime_edge_up").value, 1.0);
  EXPECT_DOUBLE_EQ(find_gauge(snap, "leime_devices_absent").value, 0.0);

  std::size_t crash_marks = 0, restart_marks = 0;
  for (const auto& m : obs.trace().marks()) {
    if (m.name == "edge_crash") ++crash_marks;
    if (m.name == "edge_restart") ++restart_marks;
  }
  EXPECT_EQ(crash_marks, r.faults.edge_crashes);
  EXPECT_EQ(restart_marks, crash_marks);
}

TEST(Observer, OwnedObserverExportsConfiguredFiles) {
  const std::string dir = ::testing::TempDir();
  auto cfg = base_scenario(1);
  cfg.duration = 10.0;
  cfg.obs.metrics_out = dir + "observer_test.prom";
  cfg.obs.trace_out = dir + "observer_test_trace.json";
  cfg.obs.timeseries_out = dir + "observer_test_series.csv";
  const auto r = run_scenario(cfg);
  EXPECT_FALSE(r.metrics.empty());  // metrics_out implies the registry

  std::ifstream prom(cfg.obs.metrics_out);
  ASSERT_TRUE(prom.good());
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("leime_tasks_generated_total"), std::string::npos);
  EXPECT_TRUE(std::ifstream(cfg.obs.trace_out).good());
  EXPECT_TRUE(std::ifstream(cfg.obs.timeseries_out).good());
  std::remove(cfg.obs.metrics_out.c_str());
  std::remove(cfg.obs.trace_out.c_str());
  std::remove(cfg.obs.timeseries_out.c_str());
}

// The acceptance contract of the attribution pillar: replaying the routed
// wild-topology scenario (shared APs, an AP outage, retries, duplex result
// legs), every completed task's waterfall conserves its end-to-end latency
// to 1e-9 — stage waits + services + stall == t_complete - t_arrive — and
// the fabric's hop spans never exceed the link stages they refine.
TEST(Attribution, ConservesEndToEndLatencyInTheWild) {
  auto scenario =
      load_scenario_file(std::string(LEIME_CONFIG_DIR) + "/wild_topology.ini");
  auto cfg = scenario.config;
  cfg.result_bytes = 64000.0;  // exercise the duplex result-return legs
  ObsConfig obs_cfg;
  obs_cfg.attribution = true;
  obs_cfg.keep_waterfalls = true;
  const std::vector<std::string> classes = {"gate", "gate", "gate",
                                            "yard", "yard", "yard"};
  ASSERT_EQ(cfg.devices.size(), classes.size());
  GroundTruthObserver obs(obs_cfg, cfg.devices.size(), classes);
  cfg.observer = &obs;
  const auto r = run_scenario(cfg);
  ASSERT_GT(r.generated, 100u);

  const auto& rows = obs.waterfalls();
  ASSERT_FALSE(rows.empty());
  std::size_t with_hops = 0, with_pred = 0;
  for (const auto& wf : rows) {
    double spans = 0.0, links = 0.0;
    for (int i = 0; i < obs::kAttrStageCount; ++i) {
      const auto& s = wf.stages[static_cast<std::size_t>(i)];
      EXPECT_GE(s.wait, 0.0);
      EXPECT_GE(s.service, 0.0);
      spans += s.wait + s.service;
      if (obs::attr_stage_is_link(static_cast<obs::AttrStage>(i)))
        links += s.wait + s.service;
    }
    EXPECT_GE(wf.stall, -1e-9);  // spans are sequential, gaps only
    EXPECT_NEAR(spans + wf.stall, wf.e2e, 1e-9) << "task " << wf.task;
    const auto it = obs.truth().find(wf.task);
    ASSERT_NE(it, obs.truth().end());
    EXPECT_NEAR(wf.e2e, it->second.t_complete - it->second.t_arrive, 1e-9);
    if (!wf.hops.empty()) {
      ++with_hops;
      double hop_total = 0.0;
      for (const auto& h : wf.hops) {
        EXPECT_GE(h.wait, 0.0);
        EXPECT_GE(h.service, 0.0);
        hop_total += h.wait + h.service;
      }
      // Hops partition link spans; aborted flows may under-report but can
      // never attribute more time than the spans themselves.
      EXPECT_LE(hop_total, links + 1e-9) << "task " << wf.task;
    }
    if (wf.pred.valid) ++with_pred;
  }
  EXPECT_GT(with_hops, 0u);
  EXPECT_GT(with_pred, 0u);

  const auto& sum = obs.attribution_summary();
  EXPECT_TRUE(sum.active);
  EXPECT_EQ(sum.tasks, rows.size());
  // Every generated task either assembled a waterfall or is incomplete
  // (parked, or still in flight when the drain ended).
  EXPECT_EQ(sum.tasks + sum.incomplete, r.generated);
  ASSERT_FALSE(sum.ports.empty());
  std::uint64_t class_tasks = 0;
  for (const auto& c : sum.classes) class_tasks += c.tasks;
  EXPECT_EQ(class_tasks, sum.tasks);
  ASSERT_EQ(sum.classes.size(), 2u);
  EXPECT_EQ(sum.classes[0].name, "gate");
  EXPECT_EQ(sum.classes[1].name, "yard");
}

// The run folds each completion straight into class- and port-indexed
// accumulators and names them only in attribution_summary(). Folding the
// kept rows by name, in completion order, must give the same bytes: same
// sums in the same order, classes and ports in name order.
TEST(Attribution, IndexedFoldMatchesAByNameFoldOfTheRows) {
  auto scenario =
      load_scenario_file(std::string(LEIME_CONFIG_DIR) + "/wild_topology.ini");
  auto cfg = scenario.config;
  cfg.result_bytes = 64000.0;
  ObsConfig obs_cfg;
  obs_cfg.attribution = true;
  obs_cfg.keep_waterfalls = true;
  const std::vector<std::string> classes = {"yard", "gate", "yard",
                                            "gate", "yard", "gate"};
  ASSERT_EQ(cfg.devices.size(), classes.size());
  RecordingObserver obs(obs_cfg, cfg.devices.size(), classes);
  cfg.observer = &obs;
  run_scenario(cfg);

  const obs::AttributionSummary sum = obs.attribution_summary();
  obs::AttributionSummary by_name;
  by_name.active = true;
  by_name.incomplete = sum.incomplete;
  for (const auto& wf : obs.waterfalls())
    by_name.add(wf, obs.class_names()[wf.cls]);
  ASSERT_GT(by_name.ports.size(), 4u);
  ASSERT_GT(by_name.calibrated_tasks, 0u);
  std::ostringstream got, want;
  sum.to_json(got);
  by_name.to_json(want);
  EXPECT_EQ(got.str(), want.str());
}

// Hook-level edge cases: an abort with no open phase is a no-op, parked
// tasks drop their ledger entry (no waterfall, counted incomplete), and
// tasks still open at run end are incomplete too.
TEST(Attribution, LedgerToleratesAbortsAndParksViaHooks) {
  ObsConfig cfg;
  cfg.attribution = true;
  cfg.keep_waterfalls = true;
  RecordingObserver obs(cfg, 1);
  obs.on_phase_abort(99, 1.0, "timeout");  // unknown task, nothing open

  obs.on_task_generated(1, 0, 0.5, 1, true);
  obs.on_phase_begin(1, 0, "uplink", "device0/tx", 0.5, 0.5, 0);
  obs.on_phase_abort(1, 1.0, "edge_crash");
  obs.on_phase_abort(1, 1.0, "edge_crash");  // second abort: nothing open
  obs.on_task_parked(1, 0, 1.0);

  obs.on_task_generated(2, 0, 1.5, 1, false);
  obs.on_phase_begin(2, 0, "local_block1", "device0/cpu", 1.5, 1.5, 0);
  // ... run ends with task 2 still computing.

  obs.on_task_generated(3, 0, 2.0, 1, false);
  obs.on_phase_begin(3, 0, "local_block1", "device0/cpu", 2.0, 2.2, 0);
  obs.on_phase_end(3, 2.5);
  obs.on_task_complete(3, 0, 2.0, 2.5, 1, 0, true);
  obs.on_run_end(3.0);

  const auto& sum = obs.attribution_summary();
  EXPECT_EQ(sum.tasks, 1u);
  EXPECT_EQ(sum.incomplete, 2u);  // parked task 1 + still-open task 2
  ASSERT_EQ(obs.waterfalls().size(), 1u);
  const auto& wf = obs.waterfalls()[0];
  EXPECT_EQ(wf.task, 3u);
  const auto& local =
      wf.stages[static_cast<std::size_t>(obs::AttrStage::kLocalCompute)];
  EXPECT_NEAR(local.wait, 0.2, 1e-12);
  EXPECT_NEAR(local.service, 0.3, 1e-12);
  EXPECT_NEAR(wf.stall, 0.0, 1e-12);
}

// Attribution and SLO must not perturb the run (same null-object contract
// as the other pillars), ride SimResult, and export their files.
TEST(Attribution, DoesNotPerturbTheRunAndExportsFiles) {
  auto cfg = base_scenario();
  const auto off = run_scenario(cfg);
  const std::string dir = ::testing::TempDir();
  cfg.obs.attribution = true;
  cfg.obs.attribution_out = dir + "attr_waterfalls.jsonl";
  cfg.obs.calibration_out = dir + "attr_calibration.csv";
  cfg.obs.slo.deadline = 0.5;
  cfg.obs.slo.alerts_out = dir + "slo_alerts.jsonl";
  const auto on = run_scenario(cfg);

  EXPECT_EQ(on.generated, off.generated);
  EXPECT_EQ(on.total_completed, off.total_completed);
  EXPECT_DOUBLE_EQ(on.tct.mean, off.tct.mean);
  EXPECT_DOUBLE_EQ(on.tct.p95, off.tct.p95);
  EXPECT_DOUBLE_EQ(on.mean_offload_ratio, off.mean_offload_ratio);

  EXPECT_FALSE(off.attribution.active);
  EXPECT_FALSE(off.slo.active);
  EXPECT_TRUE(on.attribution.active);
  EXPECT_TRUE(on.slo.active);
  EXPECT_EQ(on.attribution.tasks, on.total_completed);
  EXPECT_EQ(on.attribution.tasks + on.attribution.incomplete, on.generated);

  std::ifstream jsonl(cfg.obs.attribution_out);
  ASSERT_TRUE(jsonl.good());
  std::string first_line;
  ASSERT_TRUE(std::getline(jsonl, first_line));
  EXPECT_EQ(first_line.rfind("{\"task\":", 0), 0u);
  std::ifstream csv(cfg.obs.calibration_out);
  ASSERT_TRUE(csv.good());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header.rfind("task,class,device,", 0), 0u);
  EXPECT_TRUE(std::ifstream(cfg.obs.slo.alerts_out).good());
  std::remove(cfg.obs.attribution_out.c_str());
  std::remove(cfg.obs.calibration_out.c_str());
  std::remove(cfg.obs.slo.alerts_out.c_str());
}

// End-to-end SLO: an impossible deadline makes every counted completion a
// miss, the monitor fires exactly once (burn never recovers), and the
// alert shows up in all three places — summary, metrics, trace marks.
TEST(Slo, DeadlineMissesFireAlertsEndToEnd) {
  auto cfg = base_scenario(2);
  ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs_cfg.trace_sample = 1;
  obs_cfg.slo.deadline = 1e-4;
  obs_cfg.slo.window = 10.0;
  obs_cfg.slo.target_miss_rate = 0.01;
  obs_cfg.slo.burn_threshold = 1.0;
  obs_cfg.slo.min_window_tasks = 5;
  RecordingObserver obs(obs_cfg, cfg.devices.size(), {"cam", "cam"});
  cfg.observer = &obs;
  const auto r = run_scenario(cfg);
  ASSERT_GT(r.completed, 20u);

  const auto s = obs.slo_summary();
  ASSERT_TRUE(s.active);
  EXPECT_DOUBLE_EQ(s.deadline, 1e-4);
  ASSERT_EQ(s.classes.size(), 1u);
  EXPECT_EQ(s.classes[0].name, "cam");
  EXPECT_EQ(s.classes[0].completions, r.completed);
  EXPECT_EQ(s.classes[0].misses, s.classes[0].completions);
  EXPECT_EQ(s.classes[0].alerts_fired, 1u);
  EXPECT_EQ(s.classes[0].alerts_cleared, 0u);
  ASSERT_EQ(s.alerts.size(), 1u);
  EXPECT_TRUE(s.alerts[0].fire);
  EXPECT_EQ(s.alerts[0].cls, "cam");
  EXPECT_EQ(s.alerts[0].window_tasks, 5u);

  const auto snap = obs.registry().snapshot();
  EXPECT_EQ(find_counter(snap, "leime_slo_completions_total").value,
            s.classes[0].completions);
  EXPECT_EQ(find_counter(snap, "leime_slo_misses_total").value,
            s.classes[0].misses);
  EXPECT_EQ(find_counter(snap, "leime_slo_alerts_fired_total").value, 1u);
  EXPECT_EQ(find_counter(snap, "leime_slo_alerts_cleared_total").value, 0u);
  EXPECT_EQ(find_histogram(snap, "leime_slo_overshoot_seconds").stats.count(),
            s.classes[0].misses);
  EXPECT_GT(find_gauge(snap, "leime_slo_burn_rate").value, 1.0);

  std::size_t fire_marks = 0;
  for (const auto& m : obs.trace().marks()) {
    if (m.name != "slo_burn_fire") continue;
    ++fire_marks;
    EXPECT_FALSE(m.has_task());  // burn alerts are not about one task
    EXPECT_EQ(m.track, "slo/cam");
  }
  EXPECT_EQ(fire_marks, 1u);
}

// The SLO summary (and so its JSONL rendering) is deterministic: two
// identical runs produce byte-identical alert streams.
TEST(Slo, SummaryRidesSimResultDeterministically) {
  auto cfg = base_scenario(2);
  cfg.obs.slo.deadline = 1e-4;
  cfg.obs.slo.min_window_tasks = 5;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  ASSERT_TRUE(a.slo.active);
  EXPECT_FALSE(a.slo.alerts.empty());
  std::ostringstream ja, jb;
  a.slo.to_json(ja);
  b.slo.to_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(ObsConfig, EnablementRules) {
  ObsConfig off;
  EXPECT_FALSE(off.enabled());
  ObsConfig path_only;
  path_only.metrics_out = "x.prom";
  EXPECT_TRUE(path_only.metrics_enabled());
  EXPECT_TRUE(path_only.enabled());
  ObsConfig trace_only;
  trace_only.trace_out = "x.json";
  EXPECT_EQ(trace_only.effective_trace_sample(), 1u);
  trace_only.trace_sample = 8;
  EXPECT_EQ(trace_only.effective_trace_sample(), 8u);
}

}  // namespace
}  // namespace leime::sim
