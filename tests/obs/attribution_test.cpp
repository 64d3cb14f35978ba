#include "obs/attribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace leime::obs {
namespace {

TEST(AttrStage, PhaseMappingCoversSimulatorPhases) {
  EXPECT_EQ(attr_stage_for_phase("local_block1"), AttrStage::kLocalCompute);
  EXPECT_EQ(attr_stage_for_phase("uplink"), AttrStage::kUplink);
  EXPECT_EQ(attr_stage_for_phase("edge_block1"), AttrStage::kEdgeCompute);
  EXPECT_EQ(attr_stage_for_phase("edge_block2"), AttrStage::kEdgeCompute);
  EXPECT_EQ(attr_stage_for_phase("edge_cloud_link"), AttrStage::kCloudLink);
  EXPECT_EQ(attr_stage_for_phase("cloud_block3"), AttrStage::kCloudCompute);
  EXPECT_EQ(attr_stage_for_phase("return_link"), AttrStage::kResultReturn);
  EXPECT_EQ(attr_stage_for_phase("cloud_return_link"),
            AttrStage::kResultReturn);
  EXPECT_EQ(attr_stage_for_phase("some_future_phase"), AttrStage::kOther);

  EXPECT_TRUE(attr_stage_is_link(AttrStage::kUplink));
  EXPECT_TRUE(attr_stage_is_link(AttrStage::kCloudLink));
  EXPECT_TRUE(attr_stage_is_link(AttrStage::kResultReturn));
  EXPECT_FALSE(attr_stage_is_link(AttrStage::kLocalCompute));
  EXPECT_FALSE(attr_stage_is_link(AttrStage::kEdgeCompute));

  // Names feed composed metric names: the registry alphabet is [a-z0-9_].
  for (int i = 0; i < kAttrStageCount; ++i) {
    const std::string name = attr_stage_name(static_cast<AttrStage>(i));
    ASSERT_FALSE(name.empty());
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
  }
  for (int i = 0; i < kCalibComponentCount; ++i) {
    const std::string name =
        calib_component_name(static_cast<CalibComponent>(i));
    for (char c : name)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
  }
}

TEST(LatencyLedger, AssemblesWaitServiceWaterfallAndConserves) {
  LatencyLedger ledger;
  PredictedComponents pred;
  ledger.on_generated(7, 0, 0, 10.0, 1, true, pred);
  EXPECT_EQ(ledger.open_tasks(), 1u);

  // Uplink: queued at 10.0, serialization starts at 10.4, done at 10.9.
  ledger.on_phase_begin(7, "uplink", 10.0, 10.4);
  ledger.on_phase_end(7, 10.9);
  // Edge block 1: queued at 10.9, starts at 11.2, done at 11.5.
  ledger.on_phase_begin(7, "edge_block1", 10.9, 11.2);
  ledger.on_phase_end(7, 11.5);
  // A gap [11.5, 11.7] with no span — becomes stall.
  ledger.on_phase_begin(7, "return_link", 11.7, 11.7);
  ledger.on_phase_end(7, 12.0);

  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(7, 12.0, 0, true, &wf));
  EXPECT_EQ(ledger.open_tasks(), 0u);
  EXPECT_EQ(wf.task, 7u);
  EXPECT_TRUE(wf.offloaded);
  EXPECT_DOUBLE_EQ(wf.e2e, 2.0);

  const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  EXPECT_NEAR(up.wait, 0.4, 1e-12);
  EXPECT_NEAR(up.service, 0.5, 1e-12);
  const auto& edge =
      wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  EXPECT_NEAR(edge.wait, 0.3, 1e-12);
  EXPECT_NEAR(edge.service, 0.3, 1e-12);
  const auto& ret =
      wf.stages[static_cast<std::size_t>(AttrStage::kResultReturn)];
  EXPECT_NEAR(ret.wait, 0.0, 1e-12);
  EXPECT_NEAR(ret.service, 0.3, 1e-12);

  // Conservation: stages + stall == e2e, and the stall is the uncovered gap.
  double spans = 0.0;
  for (const auto& s : wf.stages) spans += s.wait + s.service;
  EXPECT_NEAR(spans + wf.stall, wf.e2e, 1e-12);
  EXPECT_NEAR(wf.stall, 0.2, 1e-12);
}

TEST(LatencyLedger, HopSpansRefineLinkStageWait) {
  LatencyLedger ledger;
  ledger.on_generated(1, 0, 0, 0.0, 1, true, {});

  // Span-level exec_start only knows the first hop; two fabric hops each
  // contribute their own wait. Hops partition [0.0, 1.0] exactly.
  ledger.on_phase_begin(1, "uplink", 0.0, 0.0);
  ledger.on_hop(1, "dev0_ap0", 0.0, 0.1, 0.5);   // wait 0.1, service 0.4
  ledger.on_hop(1, "ap0_edge0", 0.5, 0.8, 1.0);  // wait 0.3, service 0.2
  ledger.on_phase_end(1, 1.0);

  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(1, 1.0, 0, true, &wf));
  const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  EXPECT_NEAR(up.wait, 0.4, 1e-12);     // hop waits summed
  EXPECT_NEAR(up.service, 0.6, 1e-12);  // remainder of the span
  ASSERT_EQ(wf.hops.size(), 2u);
  EXPECT_EQ(wf.hops[0].port, "dev0_ap0");
  EXPECT_NEAR(wf.hops[0].wait, 0.1, 1e-12);
  EXPECT_NEAR(wf.hops[0].service, 0.4, 1e-12);
  EXPECT_EQ(wf.hops[1].port, "ap0_edge0");
  EXPECT_NEAR(wf.hops[1].wait, 0.3, 1e-12);
  EXPECT_NEAR(wf.hops[1].service, 0.2, 1e-12);

  // Hops against a compute stage (or no open span) are ignored.
  ledger.on_generated(2, 0, 0, 0.0, 1, false, {});
  ledger.on_hop(2, "dev0_ap0", 0.0, 0.0, 1.0);  // no open span
  ledger.on_phase_begin(2, "local_block1", 0.0, 0.2);
  ledger.on_hop(2, "dev0_ap0", 0.0, 0.0, 1.0);  // not a link stage
  ledger.on_phase_end(2, 1.0);
  ASSERT_TRUE(ledger.on_complete(2, 1.0, 0, true, &wf));
  EXPECT_TRUE(wf.hops.empty());
  const auto& local =
      wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  EXPECT_NEAR(local.wait, 0.2, 1e-12);
  EXPECT_NEAR(local.service, 0.8, 1e-12);
}

TEST(LatencyLedger, DefensiveCloseAndCompletionCloseOpenSpans) {
  LatencyLedger ledger;
  ledger.on_generated(3, 1, 0, 0.0, 2, true, {});

  // A begin while another span is open closes the previous one at the new
  // span's queue time (the nested cloud_return_link -> return_link case).
  ledger.on_phase_begin(3, "cloud_return_link", 0.0, 0.0);
  ledger.on_phase_begin(3, "return_link", 0.6, 0.6);
  // Completion with the last span still open closes it at t_complete.
  TaskWaterfall wf;
  ASSERT_TRUE(ledger.on_complete(3, 1.0, 0, true, &wf));
  const auto& ret =
      wf.stages[static_cast<std::size_t>(AttrStage::kResultReturn)];
  EXPECT_NEAR(ret.wait + ret.service, 1.0, 1e-12);
  EXPECT_NEAR(wf.stall, 0.0, 1e-12);
}

TEST(LatencyLedger, ParkedAndUnknownTasks) {
  LatencyLedger ledger;
  ledger.on_generated(5, 0, 0, 0.0, 1, false, {});
  ledger.on_phase_begin(5, "local_block1", 0.0, 0.0);
  EXPECT_TRUE(ledger.on_parked(5));
  EXPECT_FALSE(ledger.on_parked(5));  // already gone
  EXPECT_EQ(ledger.open_tasks(), 0u);

  TaskWaterfall wf;
  EXPECT_FALSE(ledger.on_complete(5, 1.0, 0, true, &wf));
  // Hooks for never-registered tasks are no-ops, not crashes.
  ledger.on_phase_begin(99, "uplink", 0.0, 0.0);
  ledger.on_phase_end(99, 1.0);
  ledger.on_hop(99, "p", 0.0, 0.0, 1.0);
  EXPECT_EQ(ledger.open_tasks(), 0u);
}

TaskWaterfall make_calibrated_waterfall(bool offloaded) {
  TaskWaterfall wf;
  wf.task = 1;
  wf.block = 1;
  wf.retries = 0;
  wf.offloaded = offloaded;
  wf.pred.valid = true;
  wf.pred.local_wait = 0.1;
  wf.pred.local_service = 0.2;
  wf.pred.uplink = 0.3;
  wf.pred.edge_wait = 0.05;
  wf.pred.edge_service = 0.15;
  auto& local = wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  local = {0.12, 0.2};
  auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  up = {0.1, 0.25};
  auto& edge = wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  edge = {0.06, 0.14};
  return wf;
}

TEST(TaskWaterfall, CalibrationErrorApplicabilityRules) {
  double err = 0.0;

  // Local task: local components calibrate, offload components do not.
  auto local = make_calibrated_waterfall(false);
  ASSERT_TRUE(local.calibration_error(CalibComponent::kLocalWait, &err));
  EXPECT_NEAR(err, 0.02, 1e-12);  // actual 0.12 - predicted 0.1
  ASSERT_TRUE(local.calibration_error(CalibComponent::kLocalService, &err));
  EXPECT_NEAR(err, 0.0, 1e-12);
  EXPECT_FALSE(local.calibration_error(CalibComponent::kUplink, &err));
  EXPECT_FALSE(local.calibration_error(CalibComponent::kEdgeWait, &err));

  // Offloaded task: the mirror-image split; uplink joins wait + service.
  auto off = make_calibrated_waterfall(true);
  EXPECT_FALSE(off.calibration_error(CalibComponent::kLocalWait, &err));
  ASSERT_TRUE(off.calibration_error(CalibComponent::kUplink, &err));
  EXPECT_NEAR(err, 0.05, 1e-12);  // (0.1 + 0.25) - 0.3
  ASSERT_TRUE(off.calibration_error(CalibComponent::kEdgeWait, &err));
  EXPECT_NEAR(err, 0.01, 1e-12);
  ASSERT_TRUE(off.calibration_error(CalibComponent::kEdgeService, &err));
  EXPECT_NEAR(err, -0.01, 1e-12);

  // Retried, deep-exit or prediction-less tasks never calibrate.
  auto retried = make_calibrated_waterfall(true);
  retried.retries = 1;
  EXPECT_FALSE(retried.calibration_error(CalibComponent::kUplink, &err));
  auto deep = make_calibrated_waterfall(true);
  deep.block = 2;
  EXPECT_FALSE(deep.calibration_error(CalibComponent::kUplink, &err));
  auto unpredicted = make_calibrated_waterfall(true);
  unpredicted.pred.valid = false;
  EXPECT_FALSE(unpredicted.calibration_error(CalibComponent::kUplink, &err));
}

TaskWaterfall simple_waterfall(std::uint64_t task, double wait,
                               double service) {
  TaskWaterfall wf;
  wf.task = task;
  wf.block = 1;
  auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
  up = {wait, service};
  wf.e2e = wait + service;
  wf.hops.push_back({"ap0_edge0", wait, service});
  return wf;
}

TEST(AttributionSummary, AddAndMergeAreConsistent) {
  // Two shards fold disjoint task sets; merging them must equal one summary
  // that saw everything (the plan-order merge contract).
  AttributionSummary a, b, all;
  const auto w1 = simple_waterfall(1, 0.1, 0.4);
  const auto w2 = simple_waterfall(2, 0.3, 0.2);
  auto w3 = make_calibrated_waterfall(true);
  a.add(w1, "sensor");
  b.add(w2, "sensor");
  b.add(w3, "camera");
  all.add(w1, "sensor");
  all.add(w2, "sensor");
  all.add(w3, "camera");

  AttributionSummary merged = a;
  merged.merge(b);
  EXPECT_TRUE(merged.active);
  EXPECT_EQ(merged.tasks, all.tasks);
  EXPECT_EQ(merged.calibrated_tasks, all.calibrated_tasks);
  ASSERT_EQ(merged.classes.size(), 2u);
  EXPECT_EQ(merged.classes[0].name, "camera");  // sorted by name
  EXPECT_EQ(merged.classes[1].name, "sensor");
  EXPECT_EQ(merged.classes[1].tasks, 2u);
  const auto up_idx = static_cast<std::size_t>(AttrStage::kUplink);
  EXPECT_NEAR(merged.classes[1].stages[up_idx].wait, 0.4, 1e-12);
  EXPECT_NEAR(merged.classes[1].stages[up_idx].service, 0.6, 1e-12);
  ASSERT_EQ(merged.ports.size(), 1u);
  EXPECT_EQ(merged.ports[0].first, "ap0_edge0");
  EXPECT_EQ(merged.ports[0].second.spans, 2u);
  EXPECT_NEAR(merged.ports[0].second.wait, 0.4, 1e-12);

  // The JSON rendering of merged and all-at-once summaries is identical.
  std::ostringstream merged_json, all_json;
  merged.to_json(merged_json);
  all.to_json(all_json);
  EXPECT_EQ(merged_json.str(), all_json.str());

  // Merging an inactive summary is a no-op.
  AttributionSummary inactive;
  merged.merge(inactive);
  EXPECT_EQ(merged.tasks, all.tasks);
}

TEST(AttributionSummary, JsonShape) {
  AttributionSummary s;
  s.active = true;
  s.add(make_calibrated_waterfall(true), "camera");
  std::ostringstream out;
  s.to_json(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
  EXPECT_NE(text.find("\"tasks\":1"), std::string::npos);
  EXPECT_NE(text.find("\"classes\":[{\"name\":\"camera\""), std::string::npos);
  EXPECT_NE(text.find("\"stage\":\"uplink\""), std::string::npos);
  EXPECT_NE(text.find("\"calibration\":[{\"component\":\"uplink\""),
            std::string::npos);
  EXPECT_EQ(text.find('\n'), std::string::npos);  // single line for JSONL
}

TEST(AttributionFiles, WaterfallJsonlAndCalibrationCsv) {
  std::vector<TaskWaterfall> rows;
  rows.push_back(simple_waterfall(4, 0.1, 0.2));
  rows.push_back(make_calibrated_waterfall(true));
  const std::vector<std::string> names = {"default"};

  std::ostringstream jsonl;
  write_waterfalls_jsonl(jsonl, rows, names);
  const std::string text = jsonl.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"task\":4"), std::string::npos);
  EXPECT_NE(text.find("\"hops\":[{\"port\":\"ap0_edge0\""), std::string::npos);
  // Row without a prediction omits the pred block; the calibrated row has it.
  EXPECT_NE(text.find("\"pred\":{\"local_wait\":"), std::string::npos);

  std::ostringstream csv;
  write_calibration_csv(csv, rows, names);
  std::istringstream lines(csv.str());
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.substr(0, 44), "task,class,device,block,retries,offloaded,x,");
  EXPECT_NE(header.find("pred_uplink,actual_uplink,err_uplink"),
            std::string::npos);
  // Only the predicted task gets a row; inapplicable components stay empty.
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(row.substr(0, 2), "1,");
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_NE(row.find(",,"), std::string::npos);  // empty local_wait err cell
}

// ---------------------------------------------------------------------------
// Differential test: the pooled ledger against a std::map reference model.

// Reference model: the ledger's semantics over a std::map, one node per
// task and a hop vector with port names per entry. The pooled storage must
// reproduce it bit for bit.
class MapLedger {
 public:
  void on_generated(std::uint64_t task, int device, std::size_t cls, double t,
                    int block, bool offloaded,
                    const PredictedComponents& pred) {
    Entry& e = entries_[task];
    e.device = device;
    e.cls = cls;
    e.t_arrive = t;
    e.block = block;
    e.offloaded = offloaded;
    e.pred = pred;
  }
  void on_phase_begin(std::uint64_t task, std::string_view phase,
                      double t_queued, double exec_start) {
    auto it = entries_.find(task);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    close_open(e, t_queued);
    e.open = true;
    e.stage = attr_stage_for_phase(phase);
    e.t_queued = t_queued;
    e.exec_start = std::max(t_queued, exec_start);
    e.hop_wait = 0.0;
    e.saw_hops = false;
  }
  void on_phase_end(std::uint64_t task, double t) {
    auto it = entries_.find(task);
    if (it != entries_.end()) close_open(it->second, t);
  }
  void on_hop(std::uint64_t task, std::string_view port, double t_queued,
              double exec_start, double t_end) {
    auto it = entries_.find(task);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (!e.open || !attr_stage_is_link(e.stage)) return;
    HopSpan hop;
    hop.port.assign(port.data(), port.size());
    hop.wait = std::max(0.0, exec_start - t_queued);
    hop.service = std::max(0.0, t_end - std::max(t_queued, exec_start));
    e.hop_wait += hop.wait;
    e.saw_hops = true;
    e.hops.push_back(std::move(hop));
  }
  bool on_parked(std::uint64_t task) { return entries_.erase(task) > 0; }
  bool on_complete(std::uint64_t task, double t_complete, int retries,
                   bool counted, TaskWaterfall* out) {
    auto it = entries_.find(task);
    if (it == entries_.end()) return false;
    Entry& e = it->second;
    close_open(e, t_complete);
    out->task = task;
    out->device = e.device;
    out->cls = e.cls;
    out->t_arrive = e.t_arrive;
    out->t_complete = t_complete;
    out->block = e.block;
    out->retries = retries;
    out->offloaded = e.offloaded;
    out->counted = counted;
    out->stages = e.stages;
    out->hops = std::move(e.hops);
    out->pred = e.pred;
    out->e2e = t_complete - e.t_arrive;
    double spans = 0.0;
    for (const auto& s : out->stages) spans += s.wait + s.service;
    out->stall = out->e2e - spans;
    entries_.erase(it);
    return true;
  }
  std::size_t open_tasks() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    for (const auto& [id, e] : entries_) out.push_back(id);
    return out;
  }

 private:
  struct Entry {
    int device = -1;
    std::size_t cls = 0;
    double t_arrive = 0.0;
    int block = 0;
    bool offloaded = false;
    PredictedComponents pred;
    std::array<StageBreakdown, kAttrStageCount> stages{};
    std::vector<HopSpan> hops;
    bool open = false;
    AttrStage stage = AttrStage::kOther;
    double t_queued = 0.0;
    double exec_start = 0.0;
    double hop_wait = 0.0;
    bool saw_hops = false;
  };
  void close_open(Entry& e, double t) {
    if (!e.open) return;
    e.open = false;
    const double dur = std::max(0.0, t - e.t_queued);
    auto& s = e.stages[static_cast<std::size_t>(e.stage)];
    double wait;
    if (e.saw_hops && attr_stage_is_link(e.stage))
      wait = std::min(e.hop_wait, dur);
    else
      wait = std::min(std::max(0.0, e.exec_start - e.t_queued), dur);
    s.wait += wait;
    s.service += dur - wait;
  }
  std::map<std::uint64_t, Entry> entries_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const TaskWaterfall& got, const TaskWaterfall& want) {
  EXPECT_EQ(got.task, want.task);
  EXPECT_EQ(got.device, want.device);
  EXPECT_EQ(got.cls, want.cls);
  EXPECT_EQ(bits(got.t_arrive), bits(want.t_arrive));
  EXPECT_EQ(bits(got.t_complete), bits(want.t_complete));
  EXPECT_EQ(got.block, want.block);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.offloaded, want.offloaded);
  EXPECT_EQ(got.counted, want.counted);
  for (int i = 0; i < kAttrStageCount; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(bits(got.stages[k].wait), bits(want.stages[k].wait)) << i;
    EXPECT_EQ(bits(got.stages[k].service), bits(want.stages[k].service)) << i;
  }
  ASSERT_EQ(got.hops.size(), want.hops.size());
  for (std::size_t i = 0; i < got.hops.size(); ++i) {
    EXPECT_EQ(got.hops[i].port, want.hops[i].port);
    EXPECT_EQ(bits(got.hops[i].wait), bits(want.hops[i].wait));
    EXPECT_EQ(bits(got.hops[i].service), bits(want.hops[i].service));
  }
  EXPECT_EQ(bits(got.stall), bits(want.stall));
  EXPECT_EQ(bits(got.e2e), bits(want.e2e));
  EXPECT_EQ(got.pred.valid, want.pred.valid);
  EXPECT_EQ(bits(got.pred.local_wait), bits(want.pred.local_wait));
  EXPECT_EQ(bits(got.pred.uplink), bits(want.pred.uplink));
  EXPECT_EQ(bits(got.pred.edge_service), bits(want.pred.edge_service));
  EXPECT_EQ(bits(got.pred.x), bits(want.pred.x));
}

TEST(LatencyLedger, MatchesMapReferenceOnRandomSpanStreams) {
  const char* const kPhases[] = {
      "local_block1", "uplink",       "edge_block1",       "edge_block2",
      "edge_cloud_link", "cloud_block3", "return_link", "cloud_return_link",
      "some_future_phase"};
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t completions = 0, with_hops = 0, reregistered = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto uni = [&rng] {
      return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    };
    auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    LatencyLedger ledger;
    MapLedger ref;
    std::vector<std::uint64_t> finished;  // completed or parked ids
    std::uint64_t next_dense = 0;
    double t = 0.0;
    // An id for a hook: mostly live, sometimes finished or never seen.
    auto pick = [&]() -> std::uint64_t {
      const double r = uni();
      if (r < 0.85 && ref.open_tasks() > 0) {
        const auto live = ref.ids();
        return live[below(live.size())];
      }
      if (r < 0.93 && !finished.empty())
        return finished[below(finished.size())];
      return (std::uint64_t{1} << 50) + rng() % 1000;  // never registered
    };
    for (int op = 0; op < 30000; ++op) {
      t += -std::log(1.0 - uni()) * 0.01;
      const double tq = t - 0.05 * uni();
      // exec_start sometimes precedes t_queued (clamped by the ledger).
      const double es = tq + 0.08 * uni() - 0.01;
      const double r = uni();
      if (r < 0.2) {
        std::uint64_t id;
        const double k = uni();
        if (k < 0.6) id = next_dense++;
        else if (k < 0.7) id = (std::uint64_t{1} << 40) + rng() % 64;
        else if (k < 0.75) id = kMax - rng() % 4;
        else if (k < 0.8) id = rng();  // sparse
        else if (k < 0.9 && !finished.empty())
          id = finished[below(finished.size())];  // after completion
        else id = pick();  // re-registered while still open
        if (k >= 0.8) ++reregistered;
        PredictedComponents pred;
        pred.valid = uni() < 0.7;
        pred.local_wait = uni();
        pred.local_service = uni();
        pred.uplink = uni();
        pred.edge_wait = uni();
        pred.edge_service = uni();
        pred.x = uni();
        const int device = static_cast<int>(below(40)) - 1;
        const std::size_t cls = below(3);
        const int block = 1 + static_cast<int>(below(3));
        const bool offloaded = uni() < 0.5;
        ledger.on_generated(id, device, cls, t, block, offloaded, pred);
        ref.on_generated(id, device, cls, t, block, offloaded, pred);
      } else if (r < 0.42) {
        const std::uint64_t id = pick();
        const char* phase = kPhases[below(std::size(kPhases))];
        ledger.on_phase_begin(id, phase, tq, es);
        ref.on_phase_begin(id, phase, tq, es);
      } else if (r < 0.6) {
        // Normal end and abort both reach the ledger as on_phase_end.
        const std::uint64_t id = pick();
        ledger.on_phase_end(id, t);
        ref.on_phase_end(id, t);
      } else if (r < 0.8) {
        const std::uint64_t id = pick();
        const std::string port =
            uni() < 0.9 ? "ap" + std::to_string(below(4)) + "_edge0"
                        : "dev" + std::to_string(below(500)) + "_ap0";
        const double end = es + 0.05 * uni();
        ledger.on_hop(id, port, tq, es, end);
        ref.on_hop(id, port, tq, es, end);
      } else if (r < 0.83) {
        const std::uint64_t id = pick();
        const bool had = ref.on_parked(id);
        EXPECT_EQ(ledger.on_parked(id), had);
        if (had) finished.push_back(id);
      } else if (r < 0.9995) {
        const std::uint64_t id = pick();
        const int retries = static_cast<int>(below(3)) == 0 ? 1 : 0;
        const bool counted = uni() < 0.8;
        TaskWaterfall got, want;
        // Refill a used row: the ledger must overwrite every field.
        got.hops.push_back({"stale", 1.0, 2.0});
        const bool known = ref.on_complete(id, t, retries, counted, &want);
        ASSERT_EQ(ledger.on_complete(id, t, retries, counted, &got), known);
        if (known) {
          expect_bit_identical(got, want);
          ++completions;
          if (!want.hops.empty()) ++with_hops;
          finished.push_back(id);
        }
      } else {
        ledger.clear();
        ref.clear();
      }
      ASSERT_EQ(ledger.open_tasks(), ref.open_tasks());
    }
    // Drain: every task still open completes identically.
    for (const std::uint64_t id : ref.ids()) {
      TaskWaterfall got, want;
      ASSERT_TRUE(ref.on_complete(id, t + 1.0, 0, true, &want));
      ASSERT_TRUE(ledger.on_complete(id, t + 1.0, 0, true, &got));
      expect_bit_identical(got, want);
    }
    EXPECT_EQ(ledger.open_tasks(), 0u);
  }
  // The streams really reached the interesting paths.
  EXPECT_GT(completions, 10000u);
  EXPECT_GT(with_hops, 1000u);
  EXPECT_GT(reregistered, 1000u);
}

TEST(LatencyLedger, HugeAndSparseIdsKeepTheirOwnEntries) {
  // Ids that collide in any modular index must still land in distinct
  // entries; the index is sized to the live set, not the id range.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t ids[] = {0, 1, std::uint64_t{1} << 40,
                               (std::uint64_t{1} << 40) + 1, kMax, kMax - 1,
                               std::uint64_t{1} << 63};
  LatencyLedger ledger;
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    ledger.on_generated(ids[i], static_cast<int>(i), 0, 0.0, 1, false, {});
    ledger.on_phase_begin(ids[i], "local_block1", 0.0, 0.0);
    ledger.on_phase_end(ids[i], static_cast<double>(i + 1));
  }
  EXPECT_EQ(ledger.open_tasks(), std::size(ids));
  for (std::size_t i = std::size(ids); i-- > 0;) {
    TaskWaterfall wf;
    ASSERT_TRUE(ledger.on_complete(ids[i], 10.0, 0, true, &wf));
    EXPECT_EQ(wf.task, ids[i]);
    EXPECT_EQ(wf.device, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(
        wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)].service,
        static_cast<double>(i + 1));
  }
  EXPECT_EQ(ledger.open_tasks(), 0u);
}

}  // namespace
}  // namespace leime::obs
