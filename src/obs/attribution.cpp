#include "obs/attribution.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>

namespace leime::obs {

namespace {

// Shortest-round-trip double formatting, matching the other deterministic
// writers (metrics, trace, runtime sinks).
std::string num(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

const char* kStageNames[kAttrStageCount] = {
    "local_compute", "uplink",        "edge_compute", "cloud_link",
    "cloud_compute", "result_return", "other",
};

const char* kCalibNames[kCalibComponentCount] = {
    "local_wait", "local_service", "uplink", "edge_wait", "edge_service",
};

}  // namespace

const char* attr_stage_name(AttrStage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

AttrStage attr_stage_for_phase(std::string_view phase) {
  if (phase == "local_block1") return AttrStage::kLocalCompute;
  if (phase == "uplink") return AttrStage::kUplink;
  if (phase == "edge_block1" || phase == "edge_block2")
    return AttrStage::kEdgeCompute;
  if (phase == "edge_cloud_link") return AttrStage::kCloudLink;
  if (phase == "cloud_block3") return AttrStage::kCloudCompute;
  if (phase == "return_link" || phase == "cloud_return_link")
    return AttrStage::kResultReturn;
  return AttrStage::kOther;
}

bool attr_stage_is_link(AttrStage stage) {
  return stage == AttrStage::kUplink || stage == AttrStage::kCloudLink ||
         stage == AttrStage::kResultReturn;
}

HistogramOptions attr_latency_buckets() {
  return HistogramOptions{1e-6, 1e3, 54};
}

const char* calib_component_name(CalibComponent comp) {
  return kCalibNames[static_cast<std::size_t>(comp)];
}

bool WaterfallCore::calibration_error(CalibComponent comp, double* err) const {
  // The eq. 4-9 model predicts the first, clean service attempt: tasks that
  // timed out and retried, or exited deeper than block 1, spent time the
  // model never claimed to predict.
  if (!pred.valid || retries != 0 || block != 1) return false;
  const auto& local = stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
  const auto& up = stages[static_cast<std::size_t>(AttrStage::kUplink)];
  const auto& edge = stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
  switch (comp) {
    case CalibComponent::kLocalWait:
      if (offloaded) return false;
      *err = local.wait - pred.local_wait;
      return true;
    case CalibComponent::kLocalService:
      if (offloaded) return false;
      *err = local.service - pred.local_service;
      return true;
    case CalibComponent::kUplink:
      if (!offloaded) return false;
      *err = (up.wait + up.service) - pred.uplink;
      return true;
    case CalibComponent::kEdgeWait:
      if (!offloaded) return false;
      *err = edge.wait - pred.edge_wait;
      return true;
    case CalibComponent::kEdgeService:
      if (!offloaded) return false;
      *err = edge.service - pred.edge_service;
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// LatencyLedger

std::size_t LatencyLedger::home(std::uint64_t task) const {
  // Fibonacci hashing: consecutive ids (the simulator's) spread evenly
  // over the table, and the top log2(size) bits of the product pick the
  // bucket.
  return static_cast<std::size_t>((task * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(index_.size())));
}

std::size_t LatencyLedger::bucket_of(std::uint64_t task) const {
  if (index_.empty()) return 0;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = home(task);; b = (b + 1) & mask) {
    const std::uint32_t s = index_[b];
    if (s == kNoSlot) return index_.size();
    if (slot(s).wf.task == task) return b;
  }
}

LatencyLedger::Entry* LatencyLedger::find(std::uint64_t task) {
  const std::size_t b = bucket_of(task);
  return b < index_.size() ? &slot(index_[b]) : nullptr;
}

void LatencyLedger::insert(std::uint32_t s) {
  if (2 * (live_ + 1) > index_.size()) {
    // Double (from 16) and re-home every live slot.
    std::vector<std::uint32_t> old = std::move(index_);
    index_.assign(std::max<std::size_t>(16, 2 * old.size()), kNoSlot);
    live_ = 0;
    for (const std::uint32_t o : old)
      if (o != kNoSlot) insert(o);
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t b = home(slot(s).wf.task);
  while (index_[b] != kNoSlot) b = (b + 1) & mask;
  index_[b] = s;
  ++live_;
}

void LatencyLedger::release(std::size_t b) {
  free_.push_back(index_[b]);
  --live_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move them before their home bucket.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (b + 1) & mask; index_[j] != kNoSlot;
       j = (j + 1) & mask) {
    const std::size_t h = home(slot(index_[j]).wf.task);
    if (((j - h) & mask) >= ((j - b) & mask)) {
      index_[b] = index_[j];
      b = j;
    }
  }
  index_[b] = kNoSlot;
}

std::uint32_t LatencyLedger::intern(std::string_view port) {
  const auto home_of = [this](std::string_view name) {
    return std::hash<std::string_view>{}(name) & (port_index_.size() - 1);
  };
  if (!port_index_.empty()) {
    for (std::size_t b = home_of(port); port_index_[b] != kNoSlot;
         b = (b + 1) & (port_index_.size() - 1))
      if (port_names_[port_index_[b]] == port) return port_index_[b];
  }
  const auto place = [&](std::uint32_t id) {
    std::size_t b = home_of(port_names_[id]);
    while (port_index_[b] != kNoSlot) b = (b + 1) & (port_index_.size() - 1);
    port_index_[b] = id;
  };
  const auto id = static_cast<std::uint32_t>(port_names_.size());
  port_names_.emplace_back(port);
  if (2 * port_names_.size() > port_index_.size()) {
    // Double (from 16) and re-home every earlier name.
    port_index_.assign(std::max<std::size_t>(16, 2 * port_index_.size()),
                       kNoSlot);
    for (std::uint32_t p = 0; p < id; ++p) place(p);
  }
  place(id);
  return id;
}

void LatencyLedger::on_generated(std::uint64_t task, int device,
                                 std::size_t cls, double t, int block,
                                 bool offloaded,
                                 const PredictedComponents& pred) {
  Entry* e = find(task);
  if (!e) {
    std::uint32_t s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = pool_size_++;
      if (s / kChunkEntries == chunks_.size())
        chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    }
    e = &slot(s);
    e->wf = WaterfallCore{};
    e->wf.task = task;
    e->hops.clear();
    e->open = false;
    insert(s);
  }
  e->wf.device = device;
  e->wf.cls = cls;
  e->wf.t_arrive = t;
  e->wf.block = block;
  e->wf.offloaded = offloaded;
  e->wf.pred = pred;
}

void LatencyLedger::close_open(Entry& e, double t) {
  if (!e.open) return;
  e.open = false;
  const double dur = std::max(0.0, t - e.t_queued);
  auto& s = e.wf.stages[static_cast<std::size_t>(e.stage)];
  double wait;
  if (e.saw_hops && attr_stage_is_link(e.stage)) {
    // Hops partition the span exactly; their waits are the fine-grained
    // truth for fabric legs (the span-level exec_start is the first hop's).
    wait = std::min(e.hop_wait, dur);
  } else {
    wait = std::min(std::max(0.0, e.exec_start - e.t_queued), dur);
  }
  s.wait += wait;
  s.service += dur - wait;
}

void LatencyLedger::on_phase_begin(std::uint64_t task, std::string_view phase,
                                   double t_queued, double exec_start) {
  Entry* e = find(task);
  if (!e) return;
  close_open(*e, t_queued);
  e->open = true;
  e->stage = attr_stage_for_phase(phase);
  e->t_queued = t_queued;
  e->exec_start = std::max(t_queued, exec_start);
  e->hop_wait = 0.0;
  e->saw_hops = false;
}

void LatencyLedger::on_phase_end(std::uint64_t task, double t) {
  if (Entry* e = find(task)) close_open(*e, t);
}

void LatencyLedger::on_hop(std::uint64_t task, std::string_view port,
                           double t_queued, double exec_start, double t_end) {
  Entry* e = find(task);
  if (!e || !e->open || !attr_stage_is_link(e->stage)) return;
  PortHop hop;
  hop.port = intern(port);
  hop.wait = std::max(0.0, exec_start - t_queued);
  hop.service = std::max(0.0, t_end - std::max(t_queued, exec_start));
  e->hop_wait += hop.wait;
  e->saw_hops = true;
  // One allocation per pool entry covers a routed task's usual legs (up
  // to 6 hops: device -> AP -> edge, edge -> cloud and back); the
  // capacity then survives every recycling of the entry.
  if (e->hops.capacity() == 0) e->hops.reserve(kHopReserve);
  e->hops.push_back(hop);
}

bool LatencyLedger::on_parked(std::uint64_t task) {
  const std::size_t b = bucket_of(task);
  if (b >= index_.size()) return false;
  release(b);
  return true;
}

LatencyLedger::Completed LatencyLedger::complete(std::uint64_t task,
                                                 double t_complete,
                                                 int retries, bool counted) {
  const std::size_t b = bucket_of(task);
  if (b >= index_.size()) return {};
  Entry& e = slot(index_[b]);
  close_open(e, t_complete);
  WaterfallCore& wf = e.wf;
  wf.t_complete = t_complete;
  wf.retries = retries;
  wf.counted = counted;
  wf.e2e = t_complete - wf.t_arrive;
  double spans = 0.0;
  for (const auto& s : wf.stages) spans += s.wait + s.service;
  wf.stall = wf.e2e - spans;
  // The slot goes back to the free list, but nothing overwrites it before
  // the next on_generated, so the view below stays readable until then.
  release(b);
  return {&wf, e.hops};
}

void LatencyLedger::to_row(const Completed& done, TaskWaterfall* out) const {
  static_cast<WaterfallCore&>(*out) = *done.wf;
  out->hops.resize(done.hops.size());
  for (std::size_t i = 0; i < done.hops.size(); ++i) {
    out->hops[i].port = port_names_[done.hops[i].port];
    out->hops[i].wait = done.hops[i].wait;
    out->hops[i].service = done.hops[i].service;
  }
}

bool LatencyLedger::on_complete(std::uint64_t task, double t_complete,
                                int retries, bool counted, TaskWaterfall* out) {
  const Completed done = complete(task, t_complete, retries, counted);
  if (!done) return false;
  to_row(done, out);
  return true;
}

void LatencyLedger::clear() {
  // Run end: drop the open entries and hand the pool and the index back,
  // so their high water does not overlap the run's finalize. The port
  // table stays: summaries are materialized by port name afterwards.
  chunks_ = decltype(chunks_)();
  free_ = decltype(free_)();
  index_ = decltype(index_)();
  pool_size_ = 0;
  live_ = 0;
}

// ---------------------------------------------------------------------------
// AttributionSummary

void StageAccum::add(const StageBreakdown& s) {
  ++count;
  wait += s.wait;
  service += s.service;
  wait_hist.observe(s.wait);
  service_hist.observe(s.service);
}

void StageAccum::merge(const StageAccum& other) {
  count += other.count;
  wait += other.wait;
  service += other.service;
  wait_hist.merge(other.wait_hist);
  service_hist.merge(other.service_hist);
}

void AttributionSummary::ClassAccum::add(const WaterfallCore& wf) {
  ++tasks;
  for (int i = 0; i < kAttrStageCount; ++i) {
    const auto& s = wf.stages[static_cast<std::size_t>(i)];
    if (s.wait == 0.0 && s.service == 0.0) continue;
    stages[static_cast<std::size_t>(i)].add(s);
  }
  e2e.observe(wf.e2e);
  stall.observe(wf.stall);
}

void AttributionSummary::CalibrationAccum::add(double err) {
  ++count;
  err_sum += err;
  abs_err_sum += std::abs(err);
  max_abs_err = std::max(max_abs_err, std::abs(err));
}

void AttributionSummary::add(const TaskWaterfall& wf,
                             const std::string& cls_name) {
  active = true;
  ++tasks;
  auto cit = std::lower_bound(
      classes.begin(), classes.end(), cls_name,
      [](const ClassAccum& c, const std::string& n) { return c.name < n; });
  if (cit == classes.end() || cit->name != cls_name) {
    cit = classes.insert(cit, ClassAccum{});
    cit->name = cls_name;
  }
  cit->add(wf);
  for (const auto& hop : wf.hops) {
    auto pit = std::lower_bound(
        ports.begin(), ports.end(), hop.port,
        [](const std::pair<std::string, PortAccum>& p, const std::string& n) {
          return p.first < n;
        });
    if (pit == ports.end() || pit->first != hop.port)
      pit = ports.insert(pit, {hop.port, PortAccum{}});
    pit->second.add(hop.wait, hop.service);
  }
  bool any = false;
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    double err = 0.0;
    if (!wf.calibration_error(static_cast<CalibComponent>(ci), &err)) continue;
    any = true;
    calibration[static_cast<std::size_t>(ci)].add(err);
  }
  if (any) ++calibrated_tasks;
}

void AttributionSummary::merge(const AttributionSummary& other) {
  if (!other.active) return;
  active = true;
  tasks += other.tasks;
  incomplete += other.incomplete;
  calibrated_tasks += other.calibrated_tasks;
  for (const auto& oc : other.classes) {
    auto cit = std::lower_bound(
        classes.begin(), classes.end(), oc.name,
        [](const ClassAccum& c, const std::string& n) { return c.name < n; });
    if (cit == classes.end() || cit->name != oc.name) {
      cit = classes.insert(cit, ClassAccum{});
      cit->name = oc.name;
    }
    cit->tasks += oc.tasks;
    for (int i = 0; i < kAttrStageCount; ++i)
      cit->stages[static_cast<std::size_t>(i)].merge(
          oc.stages[static_cast<std::size_t>(i)]);
    cit->e2e.merge(oc.e2e);
    cit->stall.merge(oc.stall);
  }
  for (const auto& op : other.ports) {
    auto pit = std::lower_bound(
        ports.begin(), ports.end(), op.first,
        [](const std::pair<std::string, PortAccum>& p, const std::string& n) {
          return p.first < n;
        });
    if (pit == ports.end() || pit->first != op.first)
      pit = ports.insert(pit, {op.first, PortAccum{}});
    pit->second.spans += op.second.spans;
    pit->second.wait += op.second.wait;
    pit->second.service += op.second.service;
  }
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    auto& ca = calibration[static_cast<std::size_t>(ci)];
    const auto& co = other.calibration[static_cast<std::size_t>(ci)];
    ca.count += co.count;
    ca.err_sum += co.err_sum;
    ca.abs_err_sum += co.abs_err_sum;
    ca.max_abs_err = std::max(ca.max_abs_err, co.max_abs_err);
  }
}

void AttributionSummary::to_json(std::ostream& out) const {
  out << "{\"tasks\":" << tasks << ",\"incomplete\":" << incomplete
      << ",\"calibrated\":" << calibrated_tasks << ",\"classes\":[";
  bool first_c = true;
  for (const auto& c : classes) {
    if (!first_c) out << ',';
    first_c = false;
    out << "{\"name\":\"" << json_escape(c.name) << "\",\"tasks\":" << c.tasks
        << ",\"e2e_p50\":" << num(c.e2e.quantile(0.50))
        << ",\"e2e_p95\":" << num(c.e2e.quantile(0.95))
        << ",\"stall_mean\":" << num(c.stall.stats().mean()) << ",\"stages\":[";
    bool first_s = true;
    for (int i = 0; i < kAttrStageCount; ++i) {
      const auto& s = c.stages[static_cast<std::size_t>(i)];
      if (s.count == 0) continue;
      if (!first_s) out << ',';
      first_s = false;
      out << "{\"stage\":\"" << kStageNames[i] << "\",\"count\":" << s.count
          << ",\"wait\":" << num(s.wait) << ",\"service\":" << num(s.service)
          << ",\"wait_p95\":" << num(s.wait_hist.quantile(0.95))
          << ",\"service_p95\":" << num(s.service_hist.quantile(0.95)) << '}';
    }
    out << "]}";
  }
  out << "],\"ports\":[";
  bool first_p = true;
  for (const auto& [port, pa] : ports) {
    if (!first_p) out << ',';
    first_p = false;
    out << "{\"port\":\"" << json_escape(port) << "\",\"spans\":" << pa.spans
        << ",\"wait\":" << num(pa.wait) << ",\"service\":" << num(pa.service)
        << '}';
  }
  out << "],\"calibration\":[";
  bool first_k = true;
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    const auto& ca = calibration[static_cast<std::size_t>(ci)];
    if (ca.count == 0) continue;
    if (!first_k) out << ',';
    first_k = false;
    out << "{\"component\":\"" << kCalibNames[ci] << "\",\"count\":" << ca.count
        << ",\"err_sum\":" << num(ca.err_sum)
        << ",\"abs_err_sum\":" << num(ca.abs_err_sum)
        << ",\"max_abs_err\":" << num(ca.max_abs_err) << '}';
  }
  out << "]}";
}

// ---------------------------------------------------------------------------
// File formats

namespace {

const std::string& cls_name_of(const TaskWaterfall& wf,
                               const std::vector<std::string>& class_names) {
  static const std::string kDefault = "default";
  if (wf.cls < class_names.size()) return class_names[wf.cls];
  return kDefault;
}

}  // namespace

void write_waterfalls_jsonl(std::ostream& out,
                            const std::vector<TaskWaterfall>& rows,
                            const std::vector<std::string>& class_names) {
  for (const auto& wf : rows) {
    out << "{\"task\":" << wf.task << ",\"class\":\""
        << json_escape(cls_name_of(wf, class_names))
        << "\",\"device\":" << wf.device << ",\"t_arrive\":"
        << num(wf.t_arrive) << ",\"t_complete\":" << num(wf.t_complete)
        << ",\"e2e\":" << num(wf.e2e) << ",\"block\":" << wf.block
        << ",\"retries\":" << wf.retries
        << ",\"offloaded\":" << (wf.offloaded ? "true" : "false")
        << ",\"counted\":" << (wf.counted ? "true" : "false")
        << ",\"stall\":" << num(wf.stall) << ",\"stages\":{";
    bool first = true;
    for (int i = 0; i < kAttrStageCount; ++i) {
      const auto& s = wf.stages[static_cast<std::size_t>(i)];
      if (s.wait == 0.0 && s.service == 0.0) continue;
      if (!first) out << ',';
      first = false;
      out << '"' << kStageNames[i] << "\":{\"wait\":" << num(s.wait)
          << ",\"service\":" << num(s.service) << '}';
    }
    out << '}';
    if (!wf.hops.empty()) {
      out << ",\"hops\":[";
      for (std::size_t i = 0; i < wf.hops.size(); ++i) {
        if (i) out << ',';
        out << "{\"port\":\"" << json_escape(wf.hops[i].port)
            << "\",\"wait\":" << num(wf.hops[i].wait)
            << ",\"service\":" << num(wf.hops[i].service) << '}';
      }
      out << ']';
    }
    if (wf.pred.valid) {
      out << ",\"pred\":{\"local_wait\":" << num(wf.pred.local_wait)
          << ",\"local_service\":" << num(wf.pred.local_service)
          << ",\"uplink\":" << num(wf.pred.uplink)
          << ",\"edge_wait\":" << num(wf.pred.edge_wait)
          << ",\"edge_service\":" << num(wf.pred.edge_service)
          << ",\"x\":" << num(wf.pred.x) << '}';
    }
    out << "}\n";
  }
}

void write_calibration_csv(std::ostream& out,
                           const std::vector<TaskWaterfall>& rows,
                           const std::vector<std::string>& class_names) {
  out << "task,class,device,block,retries,offloaded,x";
  for (int ci = 0; ci < kCalibComponentCount; ++ci) {
    out << ",pred_" << kCalibNames[ci] << ",actual_" << kCalibNames[ci]
        << ",err_" << kCalibNames[ci];
  }
  out << '\n';
  for (const auto& wf : rows) {
    if (!wf.pred.valid) continue;
    out << wf.task << ',' << cls_name_of(wf, class_names) << ',' << wf.device
        << ',' << wf.block << ',' << wf.retries << ','
        << (wf.offloaded ? 1 : 0) << ',' << num(wf.pred.x);
    const double preds[kCalibComponentCount] = {
        wf.pred.local_wait, wf.pred.local_service, wf.pred.uplink,
        wf.pred.edge_wait, wf.pred.edge_service};
    const auto& local =
        wf.stages[static_cast<std::size_t>(AttrStage::kLocalCompute)];
    const auto& up = wf.stages[static_cast<std::size_t>(AttrStage::kUplink)];
    const auto& edge =
        wf.stages[static_cast<std::size_t>(AttrStage::kEdgeCompute)];
    const double actuals[kCalibComponentCount] = {
        local.wait, local.service, up.wait + up.service, edge.wait,
        edge.service};
    for (int ci = 0; ci < kCalibComponentCount; ++ci) {
      out << ',' << num(preds[ci]) << ',' << num(actuals[ci]) << ',';
      double err = 0.0;
      if (wf.calibration_error(static_cast<CalibComponent>(ci), &err))
        out << num(err);
    }
    out << '\n';
  }
}

}  // namespace leime::obs
