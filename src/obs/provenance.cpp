#include "obs/provenance.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"

namespace leime::obs {

namespace {

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

void record_to_json(std::ostream& out, const DecisionRecord& r) {
  out << "{\"type\":\"decision\",\"seq\":" << r.seq << ",\"t\":" << num(r.t)
      << ",\"device\":" << r.device << ",\"class\":\"" << json_escape(r.cls)
      << "\",\"kind\":\"" << decision_kind_name(r.kind) << "\",\"path\":\""
      << decision_path_name(r.path) << "\",\"bandwidth\":" << num(r.bandwidth)
      << ",\"edge_flops\":" << num(r.edge_flops)
      << ",\"queue_device\":" << num(r.queue_device)
      << ",\"queue_edge\":" << num(r.queue_edge) << ",\"e1\":" << r.e1
      << ",\"e2\":" << r.e2 << ",\"e3\":" << r.e3 << ",\"x\":" << num(r.x)
      << ",\"cost\":" << num(r.cost) << ",\"explored\":" << r.explored
      << ",\"pruned\":" << r.pruned << ",\"margin\":";
  if (r.margin_valid)
    out << num(r.margin);
  else
    out << "null";
  out << ",\"oracle_cost\":";
  if (r.oracle)
    out << num(r.oracle_cost) << ",\"regret\":" << num(r.regret);
  else
    out << "null,\"regret\":null";
  out << '}';
}

}  // namespace

void ProvenanceConfig::validate() const {
  if (!enabled()) return;
  if (ring_capacity == 0)
    throw std::invalid_argument("provenance: ring_capacity must be positive");
}

const char* decision_kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::kExitSetting: return "exit_setting";
    case DecisionKind::kOffload: return "offload";
  }
  return "unknown";
}

const char* decision_path_name(DecisionPath path) {
  switch (path) {
    case DecisionPath::kCold: return "cold";
    case DecisionPath::kWarmStart: return "warm_start";
    case DecisionPath::kDirect: return "direct";
  }
  return "unknown";
}

HistogramOptions regret_buckets() { return {1e-9, 1e3, 48}; }

void ProvenanceSummary::merge(const ProvenanceSummary& other) {
  if (!other.active) return;
  active = true;
  decisions += other.decisions;
  sampled += other.sampled;
  oracle_runs += other.oracle_runs;
  ring_evictions += other.ring_evictions;
  dumps += other.dumps;
  for (int k = 0; k < kDecisionKindCount; ++k) {
    kinds[static_cast<std::size_t>(k)] +=
        other.kinds[static_cast<std::size_t>(k)];
    kind_regret[static_cast<std::size_t>(k)].merge(
        other.kind_regret[static_cast<std::size_t>(k)]);
  }
  for (int p = 0; p < kDecisionPathCount; ++p)
    paths[static_cast<std::size_t>(p)] +=
        other.paths[static_cast<std::size_t>(p)];
  for (const auto& oc : other.classes) {
    auto it = std::lower_bound(
        classes.begin(), classes.end(), oc.name,
        [](const ClassAccum& c, const std::string& n) { return c.name < n; });
    if (it == classes.end() || it->name != oc.name) {
      it = classes.insert(it, ClassAccum{});
      it->name = oc.name;
    }
    it->sampled += oc.sampled;
    it->oracle_runs += oc.oracle_runs;
    it->regret_sum += oc.regret_sum;
    it->max_regret = std::max(it->max_regret, oc.max_regret);
    it->regret.merge(oc.regret);
  }
}

void ProvenanceSummary::to_json(std::ostream& out) const {
  out << "{\"decisions\":" << decisions << ",\"sampled\":" << sampled
      << ",\"oracle_runs\":" << oracle_runs
      << ",\"ring_evictions\":" << ring_evictions << ",\"dumps\":" << dumps
      << ",\"kinds\":{";
  for (int k = 0; k < kDecisionKindCount; ++k) {
    if (k) out << ',';
    const auto idx = static_cast<std::size_t>(k);
    const Histogram& h = kind_regret[idx];
    out << '"' << decision_kind_name(static_cast<DecisionKind>(k))
        << "\":{\"sampled\":" << kinds[idx]
        << ",\"regret_count\":" << h.stats().count()
        << ",\"regret_sum\":" << num(h.stats().sum())
        << ",\"regret_max\":" << num(h.stats().max())
        << ",\"regret_p95\":" << num(h.quantile(0.95)) << '}';
  }
  out << "},\"paths\":{";
  for (int p = 0; p < kDecisionPathCount; ++p) {
    if (p) out << ',';
    out << '"' << decision_path_name(static_cast<DecisionPath>(p))
        << "\":" << paths[static_cast<std::size_t>(p)];
  }
  out << "},\"classes\":[";
  bool first = true;
  for (const auto& c : classes) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(c.name)
        << "\",\"sampled\":" << c.sampled
        << ",\"oracle_runs\":" << c.oracle_runs
        << ",\"regret_sum\":" << num(c.regret_sum)
        << ",\"regret_max\":" << num(c.max_regret)
        << ",\"regret_p95\":" << num(c.regret.quantile(0.95)) << '}';
  }
  out << "]}";
}

ProvenanceRecorder::ProvenanceRecorder(ProvenanceConfig config)
    : cfg_(std::move(config)), sample_n_(cfg_.effective_sample_n()) {
  cfg_.validate();
  sum_.active = cfg_.enabled();
}

bool ProvenanceRecorder::begin_decision(std::uint64_t* seq, bool* oracle) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t s = next_seq_++;
  if (seq) *seq = s;
  ++sum_.decisions;
  if (sample_n_ == 0 || s % sample_n_ != 0) {
    if (oracle) *oracle = false;
    return false;
  }
  if (oracle)
    *oracle = cfg_.oracle_sample_n > 0 && s % cfg_.oracle_sample_n == 0;
  return true;
}

void ProvenanceRecorder::record(DecisionRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  ++sum_.sampled;
  ++sum_.kinds[static_cast<std::size_t>(rec.kind)];
  ++sum_.paths[static_cast<std::size_t>(rec.path)];
  auto it = std::lower_bound(sum_.classes.begin(), sum_.classes.end(), rec.cls,
                             [](const ProvenanceSummary::ClassAccum& c,
                                const std::string& n) { return c.name < n; });
  if (it == sum_.classes.end() || it->name != rec.cls) {
    it = sum_.classes.insert(it, ProvenanceSummary::ClassAccum{});
    it->name = rec.cls;
  }
  ++it->sampled;
  if (rec.oracle) {
    ++sum_.oracle_runs;
    ++it->oracle_runs;
    it->regret_sum += rec.regret;
    it->max_regret = std::max(it->max_regret, rec.regret);
    it->regret.observe(rec.regret);
    sum_.kind_regret[static_cast<std::size_t>(rec.kind)].observe(rec.regret);
  }
  ring_.push_back(std::move(rec));
  while (ring_.size() > cfg_.ring_capacity) {
    ring_.pop_front();
    ++sum_.ring_evictions;
  }
}

void ProvenanceRecorder::note_dump() {
  std::lock_guard<std::mutex> lock(mu_);
  ++sum_.dumps;
}

std::vector<DecisionRecord> ProvenanceRecorder::window() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

ProvenanceSummary ProvenanceRecorder::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

void write_decisions_jsonl(std::ostream& out,
                           const std::vector<DecisionRecord>& records) {
  for (const auto& r : records) {
    record_to_json(out, r);
    out << '\n';
  }
}

void write_decisions_file(const std::string& path,
                          const std::vector<DecisionRecord>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("provenance: cannot open " + path);
  write_decisions_jsonl(out, records);
  out.flush();
  if (!out.good()) throw std::runtime_error("provenance: write error on " + path);
  out.close();
  if (!util::fsync_path(path))
    throw std::runtime_error("provenance: fsync failed for " + path);
}

void write_flight_dump(std::ostream& out, double t, const std::string& cls,
                       double miss_rate, double burn,
                       std::uint64_t window_tasks,
                       const std::vector<DecisionRecord>& window,
                       const std::vector<OpenSpanNote>& open_spans) {
  out << "{\"type\":\"alert\",\"t\":" << num(t) << ",\"class\":\""
      << json_escape(cls) << "\",\"miss_rate\":" << num(miss_rate)
      << ",\"burn\":" << num(burn) << ",\"window_tasks\":" << window_tasks
      << ",\"decisions\":" << window.size()
      << ",\"open_spans\":" << open_spans.size() << "}\n";
  write_decisions_jsonl(out, window);
  for (const auto& s : open_spans) {
    out << "{\"type\":\"open_span\",\"task\":" << s.task
        << ",\"device\":" << s.device << ",\"phase\":\""
        << json_escape(s.phase) << "\",\"track\":\"" << json_escape(s.track)
        << "\",\"t_begin\":" << num(s.t_begin) << "}\n";
  }
}

}  // namespace leime::obs
