#include "sim/faults.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace leime::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void check_window(const FaultWindow& w, const char* what, bool allow_open) {
  if (w.start < 0.0 || !std::isfinite(w.start))
    throw std::invalid_argument(std::string(what) +
                                ": window start must be finite and >= 0");
  if (w.end <= w.start)
    throw std::invalid_argument(
        std::string(what) +
        ": window end must be after start (got end <= start)");
  if (!allow_open && !std::isfinite(w.end))
    throw std::invalid_argument(std::string(what) +
                                ": open-ended windows are only allowed for "
                                "edge crashes (use a finite end)");
}

// Shortest round-trip double formatting, matching the JSONL sink contract.
std::string num(double v) {
  if (v == kInf) return "inf";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double parse_num(const std::string& text, const std::string& key) {
  if (text == "inf") return kInf;
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("[faults] " + key + ": '" + text +
                                "' is not a number");
  }
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// "10-20" or "40-" (open end) with an optional "<prefix><idx>:" scope
// ('d' for device-scoped windows, 'a' for AP-scoped ones).
FaultWindow parse_window(const std::string& item, const std::string& key,
                         char scope_prefix = 'd') {
  FaultWindow w;
  std::string body = item;
  if (body.size() > 1 && body[0] == scope_prefix) {
    const auto colon = body.find(':');
    if (colon != std::string::npos) {
      const auto idx = body.substr(1, colon - 1);
      w.device = static_cast<int>(parse_num(idx, key));
      body = body.substr(colon + 1);
    }
  }
  const auto dash = body.find('-');
  if (dash == std::string::npos)
    throw std::invalid_argument("[faults] " + key + ": window '" + item +
                                "' must look like start-end (e.g. 10-20)");
  w.start = parse_num(body.substr(0, dash), key);
  const auto end_text = body.substr(dash + 1);
  w.end = end_text.empty() ? kInf : parse_num(end_text, key);
  return w;
}

std::vector<FaultWindow> parse_windows(const std::string& text,
                                       const std::string& key,
                                       char scope_prefix = 'd') {
  std::vector<FaultWindow> out;
  for (const auto& item : split(text, ','))
    out.push_back(parse_window(item, key, scope_prefix));
  return out;
}

// "2:30-60" (device 2 leaves at 30, rejoins at 60) or "2:30-" (never).
ChurnEvent parse_churn_event(const std::string& item) {
  const auto colon = item.find(':');
  if (colon == std::string::npos)
    throw std::invalid_argument(
        "[faults] churn: entry '" + item +
        "' must look like device:leave-rejoin (e.g. 2:30-60 or 2:30-)");
  ChurnEvent e;
  e.device = static_cast<int>(parse_num(item.substr(0, colon), "churn"));
  const auto body = item.substr(colon + 1);
  const auto dash = body.find('-');
  if (dash == std::string::npos)
    throw std::invalid_argument("[faults] churn: entry '" + item +
                                "' is missing the leave-rejoin range");
  e.leave = parse_num(body.substr(0, dash), "churn");
  const auto rejoin_text = body.substr(dash + 1);
  e.rejoin = rejoin_text.empty() ? -1.0 : parse_num(rejoin_text, "churn");
  return e;
}

std::string window_to_string(const FaultWindow& w, char scope_prefix = 'd') {
  std::string out;
  if (w.device >= 0) out += scope_prefix + std::to_string(w.device) + ":";
  out += num(w.start) + "-";
  if (std::isfinite(w.end)) out += num(w.end);
  return out;
}

}  // namespace

bool FaultPlan::enabled() const {
  return link.rate > 0.0 || !link.windows.empty() || edge.rate > 0.0 ||
         !edge.windows.empty() || !churn.events.empty() ||
         !ap_windows.empty();
}

void FaultPlan::validate(std::size_t num_devices) const {
  if (link.rate < 0.0)
    throw std::invalid_argument(
        "faults: link_outage_rate must be >= 0 (outage onsets per device "
        "per second)");
  if (link.mean_duration <= 0.0)
    throw std::invalid_argument("faults: link_outage_mean_s must be > 0");
  if (edge.rate < 0.0)
    throw std::invalid_argument(
        "faults: edge_crash_rate must be >= 0 (crashes per second)");
  if (edge.mean_downtime <= 0.0)
    throw std::invalid_argument("faults: edge_downtime_mean_s must be > 0");
  for (const auto& w : link.windows) {
    check_window(w, "faults: link_outage_windows", /*allow_open=*/false);
    if (w.device < -1 || w.device >= static_cast<int>(num_devices))
      throw std::invalid_argument(
          "faults: link_outage_windows names device " +
          std::to_string(w.device) + " but the fleet has " +
          std::to_string(num_devices) + " devices");
  }
  for (const auto& w : edge.windows)
    check_window(w, "faults: edge_down_windows", /*allow_open=*/true);
  for (const auto& w : ap_windows) {
    check_window(w, "faults: ap_outage_windows", /*allow_open=*/false);
    if (w.device < -1)
      throw std::invalid_argument(
          "faults: ap_outage_windows AP index must be >= 0 (or omit the "
          "a<idx>: scope for every AP)");
  }
  for (const auto& e : churn.events) {
    if (e.device < 0 || e.device >= static_cast<int>(num_devices))
      throw std::invalid_argument("faults: churn names device " +
                                  std::to_string(e.device) +
                                  " but the fleet has " +
                                  std::to_string(num_devices) + " devices");
    if (e.leave < 0.0 || !std::isfinite(e.leave))
      throw std::invalid_argument(
          "faults: churn leave time must be finite and >= 0");
    if (e.rejoin >= 0.0 && e.rejoin <= e.leave)
      throw std::invalid_argument(
          "faults: churn rejoin must be after leave (omit it for a "
          "permanent departure)");
  }
  if (degradation.detection_timeout <= 0.0)
    throw std::invalid_argument("faults: detection_timeout_s must be > 0");
  if (degradation.task_timeout < 0.0)
    throw std::invalid_argument(
        "faults: task_timeout_s must be >= 0 (0 disables task timeouts)");
  if (degradation.max_retries < 0)
    throw std::invalid_argument("faults: max_retries must be >= 0");
  if (degradation.retry_backoff < 0.0)
    throw std::invalid_argument("faults: retry_backoff_s must be >= 0");
  if (degradation.probe_period <= 0.0)
    throw std::invalid_argument("faults: probe_period_s must be > 0");
}

std::vector<FaultWindow> merge_windows(std::vector<FaultWindow> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              return a.start < b.start;
            });
  std::vector<FaultWindow> out;
  for (const auto& w : windows) {
    if (!out.empty() && w.start <= out.back().end)
      out.back().end = std::max(out.back().end, w.end);
    else
      out.push_back(w);
  }
  return out;
}

bool down_at(const std::vector<FaultWindow>& windows, double t) {
  for (const auto& w : windows) {
    if (t < w.start) return false;
    if (t < w.end) return true;
  }
  return false;
}

std::size_t FaultTimeline::link_outage_count() const {
  std::size_t n = 0;
  for (const auto& lane : link_down) n += lane.size();
  return n;
}

bool FaultTimeline::edge_up_at(double t) const {
  return !down_at(edge_down, t);
}

double FaultTimeline::next_edge_up(double t) const {
  for (const auto& w : edge_down) {
    if (t < w.start) return t;
    if (t < w.end) return w.end;  // +inf when the window never closes
  }
  return t;
}

FaultTimeline materialize_faults(const FaultPlan& plan,
                                 std::size_t num_devices, double horizon,
                                 util::Rng& rng) {
  FaultTimeline tl;
  tl.link_down.assign(num_devices, {});
  for (const auto& w : plan.link.windows) {
    if (w.device < 0)
      for (auto& lane : tl.link_down) lane.push_back(w);
    else
      tl.link_down[static_cast<std::size_t>(w.device)].push_back(w);
  }
  if (plan.link.rate > 0.0) {
    for (auto& lane : tl.link_down) {
      double t = 0.0;
      while ((t += rng.exponential(plan.link.rate)) < horizon) {
        const double d = rng.exponential(1.0 / plan.link.mean_duration);
        lane.push_back({t, t + d, -1});
        t += d;
      }
    }
  }
  for (auto& lane : tl.link_down) lane = merge_windows(std::move(lane));

  tl.edge_down = plan.edge.windows;
  if (plan.edge.rate > 0.0) {
    double t = 0.0;
    while ((t += rng.exponential(plan.edge.rate)) < horizon) {
      const double d = rng.exponential(1.0 / plan.edge.mean_downtime);
      tl.edge_down.push_back({t, t + d, -1});
      t += d;
    }
  }
  tl.edge_down = merge_windows(std::move(tl.edge_down));

  tl.ap_down = plan.ap_windows;

  tl.churn = plan.churn.events;
  std::sort(tl.churn.begin(), tl.churn.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.leave < b.leave;
            });
  return tl;
}

FaultPlan parse_faults_section(const util::IniSection& section) {
  section.require_known_keys({"link_outage_windows", "link_outage_rate",
                               "link_outage_mean_s", "edge_down_windows",
                               "edge_crash_rate", "edge_downtime_mean_s",
                               "ap_outage_windows", "churn",
                               "detection_timeout_s", "task_timeout_s",
                               "max_retries", "retry_backoff_s",
                               "probe_period_s"});

  FaultPlan plan;
  if (section.has("link_outage_windows"))
    plan.link.windows =
        parse_windows(section.get("link_outage_windows"), "link_outage_windows");
  plan.link.rate = section.get_double("link_outage_rate", plan.link.rate);
  plan.link.mean_duration =
      section.get_double("link_outage_mean_s", plan.link.mean_duration);
  if (section.has("edge_down_windows"))
    plan.edge.windows =
        parse_windows(section.get("edge_down_windows"), "edge_down_windows");
  plan.edge.rate = section.get_double("edge_crash_rate", plan.edge.rate);
  plan.edge.mean_downtime =
      section.get_double("edge_downtime_mean_s", plan.edge.mean_downtime);
  if (section.has("ap_outage_windows"))
    plan.ap_windows = parse_windows(section.get("ap_outage_windows"),
                                    "ap_outage_windows", 'a');
  if (section.has("churn"))
    for (const auto& item : split(section.get("churn"), ','))
      plan.churn.events.push_back(parse_churn_event(item));
  auto& deg = plan.degradation;
  deg.detection_timeout =
      section.get_double("detection_timeout_s", deg.detection_timeout);
  deg.task_timeout = section.get_double("task_timeout_s", deg.task_timeout);
  deg.max_retries = section.get_int32("max_retries", deg.max_retries);
  deg.retry_backoff =
      section.get_double("retry_backoff_s", deg.retry_backoff);
  deg.probe_period = section.get_double("probe_period_s", deg.probe_period);
  return plan;
}

std::string serialize_faults_ini(const FaultPlan& plan) {
  std::ostringstream os;
  os << "[faults]\n";
  auto windows_line = [&](const char* key,
                          const std::vector<FaultWindow>& windows) {
    if (windows.empty()) return;
    os << key << " = ";
    for (std::size_t i = 0; i < windows.size(); ++i)
      os << (i ? "," : "") << window_to_string(windows[i]);
    os << "\n";
  };
  windows_line("link_outage_windows", plan.link.windows);
  os << "link_outage_rate = " << num(plan.link.rate) << "\n"
     << "link_outage_mean_s = " << num(plan.link.mean_duration) << "\n";
  windows_line("edge_down_windows", plan.edge.windows);
  os << "edge_crash_rate = " << num(plan.edge.rate) << "\n"
     << "edge_downtime_mean_s = " << num(plan.edge.mean_downtime) << "\n";
  if (!plan.ap_windows.empty()) {
    os << "ap_outage_windows = ";
    for (std::size_t i = 0; i < plan.ap_windows.size(); ++i)
      os << (i ? "," : "") << window_to_string(plan.ap_windows[i], 'a');
    os << "\n";
  }
  if (!plan.churn.events.empty()) {
    os << "churn = ";
    for (std::size_t i = 0; i < plan.churn.events.size(); ++i) {
      const auto& e = plan.churn.events[i];
      os << (i ? "," : "") << e.device << ":" << num(e.leave) << "-";
      if (e.rejoin >= 0.0) os << num(e.rejoin);
    }
    os << "\n";
  }
  const auto& deg = plan.degradation;
  os << "detection_timeout_s = " << num(deg.detection_timeout) << "\n"
     << "task_timeout_s = " << num(deg.task_timeout) << "\n"
     << "max_retries = " << deg.max_retries << "\n"
     << "retry_backoff_s = " << num(deg.retry_backoff) << "\n"
     << "probe_period_s = " << num(deg.probe_period) << "\n";
  return os.str();
}

}  // namespace leime::sim
