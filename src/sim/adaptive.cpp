#include "sim/adaptive.h"

#include <stdexcept>

#include "core/exit_setting.h"
#include "sim/simulation.h"

namespace leime::sim {

namespace {

/// Fleet-average environment during [start, start + len), sampling traces
/// at the epoch midpoint.
core::Environment epoch_environment(const ScenarioConfig& base, double start,
                                    double len) {
  core::Environment env;
  env.caps.edge_flops = base.edge_flops;
  env.caps.cloud_flops = base.cloud_flops;
  env.net.edge_cloud_bw = base.edge_cloud_bw;
  env.net.edge_cloud_lat = base.edge_cloud_lat;
  const double mid = start + 0.5 * len;
  double flops = 0.0, bw = 0.0, lat = 0.0;
  for (const auto& dev : base.devices) {
    flops += dev.flops;
    bw += dev.uplink_bw_trace ? dev.uplink_bw_trace->value_at(mid)
                              : dev.uplink_bw;
    lat += dev.uplink_lat_trace ? dev.uplink_lat_trace->value_at(mid)
                                : dev.uplink_lat;
  }
  const auto n = static_cast<double>(base.devices.size());
  env.caps.device_flops = flops / n;
  env.net.dev_edge_bw = bw / n;
  env.net.dev_edge_lat = lat / n;
  return env;
}

/// The scenario restricted to [start, start + len), with traces shifted to
/// local time zero.
ScenarioConfig epoch_scenario(const ScenarioConfig& base, double start,
                              double len,
                              const core::MeDnnPartition& partition) {
  ScenarioConfig cfg = base;
  cfg.partition = partition;
  cfg.duration = len;
  cfg.warmup = 0.0;
  cfg.seed = base.seed + static_cast<std::uint64_t>(start * 1000.0);
  for (auto& dev : cfg.devices) {
    if (dev.rate_trace) dev.rate_trace = dev.rate_trace->shifted(start);
    if (dev.uplink_bw_trace)
      dev.uplink_bw_trace = dev.uplink_bw_trace->shifted(start);
    if (dev.uplink_lat_trace)
      dev.uplink_lat_trace = dev.uplink_lat_trace->shifted(start);
  }
  return cfg;
}

}  // namespace

AdaptiveResult run_adaptive_scenario(const models::ModelProfile& profile,
                                     const ScenarioConfig& base,
                                     double epoch_length, bool redesign) {
  if (base.devices.empty())
    throw std::invalid_argument("run_adaptive_scenario: no devices");
  if (epoch_length <= 0.0 || epoch_length > base.duration)
    throw std::invalid_argument(
        "run_adaptive_scenario: epoch_length outside (0, duration]");

  AdaptiveResult out;
  double tct_weighted = 0.0;
  core::ExitCombo deployed{};
  bool have_design = false;
  for (double start = 0.0; start + 1e-9 < base.duration;
       start += epoch_length) {
    const double len = std::min(epoch_length, base.duration - start);
    if (redesign || !have_design) {
      const auto env = epoch_environment(base, start, len);
      core::CostModel cost(profile, env);
      deployed = core::branch_and_bound_exit_setting(cost).combo;
      have_design = true;
    }
    const auto partition = core::make_partition(profile, deployed);
    const auto cfg = epoch_scenario(base, start, len, partition);
    const auto result = run_scenario(cfg);

    EpochReport report;
    report.start = start;
    report.combo = deployed;
    report.mean_tct = result.tct.mean;
    report.completed = result.completed;
    report.mean_bandwidth = epoch_environment(base, start, len).net.dev_edge_bw;
    out.epochs.push_back(report);

    tct_weighted += result.tct.mean * static_cast<double>(result.completed);
    out.total_completed += result.completed;
  }
  out.overall_mean_tct =
      out.total_completed
          ? tct_weighted / static_cast<double>(out.total_completed)
          : 0.0;
  return out;
}

}  // namespace leime::sim
