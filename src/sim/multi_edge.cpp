#include "sim/multi_edge.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/exit_setting.h"
#include "policy/engine.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace leime::sim {

namespace {

void validate(const MultiEdgeConfig& cfg) {
  if (cfg.edges.empty())
    throw std::invalid_argument("MultiEdgeConfig: no edges");
  if (cfg.devices.empty())
    throw std::invalid_argument("MultiEdgeConfig: no devices");
  if (cfg.links.size() != cfg.devices.size())
    throw std::invalid_argument("MultiEdgeConfig: link matrix rows mismatch");
  for (const auto& row : cfg.links)
    if (row.size() != cfg.edges.size())
      throw std::invalid_argument(
          "MultiEdgeConfig: link matrix columns mismatch");
}

/// Expected TCT of device d on edge e under the LEIME cost model, with the
/// edge's capacity discounted by the FLOP load already assigned to it.
/// Routed through the policy engine: with warm_start on, the previous
/// (device, edge) search's combo seeds this one; with default knobs the
/// call is the plain cold branch-and-bound.
double expected_tct_on_edge(const MultiEdgeConfig& cfg,
                            const models::ModelProfile& profile, int d, int e,
                            double assigned_rate, policy::Engine& engine,
                            policy::Incumbent& incumbent) {
  core::Environment env;
  env.caps.device_flops = cfg.devices[static_cast<std::size_t>(d)].flops;
  // Heuristic capacity discount: each already-assigned task/s of load takes
  // an equal share of the edge; the candidate device sees what remains,
  // never less than 10%.
  const double own_rate =
      std::max(0.1, cfg.devices[static_cast<std::size_t>(d)].mean_rate);
  const double share = own_rate / std::max(own_rate, assigned_rate + own_rate);
  env.caps.edge_flops =
      std::max(0.1, share) * cfg.edges[static_cast<std::size_t>(e)].flops;
  env.caps.cloud_flops = cfg.cloud_flops;
  const auto& link =
      cfg.links[static_cast<std::size_t>(d)][static_cast<std::size_t>(e)];
  env.net.dev_edge_bw = link.bandwidth;
  env.net.dev_edge_lat = link.latency;
  env.net.edge_cloud_bw = cfg.edges[static_cast<std::size_t>(e)].cloud_bw;
  env.net.edge_cloud_lat = cfg.edges[static_cast<std::size_t>(e)].cloud_lat;
  core::CostModel cm(profile, env);
  return engine.exit_setting(cm, &incumbent).cost;
}

}  // namespace

std::string to_string(AssociationPolicy policy) {
  switch (policy) {
    case AssociationPolicy::kBestLink: return "best-link";
    case AssociationPolicy::kLeastLoaded: return "least-loaded";
    case AssociationPolicy::kLeimeAware: return "LEIME-aware";
  }
  throw std::invalid_argument("to_string: unknown AssociationPolicy");
}

std::vector<int> associate(const MultiEdgeConfig& config,
                           const models::ModelProfile& profile,
                           AssociationPolicy policy) {
  validate(config);
  const auto n_dev = config.devices.size();
  const auto n_edge = config.edges.size();
  std::vector<int> assignment(n_dev, 0);

  switch (policy) {
    case AssociationPolicy::kBestLink: {
      for (std::size_t d = 0; d < n_dev; ++d) {
        std::size_t best = 0;
        for (std::size_t e = 1; e < n_edge; ++e)
          if (config.links[d][e].bandwidth >
              config.links[d][best].bandwidth)
            best = e;
        assignment[d] = static_cast<int>(best);
      }
      return assignment;
    }
    case AssociationPolicy::kLeastLoaded: {
      // Heaviest devices first; each picks the edge with the most capacity
      // per unit of already-assigned load.
      std::vector<std::size_t> order(n_dev);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return config.devices[a].mean_rate > config.devices[b].mean_rate;
      });
      std::vector<double> load(n_edge, 0.0);  // assigned tasks/s
      for (std::size_t d : order) {
        std::size_t best = 0;
        double best_headroom = -std::numeric_limits<double>::infinity();
        for (std::size_t e = 0; e < n_edge; ++e) {
          const double headroom =
              config.edges[e].flops / (1.0 + load[e]);
          if (headroom > best_headroom) {
            best_headroom = headroom;
            best = e;
          }
        }
        assignment[d] = static_cast<int>(best);
        load[best] += config.devices[d].mean_rate;
      }
      return assignment;
    }
    case AssociationPolicy::kLeimeAware: {
      // Heaviest first; each joins the edge minimising its own expected
      // TCT under the cost model, accounting for load already placed.
      std::vector<std::size_t> order(n_dev);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return config.devices[a].mean_rate > config.devices[b].mean_rate;
      });
      std::vector<double> load(n_edge, 0.0);
      policy::Engine engine(config.policy_core);
      policy::Incumbent incumbent;
      for (std::size_t d : order) {
        std::size_t best = 0;
        double best_tct = std::numeric_limits<double>::infinity();
        for (std::size_t e = 0; e < n_edge; ++e) {
          const double tct = expected_tct_on_edge(
              config, profile, static_cast<int>(d), static_cast<int>(e),
              load[e], engine, incumbent);
          if (tct < best_tct) {
            best_tct = tct;
            best = e;
          }
        }
        assignment[d] = static_cast<int>(best);
        load[best] += config.devices[d].mean_rate;
      }
      return assignment;
    }
  }
  throw std::invalid_argument("associate: unknown AssociationPolicy");
}

MultiEdgeResult run_multi_edge(const MultiEdgeConfig& config,
                               const models::ModelProfile& profile,
                               AssociationPolicy policy) {
  MultiEdgeResult out;
  out.assignment = associate(config, profile, policy);
  const auto n_edge = config.edges.size();

  // Per-cell ME-DNN designs share one engine: with warm_start on, the
  // previous cell's combo warm-starts the next search.
  policy::Engine engine(config.policy_core);
  policy::Incumbent incumbent;
  double tct_weighted = 0.0;
  for (std::size_t e = 0; e < n_edge; ++e) {
    // Gather this cell's devices with their cell-specific links.
    ScenarioConfig cell;
    double flops_sum = 0.0, bw_sum = 0.0, lat_sum = 0.0;
    for (std::size_t d = 0; d < config.devices.size(); ++d) {
      if (out.assignment[d] != static_cast<int>(e)) continue;
      DeviceSpec dev = config.devices[d];
      dev.uplink_bw = config.links[d][e].bandwidth;
      dev.uplink_lat = config.links[d][e].latency;
      cell.devices.push_back(dev);
      flops_sum += dev.flops;
      bw_sum += dev.uplink_bw;
      lat_sum += dev.uplink_lat;
    }
    if (cell.devices.empty()) {
      out.per_edge.push_back({});
      continue;
    }
    // Per-cell exit setting from the cell's average conditions, with the
    // edge capacity averaged per device (the paper's F_av^e).
    const auto n_cell = static_cast<double>(cell.devices.size());
    core::Environment env;
    env.caps.device_flops = flops_sum / n_cell;
    env.caps.edge_flops = config.edges[e].flops / n_cell;
    env.caps.cloud_flops = config.cloud_flops;
    env.net.dev_edge_bw = bw_sum / n_cell;
    env.net.dev_edge_lat = lat_sum / n_cell;
    env.net.edge_cloud_bw = config.edges[e].cloud_bw;
    env.net.edge_cloud_lat = config.edges[e].cloud_lat;
    core::CostModel cm(profile, env);
    cell.partition = core::make_partition(
        profile, engine.exit_setting(cm, &incumbent).combo);

    cell.edge_flops = config.edges[e].flops;
    cell.cloud_flops = config.cloud_flops;
    cell.edge_cloud_bw = config.edges[e].cloud_bw;
    cell.edge_cloud_lat = config.edges[e].cloud_lat;
    cell.lyapunov = config.lyapunov;
    cell.duration = config.duration;
    cell.warmup = config.warmup;
    cell.seed = config.seed + e;

    const auto result = run_scenario(cell);
    tct_weighted += result.tct.mean * static_cast<double>(result.completed);
    out.completed += result.completed;
    out.per_edge.push_back(result);
  }
  out.mean_tct = out.completed
                     ? tct_weighted / static_cast<double>(out.completed)
                     : 0.0;
  return out;
}

}  // namespace leime::sim
