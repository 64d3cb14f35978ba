// Multi-edge deployments — an extension beyond the paper's single edge.
//
// Real wild-edge deployments expose several edge servers (gateways, micro
// data centers) with heterogeneous capacities and per-device link quality;
// each device must be *associated* with one edge before LEIME's per-edge
// machinery (KKT shares, exit setting, online offloading) applies. This
// module provides association policies and an end-to-end runner that
// partitions the fleet, designs per-edge ME-DNNs, and simulates each edge
// cell (cells are independent once associated: each edge has its own
// uplink set and cloud connection).
#pragma once

#include <string>
#include <vector>

#include "models/profile.h"
#include "policy/engine.h"
#include "sim/scenario.h"

namespace leime::sim {

/// One edge server of the deployment.
struct EdgeSpec {
  double flops = core::kEdgeDesktopFlops;
  double cloud_bw = leime::util::mbps(100.0);
  double cloud_lat = leime::util::ms(30.0);
};

/// Link quality between one device and one edge.
struct LinkQuality {
  double bandwidth = leime::util::mbps(10.0);
  double latency = leime::util::ms(20.0);
};

/// A multi-edge deployment: devices x edges with a full link matrix.
struct MultiEdgeConfig {
  std::vector<EdgeSpec> edges;
  std::vector<DeviceSpec> devices;
  /// links[d][e]: quality of device d's link to edge e. Must be a full
  /// devices.size() x edges.size() matrix.
  std::vector<std::vector<LinkQuality>> links;
  double cloud_flops = core::kCloudV100Flops;
  core::LyapunovConfig lyapunov;
  double duration = 60.0;
  double warmup = 5.0;
  std::uint64_t seed = 42;

  /// Policy-core options for the association/design B&B loops — the
  /// LEIME-aware association runs one exit-setting search per (device,
  /// edge) pair, and warm_start seeds each from the previous pair's
  /// setting. Defaults off (reference behaviour); results are identical
  /// either way (tests/policy/policy_diff_test.cpp).
  policy::Config policy_core;
};

enum class AssociationPolicy {
  kBestLink,     ///< each device picks its highest-bandwidth edge
  kLeastLoaded,  ///< greedy: heaviest devices first onto the edge with the
                 ///< most remaining capacity per expected FLOP of load
  kLeimeAware,   ///< greedy by the LEIME cost model: each device joins the
                 ///< edge minimising its expected TCT given the load
                 ///< already assigned there
};

std::string to_string(AssociationPolicy policy);

/// Computes assignment[d] = edge index for every device.
/// Throws std::invalid_argument on malformed configs (empty fleet/edges,
/// ragged link matrix).
std::vector<int> associate(const MultiEdgeConfig& config,
                           const models::ModelProfile& profile,
                           AssociationPolicy policy);

/// Outcome of a multi-edge run.
struct MultiEdgeResult {
  std::vector<int> assignment;            ///< device -> edge
  std::vector<SimResult> per_edge;        ///< one DES result per edge cell
  double mean_tct = 0.0;                  ///< task-weighted across cells
  std::size_t completed = 0;
};

/// Associates, designs a per-edge ME-DNN (branch-and-bound on that cell's
/// average conditions), and simulates every cell.
MultiEdgeResult run_multi_edge(const MultiEdgeConfig& config,
                               const models::ModelProfile& profile,
                               AssociationPolicy policy);

}  // namespace leime::sim
