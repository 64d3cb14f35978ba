#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/exit_setting.h"
#include "core/partition.h"
#include "hooks.h"
#include "models/zoo.h"
#include "policy/engine.h"
#include "runtime/experiment_plan.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace leime;

/// The fleet workload's size: the regime where simulator build, the eq. 27
/// allocation over n devices and fleet-wide eq. 20 dominate a run.
constexpr int kFleetDevices = 100000;
constexpr int kTinyFleetDevices = 3000;
/// Edge capacity and edge->cloud bandwidth per fleet device: the fleet's
/// edge is a pool sized with the fleet, so each device's share stays in
/// the paper's regime and the shared cloud link is not saturated.
constexpr double kFleetEdgeFlopsPerDevice = 1e9;
constexpr double kFleetCloudMbpsPerDevice = 20.0;

/// Counted (post-warmup) tasks each sweep cell is sized for: enough for a
/// p99 with at least ten samples beyond it.
constexpr double kSweepCountedTasks = 1300.0;
/// Mean per-device arrival rate of every sweep fleet (tasks/s).
constexpr double kSweepMeanRate = 0.085;

/// Fixed executor worker count of the sweep and wild workloads. Two leaves
/// headroom on small shared hosts, so runs stay comparable.
constexpr int kWorkers = 2;

/// Executor workers of the multi-cell workloads: fixed, clamped to the
/// host's hardware threads.
int sweep_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, std::min(kWorkers, static_cast<int>(hw == 0 ? 1 : hw)));
}

/// One timed ME-DNN design search, accounted into `in`.
core::MeDnnPartition timed_design(Inputs& in, const core::Environment& env,
                                  SpanRecorder* spans) {
  Span span(spans, "core.design");
  const double t0 = now_s();
  core::CostModel cm(*in.profile, env);
  const auto result = core::branch_and_bound_exit_setting(cm);
  auto partition = core::make_partition(*in.profile, result.combo);
  in.design_s += now_s() - t0;
  ++in.design_calls;
  in.design_evaluations += result.evaluations;
  return partition;
}

Inputs fleet_inputs(std::uint64_t seed, bool tiny, SpanRecorder* spans) {
  Inputs in;
  in.profile = models::make_inception_v3();
  const int n = tiny ? kTinyFleetDevices : kFleetDevices;
  // Exits are designed for the per-device average edge share (fig. 11).
  auto env = core::testbed_environment();
  env.caps.edge_flops = kFleetEdgeFlopsPerDevice;
  const auto partition = timed_design(in, env, spans);

  Span span(spans, "inputs");
  util::Rng rng(seed);
  sim::ScenarioConfig cfg;
  cfg.partition = partition;
  cfg.edge_flops = kFleetEdgeFlopsPerDevice * n;
  cfg.edge_cloud_bw = util::mbps(kFleetCloudMbpsPerDevice * n);
  cfg.devices.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sim::DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * rng.uniform(0.8, 1.6);
    dev.mean_rate = rng.uniform(0.3, 0.6);
    dev.difficulty = rng.uniform(0.9, 1.1);
    dev.uplink_bw = util::mbps(rng.uniform(10.0, 40.0));
    dev.uplink_lat = util::ms(rng.uniform(10.0, 40.0));
    cfg.devices.push_back(dev);
  }
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.seed = util::Rng::derive_seed(seed, 0);
  in.cells.push_back({0, {"fleet"}, 0, std::move(cfg)});
  return in;
}

struct NetCondition {
  double bw_mbps;
  double lat_ms;
};

Inputs sweep_inputs(std::uint64_t seed, bool tiny, SpanRecorder* spans) {
  Inputs in;
  in.profile = models::make_inception_v3();
  in.workers = sweep_workers();

  std::vector<NetCondition> nets = {{2.0, 100.0}, {8.0, 50.0},
                                    {16.0, 20.0}, {30.0, 10.0}};
  std::vector<int> fleets = {1, 4, 16, 64};
  int reps = 5;
  if (tiny) {
    nets.resize(2);
    fleets = {1, 4};
    reps = 1;
  }
  // One ME-DNN design per (fleet size, network condition), for the
  // per-device average edge share, as the paper's fig. 11 does.
  std::vector<std::vector<core::MeDnnPartition>> partitions;
  for (const int n : fleets) {
    partitions.emplace_back();
    for (const auto& net : nets) {
      auto env = core::testbed_environment();
      env.caps.edge_flops /= n;
      env.net.dev_edge_bw = util::mbps(net.bw_mbps);
      env.net.dev_edge_lat = util::ms(net.lat_ms);
      partitions.back().push_back(timed_design(in, env, spans));
    }
  }

  Span span(spans, "inputs");
  // Per-device rates and difficulty are drawn once per fleet size from the
  // seed, so every replication of a grid point shares its fleet. Rates are
  // rescaled to a fixed fleet mean: a cell's horizon, and with it its
  // slot-tick count, then does not swing with the seed. The mean keeps the
  // slowest scheme (D-only at 2 Mbps) below saturation.
  util::Rng rng(seed);
  std::vector<runtime::AxisValue> fleet_axis;
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    std::vector<sim::DeviceSpec> devices;
    double drawn = 0.0;
    for (int i = 0; i < fleets[f]; ++i) {
      sim::DeviceSpec dev;
      dev.mean_rate = rng.uniform(0.05, 0.12);
      dev.difficulty = rng.uniform(0.9, 1.1);
      drawn += dev.mean_rate;
      devices.push_back(dev);
    }
    const double total_rate = kSweepMeanRate * fleets[f];
    for (auto& dev : devices) dev.mean_rate *= total_rate / drawn;
    const double warmup = 20.0;
    const double duration = warmup + kSweepCountedTasks / total_rate;
    fleet_axis.push_back({std::to_string(fleets[f]),
                          [devices, warmup, duration](auto& cfg) {
                            cfg.devices = devices;
                            cfg.warmup = warmup;
                            cfg.duration = duration;
                          }});
  }
  std::vector<runtime::AxisValue> net_axis;
  for (std::size_t k = 0; k < nets.size(); ++k) {
    const auto net = nets[k];
    std::vector<core::MeDnnPartition> by_fleet;
    for (const auto& row : partitions) by_fleet.push_back(row[k]);
    net_axis.push_back(
        {std::to_string(static_cast<int>(net.bw_mbps)) + "mbps",
         [net, by_fleet, fleets](auto& cfg) {
           const auto f = static_cast<std::size_t>(
               std::find(fleets.begin(), fleets.end(),
                         static_cast<int>(cfg.devices.size())) -
               fleets.begin());
           cfg.partition = by_fleet.at(f);
           for (auto& dev : cfg.devices) {
             dev.uplink_bw = util::mbps(net.bw_mbps);
             dev.uplink_lat = util::ms(net.lat_ms);
           }
         }});
  }
  std::vector<runtime::AxisValue> policy_axis;
  for (const char* p :
       {"LEIME", "LEIME-balance", "D-only", "E-only", "cap_based"}) {
    const std::string name = p;
    policy_axis.push_back({name, [name](auto& cfg) { cfg.policy = name; }});
  }

  // A 1 Gbps edge->cloud link keeps the 64-device cells below saturation.
  sim::ScenarioConfig base;
  base.edge_cloud_bw = util::mbps(1000.0);
  runtime::ExperimentPlan plan{base};
  plan.add_axis("fleet", std::move(fleet_axis))
      .add_axis("net", std::move(net_axis))
      .add_axis("policy", std::move(policy_axis))
      .replications(reps)
      .base_seed(seed);
  in.cells = plan.expand();
  return in;
}

Inputs wild_inputs(std::uint64_t seed, bool tiny, SpanRecorder* spans) {
  Inputs in;
  in.profile = models::make_inception_v3();
  in.workers = sweep_workers();
  util::Rng rng(seed);
  auto& me = in.multi_edge;
  {
    Span span(spans, "inputs");
    const int n_edges = tiny ? 3 : 8;
    const int n_devices = tiny ? 150 : 4000;
    for (int e = 0; e < n_edges; ++e) {
      sim::EdgeSpec edge;
      edge.flops = util::gflops(700.0 * std::pow(1.4, e % 3));
      edge.cloud_bw = util::mbps(10000.0);
      edge.cloud_lat = util::ms(20.0 + 5.0 * (e % 4));
      me.edges.push_back(edge);
    }
    for (int d = 0; d < n_devices; ++d) {
      sim::DeviceSpec dev;
      const bool fast = rng.bernoulli(0.3);
      dev.device_class = fast ? "fast" : "slow";
      dev.flops = core::kRaspberryPiFlops *
                  (fast ? rng.uniform(1.2, 1.6) : rng.uniform(0.8, 1.2));
      dev.difficulty = rng.uniform(0.85, 1.15);
      const double rate = rng.uniform(0.15, 0.25);
      dev.mean_rate = rate;
      switch (d % 3) {
        case 0:
          dev.arrival = sim::ArrivalKind::kPoisson;
          break;
        case 1:
          dev.arrival = sim::ArrivalKind::kBursty;
          dev.bursty_high_rate = 3.0 * rate;
          dev.bursty_dwell = 4.0;
          break;
        default:
          // A flash crowd: the rate spikes mid-run, then falls off.
          dev.arrival = sim::ArrivalKind::kTrace;
          dev.rate_trace = util::PiecewiseConstant(
              {{0.0, rate}, {10.0, 2.5 * rate}, {14.0, rate},
               {22.0, 0.5 * rate}});
          break;
      }
      me.devices.push_back(dev);
      std::vector<sim::LinkQuality> row;
      for (int e = 0; e < n_edges; ++e)
        row.push_back({util::mbps(std::exp(
                           rng.uniform(std::log(8.0), std::log(60.0)))),
                       util::ms(rng.uniform(5.0, 80.0))});
      me.links.push_back(std::move(row));
    }
    me.duration = 40.0;
    me.warmup = 3.0;
  }

  std::vector<int> assignment;
  {
    Span span(spans, "policy.associate");
    const double t0 = now_s();
    assignment = sim::associate(me, *in.profile,
                                sim::AssociationPolicy::kLeimeAware);
    in.association_s = now_s() - t0;
    in.association_calls = me.devices.size() * me.edges.size();
  }

  // Per-cell ME-DNN design from the cell's average conditions (as
  // sim::run_multi_edge does), with every search checked by the
  // exhaustive oracle.
  obs::ProvenanceConfig prov_cfg;
  prov_cfg.sample_n = 1;
  prov_cfg.oracle_sample_n = 1;
  obs::ProvenanceRecorder recorder(prov_cfg);
  policy::Engine engine;
  engine.attach_provenance(&recorder);
  for (std::size_t e = 0; e < me.edges.size(); ++e) {
    sim::ScenarioConfig cell;
    double flops_sum = 0.0, bw_sum = 0.0, lat_sum = 0.0;
    for (std::size_t d = 0; d < me.devices.size(); ++d) {
      if (assignment[d] != static_cast<int>(e)) continue;
      sim::DeviceSpec dev = me.devices[d];
      dev.uplink_bw = me.links[d][e].bandwidth;
      dev.uplink_lat = me.links[d][e].latency;
      flops_sum += dev.flops;
      bw_sum += dev.uplink_bw;
      lat_sum += dev.uplink_lat;
      cell.devices.push_back(std::move(dev));
    }
    if (cell.devices.empty()) continue;
    const auto n_cell = static_cast<double>(cell.devices.size());
    const auto& edge = me.edges[e];
    core::Environment env;
    env.caps.device_flops = flops_sum / n_cell;
    env.caps.edge_flops = edge.flops / n_cell;
    env.caps.cloud_flops = me.cloud_flops;
    env.net.dev_edge_bw = bw_sum / n_cell;
    env.net.dev_edge_lat = lat_sum / n_cell;
    env.net.edge_cloud_bw = edge.cloud_bw;
    env.net.edge_cloud_lat = edge.cloud_lat;
    {
      Span span(spans, "core.design");
      const double t0 = now_s();
      core::CostModel cm(*in.profile, env);
      const auto result = engine.exit_setting(cm);
      cell.partition = core::make_partition(*in.profile, result.combo);
      in.design_s += now_s() - t0;
      ++in.design_calls;
      in.design_evaluations += result.evaluations;
    }

    Span span(spans, "inputs");
    cell.edge_flops = edge.flops;
    cell.cloud_flops = me.cloud_flops;
    cell.edge_cloud_bw = edge.cloud_bw;
    cell.edge_cloud_lat = edge.cloud_lat;
    cell.duration = me.duration;
    cell.warmup = me.warmup;
    cell.seed = util::Rng::derive_seed(seed, 1000 + e);
    cell.policy = "LEIME+fallback";
    cell.cloud_fifo = true;
    cell.result_bytes = 2000.0;

    // Routed fabric: ~32 devices per access point, bounded port queues.
    cell.topology.aps =
        std::max(1, static_cast<int>(cell.devices.size() + 31) / 32);
    cell.topology.ap_bandwidth = util::mbps(400.0);
    cell.topology.ap_latency = util::ms(2.0);
    cell.topology.queue_limit_bytes = 8e6;

    // Faults: an AP outage, an edge crash window, random uplink outages
    // and churn, with timeouts feeding the retry path.
    auto& faults = cell.faults;
    faults.ap_windows = {{12.0, 14.0, 0}};
    faults.edge.windows = {{20.0, 22.0, -1}};
    faults.link.rate = 0.002;
    faults.link.mean_duration = 1.0;
    for (std::size_t d = 0; d < cell.devices.size(); d += 25)
      faults.churn.events.push_back({static_cast<int>(d), 8.0, 16.0});
    faults.degradation.task_timeout = 3.0;

    // Observability "production profile".
    auto& obs = cell.obs;
    obs.metrics = true;
    obs.trace_sample = 64;
    obs.attribution = true;
    obs.slo.deadline = 5.0;
    obs.provenance.sample_n = 64;
    obs.provenance.oracle_sample_n = 256;

    in.cells.push_back({0, {"edge" + std::to_string(e)}, 0, std::move(cell)});
  }
  // Largest cells first, so the executor's claim order is a longest-first
  // schedule and the pass wall does not swing with how the seed happened
  // to order cell sizes.
  std::stable_sort(in.cells.begin(), in.cells.end(),
                   [](const runtime::Cell& a, const runtime::Cell& b) {
                     return a.config.devices.size() > b.config.devices.size();
                   });
  for (std::size_t i = 0; i < in.cells.size(); ++i) in.cells[i].index = i;
  in.design_provenance = recorder.summary();
  return in;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "fleet") return Workload::kFleet;
  if (name == "sweep") return Workload::kSweep;
  if (name == "wild") return Workload::kWild;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fleet, sweep or wild)");
}

Inputs make_inputs(Workload workload, std::uint64_t seed, bool tiny,
                   SpanRecorder* spans) {
  switch (workload) {
    case Workload::kFleet: return fleet_inputs(seed, tiny, spans);
    case Workload::kSweep: return sweep_inputs(seed, tiny, spans);
    case Workload::kWild: return wild_inputs(seed, tiny, spans);
  }
  throw std::invalid_argument("unknown workload");
}

}  // namespace perfbench
