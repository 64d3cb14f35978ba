// Scenario description and result types for the discrete-event simulator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/lyapunov.h"
#include "core/partition.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "sim/observer.h"
#include "sim/shard.h"
#include "util/stats.h"
#include "util/trace.h"

namespace leime::sim {

/// How a device's tasks arrive.
enum class ArrivalKind { kPoisson, kPeriodic, kBursty, kTrace };

/// One end device of the fleet.
struct DeviceSpec {
  double flops = core::kRaspberryPiFlops;  ///< F_i^d
  double uplink_bw = leime::util::mbps(10.0);
  double uplink_lat = leime::util::ms(20.0);

  ArrivalKind arrival = ArrivalKind::kPoisson;
  double mean_rate = 5.0;  ///< tasks/s (Poisson/periodic)
  /// Rate trace for ArrivalKind::kTrace (tasks/s over time).
  std::optional<util::PiecewiseConstant> rate_trace;
  /// Bursty parameters (ArrivalKind::kBursty).
  double bursty_high_rate = 20.0;
  double bursty_dwell = 5.0;  ///< mean seconds per phase

  /// Data-complexity reshaping (1 = calibrated exit rates hold exactly).
  double difficulty = 1.0;

  /// Optional COMCAST-style uplink shaping.
  std::optional<util::PiecewiseConstant> uplink_bw_trace;
  std::optional<util::PiecewiseConstant> uplink_lat_trace;

  /// Device class label for observability grouping (attribution waterfalls
  /// and SLO windows aggregate per class). Lowercase [a-z0-9_]+; scenarios
  /// that never set it share the "default" class.
  std::string device_class = "default";
};

/// A full experiment: fleet + edge + cloud + deployed ME-DNN + policy.
struct ScenarioConfig {
  core::MeDnnPartition partition;

  double edge_flops = core::kEdgeDesktopFlops;
  double cloud_flops = core::kCloudV100Flops;
  double edge_cloud_bw = leime::util::mbps(100.0);
  double edge_cloud_lat = leime::util::ms(30.0);

  std::vector<DeviceSpec> devices;

  /// One of "LEIME", "LEIME-balance", "D-only", "E-only", "cap_based",
  /// optionally with a "+fallback" suffix (device-only while the edge is
  /// unreachable; see core::FallbackPolicy); or set fixed_ratio in [0,1]
  /// to override with a constant ratio.
  std::string policy = "LEIME";
  double fixed_ratio = -1.0;

  core::LyapunovConfig lyapunov;

  /// When > 0, the edge's per-device docker shares are recomputed every
  /// this many seconds from the *observed* arrival rates (eq. 27 on live
  /// statistics) instead of staying fixed at the design-time allocation.
  double reallocation_period = 0.0;

  double duration = 60.0;  ///< seconds of task generation
  double warmup = 5.0;     ///< tasks arriving before this are excluded
  std::uint64_t seed = 42;

  /// Width of the TCT timeline aggregation window (seconds).
  double timeline_window = 2.0;

  /// Model the cloud as a FIFO server at cloud_flops instead of the default
  /// uncontended service (relevant when many tasks reach block 3).
  bool cloud_fifo = false;

  /// When > 0, classification results of this many bytes return to the
  /// device over a per-device downlink (same bandwidth/latency as the
  /// uplink) — and over a cloud-return link first for block-3 completions.
  /// The paper (and the default) ignores the downlink: results are tiny.
  double result_bytes = 0.0;

  /// When non-empty, a per-task CSV trace (arrive/complete times, device,
  /// exit block, offloaded flag) is written here at the end of the run.
  std::string task_trace_path;

  /// Feed the uplink's outstanding bytes back into the eq. 8 budget (the
  /// refinement documented in DESIGN.md §5). Disable to reproduce the
  /// paper's memoryless per-slot constraint.
  bool uplink_backlog_feedback = true;

  /// When > 0, all devices share one WiFi access point of this capacity
  /// (bytes/s): every upload serializes through the shared medium (with
  /// each device's own propagation latency on top) instead of dedicated
  /// per-device links. Per-device bandwidth values and uplink traces are
  /// ignored in this mode.
  double shared_uplink_bw = 0.0;

  /// Routed multi-hop network mode (the `[topology]` INI section): when
  /// enabled(), device <-> edge <-> cloud traffic flows over a net::Fabric
  /// of per-hop FIFO routers (device -> AP -> edge -> cloud) and congestion
  /// emerges from contention on the shared AP backhaul. Disabled (the
  /// default) keeps the flat point-to-point links — the golden-output
  /// baseline. Mutually exclusive with shared_uplink_bw.
  net::TopologyConfig topology;

  /// Fault injection: link outages, edge crashes, device churn, and the
  /// graceful-degradation knobs (sim/faults.h). The default (empty) plan
  /// injects nothing and leaves the run bit-identical to a fault-free
  /// build. In shared-uplink mode every link outage window applies to the
  /// shared AP.
  FaultPlan faults;

  /// Observability: metrics registry, task-lifecycle tracing and per-slot
  /// queue telemetry (sim/observer.h). The default keeps everything off —
  /// a disabled run takes the zero-overhead path (one null-pointer branch
  /// per hook site) and is bit-identical to a build without the layer.
  /// When enabled, the simulator owns a RecordingObserver, attaches its
  /// metrics snapshot to SimResult::metrics and writes the configured
  /// output files at the end of the run.
  ObsConfig obs;

  /// Optional externally-owned observer (wins over `obs` when set). The
  /// embedder keeps ownership, receives every hook, and handles its own
  /// exporting; SimResult::metrics stays empty. One observer per run —
  /// never share an instance across parallel runtime cells.
  Observer* observer = nullptr;

  /// Sharded parallel execution (the `[shards]` INI section, DESIGN.md
  /// §15): the fleet is partitioned into ShardOptions::shards event
  /// queues advanced in conservative time windows by a thread pool.
  /// Off (shards = 1, the default) keeps the single-queue golden path;
  /// on, results are byte-identical for any shards/threads combination
  /// but the feature set is restricted (flat links, no cloud FIFO /
  /// result downlink / external observer; obs limited to metrics).
  ShardOptions shards;
};

/// Aggregated outcome of a run.
struct SimResult {
  util::Summary tct;  ///< over completed, post-warmup tasks
  std::size_t generated = 0;
  std::size_t completed = 0;  ///< completed out of the counted (post-warmup)
  /// Task conservation: every generated task is either completed or still
  /// pending at the end of the drain, so generated == total_completed +
  /// in_flight always holds (the fault property-test contract). Without
  /// never-healing faults, in_flight is 0.
  std::size_t total_completed = 0;  ///< completed including warmup tasks
  std::size_t in_flight = 0;        ///< still pending when the run ended
  double exit1_fraction = 0.0;
  double exit2_fraction = 0.0;
  double exit3_fraction = 0.0;
  double mean_offload_ratio = 0.0;  ///< decision-averaged across slots
  double mean_device_queue = 0.0;   ///< slot-averaged Q_i over fleet
  double mean_edge_queue = 0.0;     ///< slot-averaged H_i over fleet

  struct TimelinePoint {
    double time = 0.0;      ///< window centre
    double mean_tct = 0.0;  ///< mean TCT of tasks completed in the window
    std::size_t count = 0;
  };
  std::vector<TimelinePoint> timeline;

  /// Fault-layer telemetry (all zero for an empty FaultPlan).
  struct FaultStats {
    std::size_t link_outages = 0;  ///< materialized windows, fleet-wide
    std::size_t edge_crashes = 0;
    std::size_t churn_events = 0;
    std::size_t failed_over = 0;  ///< edge-side work failed back to devices
    std::size_t retries = 0;      ///< task-timeout re-dispatches
    std::size_t local_fallbacks = 0;  ///< retry budget exhausted -> device
    std::size_t fallback_slots = 0;   ///< x == 0 decisions with edge down
    std::size_t parked = 0;  ///< failed-over tasks still pending at end
  };
  FaultStats faults;

  /// Fabric telemetry (topology mode only; `active` is false — and the
  /// JSONL sink omits the record — on the flat-link path).
  struct NetStats {
    bool active = false;
    std::size_t transfers = 0;  ///< flows started
    std::size_t delivered = 0;  ///< flows that reached their destination
    std::size_t hops = 0;       ///< hop transfers admitted
    std::size_t drops = 0;      ///< flows dropped at a full port queue
    double bytes = 0.0;         ///< payload bytes across started flows
    double max_backlog_bytes = 0.0;  ///< peak port backlog at admission
  };
  NetStats net;

  /// Metrics-registry snapshot of the run's owned RecordingObserver;
  /// empty() unless ScenarioConfig::obs enabled metrics. Rides through the
  /// runtime sinks (JSONL emits it only when non-empty, preserving the
  /// golden-output bytes of disabled runs) and merges deterministically
  /// across cells.
  obs::Snapshot metrics;

  /// Latency-attribution summary of the run's owned RecordingObserver;
  /// `active` is false (and the JSONL sink omits the block) unless
  /// ObsConfig::attribution_enabled(). Merges in plan order across cells.
  obs::AttributionSummary attribution;

  /// SLO monitor summary (deadline miss-rate / burn-rate alerting);
  /// `active` is false unless ObsConfig::slo.enabled().
  obs::SloSummary slo;

  /// Decision-provenance + oracle-regret summary (DESIGN.md §14);
  /// `active` is false unless ObsConfig::provenance is enabled.
  obs::ProvenanceSummary provenance;

  /// Total discrete events the run executed, summed across shard queues
  /// in sharded mode. A strict counter: host-independent and (unlike wall
  /// medians) byte-comparable across machines — what bench_compare.py
  /// gates the micro_sim DES cases on. Not serialized by the JSONL sink.
  std::uint64_t events_executed = 0;

  /// Per-device breakdown (index-aligned with ScenarioConfig::devices).
  struct DeviceResult {
    util::Summary tct;
    std::size_t completed = 0;
    double mean_offload_ratio = 0.0;
    std::size_t failed_over = 0;
    std::size_t retries = 0;
    std::size_t fallback_slots = 0;
  };
  std::vector<DeviceResult> per_device;
};

}  // namespace leime::sim
