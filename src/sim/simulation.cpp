#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/resource_alloc.h"
#include "net/fabric.h"
#include "policy/prediction.h"
#include "policy/slot_memo.h"
#include "prof/profiler.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/observer.h"
#include "sim/parallel_decide.h"
#include "sim/resources.h"
#include "sim/shard.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/complexity.h"

namespace leime::sim {

namespace {

std::unique_ptr<workload::ArrivalProcess> make_arrivals(
    const DeviceSpec& spec) {
  switch (spec.arrival) {
    case ArrivalKind::kPoisson:
      return std::make_unique<workload::PoissonArrivals>(spec.mean_rate);
    case ArrivalKind::kPeriodic:
      return std::make_unique<workload::PeriodicArrivals>(1.0 /
                                                          spec.mean_rate);
    case ArrivalKind::kBursty:
      return std::make_unique<workload::BurstyArrivals>(
          spec.mean_rate, spec.bursty_high_rate, spec.bursty_dwell,
          spec.bursty_dwell);
    case ArrivalKind::kTrace:
      if (!spec.rate_trace)
        throw std::invalid_argument(
            "DeviceSpec: ArrivalKind::kTrace needs rate_trace");
      return std::make_unique<workload::TraceArrivals>(*spec.rate_trace);
  }
  throw std::invalid_argument("DeviceSpec: unknown ArrivalKind");
}

/// Everything the simulator tracks per device.
struct DeviceRuntime {
  const DeviceSpec* spec = nullptr;
  std::unique_ptr<FifoProcessor> cpu;
  std::unique_ptr<Link> uplink;
  std::unique_ptr<Link> downlink;  ///< only when result_bytes > 0
  Link* tx = nullptr;              ///< own uplink, or the shared AP
  double tx_extra_latency = 0.0;   ///< per-device latency in shared mode
  std::unique_ptr<FifoProcessor> edge_share;  ///< p_i·F^e docker share
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  workload::ComplexityModel complexity{1.0};
  util::Rng rng;
  double x = 0.0;              ///< current offloading ratio
  int arrived_this_slot = 0;   ///< observed arrivals in the current slot
  double arrival_estimate = 0; ///< estimate used at the next decision
  int arrived_this_window = 0; ///< arrivals since the last reallocation
};

/// A shard's identity inside one sharded run (DESIGN.md §15): its
/// contiguous device range [lo, hi) and the outbox it records edge->cloud
/// admissions into.
/// The default-constructed role is the classic single-queue simulation
/// over the whole fleet — every code path below treats that as lo = 0,
/// hi = N, so the two modes share one implementation.
struct ShardRole {
  std::size_t index = 0;       ///< shard number (0 = the primary shard)
  std::size_t num_shards = 1;  ///< 1 = single-queue mode
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::vector<HubRequest>* outbox = nullptr;  ///< coordinator-owned

  bool active() const { return num_shards > 1; }
};

class Simulation {
 public:
  explicit Simulation(const ScenarioConfig& config, ShardRole role = {})
      : cfg_(config),
        role_(role),
        // Shards already occupy the run's threads: their rounds stay serial.
        decide_(role.active() ? 1 : config.shards.threads) {
    if (cfg_.devices.empty())
      throw std::invalid_argument("ScenarioConfig: no devices");
    if (cfg_.duration <= 0.0 || cfg_.warmup < 0.0 ||
        cfg_.warmup >= cfg_.duration)
      throw std::invalid_argument("ScenarioConfig: bad duration/warmup");
    if (cfg_.reallocation_period < 0.0)
      throw std::invalid_argument("ScenarioConfig: bad reallocation_period");
    if (cfg_.timeline_window <= 0.0)
      throw std::invalid_argument("ScenarioConfig: bad timeline_window");
    cfg_.faults.validate(cfg_.devices.size());
    cfg_.topology.validate(cfg_.devices.size());
    cfg_.shards.validate();
    if (cfg_.topology.enabled() && cfg_.shared_uplink_bw > 0.0)
      throw std::invalid_argument(
          "ScenarioConfig: topology and shared_uplink_bw are mutually "
          "exclusive network modes");
    if (!cfg_.faults.ap_windows.empty()) {
      if (!cfg_.topology.enabled())
        throw std::invalid_argument(
            "ScenarioConfig: ap_outage_windows need an enabled [topology]");
      for (const auto& w : cfg_.faults.ap_windows)
        if (w.device >= cfg_.topology.aps)
          throw std::invalid_argument(
              "ScenarioConfig: ap_outage_windows names AP " +
              std::to_string(w.device) + " but the topology has " +
              std::to_string(cfg_.topology.aps) + " APs");
    }
    faults_on_ = cfg_.faults.enabled();
    lo_ = role_.active() ? role_.lo : 0;
    hi_ = role_.active() ? role_.hi : cfg_.devices.size();
    build();
    // Observer hooks are pure taps: they consume no RNG, schedule no events
    // and never alter control flow, so a run with obs_ == nullptr and a run
    // with any observer attached follow identical event sequences.
    if (cfg_.observer) {
      obs_ = cfg_.observer;
    } else if (cfg_.obs.enabled()) {
      std::vector<std::string> device_classes;
      device_classes.reserve(cfg_.devices.size());
      for (const auto& spec : cfg_.devices)
        device_classes.push_back(spec.device_class);
      owned_obs_ = std::make_unique<RecordingObserver>(
          cfg_.obs, devices_.size(), std::move(device_classes));
      obs_ = owned_obs_.get();
    }
    if (obs_ && fabric_) {
      // Per-hop spans feed the attribution ledger. The tag packs
      // (attempt, task id); spans of paths the task has since abandoned
      // (failover/retry bumped the attempt) are filtered here, mirroring
      // the staleness guards on the flow completions themselves.
      fabric_->set_hop_tap([this](std::uint64_t tag, std::string_view port,
                                  double t_queued, double exec_start,
                                  double t_end) {
        const std::size_t id = flow_task(tag);
        if (!alive(id, flow_attempt(tag))) return;
        obs_->on_net_hop(id, port, t_queued, exec_start, t_end);
      });
    }
  }

  /// Seeds the run and schedules the initial events: decisions, arrival
  /// streams, slot ticks and the reallocation timer. Shared by run() and
  /// the sharded coordinator (which then pumps windows via advance_to).
  void init_run() {
    util::Rng master(cfg_.seed);
    // Every shard forks the full fleet's substreams in device order and
    // keeps only its own range, so device i's task stream is bit-identical
    // for any shard count.
    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
      util::Rng stream = master.fork();
      if (devices_[i]) devices_[i]->rng = std::move(stream);
    }
    if (faults_on_) {
      // Faults draw from their own substream, forked after every device's,
      // so the task streams are identical with and without fault sources.
      // Sharded runs materialize the same timeline in every shard (same
      // substream): fleet-wide state like edge_up_now_ is replicated.
      util::Rng fault_rng = master.fork();
      timeline_ = materialize_faults(cfg_.faults, cfg_.devices.size(),
                                     cfg_.duration, fault_rng);
      apply_fault_timeline();
    }

    // Initial decisions + arrival streams + slot ticks. Decisions consume
    // no RNG and schedule no events, so batching them ahead of the arrival
    // scheduling keeps the event sequence identical to the interleaved
    // per-device order.
    decide_all();
    for (std::size_t i = lo_; i < hi_; ++i) schedule_next_arrival(i);
    queue_.schedule(cfg_.lyapunov.tau, EventKind::kSlotTick,
                    [this] { slot_tick(); });
    if (cfg_.reallocation_period > 0.0)
      queue_.schedule(cfg_.reallocation_period, EventKind::kReallocate,
                      [this] { reallocate(); });
  }

  SimResult run() {
    LEIME_PROF_SCOPE("leime.sim.run");
    init_run();

    // Generation stops at duration; in-flight tasks drain afterwards.
    {
      LEIME_PROF_SCOPE("leime.sim.event_loop");
      queue_.run_all();
    }
    if (obs_ && fabric_) obs_->on_net_fabric(*fabric_, queue_.now());
    if (obs_) obs_->on_run_end(queue_.now());
    SimResult out = finalize();
    out.events_executed = queue_.executed();
    if (owned_obs_) {
      out.metrics = owned_obs_->registry().snapshot();
      out.attribution = owned_obs_->attribution_summary();
      out.slo = owned_obs_->slo_summary();
      out.provenance = owned_obs_->provenance_summary();
      owned_obs_->export_outputs();
    }
    return out;
  }

  /// Where a task currently is (fault bookkeeping; kLocal/kUplink/kEdge*
  /// mirror the hop it occupies, kWait covers detection/backoff/probe gaps,
  /// kParked is terminal-pending).
  enum class Stage : std::uint8_t {
    kLocal, kUplink, kEdge1, kEdge2, kCloud, kReturn, kWait, kParked
  };

  struct TaskRecord {
    double t_arrive;
    double t_complete = -1.0;
    std::size_t device = 0;
    int block = 0;  ///< 1, 2, or 3
    bool offloaded = false;
    bool counted = false;  ///< post-warmup
    Stage stage = Stage::kLocal;
    /// Bumped whenever the task's current path is abandoned (crash
    /// failover, timeout retry); in-flight callbacks carry the attempt they
    /// were issued under and go stale when it changes.
    int attempt = 0;
    int retries = 0;
    bool parked = false;
  };

  struct FaultCounters {
    std::size_t failed_over = 0;
    std::size_t retries = 0;
    std::size_t fallback_slots = 0;
  };

  /// Everything finalize_impl needs beside the task list: the scalar and
  /// per-device accumulators a single run keeps in members and a sharded
  /// run reassembles across shards (exact integer sums plus the replayed
  /// x stream, so the merged values are bit-identical to a single run's).
  struct Aggregates {
    double x_sum = 0.0;
    std::size_t x_count = 0;
    double q_sum = 0.0;
    double h_sum = 0.0;
    std::size_t queue_samples = 0;
    std::size_t link_outages = 0;
    std::size_t edge_crashes = 0;
    std::size_t churn_events = 0;
    std::size_t local_fallbacks = 0;
    FaultCounters fleet;
    std::vector<double> x_sum_dev;
    std::vector<std::size_t> x_count_dev;
    std::vector<FaultCounters> dev_faults;

    void resize(std::size_t n) {
      x_sum_dev.assign(n, 0.0);
      x_count_dev.assign(n, 0);
      dev_faults.assign(n, {});
    }
  };

  // ------------------------------------------- sharded-run coordination
  // Called by run_scenario_sharded's coordinator thread, strictly between
  // parallel regions (never while shard threads are inside advance_to).

  /// Runs every event up to and including `t`, then parks now() at `t`
  /// (the conservative window barrier).
  void advance_to(double t) { queue_.run_until(t); }

  /// Earliest pending event, +infinity when drained — the coordinator's
  /// lookahead-horizon input (barrier = min over shards + window).
  double next_event_time() const { return queue_.peek_time(); }

  std::uint64_t executed_events() const { return queue_.executed(); }

  /// Delivers a hub (edge->cloud) transfer the coordinator admitted on the
  /// shared link: block 3 starts at t2, exactly as the single-queue
  /// Link::transfer callback would have. t2 >= now() is guaranteed by the
  /// conservative window (t2 >= admission + latency >= barrier).
  void inject_hub_delivery(std::size_t device, std::size_t task, int att,
                           double t2) {
    queue_.schedule(t2, EventKind::kTransferDone,
                    [this, device, task, att, t2] {
      if (!alive(task, att)) return;
      cloud_service(device, task, t2);
    });
  }

  /// Reads this shard's own devices' arrival counts into the fleet-wide
  /// vector (the coordinator's pre-reallocation gather).
  void gather_realloc_counts(std::vector<int>& counts) const {
    for (std::size_t i = lo_; i < hi_; ++i)
      counts[i] = devices_[i]->arrived_this_window;
  }

  /// Installs the gathered fleet-wide counts the next kReallocate event
  /// will allocate from (every shard computes the same eq. 27 shares).
  void set_realloc_counts(std::vector<int> counts) {
    realloc_counts_ = std::move(counts);
  }

  void end_run() {
    if (obs_) obs_->on_run_end(queue_.now());
  }

  const std::vector<TaskRecord>& tasks() const { return tasks_; }

  /// Per-epoch offload decisions in device order (sharded runs only): the
  /// coordinator replays epochs in (epoch, shard) order to rebuild the
  /// fleet-order x_sum accumulation bit for bit.
  const std::vector<std::vector<double>>& x_log() const { return x_log_; }

  /// Adds this shard's accumulators into the merged aggregate. Scalar sums
  /// are integer-valued (order-free in double); per-device entries are
  /// owned by exactly one shard. Replicated fleet-wide counters (faults
  /// materialize identically in every shard) come from the primary only.
  void accumulate(Aggregates& agg, bool primary) const {
    agg.q_sum += q_sum_;
    agg.h_sum += h_sum_;
    agg.queue_samples += queue_samples_;
    agg.local_fallbacks += local_fallbacks_;
    agg.fleet.failed_over += fleet_faults_.failed_over;
    agg.fleet.retries += fleet_faults_.retries;
    agg.fleet.fallback_slots += fleet_faults_.fallback_slots;
    for (std::size_t i = lo_; i < hi_; ++i) {
      agg.x_sum_dev[i] = x_sum_dev_[i];
      agg.x_count_dev[i] = x_count_dev_[i];
      agg.dev_faults[i] = dev_faults_[i];
    }
    if (primary) {
      agg.link_outages = timeline_.link_outage_count();
      agg.edge_crashes = edge_crashes_;
      agg.churn_events = churn_events_;
    }
  }

  /// This shard's metrics-registry snapshot (empty when obs is off); the
  /// coordinator absorbs the snapshots in shard order into one registry.
  obs::Snapshot obs_snapshot() const {
    return owned_obs_ ? owned_obs_->registry().snapshot() : obs::Snapshot{};
  }

  static SimResult finalize_impl(const ScenarioConfig& cfg,
                                 const std::vector<TaskRecord>& tasks,
                                 const Aggregates& agg);

 private:
  void build() {
    LEIME_PROF_SCOPE("leime.sim.build");
    const auto& p = cfg_.partition;
    if (p.mu1 <= 0.0 || p.mu2 <= 0.0 || p.mu3 <= 0.0)
      throw std::invalid_argument("ScenarioConfig: invalid partition");

    if (cfg_.topology.enabled()) {
      std::vector<net::LinkSpec> uplinks;
      for (const auto& spec : cfg_.devices)
        uplinks.push_back({spec.uplink_bw, spec.uplink_lat});
      net::FabricOptions fopts;
      fopts.duplex = cfg_.result_bytes > 0.0;
      fopts.queue_limit_bytes = cfg_.topology.queue_limit_bytes;
      fabric_ = std::make_unique<net::Fabric>(
          queue_,
          net::Topology::from_config(
              cfg_.topology, uplinks,
              {cfg_.edge_cloud_bw, cfg_.edge_cloud_lat}),
          fopts);
    }

    // Edge shares from expected per-slot load (paper eq. 27).
    std::vector<double> k, fd;
    for (const auto& spec : cfg_.devices) {
      k.push_back(std::max(1e-6, spec.mean_rate * cfg_.lyapunov.tau));
      fd.push_back(spec.flops);
    }
    const auto shares = core::kkt_edge_allocation(
        k, fd, cfg_.edge_flops, core::fleet_p_min(k.size()));

    if (!fabric_) {
      // In a sharded run the edge->cloud link is the one shared resource:
      // the coordinator owns it (as a HubLink replay) and shards record
      // admissions into their outbox instead of transferring directly.
      if (!role_.active())
        edge_cloud_link_ = std::make_unique<Link>(
            queue_, "edge-cloud", cfg_.edge_cloud_bw, cfg_.edge_cloud_lat);
      if (cfg_.shared_uplink_bw > 0.0)
        shared_ap_ = std::make_unique<Link>(queue_, "shared-ap",
                                            cfg_.shared_uplink_bw, 0.0);
      if (cfg_.result_bytes > 0.0)
        cloud_return_link_ = std::make_unique<Link>(
            queue_, "cloud-return", cfg_.edge_cloud_bw, cfg_.edge_cloud_lat);
    }
    if (cfg_.cloud_fifo)
      cloud_ = std::make_unique<FifoProcessor>(queue_, "cloud",
                                               cfg_.cloud_flops);

    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
      if (role_.active() && (i < lo_ || i >= hi_)) {
        // Another shard owns this device; keep the slot so global indices
        // stay valid (fleet-wide loops guard on the null).
        devices_.push_back(nullptr);
        continue;
      }
      const auto& spec = cfg_.devices[i];
      auto dev = std::make_unique<DeviceRuntime>();
      dev->spec = &spec;
      dev->cpu = std::make_unique<FifoProcessor>(
          queue_, "device" + std::to_string(i), spec.flops);
      if (fabric_) {
        // The fabric owns every link; traces shape the device's wireless
        // hop exactly as they would the flat uplink.
        Link* wireless = fabric_->link(dev_node(i), ap_node(i));
        if (spec.uplink_bw_trace)
          wireless->set_bandwidth_trace(*spec.uplink_bw_trace);
        if (spec.uplink_lat_trace)
          wireless->set_latency_trace(*spec.uplink_lat_trace);
      } else {
        dev->uplink = std::make_unique<Link>(
            queue_, "uplink" + std::to_string(i), spec.uplink_bw,
            spec.uplink_lat);
        if (spec.uplink_bw_trace)
          dev->uplink->set_bandwidth_trace(*spec.uplink_bw_trace);
        if (spec.uplink_lat_trace)
          dev->uplink->set_latency_trace(*spec.uplink_lat_trace);
        if (cfg_.result_bytes > 0.0)
          dev->downlink = std::make_unique<Link>(
              queue_, "downlink" + std::to_string(i), spec.uplink_bw,
              spec.uplink_lat);
      }
      dev->edge_share = std::make_unique<FifoProcessor>(
          queue_, "edge-share" + std::to_string(i),
          shares[i] * cfg_.edge_flops);
      dev->arrivals = make_arrivals(spec);
      if (shared_ap_) {
        dev->tx = shared_ap_.get();
        dev->tx_extra_latency = spec.uplink_lat;
      } else if (!fabric_) {
        dev->tx = dev->uplink.get();
      }
      dev->complexity = workload::ComplexityModel(spec.difficulty);
      dev->arrival_estimate =
          std::max(1.0, spec.mean_rate * cfg_.lyapunov.tau);
      devices_.push_back(std::move(dev));
    }

    if (cfg_.fixed_ratio >= 0.0)
      policy_ = std::make_unique<core::FixedRatioPolicy>(cfg_.fixed_ratio);
    else
      policy_ = core::make_policy(cfg_.policy);

    x_sum_dev_.assign(devices_.size(), 0.0);
    x_count_dev_.assign(devices_.size(), 0);
    present_.assign(devices_.size(), 1);
    dev_faults_.assign(devices_.size(), {});
  }

  // -------------------------------------------------------------- topology

  static net::NodeId dev_node(std::size_t i) {
    return net::NodeId::device(static_cast<int>(i));
  }
  net::NodeId ap_node(std::size_t i) const {
    return net::NodeId::ap(fabric_->topology().ap_of(static_cast<int>(i)));
  }
  static net::NodeId edge_node() { return net::NodeId::edge(0); }

  /// Fabric flow tags pack (attempt, task id) so the hop tap can filter
  /// spans of abandoned paths: attempts stay small (bounded retries), task
  /// ids stay far below 2^48 for any feasible run length.
  static std::uint64_t flow_tag(std::size_t id, int att) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(att))
            << 48) |
           static_cast<std::uint64_t>(id);
  }
  static std::size_t flow_task(std::uint64_t tag) {
    return static_cast<std::size_t>(tag & ((std::uint64_t{1} << 48) - 1));
  }
  static int flow_attempt(std::uint64_t tag) {
    return static_cast<int>(tag >> 48);
  }

  /// Which network leg a fabric flow was carrying — a dropped flow is
  /// retried on the same leg (bounded by max_retries, like timeouts).
  enum class NetLeg : std::uint8_t {
    kRaw,         ///< d0 raw input, device -> edge
    kTensor,      ///< d1 intermediate tensor, device -> edge
    kEdgeCloud,   ///< d2 tensor, edge -> cloud
    kEdgeReturn,  ///< result, edge -> device
    kCloudReturn  ///< result, cloud -> device
  };

  // ---------------------------------------------------------------- faults

  const DegradationConfig& deg() const { return cfg_.faults.degradation; }

  /// True while the task is still waiting for the callbacks of attempt
  /// `att`; stale paths (abandoned by a failover or retry) return false.
  bool alive(std::size_t task_id, int att) const {
    const auto& rec = tasks_[task_id];
    return rec.t_complete < 0.0 && rec.attempt == att;
  }

  void apply_fault_timeline() {
    edge_up_now_ = timeline_.edge_up_at(0.0);
    auto to_pairs = [](const std::vector<FaultWindow>& windows) {
      std::vector<std::pair<double, double>> out;
      for (const auto& w : windows) out.push_back({w.start, w.end});
      return out;
    };
    if (fabric_) {
      // Per-device wireless outages land on the device's own port; AP
      // outages hold the backhaul port's queued bytes. Duplex mirrors get
      // the same windows (the radio/backhaul is down in both directions).
      for (std::size_t i = 0; i < devices_.size(); ++i) {
        const auto windows = to_pairs(timeline_.link_down[i]);
        fabric_->link(dev_node(i), ap_node(i))->set_outage_windows(windows);
        if (Link* down = fabric_->link(ap_node(i), dev_node(i)))
          down->set_outage_windows(windows);
      }
      ap_windows_.assign(
          static_cast<std::size_t>(fabric_->topology().num_aps()), {});
      for (const auto& w : timeline_.ap_down) {
        if (w.device < 0)
          for (auto& lane : ap_windows_) lane.push_back(w);
        else
          ap_windows_[static_cast<std::size_t>(w.device)].push_back(w);
      }
      for (std::size_t a = 0; a < ap_windows_.size(); ++a) {
        ap_windows_[a] = merge_windows(std::move(ap_windows_[a]));
        if (ap_windows_[a].empty()) continue;
        const auto windows = to_pairs(ap_windows_[a]);
        const auto ap = net::NodeId::ap(static_cast<int>(a));
        const auto edge = net::NodeId::edge(
            fabric_->topology().edge_of(static_cast<int>(a)));
        fabric_->link(ap, edge)->set_outage_windows(windows);
        if (Link* down = fabric_->link(edge, ap))
          down->set_outage_windows(windows);
      }
    } else if (shared_ap_) {
      // Shared medium: every outage window silences the one AP.
      std::vector<FaultWindow> all;
      for (const auto& lane : timeline_.link_down)
        all.insert(all.end(), lane.begin(), lane.end());
      shared_windows_ = merge_windows(std::move(all));
      shared_ap_->set_outage_windows(to_pairs(shared_windows_));
    } else {
      for (std::size_t i = lo_; i < hi_; ++i)
        devices_[i]->uplink->set_outage_windows(
            to_pairs(timeline_.link_down[i]));
    }
    for (const auto& w : timeline_.edge_down) {
      queue_.schedule(w.start, EventKind::kFaultWindow,
                      [this] { on_edge_crash(); });
      if (std::isfinite(w.end))
        queue_.schedule(w.end, EventKind::kFaultWindow,
                        [this] { on_edge_restart(); });
    }
    for (const auto& e : timeline_.churn) {
      const auto d = static_cast<std::size_t>(e.device);
      queue_.schedule(e.leave, EventKind::kChurn,
                      [this, d] { on_churn(d, false); });
      if (e.rejoin >= 0.0)
        queue_.schedule(e.rejoin, EventKind::kChurn,
                        [this, d] { on_churn(d, true); });
    }
  }

  bool link_up_now(std::size_t i) const {
    if (!faults_on_) return true;
    if (fabric_)
      return !down_at(timeline_.link_down[i], queue_.now()) &&
             !down_at(ap_windows_[static_cast<std::size_t>(
                          fabric_->topology().ap_of(static_cast<int>(i)))],
                      queue_.now());
    if (shared_ap_) return !down_at(shared_windows_, queue_.now());
    return !down_at(timeline_.link_down[i], queue_.now());
  }

  void on_edge_crash() {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_crash");
    edge_up_now_ = false;
    ++edge_crashes_;
    const double now = queue_.now();
    // Fleet-wide faults replay in every shard; only the primary reports
    // them so merged counters match the single-queue run.
    if (obs_ && role_.index == 0) obs_->on_fault("edge_crash", -1, now);
    // Every task resident on an edge share loses its work; the owning
    // device notices after the detection timeout and reclaims it.
    for (std::size_t id = 0; id < tasks_.size(); ++id) {
      auto& rec = tasks_[id];
      if (rec.t_complete >= 0.0) continue;
      if (rec.stage != Stage::kEdge1 && rec.stage != Stage::kEdge2) continue;
      const Stage from = rec.stage;
      ++rec.attempt;  // invalidate the in-flight edge completion
      if (obs_) obs_->on_phase_abort(id, now, "edge_crash");
      rec.stage = Stage::kWait;
      const int att = rec.attempt;
      queue_.schedule(now + deg().detection_timeout,
                      EventKind::kFailoverProbe, [this, id, from, att] {
        if (!alive(id, att)) return;
        failover(tasks_[id].device, id, from);
      });
    }
  }

  void on_edge_restart() {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_restart");
    edge_up_now_ = true;
    if (obs_ && role_.index == 0)
      obs_->on_fault("edge_restart", -1, queue_.now());
    for (auto& dev : devices_)
      if (dev) dev->edge_share->restart(queue_.now());
  }

  void on_churn(std::size_t device, bool joined) {
    LEIME_PROF_SCOPE("leime.sim.ev.churn");
    present_[device] = joined ? 1 : 0;
    ++churn_events_;
    // Per-device fault: the owning shard reports it (lo_ = 0, hi_ = N in
    // single-queue mode, so the guard is a no-op there).
    if (obs_ && device >= lo_ && device < hi_)
      obs_->on_fault(joined ? "churn_join" : "churn_leave",
                     static_cast<int>(device), queue_.now());
    // Re-run the eq. 27 allocation over the devices actually present
    // (absentees keep a floor share so a rejoin cannot divide by zero).
    // Inputs come from the specs, so every shard computes the full fleet's
    // shares identically and applies its own devices' slice.
    scratch_k_.clear();
    scratch_fd_.clear();
    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
      scratch_k_.push_back(present_[i]
                               ? std::max(1e-6, cfg_.devices[i].mean_rate *
                                                    cfg_.lyapunov.tau)
                               : 1e-6);
      scratch_fd_.push_back(cfg_.devices[i].flops);
    }
    const auto shares =
        core::kkt_edge_allocation(scratch_k_, scratch_fd_, cfg_.edge_flops,
                                  core::fleet_p_min(scratch_k_.size()));
    for (std::size_t i = lo_; i < hi_; ++i)
      devices_[i]->edge_share->set_flops(shares[i] * cfg_.edge_flops);
  }

  /// Edge-side work for `id` was lost (crash) or refused (submitted while
  /// down): fail the task back to its device after detection.
  void failover(std::size_t i, std::size_t id, Stage from) {
    LEIME_PROF_SCOPE("leime.sim.ev.failover");
    auto& rec = tasks_[id];
    ++fleet_faults_.failed_over;
    ++dev_faults_[i].failed_over;
    if (obs_) obs_->on_fault("failover", static_cast<int>(i), queue_.now());
    if (from == Stage::kEdge1) {
      // Block-1 work re-runs on the device CPU (the device always holds
      // the first partition); deeper blocks re-enter the edge path from
      // there if the task survives past exit 1.
      dispatch(i, id, /*offload=*/false);
    } else {
      // Block 2 only exists on the edge tier: wait for the restart.
      resume_on_edge_when_up(i, id, &rec);
    }
  }

  /// Schedules submit_edge_block2 at the first probe (exponential backoff
  /// schedule) at/after the edge is back; parks the task when the timeline
  /// says the edge never returns.
  void resume_on_edge_when_up(std::size_t i, std::size_t id,
                              TaskRecord* rec) {
    const double now = queue_.now();
    const double up = timeline_.next_edge_up(now);
    if (!std::isfinite(up)) {
      rec->parked = true;
      rec->stage = Stage::kParked;
      if (obs_) obs_->on_task_parked(id, static_cast<int>(i), now);
      return;
    }
    double when = now + deg().probe_period;
    double step = deg().probe_period;
    for (int guard = 0; when < up && guard < 64; ++guard) {
      step *= 2.0;
      when += step;
    }
    rec->stage = Stage::kWait;
    const int att = rec->attempt;
    queue_.schedule(when, EventKind::kFailoverProbe, [this, i, id, att] {
      if (!alive(id, att)) return;
      submit_edge_block2(i, id);
    });
  }

  /// Bounded-retry watchdog for offloaded dispatches (task_timeout > 0).
  void schedule_task_timeout(std::size_t i, std::size_t id) {
    const int att = tasks_[id].attempt;
    queue_.schedule_in(deg().task_timeout, EventKind::kTaskTimeout,
                       [this, i, id, att] {
      auto& rec = tasks_[id];
      if (!alive(id, att)) return;
      // Too deep to claw back (cloud leg) or terminally parked: let it be.
      if (rec.stage == Stage::kCloud || rec.stage == Stage::kReturn ||
          rec.stage == Stage::kParked)
        return;
      ++rec.attempt;
      ++rec.retries;
      ++fleet_faults_.retries;
      ++dev_faults_[i].retries;
      if (obs_) {
        obs_->on_fault("task_timeout", static_cast<int>(i), queue_.now());
        obs_->on_phase_abort(id, queue_.now(), "timeout");
      }
      if (rec.retries <= deg().max_retries) {
        const double wait =
            deg().retry_backoff * std::pow(2.0, rec.retries - 1);
        rec.stage = Stage::kWait;
        const int next = rec.attempt;
        queue_.schedule_in(wait, EventKind::kRetryLaunch,
                           [this, i, id, next] {
          if (!alive(id, next)) return;
          dispatch(i, id, /*offload=*/true);
        });
      } else {
        ++local_fallbacks_;
        if (obs_)
          obs_->on_fault("local_fallback", static_cast<int>(i), queue_.now());
        dispatch(i, id, /*offload=*/false);
      }
    });
  }

  /// A fabric flow for this task was dropped at a full port queue. The leg
  /// is retried with the same bounded backoff as a timeout; an exhausted
  /// raw upload falls back to the device CPU, while deeper legs park (their
  /// partial state lives on tiers the device cannot resume from).
  void handle_net_drop(std::size_t i, std::size_t id, NetLeg leg) {
    LEIME_PROF_SCOPE("leime.sim.ev.net_drop");
    auto& rec = tasks_[id];
    ++rec.attempt;
    ++rec.retries;
    ++fleet_faults_.retries;
    ++dev_faults_[i].retries;
    if (obs_) {
      obs_->on_fault("net_drop", static_cast<int>(i), queue_.now());
      obs_->on_phase_abort(id, queue_.now(), "net_drop");
    }
    if (rec.retries <= deg().max_retries) {
      const double wait = deg().retry_backoff * std::pow(2.0, rec.retries - 1);
      rec.stage = Stage::kWait;
      const int att = rec.attempt;
      queue_.schedule_in(wait, EventKind::kRetryLaunch,
                         [this, i, id, att, leg] {
        if (!alive(id, att)) return;
        relaunch_leg(i, id, leg);
      });
    } else if (leg == NetLeg::kRaw) {
      ++local_fallbacks_;
      if (obs_)
        obs_->on_fault("local_fallback", static_cast<int>(i), queue_.now());
      dispatch(i, id, /*offload=*/false);
    } else {
      rec.parked = true;
      rec.stage = Stage::kParked;
      if (obs_) obs_->on_task_parked(id, static_cast<int>(i), queue_.now());
    }
  }

  void relaunch_leg(std::size_t i, std::size_t id, NetLeg leg) {
    switch (leg) {
      case NetLeg::kRaw: return dispatch(i, id, /*offload=*/true);
      case NetLeg::kTensor: return send_tensor_uplink(i, id);
      case NetLeg::kEdgeCloud: return send_edge_cloud(i, id);
      case NetLeg::kEdgeReturn: return deliver_from_edge(i, id, queue_.now());
      case NetLeg::kCloudReturn:
        return deliver_from_cloud(i, id, queue_.now());
    }
  }

  // ------------------------------------------------------------- task flow

  core::DeviceSlotState observe(std::size_t i) const {
    const auto& dev = *devices_[i];
    core::DeviceSlotState s;
    s.partition = &cfg_.partition;
    s.device_flops = dev.spec->flops;
    s.edge_share_flops = dev.edge_share->flops();
    if (fabric_) {
      // Route aggregates stand in for the single-link observation: the
      // bottleneck bandwidth (min over hops), total propagation latency
      // and total queued backlog along device -> edge. A crowded AP
      // backhaul thus feeds straight into the eq. 8 budget and steers the
      // controller exactly like a shaped flat uplink would.
      const double now = queue_.now();
      s.bandwidth = fabric_->route_bandwidth_at(dev_node(i), edge_node(), now);
      s.latency =
          std::min(fabric_->route_latency_at(dev_node(i), edge_node(), now),
                   0.9 * cfg_.lyapunov.tau);
    } else {
      s.bandwidth = dev.tx->bandwidth_at(queue_.now());
      // Clamp so tau > latency always holds for the decision model even
      // under extreme shaping traces.
      s.latency =
          std::min(dev.tx->latency_at(queue_.now()) + dev.tx_extra_latency,
                   0.9 * cfg_.lyapunov.tau);
    }
    s.queue_device = dev.cpu->pending(JobClass::kBlock1);
    s.queue_edge = dev.edge_share->pending(JobClass::kBlock1);
    if (!cfg_.uplink_backlog_feedback)
      s.uplink_backlog_bytes = 0.0;
    else
      s.uplink_backlog_bytes =
          fabric_
              ? fabric_->route_backlog_bytes(dev_node(i), edge_node(),
                                             queue_.now())
              : dev.tx->backlog_bytes(queue_.now());
    s.arrivals = dev.arrival_estimate;
    s.edge_available = !faults_on_ || (edge_up_now_ && link_up_now(i));
    s.config = cfg_.lyapunov;
    return s;
  }

  /// Slot decisions for the whole fleet: observe every device, solve the
  /// devices whose state changed since their previous slot in one batched
  /// call, then apply in device order. Observation and decision touch no
  /// queues, consume no RNG and schedule no events, so the phase split
  /// leaves every value and the event sequence as a device-by-device loop
  /// would. A device whose observed state is bit-identical to its previous
  /// one keeps its previous x (policy/slot_memo.h, DESIGN.md §12.2): the
  /// policy is a pure function of the state, and the partition, the
  /// Lyapunov config and the policy are fixed for the life of the run.
  /// The policy's own decide_batch solves the misses (the eq. 19/20 vector
  /// lanes, bit-identical to decide), across the decision pool when there
  /// are enough of them (DESIGN.md §12.3).
  void decide_all() {
    LEIME_PROF_SCOPE("leime.sim.decide");
    // Each decision epoch opens a fresh x-log slice; the coordinator
    // replays slices in (epoch, shard) order to rebuild the fleet-order
    // x_sum accumulation of the single-queue loop.
    if (role_.active()) x_log_.emplace_back();
    memo_.round(
        hi_ - lo_, [this](std::size_t k) { return observe(lo_ + k); },
        [this](std::span<const core::DeviceSlotState> states,
               std::span<double> x) { decide_.solve(*policy_, states, x); });
    policy::SlotMemo::SolvedCursor cursor(memo_);
    for (std::size_t k = 0; k < hi_ - lo_; ++k)
      apply_decision(lo_ + k, memo_.state(k), memo_.x(k), cursor.solved(k));
  }

  /// Per-device decision bookkeeping, in device order. `solved`: x came
  /// from this round's solve rather than the device's memo entry.
  void apply_decision(std::size_t i, const core::DeviceSlotState& state,
                      double x, bool solved) {
    auto& dev = *devices_[i];
    dev.x = x;
    if (faults_on_ && !state.edge_available && dev.x <= 0.0) {
      ++fleet_faults_.fallback_slots;
      ++dev_faults_[i].fallback_slots;
    }
    x_sum_ += dev.x;
    ++x_count_;
    x_sum_dev_[i] += dev.x;
    ++x_count_dev_[i];
    if (role_.active()) x_log_.back().push_back(dev.x);
    if (obs_) {
      SlotTelemetry tel;
      tel.x = dev.x;
      tel.q = state.queue_device;
      tel.h = state.queue_edge;
      tel.penalty = state.config.V * core::slot_cost(state, dev.x);
      tel.drift = core::drift_plus_penalty(state, dev.x) - tel.penalty;
      tel.edge_up = !faults_on_ || edge_up_now_;
      tel.link_up = link_up_now(i);
      tel.edge_share_flops = dev.edge_share->flops();
      // Eq. 4-9 component predictions at decision time; the attribution
      // layer joins them against the realized ledger at task completion.
      tel.pred = policy::predict_components(state, dev.x);
      // Borrowed for the duration of the hook: provenance re-evaluates the
      // eq. 19 objective at unchosen x values without touching the run.
      tel.state = &state;
      tel.solved = solved;
      obs_->on_slot_decision(static_cast<int>(i), queue_.now(), tel);
    }
  }

  void slot_tick() {
    LEIME_PROF_SCOPE("leime.sim.ev.slot_tick");
    // Estimates, decisions and queue sampling are per-device independent
    // (decisions touch no queues, consume no RNG and schedule no events),
    // so splitting the single loop into phases — required for the batched
    // decision path — leaves every value and the event sequence unchanged.
    for (std::size_t i = lo_; i < hi_; ++i) {
      auto& dev = *devices_[i];
      // Blend observation with the process's nominal rate: reacts to bursts
      // while staying stable at low rates.
      const double observed = dev.arrived_this_slot;
      const double nominal =
          dev.arrivals->rate_at(queue_.now()) * cfg_.lyapunov.tau;
      dev.arrival_estimate = std::max(0.5 * (observed + nominal), 0.25);
      dev.arrived_this_slot = 0;
    }
    decide_all();
    for (std::size_t i = lo_; i < hi_; ++i) {
      auto& dev = *devices_[i];
      q_sum_ += dev.cpu->pending(JobClass::kBlock1);
      h_sum_ += dev.edge_share->pending(JobClass::kBlock1);
      ++queue_samples_;
    }
    if (queue_.now() + cfg_.lyapunov.tau <= cfg_.duration)
      queue_.schedule_in(cfg_.lyapunov.tau, EventKind::kSlotTick,
                         [this] { slot_tick(); });
  }

  void schedule_next_arrival(std::size_t i) {
    auto& dev = *devices_[i];
    const double gap = dev.arrivals->next_interarrival(queue_.now(), dev.rng);
    const double when = queue_.now() + gap;
    if (when > cfg_.duration) return;  // generation window closed
    queue_.schedule(when, EventKind::kArrival, [this, i] {
      on_arrival(i);
      schedule_next_arrival(i);
    });
  }

  void reallocate() {
    LEIME_PROF_SCOPE("leime.sim.ev.reallocate");
    // Re-run the eq. 27 allocation on observed per-window rates; a floor
    // keeps idle devices from being starved out entirely.
    scratch_k_.clear();
    scratch_fd_.clear();
    if (role_.active()) {
      // Sharded: the fleet-wide counts were gathered by the coordinator at
      // a barrier just below this event's time (the same arrivals the
      // single-queue loop would read here), so every shard allocates from
      // identical inputs. Subtracting the gathered count instead of
      // zeroing keeps any arrival landing between the gather barrier and
      // this event counted toward the next window.
      for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
        scratch_k_.push_back(
            std::max(0.25, static_cast<double>(realloc_counts_[i]) *
                               cfg_.lyapunov.tau / cfg_.reallocation_period));
        scratch_fd_.push_back(cfg_.devices[i].flops);
      }
      for (std::size_t i = lo_; i < hi_; ++i)
        devices_[i]->arrived_this_window -= realloc_counts_[i];
    } else {
      for (auto& dev : devices_) {
        scratch_k_.push_back(
            std::max(0.25, static_cast<double>(dev->arrived_this_window) *
                               cfg_.lyapunov.tau / cfg_.reallocation_period));
        scratch_fd_.push_back(dev->spec->flops);
        dev->arrived_this_window = 0;
      }
    }
    const auto shares =
        core::kkt_edge_allocation(scratch_k_, scratch_fd_, cfg_.edge_flops,
                                  core::fleet_p_min(scratch_k_.size()));
    for (std::size_t i = lo_; i < hi_; ++i)
      devices_[i]->edge_share->set_flops(shares[i] * cfg_.edge_flops);
    if (queue_.now() + cfg_.reallocation_period <= cfg_.duration)
      queue_.schedule_in(cfg_.reallocation_period, EventKind::kReallocate,
                         [this] { reallocate(); });
  }

  void on_arrival(std::size_t i) {
    LEIME_PROF_SCOPE("leime.sim.ev.arrival");
    if (faults_on_ && !present_[i]) return;  // device has left the fleet
    auto& dev = *devices_[i];
    ++dev.arrived_this_slot;
    ++dev.arrived_this_window;
    const std::size_t task_id = tasks_.size();
    TaskRecord rec;
    rec.t_arrive = queue_.now();
    rec.device = i;
    rec.block =
        workload::block_for_complexity(cfg_.partition, dev.complexity.sample(dev.rng));
    rec.offloaded = dev.rng.bernoulli(dev.x);
    rec.counted = rec.t_arrive >= cfg_.warmup;
    tasks_.push_back(rec);
    if (obs_)
      obs_->on_task_generated(task_id, static_cast<int>(i), rec.t_arrive,
                              rec.block, rec.offloaded);
    dispatch(i, task_id, rec.offloaded);
  }

  /// Launches (or relaunches) a task: offloaded tasks cross the uplink and
  /// start block 1 on the edge share; local tasks start it on the device.
  void dispatch(std::size_t i, std::size_t id, bool offload) {
    LEIME_PROF_SCOPE("leime.sim.ev.dispatch");
    auto& dev = *devices_[i];
    auto& rec = tasks_[id];
    const auto& p = cfg_.partition;
    const int att = rec.attempt;
    if (offload) {
      rec.stage = Stage::kUplink;
      if (obs_)
        obs_->on_phase_begin(
            id, static_cast<int>(i), "uplink",
            fabric_ ? "fabric" : dev.tx->name(), queue_.now(),
            fabric_ ? queue_.now()
                    : std::max(queue_.now(), dev.tx->busy_until()),
            att);
      // Raw input crosses the uplink, then block 1 runs on the edge share.
      if (fabric_) {
        fabric_->transfer(dev_node(i), edge_node(), p.d0, flow_tag(id, att),
                          [this, i, id, att](double t) {
          if (!alive(id, att)) return;
          if (t < 0.0) return handle_net_drop(i, id, NetLeg::kRaw);
          if (obs_) obs_->on_phase_end(id, t);
          submit_edge_block1(i, id);
        });
      } else {
        dev.tx->transfer(p.d0, dev.tx_extra_latency,
                         [this, i, id, att](double t) {
          if (!alive(id, att)) return;
          if (obs_) obs_->on_phase_end(id, t);
          submit_edge_block1(i, id);
        });
      }
      if (deg().task_timeout > 0.0) schedule_task_timeout(i, id);
    } else {
      rec.stage = Stage::kLocal;
      if (obs_)
        obs_->on_phase_begin(id, static_cast<int>(i), "local_block1",
                             dev.cpu->name(), queue_.now(),
                             std::max(queue_.now(), dev.cpu->busy_until()),
                             att);
      dev.cpu->submit(p.mu1, JobClass::kBlock1, [this, i, id, att](double t) {
        if (!alive(id, att)) return;
        if (obs_) obs_->on_phase_end(id, t);
        after_block1(i, id, t, false);
      });
    }
  }

  void submit_edge_block1(std::size_t i, std::size_t id) {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_block1");
    auto& rec = tasks_[id];
    if (faults_on_ && !edge_up_now_) {
      // Refused at the dead edge's door: fail back after detection.
      ++rec.attempt;
      rec.stage = Stage::kWait;
      if (obs_)
        obs_->on_fault("edge_refused", static_cast<int>(i), queue_.now());
      const int att = rec.attempt;
      queue_.schedule_in(deg().detection_timeout, EventKind::kFailoverProbe,
                         [this, i, id, att] {
        if (!alive(id, att)) return;
        failover(i, id, Stage::kEdge1);
      });
      return;
    }
    rec.stage = Stage::kEdge1;
    const int att = rec.attempt;
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "edge_block1",
          devices_[i]->edge_share->name(), queue_.now(),
          std::max(queue_.now(), devices_[i]->edge_share->busy_until()), att);
    devices_[i]->edge_share->submit(
        cfg_.partition.mu1, JobClass::kBlock1, [this, i, id, att](double t) {
          if (!alive(id, att)) return;
          if (obs_) obs_->on_phase_end(id, t);
          after_block1(i, id, t, true);
        });
  }

  void submit_edge_block2(std::size_t i, std::size_t id) {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_block2");
    auto& rec = tasks_[id];
    if (faults_on_ && !edge_up_now_) {
      ++rec.attempt;
      rec.stage = Stage::kWait;
      if (obs_)
        obs_->on_fault("edge_refused", static_cast<int>(i), queue_.now());
      const int att = rec.attempt;
      queue_.schedule_in(deg().detection_timeout, EventKind::kFailoverProbe,
                         [this, i, id, att] {
        if (!alive(id, att)) return;
        failover(i, id, Stage::kEdge2);
      });
      return;
    }
    rec.stage = Stage::kEdge2;
    const int att = rec.attempt;
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "edge_block2",
          devices_[i]->edge_share->name(), queue_.now(),
          std::max(queue_.now(), devices_[i]->edge_share->busy_until()), att);
    devices_[i]->edge_share->submit(
        cfg_.partition.mu2, JobClass::kBlock2, [this, i, id, att](double t) {
          if (!alive(id, att)) return;
          if (obs_) obs_->on_phase_end(id, t);
          after_block2(i, id, t);
        });
  }

  void after_block1(std::size_t i, std::size_t id, double t, bool on_edge) {
    LEIME_PROF_SCOPE("leime.sim.ev.after_block1");
    auto& rec = tasks_[id];
    if (rec.block == 1) {
      // Local completions hold the result already; edge ones return it.
      if (on_edge)
        deliver_from_edge(i, id, t);
      else
        complete(id, t);
      return;
    }
    if (on_edge) {
      // Already at the edge: block 2 continues on the same share.
      submit_edge_block2(i, id);
    } else {
      send_tensor_uplink(i, id);
    }
  }

  /// The intermediate d1 tensor crosses to the edge before block 2.
  void send_tensor_uplink(std::size_t i, std::size_t id) {
    auto& rec = tasks_[id];
    rec.stage = Stage::kUplink;
    const int att = rec.attempt;
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "uplink",
          fabric_ ? "fabric" : devices_[i]->tx->name(), queue_.now(),
          fabric_ ? queue_.now()
                  : std::max(queue_.now(), devices_[i]->tx->busy_until()),
          att);
    if (fabric_) {
      fabric_->transfer(dev_node(i), edge_node(), cfg_.partition.d1,
                        flow_tag(id, att), [this, i, id, att](double t2) {
        if (!alive(id, att)) return;
        if (t2 < 0.0) return handle_net_drop(i, id, NetLeg::kTensor);
        if (obs_) obs_->on_phase_end(id, t2);
        submit_edge_block2(i, id);
      });
    } else {
      devices_[i]->tx->transfer(
          cfg_.partition.d1, devices_[i]->tx_extra_latency,
          [this, i, id, att](double t2) {
            if (!alive(id, att)) return;
            if (obs_) obs_->on_phase_end(id, t2);
            submit_edge_block2(i, id);
          });
    }
  }

  void after_block2(std::size_t i, std::size_t id, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.after_block2");
    if (tasks_[id].block == 2) {
      deliver_from_edge(i, id, t);
      return;
    }
    send_edge_cloud(i, id);
  }

  /// The d2 tensor crosses to the cloud, then block 3 runs there.
  void send_edge_cloud(std::size_t i, std::size_t id) {
    auto& rec = tasks_[id];
    rec.stage = Stage::kCloud;
    const int att = rec.attempt;
    if (role_.active()) {
      // Cross-shard leg: record the admission; the coordinator replays the
      // shared hub link in global admission order at the next barrier and
      // injects the delivery back into this shard. (Sharded obs is
      // metrics-only, where the phase hooks are no-ops, so skipping them
      // on this leg changes nothing observable.)
      role_.outbox->push_back({queue_.now(), i, id, att});
      return;
    }
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "edge_cloud_link",
          fabric_ ? "fabric" : edge_cloud_link_->name(), queue_.now(),
          fabric_
              ? queue_.now()
              : std::max(queue_.now(), edge_cloud_link_->busy_until()),
          att);
    if (fabric_) {
      fabric_->transfer(edge_node(), net::NodeId::cloud(), cfg_.partition.d2,
                        flow_tag(id, att), [this, i, id, att](double t2) {
        if (!alive(id, att)) return;
        if (t2 < 0.0) return handle_net_drop(i, id, NetLeg::kEdgeCloud);
        if (obs_) obs_->on_phase_end(id, t2);
        cloud_service(i, id, t2);
      });
    } else {
      edge_cloud_link_->transfer(cfg_.partition.d2,
                                 [this, i, id, att](double t2) {
        if (!alive(id, att)) return;
        if (obs_) obs_->on_phase_end(id, t2);
        cloud_service(i, id, t2);
      });
    }
  }

  /// Block 3 on the cloud tier (FIFO server or uncontended service).
  void cloud_service(std::size_t i, std::size_t id, double t2) {
    const int att = tasks_[id].attempt;
    if (cloud_) {
      if (obs_)
        obs_->on_phase_begin(id, static_cast<int>(i), "cloud_block3",
                             cloud_->name(), t2,
                             std::max(t2, cloud_->busy_until()), att);
      cloud_->submit(cfg_.partition.mu3, JobClass::kBlock3,
                     [this, i, id, att](double t3) {
                       if (!alive(id, att)) return;
                       if (obs_) obs_->on_phase_end(id, t3);
                       deliver_from_cloud(i, id, t3);
                     });
    } else {
      // Uncontended cloud service.
      const double finish = t2 + cfg_.partition.mu3 / cfg_.cloud_flops;
      if (obs_)
        obs_->on_phase_begin(id, static_cast<int>(i), "cloud_block3",
                             "cloud", t2, t2, att);
      queue_.schedule(finish, EventKind::kCloudService,
                      [this, i, id, att, finish] {
        if (!alive(id, att)) return;
        if (obs_) obs_->on_phase_end(id, finish);
        deliver_from_cloud(i, id, finish);
      });
    }
  }

  /// Result return from the edge tier (no-op transfer when results are
  /// modelled as free).
  void deliver_from_edge(std::size_t i, std::size_t id, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.deliver_edge");
    if (cfg_.result_bytes <= 0.0) {
      complete(id, t);
      return;
    }
    tasks_[id].stage = Stage::kReturn;
    const int att = tasks_[id].attempt;
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "return_link",
          fabric_ ? "fabric" : devices_[i]->downlink->name(), queue_.now(),
          fabric_
              ? queue_.now()
              : std::max(queue_.now(), devices_[i]->downlink->busy_until()),
          att);
    if (fabric_) {
      fabric_->transfer(edge_node(), dev_node(i), cfg_.result_bytes,
                        flow_tag(id, att), [this, i, id, att](double t2) {
        if (!alive(id, att)) return;
        if (t2 < 0.0) return handle_net_drop(i, id, NetLeg::kEdgeReturn);
        if (obs_) obs_->on_phase_end(id, t2);
        complete(id, t2);
      });
      return;
    }
    devices_[i]->downlink->transfer(
        cfg_.result_bytes, [this, id, att](double t2) {
          if (!alive(id, att)) return;
          if (obs_) obs_->on_phase_end(id, t2);
          complete(id, t2);
        });
  }

  /// Result return from the cloud: cloud -> edge, then edge -> device.
  void deliver_from_cloud(std::size_t i, std::size_t id, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.deliver_cloud");
    if (cfg_.result_bytes <= 0.0) {
      complete(id, t);
      return;
    }
    tasks_[id].stage = Stage::kReturn;
    const int att = tasks_[id].attempt;
    if (fabric_) {
      // One routed flow cloud -> edge -> AP -> device replaces the flat
      // path's two-stage return.
      if (obs_)
        obs_->on_phase_begin(id, static_cast<int>(i), "cloud_return_link",
                             "fabric", queue_.now(), queue_.now(), att);
      fabric_->transfer(net::NodeId::cloud(), dev_node(i), cfg_.result_bytes,
                        flow_tag(id, att), [this, i, id, att](double t2) {
        if (!alive(id, att)) return;
        if (t2 < 0.0) return handle_net_drop(i, id, NetLeg::kCloudReturn);
        if (obs_) obs_->on_phase_end(id, t2);
        complete(id, t2);
      });
      (void)t;
      return;
    }
    if (obs_)
      obs_->on_phase_begin(
          id, static_cast<int>(i), "cloud_return_link",
          cloud_return_link_->name(), queue_.now(),
          std::max(queue_.now(), cloud_return_link_->busy_until()), att);
    cloud_return_link_->transfer(cfg_.result_bytes, [this, i, id,
                                                     att](double t2) {
      if (!alive(id, att)) return;
      if (obs_) {
        obs_->on_phase_end(id, t2);
        obs_->on_phase_begin(
            id, static_cast<int>(tasks_[id].device), "return_link",
            devices_[i]->downlink->name(), t2,
            std::max(t2, devices_[i]->downlink->busy_until()), att);
      }
      devices_[i]->downlink->transfer(
          cfg_.result_bytes, [this, id, att](double t2b) {
            if (!alive(id, att)) return;
            if (obs_) obs_->on_phase_end(id, t2b);
            complete(id, t2b);
          });
    });
    (void)t;
  }

  void complete(std::size_t id, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.complete");
    auto& rec = tasks_[id];
    LEIME_CHECK(rec.t_complete < 0.0);
    rec.t_complete = t;
    if (obs_)
      obs_->on_task_complete(id, static_cast<int>(rec.device), rec.t_arrive,
                             t, rec.block, rec.retries, rec.counted);
  }

  SimResult finalize() const {
    LEIME_PROF_SCOPE("leime.sim.finalize");
    Aggregates agg;
    agg.x_sum = x_sum_;
    agg.x_count = x_count_;
    agg.q_sum = q_sum_;
    agg.h_sum = h_sum_;
    agg.queue_samples = queue_samples_;
    agg.link_outages = timeline_.link_outage_count();
    agg.edge_crashes = edge_crashes_;
    agg.churn_events = churn_events_;
    agg.local_fallbacks = local_fallbacks_;
    agg.fleet = fleet_faults_;
    agg.x_sum_dev = x_sum_dev_;
    agg.x_count_dev = x_count_dev_;
    agg.dev_faults = dev_faults_;
    SimResult out = finalize_impl(cfg_, tasks_, agg);
    if (fabric_) {
      out.net.active = true;
      const auto& ns = fabric_->stats();
      out.net.transfers = ns.transfers;
      out.net.delivered = ns.delivered;
      out.net.hops = ns.hops;
      out.net.drops = ns.drops;
      out.net.bytes = ns.bytes;
      out.net.max_backlog_bytes = fabric_->max_backlog_bytes();
    }
    return out;
  }

  static void write_task_trace(const ScenarioConfig& cfg,
                               const std::vector<TaskRecord>& tasks) {
    util::CsvWriter trace(cfg.task_trace_path,
                          {"task", "device", "t_arrive", "t_complete",
                           "tct", "exit_block", "offloaded", "counted"});
    for (std::size_t id = 0; id < tasks.size(); ++id) {
      const auto& rec = tasks[id];
      const bool done = rec.t_complete >= 0.0;
      trace.add_row({std::to_string(id), std::to_string(rec.device),
                     std::to_string(rec.t_arrive),
                     done ? std::to_string(rec.t_complete) : "-",
                     done ? std::to_string(rec.t_complete - rec.t_arrive)
                          : "-",
                     std::to_string(rec.block),
                     rec.offloaded ? "1" : "0", rec.counted ? "1" : "0"});
    }
  }

  const ScenarioConfig& cfg_;
  ShardRole role_;
  /// Owned device range [lo_, hi_): the whole fleet in single-queue mode.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  EventQueue queue_;
  /// Index-aligned with cfg_.devices; entries outside [lo_, hi_) are null
  /// in sharded mode (another shard owns them).
  std::vector<std::unique_ptr<DeviceRuntime>> devices_;
  std::unique_ptr<Link> edge_cloud_link_;
  std::unique_ptr<Link> cloud_return_link_;
  std::unique_ptr<Link> shared_ap_;
  std::unique_ptr<net::Fabric> fabric_;  ///< topology mode; else nullptr
  std::unique_ptr<FifoProcessor> cloud_;
  std::unique_ptr<core::OffloadPolicy> policy_;
  /// Decision-round buffers reused across slots, so rounds allocate
  /// nothing in steady state: the per-device memo of last slot's states
  /// and decisions.
  policy::SlotMemo memo_;
  /// Solves a round's misses, in parallel for a large fleet; serial in
  /// sharded mode.
  ParallelDecide decide_;
  /// Sharded mode only: per-epoch offload decisions in device order (the
  /// coordinator's x_sum replay) and the gathered fleet-wide arrival
  /// counts the next kReallocate event allocates from.
  std::vector<std::vector<double>> x_log_;
  std::vector<int> realloc_counts_;
  std::vector<TaskRecord> tasks_;
  Observer* obs_ = nullptr;  ///< external (cfg_.observer) or owned_obs_
  std::unique_ptr<RecordingObserver> owned_obs_;
  double x_sum_ = 0.0;
  std::size_t x_count_ = 0;
  double q_sum_ = 0.0;
  double h_sum_ = 0.0;
  std::size_t queue_samples_ = 0;
  std::vector<double> x_sum_dev_;
  std::vector<std::size_t> x_count_dev_;
  // Reused by reallocate()/on_churn() so periodic re-allocations stop
  // re-growing fresh k/F^d vectors every window.
  std::vector<double> scratch_k_;
  std::vector<double> scratch_fd_;

  // Fault-layer state.
  bool faults_on_ = false;
  FaultTimeline timeline_;
  std::vector<FaultWindow> shared_windows_;  ///< merged, shared-AP mode
  std::vector<std::vector<FaultWindow>> ap_windows_;  ///< merged, per AP
  bool edge_up_now_ = true;
  std::vector<char> present_;
  FaultCounters fleet_faults_;
  std::vector<FaultCounters> dev_faults_;
  std::size_t edge_crashes_ = 0;
  std::size_t churn_events_ = 0;
  std::size_t local_fallbacks_ = 0;
};

SimResult Simulation::finalize_impl(const ScenarioConfig& cfg,
                                    const std::vector<TaskRecord>& tasks,
                                    const Aggregates& agg) {
  const std::size_t num_devices = agg.x_sum_dev.size();
  SimResult out;
  std::vector<double> tcts;
  std::map<long long, std::pair<double, std::size_t>> windows;
  std::size_t exits[3] = {0, 0, 0};
  tcts.reserve(tasks.size());
  // Per-device TCTs go to one flat array by a stable counting sort on the
  // device, which keeps task order within each device: every device's
  // slice then holds the values a per-device vector would, in the same
  // order, without an allocation per device. by_device[d + 1] counts
  // device d's TCTs here; it becomes slice bounds further down.
  std::vector<std::size_t> by_device(num_devices + 1, 0);
  // Post-warmup and completed: a negative t_complete is still in flight
  // at drain end.
  const auto counts = [](const TaskRecord& rec) {
    return rec.counted && rec.t_complete >= 0.0;
  };
  for (const auto& rec : tasks) {
    ++out.generated;
    if (rec.t_complete >= 0.0)
      ++out.total_completed;
    else
      ++out.in_flight;
    if (rec.parked) ++out.faults.parked;
    if (!counts(rec)) continue;
    ++out.completed;
    const double tct = rec.t_complete - rec.t_arrive;
    tcts.push_back(tct);
    ++by_device[rec.device + 1];
    ++exits[rec.block - 1];
    const auto w =
        static_cast<long long>(rec.t_complete / cfg.timeline_window);
    auto& slot = windows[w];
    slot.first += tct;
    ++slot.second;
  }
  out.tct = util::summarize(tcts);
  const double total = std::max<std::size_t>(1, out.completed);
  out.exit1_fraction = exits[0] / total;
  out.exit2_fraction = exits[1] / total;
  out.exit3_fraction = exits[2] / total;
  out.mean_offload_ratio = agg.x_count ? agg.x_sum / agg.x_count : 0.0;
  out.mean_device_queue =
      agg.queue_samples ? agg.q_sum / agg.queue_samples : 0.0;
  out.mean_edge_queue =
      agg.queue_samples ? agg.h_sum / agg.queue_samples : 0.0;
  out.faults.link_outages = agg.link_outages;
  out.faults.edge_crashes = agg.edge_crashes;
  out.faults.churn_events = agg.churn_events;
  out.faults.failed_over = agg.fleet.failed_over;
  out.faults.retries = agg.fleet.retries;
  out.faults.local_fallbacks = agg.local_fallbacks;
  out.faults.fallback_slots = agg.fleet.fallback_slots;
  // Sized once: a result outlives its run (sweeps keep hundreds of them),
  // so its vectors carry no growth slack.
  out.timeline.reserve(windows.size());
  for (const auto& [w, slot] : windows)
    out.timeline.push_back({(w + 0.5) * cfg.timeline_window,
                            slot.first / slot.second, slot.second});
  if (!cfg.task_trace_path.empty()) write_task_trace(cfg, tasks);

  // Prefix sums: by_device[d] becomes the start of device d's slice, and
  // the scatter advances it to the slice's end.
  std::size_t largest = 0;
  for (std::size_t i = 0; i < num_devices; ++i) {
    largest = std::max(largest, by_device[i + 1]);
    by_device[i + 1] += by_device[i];
  }
  std::vector<double> device_tcts(tcts.size());
  std::size_t next = 0;
  for (const auto& rec : tasks)
    if (counts(rec)) device_tcts[by_device[rec.device]++] = tcts[next++];
  std::vector<double> sort_buffer;
  sort_buffer.reserve(largest);
  out.per_device.reserve(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    const std::size_t lo = i ? by_device[i - 1] : 0;
    const std::span<const double> slice(device_tcts.data() + lo,
                                        by_device[i] - lo);
    SimResult::DeviceResult dr;
    dr.tct = util::summarize(slice, sort_buffer);
    dr.completed = slice.size();
    dr.mean_offload_ratio =
        agg.x_count_dev[i]
            ? agg.x_sum_dev[i] / static_cast<double>(agg.x_count_dev[i])
            : 0.0;
    dr.failed_over = agg.dev_faults[i].failed_over;
    dr.retries = agg.dev_faults[i].retries;
    dr.fallback_slots = agg.dev_faults[i].fallback_slots;
    out.per_device.push_back(dr);
  }
  return out;
}

// --------------------------------------------------- sharded coordinator

/// Sharded v1 holds determinism above generality: it accepts exactly the
/// configurations where the only fleet-shared mutable resource is the
/// edge->cloud link (which the coordinator replays bit-identically), and
/// rejects everything else loudly rather than drifting from the
/// single-queue results.
void validate_sharded(const ScenarioConfig& cfg) {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument(
        "[shards] sharded execution does not support " + what +
        " (run with shards = 1)");
  };
  if (cfg.topology.enabled()) reject("[topology] routed fabric mode");
  if (cfg.shared_uplink_bw > 0.0) reject("shared_uplink_bw");
  if (cfg.cloud_fifo) reject("cloud_fifo (a fleet-shared FIFO server)");
  if (cfg.result_bytes > 0.0)
    reject("result_bytes (the shared cloud-return link)");
  if (cfg.observer) reject("an external observer");
  if (cfg.obs.effective_trace_sample() > 0 || cfg.obs.timeseries_enabled() ||
      cfg.obs.attribution_enabled() || cfg.obs.slo.enabled() ||
      cfg.obs.provenance_enabled())
    reject("observability beyond the metrics pillar");
  if (cfg.edge_cloud_lat <= 0.0)
    throw std::invalid_argument(
        "[shards] sharded execution needs edge_cloud_lat > 0: the "
        "propagation delay is the conservative lookahead window");
}

/// One simulation, S event queues (DESIGN.md §15). Shards advance in
/// conservative windows no wider than the edge-cloud propagation delay —
/// every cross-shard event (a hub admission's delivery) provably lands at
/// or beyond the next barrier, so no shard ever receives an event in its
/// past. Between windows the coordinator merges shard outboxes in global
/// admission order, replays the shared hub link, injects deliveries, and
/// (just below each reallocation tick) gathers fleet-wide arrival counts.
/// The merge discipline makes the result byte-identical to shards = 1 for
/// any shard/thread count.
SimResult run_scenario_sharded(const ScenarioConfig& cfg) {
  LEIME_PROF_SCOPE("leime.sim.run_sharded");
  validate_sharded(cfg);
  const std::size_t n = cfg.devices.size();
  const std::size_t S = std::min(cfg.shards.shards, n);
  const double window = shard_window(cfg.shards, cfg.edge_cloud_lat);
  const double inf = std::numeric_limits<double>::infinity();

  std::vector<std::vector<HubRequest>> outboxes(S);
  std::vector<std::unique_ptr<Simulation>> shards;
  shards.reserve(S);
  std::vector<std::size_t> owner(n);
  for (std::size_t s = 0; s < S; ++s) {
    const auto range = shard_range(n, S, s);
    ShardRole role;
    role.index = s;
    role.num_shards = S;
    role.lo = range.first;
    role.hi = range.second;
    role.outbox = &outboxes[s];
    for (std::size_t i = range.first; i < range.second; ++i) owner[i] = s;
    shards.push_back(std::make_unique<Simulation>(cfg, role));
  }

  ShardPool pool(resolve_shard_threads(cfg.shards, S));
  pool.run(S, [&](std::size_t s) { shards[s]->init_run(); });

  HubLink hub(cfg.edge_cloud_bw, cfg.edge_cloud_lat);
  // Mirrors the single-queue kReallocate schedule: first tick at P
  // unconditionally, then T + P while it lands within the generation
  // window (reallocate()'s own rescheduling rule).
  double next_realloc =
      cfg.reallocation_period > 0.0 ? cfg.reallocation_period : inf;
  std::vector<HubRequest> admissions;
  std::vector<int> counts(n, 0);

  {
    LEIME_PROF_SCOPE("leime.sim.shard_windows");
    for (;;) {
      // Adaptive barrier: the earliest pending event anywhere plus the
      // lookahead. Idle stretches (e.g. the post-generation drain) are
      // skipped outright instead of stepped through window by window.
      double min_peek = inf;
      for (const auto& sh : shards)
        min_peek = std::min(min_peek, sh->next_event_time());
      if (!std::isfinite(min_peek)) break;  // all queues drained
      double barrier = min_peek + window;
      bool gather = false;
      if (std::isfinite(next_realloc)) {
        // Stop one ulp below the reallocation tick so the fleet-wide
        // arrival counts can be gathered before any shard executes it.
        const double t_minus = std::nextafter(next_realloc, -inf);
        if (barrier >= t_minus) {
          barrier = t_minus;
          gather = true;
        }
      }
      pool.run(S, [&](std::size_t s) { shards[s]->advance_to(barrier); });

      // Merge the windows' hub admissions in global admission order:
      // within a shard the outbox is already event-ordered, across shards
      // (t, device) reproduces the single queue's (time, seq) order.
      admissions.clear();
      for (auto& box : outboxes) {
        admissions.insert(admissions.end(), box.begin(), box.end());
        box.clear();
      }
      std::stable_sort(admissions.begin(), admissions.end(),
                       [](const HubRequest& a, const HubRequest& b) {
                         if (a.t != b.t) return a.t < b.t;
                         return a.device < b.device;
                       });
      for (const auto& req : admissions) {
        const double t2 = hub.admit(req.t, cfg.partition.d2);
        shards[owner[req.device]]->inject_hub_delivery(req.device, req.task,
                                                       req.attempt, t2);
      }

      if (gather) {
        for (const auto& sh : shards) sh->gather_realloc_counts(counts);
        for (const auto& sh : shards) sh->set_realloc_counts(counts);
        next_realloc =
            next_realloc + cfg.reallocation_period <= cfg.duration
                ? next_realloc + cfg.reallocation_period
                : inf;
      }
    }
  }

  for (const auto& sh : shards) sh->end_run();

  // Harvest. Tasks merge into the single queue's id order: t_arrive is
  // nondecreasing within a shard, and same-instant arrivals across
  // devices (periodic fleets) executed in device order there too.
  std::vector<Simulation::TaskRecord> tasks;
  for (const auto& sh : shards) {
    const auto& t = sh->tasks();
    tasks.insert(tasks.end(), t.begin(), t.end());
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Simulation::TaskRecord& a,
                      const Simulation::TaskRecord& b) {
                     if (a.t_arrive != b.t_arrive)
                       return a.t_arrive < b.t_arrive;
                     return a.device < b.device;
                   });

  Simulation::Aggregates agg;
  agg.resize(n);
  for (std::size_t s = 0; s < S; ++s) shards[s]->accumulate(agg, s == 0);
  // Replay the slot-decision stream in (epoch, device) order so the FP
  // accumulation of x_sum matches the single-queue loop bit for bit.
  const std::size_t epochs = shards.front()->x_log().size();
  for (std::size_t e = 0; e < epochs; ++e)
    for (const auto& sh : shards)
      for (const double x : sh->x_log()[e]) {
        agg.x_sum += x;
        ++agg.x_count;
      }

  SimResult out = Simulation::finalize_impl(cfg, tasks, agg);
  for (const auto& sh : shards) out.events_executed += sh->executed_events();

  if (cfg.obs.enabled()) {
    // Counters sum exactly across shards; the coordinator's observer
    // absorbs the per-shard snapshots in shard order and exports once.
    std::vector<std::string> device_classes;
    device_classes.reserve(n);
    for (const auto& spec : cfg.devices)
      device_classes.push_back(spec.device_class);
    RecordingObserver merged(cfg.obs, n, std::move(device_classes));
    for (const auto& sh : shards)
      merged.registry().absorb(sh->obs_snapshot());
    out.metrics = merged.registry().snapshot();
    merged.export_outputs();
  }
  return out;
}

}  // namespace

SimResult run_scenario(const ScenarioConfig& config) {
  if (config.shards.enabled() && config.devices.size() > 1)
    return run_scenario_sharded(config);
  Simulation sim(config);
  return sim.run();
}

}  // namespace leime::sim
