// Microbenchmark — simulator throughput: DES tasks/second of wall time,
// slotted-model slots/second, and raw EventQueue schedule/pop throughput
// at fixed queue depths, to document the cost of large-scale sweeps.
//
// Emits BENCH_micro_sim.json (bench::Reporter schema) for the regression
// gate in scripts/bench_compare.py. The task/slot counts are deterministic
// for the fixed seeds, so they gate strictly even across hosts; wall-clock
// medians gate only against a same-host baseline.
//
// Usage:
//   micro_sim [--repeats N] [--warmup N] [--out FILE] [--no-json]
//             [--profile]
//
// --profile runs one extra (untimed) DES pass with the self-profiler
// enabled and writes micro_sim.trace.json (chrome://tracing) and
// micro_sim.folded.txt (flamegraph collapsed stacks), then prints how much
// of the event-loop wall time the per-event sections account for.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "core/exit_setting.h"
#include "models/zoo.h"
#include "prof/profiler.h"
#include "reporter.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "sim/slotted.h"
#include "util/table.h"

namespace {

using namespace leime;

core::MeDnnPartition bench_partition() {
  const auto profile = models::make_inception_v3();
  core::CostModel cm(profile, core::testbed_environment());
  return core::make_partition(profile,
                              core::branch_and_bound_exit_setting(cm).combo);
}

sim::ScenarioConfig des_config(const core::MeDnnPartition& partition,
                               int n_devices) {
  sim::ScenarioConfig cfg;
  cfg.partition = partition;
  for (int i = 0; i < n_devices; ++i) {
    sim::DeviceSpec dev;
    dev.mean_rate = 2.0;
    cfg.devices.push_back(dev);
  }
  cfg.duration = 30.0;
  cfg.warmup = 2.0;
  return cfg;
}

/// Fleet scale for the sharded-vs-single-queue cases: large enough that
/// per-window coordination amortizes, small enough that 7 measured
/// repeats stay in bench territory. The heterogeneous specs keep shard
/// loads realistic (unequal, but balanced by the contiguous partition).
constexpr int kFleetDevices = 100000;

sim::ScenarioConfig fleet_config(const core::MeDnnPartition& partition,
                                 int n_devices, std::size_t shards) {
  sim::ScenarioConfig cfg;
  cfg.partition = partition;
  cfg.devices.reserve(static_cast<std::size_t>(n_devices));
  for (int i = 0; i < n_devices; ++i) {
    sim::DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * (1.0 + 0.15 * (i % 4));
    dev.mean_rate = 0.4 + 0.2 * (i % 3);
    dev.difficulty = 0.9 + 0.05 * (i % 5);
    cfg.devices.push_back(dev);
  }
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.shards.shards = shards;
  // Auto thread count: min(hardware_concurrency, shards), so the sharded
  // case measures a 4-thread run on >= 4-core hosts and degrades to the
  // inline windowed loop (pure coordination overhead, no parallelism) on
  // smaller ones. Either way the results — and the counters below — are
  // identical; only the wall medians move.
  cfg.shards.threads = 0;
  return cfg;
}

sim::SlottedConfig slotted_config(const core::MeDnnPartition& partition,
                                  int num_slots) {
  sim::SlottedConfig cfg;
  cfg.partition = partition;
  cfg.device_flops = core::kRaspberryPiFlops;
  cfg.edge_share_flops = core::kEdgeDesktopFlops;
  cfg.bandwidth = util::mbps(10.0);
  cfg.latency = util::ms(20.0);
  cfg.num_slots = num_slots;
  return cfg;
}

#if !defined(LEIME_PROF_DISABLED)
/// Finds `name` among `nodes`; null when absent.
const prof::ReportNode* find_node(const std::vector<prof::ReportNode>& nodes,
                                  const std::string& name) {
  for (const auto& n : nodes)
    if (n.name == name) return &n;
  return nullptr;
}
#endif

/// One profiled (untimed) DES pass; exports trace + flamegraph files and
/// prints what fraction of the event-loop wall time the per-event sections
/// explain — the instrumentation-coverage figure DESIGN.md §9 tracks.
int run_profile_pass(const sim::ScenarioConfig& cfg) {
#if defined(LEIME_PROF_DISABLED)
  static_cast<void>(cfg);
  std::cerr << "micro_sim: built with -DLEIME_PROF=OFF; --profile "
               "needs the instrumented build\n";
  return 1;
#else
  prof::reset();
  prof::set_enabled(true);
  const auto result = sim::run_scenario(cfg);
  prof::set_enabled(false);
  const prof::Report rep = prof::report();
  prof::write_chrome_trace_file("micro_sim.trace.json", rep);
  prof::write_collapsed_file("micro_sim.folded.txt", rep);
  rep.to_text(std::cout);

  const prof::ReportNode* run = find_node(rep.roots, "leime.sim.run");
  const prof::ReportNode* loop =
      run ? find_node(run->children, "leime.sim.event_loop") : nullptr;
  if (!loop || loop->total_ns == 0) {
    std::cerr << "micro_sim: no leime.sim.event_loop section recorded\n";
    return 1;
  }
  std::uint64_t explained = 0;
  for (const auto& child : loop->children) explained += child.total_ns;
  const double coverage =
      static_cast<double>(explained) / static_cast<double>(loop->total_ns);
  std::cout << "event-loop coverage: " << util::fmt(100.0 * coverage, 2)
            << "% of " << loop->total_ns << " ns explained by per-event "
            << "sections (" << result.total_completed << " tasks)\n"
            << "wrote micro_sim.trace.json, micro_sim.folded.txt\n";
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter::Options opts;
  std::string out_path;
  bool json = true;
  bool profile = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--repeats" && a + 1 < argc)
      opts.repeats = std::atoi(argv[++a]);
    else if (arg == "--warmup" && a + 1 < argc)
      opts.warmup = std::atoi(argv[++a]);
    else if (arg == "--out" && a + 1 < argc)
      out_path = argv[++a];
    else if (arg == "--no-json")
      json = false;
    else if (arg == "--profile")
      profile = true;
    else {
      std::cerr << "usage: micro_sim [--repeats N] [--warmup N] "
                   "[--out FILE] [--no-json] [--profile]\n";
      return 2;
    }
  }

  const auto partition = bench_partition();
  bench::Reporter reporter("micro_sim", opts);

  for (const int n_devices : {1, 4, 16}) {
    const auto cfg = des_config(partition, n_devices);
    std::size_t tasks = 0;
    std::uint64_t events = 0;
    auto& c = reporter.run_case(
        "des/devices=" + std::to_string(n_devices), [&] {
          const auto result = sim::run_scenario(cfg);
          tasks = result.generated;  // deterministic for the fixed seed
          events = result.events_executed;
        });
    c.counters["tasks"] = tasks;
    // Executed-event count is a strict counter too: host-independent,
    // unlike the wall-derived rates, so bench_compare.py gates the DES
    // cases on real work even across machines.
    c.counters["events"] = events;
    if (c.wall.median > 0.0) {
      c.rates["tasks_per_s"] = static_cast<double>(tasks) / c.wall.median;
      c.rates["events_per_s"] = static_cast<double>(events) / c.wall.median;
    }
  }

  // Sharded fleet throughput (DESIGN.md §15): the same large fleet run
  // through the single queue and through 4 shard queues pumped by 4
  // worker threads. Results are byte-identical (the sharded_test /
  // golden contract); what this measures is the wall cost of the barrier
  // protocol and the speedup on multi-core hosts — on a single-core host
  // the sharded case documents the coordination overhead instead. The
  // event counters differ between the two cases (each shard owns its own
  // slot-tick/reallocation events) but are deterministic per case.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const auto cfg = fleet_config(partition, kFleetDevices, shards);
    std::size_t tasks = 0;
    std::uint64_t events = 0;
    auto& c = reporter.run_case(
        "des/fleet=" + std::to_string(kFleetDevices) +
            "/shards=" + std::to_string(shards),
        [&] {
          const auto result = sim::run_scenario(cfg);
          tasks = result.generated;
          events = result.events_executed;
        });
    c.counters["tasks"] = tasks;
    c.counters["events"] = events;
    if (c.wall.median > 0.0) {
      c.rates["tasks_per_s"] = static_cast<double>(tasks) / c.wall.median;
      c.rates["events_per_s"] = static_cast<double>(events) / c.wall.median;
    }
  }

  // Raw event-queue throughput: hold the queue at a fixed depth and run a
  // schedule-on-pop churn — the DES's dominant access pattern — so the
  // hot path (ladder insert and refill + pooled slot recycle + inline
  // handler dispatch) is measured without any simulation logic on top.
  // Monotone times (`depth=*`) always land in the top and never exercise
  // the rungs; random exponential holds (`hold=exp,*`) land anywhere, as
  // the fleet's events do, and at 131072 the queue is as deep as the
  // fleet's. The hold cases include drawing the hold (a mt19937_64
  // exponential), the same in every build.
  constexpr int kChurn = 200000;
  // `when(q, rng, i)` is the time of the i-th event scheduled.
  auto queue_case = [&](const std::string& name, int depth, auto when) {
    std::uint64_t executed = 0;
    auto& c = reporter.run_case(name, [&] {
      sim::EventQueue q;
      std::mt19937_64 rng(7);
      executed = 0;
      for (int i = 0; i < depth; ++i)
        q.schedule(when(q, rng, i), sim::EventKind::kGeneric,
                   [&executed] { ++executed; });
      for (int i = 0; i < kChurn; ++i) {
        q.run_one();
        q.schedule(when(q, rng, depth + i), sim::EventKind::kGeneric,
                   [&executed] { ++executed; });
      }
      q.run_all();
    });
    c.counters["events"] = executed;  // deterministic: depth + kChurn
    if (c.wall.median > 0.0)
      c.rates["events_per_s"] =
          static_cast<double>(executed) / c.wall.median;
  };
  for (const int depth : {64, 4096})
    queue_case("queue/depth=" + std::to_string(depth), depth,
               [](const sim::EventQueue&, std::mt19937_64&, int i) {
                 return 0.25 * (i + 1);
               });
  for (const int depth : {4096, 131072}) {
    std::exponential_distribution<double> exp_hold(1.0 / depth);
    queue_case("queue/hold=exp,depth=" + std::to_string(depth), depth,
               [&exp_hold](const sim::EventQueue& q, std::mt19937_64& rng,
                           int) { return q.now() + exp_hold(rng); });
  }

  for (const int num_slots : {100, 1000}) {
    const auto cfg = slotted_config(partition, num_slots);
    const core::LeimePolicy policy;
    std::size_t slots = 0;
    auto& c = reporter.run_case(
        "slotted/slots=" + std::to_string(num_slots), [&] {
          workload::PoissonSlotArrivals arrivals(4.0);
          const auto result = sim::run_slotted_policy(cfg, arrivals, policy);
          slots = result.per_slot_cost.size();
        });
    c.counters["slots"] = slots;
    if (c.wall.median > 0.0)
      c.rates["slots_per_s"] = static_cast<double>(slots) / c.wall.median;
  }

  reporter.print_table(std::cout);
  if (json) {
    const std::string path =
        out_path.empty() ? reporter.default_path() : out_path;
    reporter.write_json(path);
    std::cout << "wrote " << path << "\n";
  }

  if (profile) return run_profile_pass(des_config(partition, 4));
  return 0;
}
