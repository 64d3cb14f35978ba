// The repository benchmark: runs one named workload from a single
// process, checks the simulator's outputs, and prints every metric by name
// with its unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   leime_perfbench --workload fleet|sweep|wild --seed N --seconds S
//                   --trace 0|1 [--trace-out FILE] [--tiny]
//                   [--corrupt-one-task]
//
// --trace 0 measures the end-to-end metrics: set-up repeated and reported
// as a median, then passes over the workload for --seconds. --trace 1 runs
// one untraced and one traced pass plus the per-workload ablations, and
// reports the per-layer metrics; spans go to --trace-out as chrome-trace
// JSON. Layers are timed from outside, around calls into their public
// functions. --tiny shrinks every size (the self-test); --corrupt-one-task
// removes one completed task from the first result, which the
// conservation check must reject.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exit_setting.h"
#include "core/offload_policy.h"
#include "core/resource_alloc.h"
#include "hooks.h"
#include "policy/engine.h"
#include "prof/profiler.h"
#include "runtime/executor.h"
#include "sim/simulation.h"
#include "spans.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using namespace leime;
using namespace perfbench;

/// Counted tasks every run must have: a p99 with >= 10 samples beyond it.
/// The --tiny self-test scale only needs enough for a p50.
constexpr std::size_t kMinCountedTasks = 1000;
constexpr std::size_t kTinyMinCountedTasks = 100;
/// Simulated horizon of the build probe: long enough to be a valid
/// scenario, short enough that no task work happens.
constexpr double kProbeHorizon = 1e-3;
/// Set-up repeats per run (at least kMinSetups, and until kSetupBudgetS of
/// set-up time is collected, at most kMaxSetups); setup_s is their median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 300;
constexpr double kSetupBudgetS = 2.0;
/// Fewest measured passes per run, even when --seconds is short.
constexpr std::size_t kMinPasses = 3;
/// Cells of the sweep slice re-run on 1 and N workers in the traced pass.
constexpr std::size_t kEquivalenceSlice = 40;
/// Alternating pass pairs behind each traced-run ratio (tracing overhead,
/// shard, net and obs ablations); each ratio compares the medians.
constexpr int kRounds = 5;
/// (device, edge) pairs sampled to estimate association search work.
constexpr std::size_t kAssociationSample = 256;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kFleet;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool tiny = false;
  bool corrupt = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload_name = value();
      a.workload = parse_workload(a.workload_name);
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--corrupt-one-task") {
      a.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// A failed correctness check; `check` names it in the error message.
class CheckFailed : public std::runtime_error {
 public:
  CheckFailed(std::string check, const std::string& what)
      : std::runtime_error(what), check_(std::move(check)) {}
  const std::string& check() const { return check_; }

 private:
  std::string check_;
};

void require(bool ok, const char* check, const std::string& what) {
  if (!ok) throw CheckFailed(check, what);
}

// ------------------------------------------------------------- checks

void check_run(const sim::SimResult& r, const std::string& where,
               std::size_t min_counted) {
  require(r.generated == r.total_completed + r.in_flight, "conservation",
          where + ": generated " + std::to_string(r.generated) +
              " != completed " + std::to_string(r.total_completed) +
              " + in flight " + std::to_string(r.in_flight));
  require(r.completed >= min_counted, "min_samples",
          where + ": " + std::to_string(r.completed) + " counted tasks < " +
              std::to_string(min_counted));
  const auto& t = r.tct;
  require(std::isfinite(t.p50) && std::isfinite(t.p99) && t.p50 > 0.0 &&
              t.p99 >= t.p50,
          "tct_finite", where + ": TCT p50/p99 not finite and positive");
}

/// Exit-setting regret must be exactly 0 (the fast paths are proven
/// bit-identical to the exhaustive scan); offload regret must be >= 0.
void check_regret(const obs::ProvenanceSummary& p, const std::string& where) {
  require(p.active, "regret", where + ": provenance was not recorded");
  const auto& exit_regret =
      p.kind_regret[static_cast<std::size_t>(obs::DecisionKind::kExitSetting)]
          .stats();
  const auto& offload_regret =
      p.kind_regret[static_cast<std::size_t>(obs::DecisionKind::kOffload)]
          .stats();
  require(exit_regret.max() == 0.0 && exit_regret.min() == 0.0, "regret",
          where + ": exit-setting regret is not 0");
  require(offload_regret.min() >= 0.0, "regret",
          where + ": negative offload regret");
}

/// Result fields that must match bit for bit between two execution
/// strategies of the same inputs (events_executed legitimately differs).
bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  auto same_summary = [](const util::Summary& x, const util::Summary& y) {
    return x.count == y.count && x.mean == y.mean && x.stddev == y.stddev &&
           x.min == y.min && x.p50 == y.p50 && x.p95 == y.p95 &&
           x.p99 == y.p99 && x.max == y.max;
  };
  if (!same_summary(a.tct, b.tct) || a.generated != b.generated ||
      a.completed != b.completed || a.total_completed != b.total_completed ||
      a.in_flight != b.in_flight || a.exit1_fraction != b.exit1_fraction ||
      a.exit2_fraction != b.exit2_fraction ||
      a.exit3_fraction != b.exit3_fraction ||
      a.mean_offload_ratio != b.mean_offload_ratio ||
      a.mean_device_queue != b.mean_device_queue ||
      a.mean_edge_queue != b.mean_edge_queue ||
      a.per_device.size() != b.per_device.size())
    return false;
  for (std::size_t i = 0; i < a.per_device.size(); ++i)
    if (a.per_device[i].completed != b.per_device[i].completed ||
        !same_summary(a.per_device[i].tct, b.per_device[i].tct))
      return false;
  return true;
}

// ------------------------------------------------------------- passes

struct Pass {
  std::vector<runtime::RunRecord> records;
  double start_s = 0.0;  ///< now_s() when the pass began
  Usage usage;           ///< getrusage delta over the pass
  /// Allocations and heap high-water over the pass (0 unless allocation
  /// tracking is on).
  std::uint64_t allocs = 0;
  std::int64_t heap_peak_bytes = 0;
};

/// Runs the cells once: on the main thread when workers == 0, else
/// through the runtime executor.
Pass run_cells(std::vector<runtime::Cell> cells, int workers) {
  Pass p;
  reset_heap_peak();
  const std::int64_t live0 = heap_live_bytes();
  const std::uint64_t a0 = alloc_count();
  const Usage u0 = sample_usage();
  p.start_s = u0.wall_s;
  if (workers == 0) {
    for (auto& cell : cells) {
      runtime::RunRecord rec;
      rec.cell_index = cell.index;
      rec.labels = cell.labels;
      rec.seed = cell.config.seed;
      rec.worker = 0;
      rec.start_s = now_s() - p.start_s;
      rec.result = sim::run_scenario(cell.config);
      rec.end_s = now_s() - p.start_s;
      p.records.push_back(std::move(rec));
    }
  } else {
    runtime::ExecutorOptions opts;
    opts.threads = workers;
    p.records = runtime::Executor(opts).run(std::move(cells));
  }
  p.usage = sample_usage() - u0;
  p.allocs = alloc_count() - a0;
  p.heap_peak_bytes = heap_peak_bytes() - live0;
  return p;
}

/// Records one span per executed cell under `parent`, from RunRecord
/// timing (worker w appears as trace thread 1 + w).
void add_cell_spans(SpanRecorder* spans, const Pass& p, int parent) {
  if (!spans) return;
  for (const auto& rec : p.records)
    spans->add("sim.cell", p.start_s + rec.start_s, p.start_s + rec.end_s,
               parent, static_cast<int>(rec.cell_index), 1 + rec.worker);
}

Pass run_pass(const Inputs& in, SpanRecorder* spans, const char* name) {
  std::vector<runtime::Cell> cells = in.cells;
  Span span(spans, name);
  const int parent = spans ? spans->current() : -1;
  Pass p = run_cells(std::move(cells), in.workers);
  add_cell_spans(spans, p, parent);
  return p;
}

std::size_t min_counted(const Args& args) {
  return args.tiny ? kTinyMinCountedTasks : kMinCountedTasks;
}

void check_pass(const Pass& p, const Args& args, const Pass* reference) {
  for (const auto& rec : p.records) {
    const std::string where =
        args.workload_name + " run " + std::to_string(rec.cell_index);
    check_run(rec.result, where, min_counted(args));
    if (args.workload == Workload::kWild)
      check_regret(rec.result.provenance, where);
  }
  if (reference) {
    require(reference->records.size() == p.records.size(), "determinism",
            "pass produced a different number of runs");
    for (std::size_t i = 0; i < p.records.size(); ++i)
      require(same_result(reference->records[i].result, p.records[i].result),
              "determinism",
              args.workload_name + " run " + std::to_string(i) +
                  " differs between passes over the same inputs");
  }
}

double pass_wall(const Pass& p) { return p.usage.wall_s; }

/// Sum of per-cell durations: the pass's simulate time, independent of
/// how cells were scheduled on workers.
double cell_time(const Pass& p) {
  double total = 0.0;
  for (const auto& rec : p.records) total += rec.end_s - rec.start_s;
  return total;
}

// ------------------------------------------------------------- set-up

struct Setup {
  Inputs inputs;
  double seconds = 0.0;  ///< inputs + design/association + build probe
  double probe_s = 0.0;
  std::uint64_t probe_events = 0;
  std::uint64_t probe_allocs = 0;
  std::size_t devices = 0;
};

/// Seed -> runnable simulation. The simulator's own build is measured as
/// run_scenario on the same inputs with a near-zero horizon.
Setup run_setup(const Args& args, SpanRecorder* spans, bool count_allocs) {
  Setup s;
  Span span(spans, "setup");
  const double t0 = now_s();
  s.inputs = make_inputs(args.workload, args.seed, args.tiny, spans);
  const double inputs_s = now_s() - t0;

  std::vector<sim::ScenarioConfig> probes;
  for (const auto& cell : s.inputs.cells) {
    probes.push_back(cell.config);
    probes.back().duration = kProbeHorizon;
    probes.back().warmup = 0.0;
    s.devices += cell.config.devices.size();
  }
  if (count_allocs) set_alloc_tracking(true);
  const std::uint64_t a0 = alloc_count();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    Span probe_span(spans, "sim.build_probe", static_cast<int>(i));
    const double t = now_s();
    const auto r = sim::run_scenario(probes[i]);
    s.probe_s += now_s() - t;
    s.probe_events += r.events_executed;
    require(r.generated == r.total_completed + r.in_flight, "conservation",
            args.workload_name + " build probe " + std::to_string(i));
  }
  s.probe_allocs = alloc_count() - a0;
  set_alloc_tracking(false);
  s.seconds = inputs_s + s.probe_s;
  return s;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    require(std::isfinite(value), "metric_finite",
            name + " is not a finite number");
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Simulated outcome of one pass, aggregated over its runs.
struct SimTotals {
  double generated = 0.0;
  double completed = 0.0;  ///< including warm-up tasks
  double counted = 0.0;    ///< post-warm-up tasks behind the TCT figures
  double in_flight = 0.0;
  double p50_s = 0.0;  ///< completion-weighted mean of per-run p50
  double p99_s = 0.0;
};

SimTotals sim_totals(const Pass& p) {
  SimTotals t;
  for (const auto& rec : p.records) {
    const auto& r = rec.result;
    const auto w = static_cast<double>(r.completed);
    t.generated += static_cast<double>(r.generated);
    t.completed += static_cast<double>(r.total_completed);
    t.in_flight += static_cast<double>(r.in_flight);
    t.counted += w;
    t.p50_s += w * r.tct.p50;
    t.p99_s += w * r.tct.p99;
  }
  if (t.counted > 0.0) {
    t.p50_s /= t.counted;
    t.p99_s /= t.counted;
  }
  return t;
}

double median(std::vector<double> v) { return util::median_of(v); }

// --------------------------------------------------- per-layer probes

/// Times eq. 27 (kkt_edge_allocation) and the fleet-wide eq. 20/offload
/// decision (Engine::decide_fleet) over every run's device states, as the
/// simulator's build and first slot see them. Median over kRounds rounds.
std::pair<double, double> time_eq27_and_decide(const Inputs& in) {
  policy::Engine engine;
  std::vector<double> eq27_rounds, decide_rounds;
  for (int round = 0; round < kRounds; ++round) {
    double eq27_s = 0.0, decide_s = 0.0;
    for (const auto& cell : in.cells) {
      const auto& cfg = cell.config;
      std::vector<double> k, fd;
      for (const auto& dev : cfg.devices) {
        k.push_back(std::max(1e-6, dev.mean_rate * cfg.lyapunov.tau));
        fd.push_back(dev.flops);
      }
      double t = now_s();
      const auto shares = core::kkt_edge_allocation(
          k, fd, cfg.edge_flops, core::fleet_p_min(k.size()));
      eq27_s += now_s() - t;

      std::vector<core::DeviceSlotState> states(cfg.devices.size());
      for (std::size_t i = 0; i < states.size(); ++i) {
        auto& s = states[i];
        s.partition = &cfg.partition;
        s.device_flops = cfg.devices[i].flops;
        s.edge_share_flops = shares[i] * cfg.edge_flops;
        s.bandwidth = cfg.devices[i].uplink_bw;
        s.latency =
            std::min(cfg.devices[i].uplink_lat, 0.9 * cfg.lyapunov.tau);
        s.arrivals = std::max(1.0, k[i]);
        s.config = cfg.lyapunov;
      }
      const auto policy = core::make_policy(cfg.policy);
      std::vector<double> x;
      t = now_s();
      engine.decide_fleet(*policy, states, x);
      decide_s += now_s() - t;
    }
    eq27_rounds.push_back(eq27_s);
    decide_rounds.push_back(decide_s);
  }
  return {median(eq27_rounds), median(decide_rounds)};
}

/// Mean cost evaluations per exit-setting search over the workload's
/// search mix: the design searches exactly, the association searches from
/// a sample of (device, edge) environments at zero assigned load.
double evaluations_per_call(const Inputs& in) {
  const std::size_t calls = in.design_calls + in.association_calls;
  if (calls == 0) return 0.0;
  double association_evals = 0.0;
  const auto& me = in.multi_edge;
  const std::size_t pairs = me.devices.size() * me.edges.size();
  if (in.association_calls > 0 && pairs > 0) {
    const std::size_t samples = std::min(pairs, kAssociationSample);
    double sum = 0.0;
    for (std::size_t k = 0; k < samples; ++k) {
      const std::size_t pair = k * pairs / samples;
      const std::size_t d = pair / me.edges.size();
      const std::size_t e = pair % me.edges.size();
      core::Environment env;
      env.caps.device_flops = me.devices[d].flops;
      env.caps.edge_flops = me.edges[e].flops;
      env.caps.cloud_flops = me.cloud_flops;
      env.net.dev_edge_bw = me.links[d][e].bandwidth;
      env.net.dev_edge_lat = me.links[d][e].latency;
      env.net.edge_cloud_bw = me.edges[e].cloud_bw;
      env.net.edge_cloud_lat = me.edges[e].cloud_lat;
      sum += static_cast<double>(
          core::branch_and_bound_exit_setting(core::CostModel(*in.profile, env))
              .evaluations);
    }
    association_evals =
        sum / static_cast<double>(samples) *
        static_cast<double>(in.association_calls);
  }
  return (static_cast<double>(in.design_evaluations) + association_evals) /
         static_cast<double>(calls);
}

/// Executor-layer metrics from one pass's RunRecord timing (all 0 when
/// the workload runs on the main thread).
void add_runtime_metrics(Metrics& m, const Pass& p, int workers) {
  double cells = 0.0, p50 = 0.0, p95 = 0.0, idle = 0.0, tail = 0.0;
  if (workers > 0) {
    std::vector<double> cell_ms;
    std::vector<double> last_end(static_cast<std::size_t>(workers), 0.0);
    for (const auto& rec : p.records) {
      cell_ms.push_back((rec.end_s - rec.start_s) * 1e3);
      auto& last = last_end[static_cast<std::size_t>(rec.worker)];
      last = std::max(last, rec.end_s);
    }
    const auto s = util::summarize(cell_ms);
    const double wall = pass_wall(p);
    cells = static_cast<double>(p.records.size());
    p50 = s.p50;
    p95 = s.p95;
    idle = std::max(0.0, 1.0 - cell_time(p) / (workers * wall));
    // The straggler tail: from the first worker going idle to the end.
    tail = std::max(0.0,
                    wall - *std::min_element(last_end.begin(), last_end.end()));
  }
  m.add("runtime.cells", cells, "count");
  m.add("runtime.cell_p50_ms", p50, "ms");
  m.add("runtime.cell_p95_ms", p95, "ms");
  m.add("runtime.idle_share", idle, "ratio");
  m.add("runtime.tail_s", tail, "s");
}

/// sim/shard: the fleet run again at shards = threads = nproc, in rounds
/// alternating with single-queue runs (0 on other workloads).
void add_shard_metrics(Metrics& m, const Args& args, const Inputs& in,
                       const Pass& untraced, SpanRecorder& spans,
                       std::size_t& attempted) {
  double ratio = 0.0, switches = 0.0;
  if (args.workload == Workload::kFleet) {
    Span span(&spans, "shard.runs");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<runtime::Cell> sharded_cells = in.cells;
    auto& shards = sharded_cells.front().config.shards;
    shards.shards = std::max(2u, hw);
    shards.threads = static_cast<int>(hw);
    std::vector<double> single_s, sharded_s, sharded_cs;
    for (int round = 0; round < kRounds; ++round) {
      single_s.push_back(pass_wall(run_cells(in.cells, 0)));
      const Pass sharded = run_cells(sharded_cells, 0);
      attempted += 2;
      require(same_result(sharded.records.front().result,
                          untraced.records.front().result),
              "shard_equivalence",
              "sharded fleet result differs from single-queue");
      sharded_s.push_back(pass_wall(sharded));
      sharded_cs.push_back(
          static_cast<double>(sharded.usage.vol_ctx_switches));
    }
    ratio = median(sharded_s) / median(single_s);
    switches = median(sharded_cs);
  }
  m.add("shard.wall_ratio", ratio, "ratio");
  m.add("shard.vol_ctx_switches", switches, "count");
}

/// A slice of the sweep must give identical records on 1 and N workers.
void check_worker_equivalence(const Inputs& in, SpanRecorder& spans,
                              std::size_t& attempted) {
  Span span(&spans, "runtime.equivalence");
  const std::vector<runtime::Cell> slice(
      in.cells.begin(),
      in.cells.begin() + static_cast<std::ptrdiff_t>(
                             std::min(kEquivalenceSlice, in.cells.size())));
  const Pass one = run_cells(slice, 1);
  const Pass many = run_cells(slice, std::max(2, in.workers));
  attempted += one.records.size() + many.records.size();
  for (std::size_t i = 0; i < slice.size(); ++i)
    require(one.records[i].seed == many.records[i].seed &&
                same_result(one.records[i].result, many.records[i].result),
            "worker_equivalence",
            "sweep cell " + std::to_string(i) +
                " differs between 1 and N executor workers");
}

/// net, faults and obs: counters from the results, plus the topology-off
/// and observability-off ablations on wild (0 elsewhere).
void add_wild_layer_metrics(Metrics& m, const Args& args, const Inputs& in,
                            const Pass& untraced, SpanRecorder& spans,
                            std::size_t& attempted) {
  double hops = 0, drops = 0, backlog = 0, retries = 0, failed_over = 0,
         fallbacks = 0, prov_records = 0;
  for (const auto& rec : untraced.records) {
    const auto& r = rec.result;
    hops += static_cast<double>(r.net.hops);
    drops += static_cast<double>(r.net.drops);
    backlog = std::max(backlog, r.net.max_backlog_bytes);
    retries += static_cast<double>(r.faults.retries);
    failed_over += static_cast<double>(r.faults.failed_over);
    fallbacks += static_cast<double>(r.faults.local_fallbacks);
    prov_records += static_cast<double>(r.provenance.sampled);
  }
  double net_share = 0.0, obs_share = 0.0;
  if (args.workload == Workload::kWild) {
    require(in.design_provenance.oracle_runs > 0, "regret",
            "design searches were not checked by the oracle");
    check_regret(in.design_provenance, "wild design");
    // Full and stripped passes alternate; the medians of their simulate
    // times are compared, so host drift hits both sides alike.
    auto ablate = [&](const char* name, auto&& strip) {
      Span span(&spans, name);
      std::vector<runtime::Cell> stripped = in.cells;
      for (auto& cell : stripped) strip(cell.config);
      std::vector<double> full_s, stripped_s;
      for (int round = 0; round < kRounds; ++round) {
        full_s.push_back(cell_time(run_cells(in.cells, in.workers)));
        const Pass p = run_cells(stripped, in.workers);
        for (const auto& rec : p.records)
          check_run(rec.result,
                    std::string(name) + " run " +
                        std::to_string(rec.cell_index),
                    min_counted(args));
        stripped_s.push_back(cell_time(p));
        attempted += 2 * in.cells.size();
      }
      const double full = median(full_s);
      return (full - median(stripped_s)) / full;
    };
    net_share = ablate("net.ablation", [](sim::ScenarioConfig& c) {
      c.topology = {};
      c.faults.ap_windows.clear();
    });
    obs_share =
        ablate("obs.ablation", [](sim::ScenarioConfig& c) { c.obs = {}; });
  }
  m.add("net.hops", hops, "count");
  m.add("net.drops", drops, "count");
  m.add("net.max_backlog_kb", backlog / 1e3, "kB");
  m.add("net.share", net_share, "ratio");
  m.add("faults.retries", retries, "count");
  m.add("faults.failed_over", failed_over, "count");
  m.add("faults.local_fallbacks", fallbacks, "count");
  m.add("obs.share", obs_share, "ratio");
  m.add("obs.prov_records", prov_records, "count");
}

/// Section self-times from the src/prof self-profiler over one extra
/// fleet run (the sim's own sections, summed over every place they nest).
const std::vector<std::string>& prof_sections() {
  static const std::vector<std::string> names = {
      "build",           "decide",          "finalize",
      "queue.batch",     "ev.arrival",      "ev.dispatch",
      "ev.slot_tick",    "ev.edge_block1",  "ev.edge_block2",
      "ev.after_block1", "ev.after_block2", "ev.deliver_edge",
      "ev.deliver_cloud", "ev.complete"};
  return names;
}

#if !defined(LEIME_PROF_DISABLED)
void sum_self_ns(const prof::ReportNode& node,
                 std::vector<std::uint64_t>& self_ns) {
  for (std::size_t i = 0; i < prof_sections().size(); ++i)
    if (node.name == "leime.sim." + prof_sections()[i])
      self_ns[i] += node.self_ns;
  for (const auto& child : node.children) sum_self_ns(child, self_ns);
}
#endif

void add_prof_metrics(Metrics& m, const sim::ScenarioConfig* cfg,
                      std::size_t min_counted, SpanRecorder* spans) {
  std::vector<std::uint64_t> self_ns(prof_sections().size(), 0);
  std::uint64_t loop_ns = 0;
#if !defined(LEIME_PROF_DISABLED)
  if (cfg) {
    Span span(spans, "prof.run");
    prof::reset();
    prof::set_enabled(true);
    const auto result = sim::run_scenario(*cfg);
    prof::set_enabled(false);
    check_run(result, "fleet profiled run", min_counted);
    const prof::Report rep = prof::report();
    prof::reset();
    for (const auto& root : rep.roots) {
      sum_self_ns(root, self_ns);
      if (root.name != "leime.sim.run") continue;
      for (const auto& child : root.children)
        if (child.name == "leime.sim.event_loop") loop_ns = child.total_ns;
    }
    require(loop_ns > 0, "profiler", "no leime.sim.event_loop recorded");
  }
#else
  static_cast<void>(cfg);
  static_cast<void>(min_counted);
  static_cast<void>(spans);
#endif
  m.add("prof.sim.event_loop_s", static_cast<double>(loop_ns) * 1e-9, "s");
  for (std::size_t i = 0; i < self_ns.size(); ++i)
    m.add("prof.sim." + prof_sections()[i] + "_self_s",
          static_cast<double>(self_ns[i]) * 1e-9, "s");
}

// ------------------------------------------------------------- modes

void print_sample_counts(const Args& args, const SimTotals& t,
                         std::size_t runs) {
  std::cout << "# " << args.workload_name << " seed " << args.seed
            << ": sim TCT over " << static_cast<std::uint64_t>(t.counted)
            << " counted tasks in " << runs
            << " run(s) per pass (completion-weighted mean of per-run "
               "percentiles)\n";
}

Metrics end_to_end(const Args& args, std::size_t& attempted) {
  std::vector<double> setup_rounds;
  double setup_total = 0.0;
  Setup setup;
  while (setup_rounds.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_rounds.size() < kMaxSetups)) {
    setup = Setup{};  // drop the previous inputs before building new ones
    setup = run_setup(args, nullptr, false);
    setup_rounds.push_back(setup.seconds);
    setup_total += setup.seconds;
  }

  std::vector<double> rates;
  Pass first;
  const double deadline = now_s() + args.seconds;
  while (rates.size() < kMinPasses || now_s() < deadline) {
    Pass p = run_pass(setup.inputs, nullptr, "pass");
    attempted += p.records.size();
    if (args.corrupt && rates.empty())
      --p.records.front().result.total_completed;
    check_pass(p, args, rates.empty() ? nullptr : &first);
    rates.push_back(sim_totals(p).completed / pass_wall(p));
    if (rates.size() == 1) first = std::move(p);
  }

  const SimTotals t = sim_totals(first);
  print_sample_counts(args, t, first.records.size());
  std::cout << "# " << rates.size() << " measured passes, "
            << setup_rounds.size() << " set-ups\n";
  Metrics m;
  m.add("setup_s", median(setup_rounds), "s");
  m.add("tasks_per_s", median(rates), "tasks/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("sim_tct_p50_ms", t.p50_s * 1e3, "sim_ms");
  m.add("sim_tct_p99_ms", t.p99_s * 1e3, "sim_ms");
  m.add("completed_share", t.completed / t.generated, "ratio");
  return m;
}

Metrics per_layer(const Args& args, SpanRecorder& spans,
                  std::size_t& attempted) {
  const Setup setup = run_setup(args, &spans, true);
  const Inputs& in = setup.inputs;

  // A warm-up pass, then untraced and traced (spans and allocation
  // counting on) passes alternating; the first pair feeds the layer
  // metrics, all pairs the tracing overhead.
  check_pass(run_pass(in, nullptr, "pass"), args, nullptr);
  Pass untraced, traced;
  std::vector<double> untraced_wall, traced_wall;
  for (int round = 0; round < kRounds; ++round) {
    Pass u = run_pass(in, nullptr, "pass");
    if (args.corrupt) --u.records.front().result.total_completed;
    check_pass(u, args, round ? &untraced : nullptr);
    set_alloc_tracking(true);
    Pass t = run_pass(in, &spans, "pass.traced");
    set_alloc_tracking(false);
    check_pass(t, args, &u);
    attempted += u.records.size() + t.records.size();
    untraced_wall.push_back(pass_wall(u));
    traced_wall.push_back(pass_wall(t));
    if (round == 0) {
      untraced = std::move(u);
      traced = std::move(t);
    }
  }
  attempted += untraced.records.size();  // the warm-up pass

  Metrics m;
  const SimTotals t = sim_totals(untraced);
  print_sample_counts(args, t, untraced.records.size());
  const auto devices = static_cast<double>(std::max<std::size_t>(
      1, setup.devices));

  // sim: build probe vs steady state (run minus build probe).
  std::uint64_t events = 0;
  for (const auto& rec : untraced.records)
    events += rec.result.events_executed;
  const double loop_events =
      static_cast<double>(events) - static_cast<double>(setup.probe_events);
  const double loop_s = std::max(0.0, cell_time(untraced) - setup.probe_s);
  m.add("sim.build_s", setup.probe_s, "s");
  m.add("sim.allocs_per_device",
        static_cast<double>(setup.probe_allocs) / devices, "allocs/device");
  m.add("sim.loop_s", loop_s, "s");
  m.add("sim.events", loop_events, "count");
  m.add("sim.ns_per_event", loop_events > 0 ? loop_s * 1e9 / loop_events : 0,
        "ns");
  m.add("sim.allocs_per_event",
        loop_events > 0 ? (static_cast<double>(traced.allocs) -
                           static_cast<double>(setup.probe_allocs)) /
                              loop_events
                        : 0.0,
        "allocs/event");
  m.add("sim.heap_peak_bytes_per_device",
        static_cast<double>(traced.heap_peak_bytes) / devices, "B/device");
  m.add("sim.unfinished_share", t.generated > 0 ? t.in_flight / t.generated : 0,
        "ratio");

  // core and policy: timed calls over the same inputs.
  const auto [eq27_s, decide_s] = time_eq27_and_decide(in);
  m.add("core.eq27_s", eq27_s, "s");
  m.add("core.design_s", in.design_s, "s");
  const std::size_t calls = in.design_calls + in.association_calls;
  m.add("policy.exit_setting_calls", static_cast<double>(calls), "count");
  m.add("policy.exit_setting_us",
        calls ? (in.design_s + in.association_s) * 1e6 / calls : 0.0, "us");
  m.add("policy.evaluations_per_call", evaluations_per_call(in), "count");
  m.add("policy.decide_fleet_us", decide_s * 1e6, "us");

  add_shard_metrics(m, args, in, untraced, spans, attempted);

  // runtime: executor timing from the untraced pass; 1 vs N workers.
  add_runtime_metrics(m, untraced, in.workers);
  if (args.workload == Workload::kSweep)
    check_worker_equivalence(in, spans, attempted);

  add_wild_layer_metrics(m, args, in, untraced, spans, attempted);

  // host: getrusage over the untraced pass.
  const Usage& u = untraced.usage;
  const double cpu = u.user_s + u.sys_s;
  m.add("host.sys_share", cpu > 0 ? u.sys_s / cpu : 0.0, "ratio");
  m.add("host.vol_ctx_switches", static_cast<double>(u.vol_ctx_switches),
        "count");
  m.add("trace.overhead_share",
        median(traced_wall) / median(untraced_wall) - 1.0, "ratio");

  add_prof_metrics(m,
                   args.workload == Workload::kFleet ? &in.cells.front().config
                                                     : nullptr,
                   min_counted(args), &spans);
  return m;
}

void print_result(const Metrics& m, std::size_t attempted) {
  for (const auto& x : m.items())
    std::cout << "# " << x.name << " = " << x.value << " " << x.unit << "\n";
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": 0, \"metrics\": {";
  const char* sep = "";
  for (const auto& x : m.items()) {
    out << sep << "\"" << x.name << "\": {\"value\": " << x.value
        << ", \"unit\": \"" << x.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "leime_perfbench: " << e.what() << "\n"
              << "usage: leime_perfbench --workload fleet|sweep|wild "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--tiny] [--corrupt-one-task]\n";
    return 2;
  }
  try {
    std::size_t attempted = 0;
    SpanRecorder spans;
    const Metrics m = args.trace ? per_layer(args, spans, attempted)
                                 : end_to_end(args, attempted);
    if (args.trace && !args.trace_out.empty())
      spans.write_chrome_trace(args.trace_out);
    print_result(m, attempted);
    return 0;
  } catch (const CheckFailed& e) {
    std::cerr << "leime_perfbench: check failed [" << e.check()
              << "]: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "leime_perfbench: error: " << e.what() << "\n";
    return 4;
  }
}
