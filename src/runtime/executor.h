// Fixed-size thread pool that runs experiment cells concurrently.
//
// Parallelism is across runs: each cell owns its ScenarioConfig, so with
// per-cell seeds baked into the cells the collected result set is
// bit-for-bit identical for any thread count — only the telemetry fields
// (start/end/worker) reflect the schedule. A cell may use threads of its
// own (shard windows, parallel decision rounds); cell_threads splits the
// host between workers, and no thread count changes a result.
#pragma once

#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "runtime/experiment_plan.h"
#include "runtime/run_record.h"

namespace leime::runtime {

struct ExecutorOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int threads = 1;

  /// Live `[runtime] done/total` progress line on stderr.
  bool progress = false;

  /// Called after each cell completes (under an internal lock, so the
  /// callback needs no synchronisation of its own).
  std::function<void(std::size_t done, std::size_t total)> on_cell_done;

  /// Caller-owned registry for pool telemetry (wall-clock cell timers,
  /// error counts). Each worker updates a private shard; shards merge into
  /// this registry in worker order after the pool joins — the registry is
  /// never touched concurrently. The recorded values are wall-clock and
  /// therefore nondeterministic: keep them out of determinism comparisons
  /// (simulation metrics ride inside each RunRecord instead).
  obs::MetricsRegistry* metrics = nullptr;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {}) : opts_(std::move(opts)) {}

  /// Runs every cell of the plan; records come back in plan order.
  std::vector<RunRecord> run(const ExperimentPlan& plan) const;

  /// Runs pre-built cells (records ordered as given). Cell configs are
  /// taken as-is — seeds are the caller's responsibility here.
  std::vector<RunRecord> run(std::vector<Cell> cells) const;

  /// Wall-clock seconds spent inside the most recent run() call.
  double last_wall_s() const { return last_wall_s_; }

  /// The thread count a request resolves to on this host.
  static int resolve_threads(int requested);

  /// The [shards] threads budget a cell runs with under `workers` executor
  /// workers. A cell in auto mode (0) would resolve to
  /// hardware_concurrency on its own — for its shard windows, or for its
  /// parallel decision rounds at shards = 1 — so N workers would
  /// oversubscribe the host N-fold; it gets hardware_concurrency / N
  /// (at least 1) instead, where `hw` is the host's hardware thread
  /// count; the pool a cell starts is capped at
  /// sim::ShardOptions::kMaxThreads (sim::resolve_pool_threads). Explicit
  /// counts are honored as-is. The budget moves wall time only, never
  /// results.
  static int cell_threads(int requested, int workers, int hw);

 private:
  ExecutorOptions opts_;
  mutable double last_wall_s_ = 0.0;
};

}  // namespace leime::runtime
