// Conservative-time-window sharding for the discrete-event simulator
// (DESIGN.md §15).
//
// One simulation's device fleet is partitioned into S shards. Each shard
// owns a contiguous device range and its own zero-alloc EventQueue, and
// advances independently up to a lookahead horizon derived from the
// edge-cloud propagation delay: every cross-shard interaction rides the
// edge->cloud hub link, whose deliveries always land at least `lat` after
// admission, so windows no wider than `lat` can be executed in parallel
// and reconciled at barriers without ever delivering an event into a
// shard's past. The pieces here are the shard-agnostic building blocks:
//
//   ShardOptions — the `[shards]` INI section (opt-in; shards = 1 keeps
//                  the single-queue golden-compatible path);
//   HubRequest   — one edge->cloud admission recorded in a shard outbox;
//   HubLink      — the coordinator's replay of Link's FIFO serialization
//                  arithmetic, bit-identical to the single-queue link;
//   ShardPool    — a persistent barrier-synchronised worker pool;
//   shard_range / shard_window — the partitioning and lookahead helpers.
//
// The sharded simulation loop itself lives in simulation.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace leime::sim {

/// The `[shards]` INI section. Defaults keep sharding off — the
/// single-queue byte-identical golden configuration. Turning it on is an
/// execution-strategy choice only: results are byte-identical for any
/// shards/threads combination (the determinism contract proven by the
/// golden shards=1 ≡ shards=N tests).
struct ShardOptions {
  std::size_t shards = 1;  ///< event-queue partitions; 1 = single queue
  /// The run's worker-thread budget; 0 (auto) resolves to
  /// hardware_concurrency. Sharded, it is the threads pumping shard
  /// windows (clamped to the shard count). At shards = 1 it sizes the
  /// pool that solves a large fleet's slot decisions in parallel
  /// (DESIGN.md §12.3). Thread count never affects results, only wall
  /// time.
  int threads = 0;
  /// Largest worker pool a run starts. resolve_pool_threads clamps any
  /// budget to it, explicit or auto (a host with more hardware threads
  /// still runs), and the `[shards] threads` INI key rejects values above
  /// it, so a typo such as 100000 fails at load instead of exhausting the
  /// host.
  static constexpr int kMaxThreads = 256;
  /// Barrier window width in seconds; 0 derives the widest safe window
  /// (the edge-cloud propagation delay). Values above the safe bound are
  /// clamped to it — wider windows would deliver hub events into a
  /// shard's past.
  double window_s = 0.0;

  bool enabled() const { return shards > 1; }

  /// Throws std::invalid_argument on shards == 0, threads < 0, or a
  /// negative / non-finite window.
  void validate() const;
};

/// One edge->cloud admission a shard recorded during a window: task
/// `task` of device `device` finished block 2 at time `t` and wants the
/// d2 tensor shipped to the cloud. Collected per shard in admission
/// (event-sequence) order; the coordinator merges outboxes in global
/// admission order and replays the hub link.
struct HubRequest {
  double t = 0.0;          ///< admission time (the after_block2 event time)
  std::size_t device = 0;  ///< global device index
  std::size_t task = 0;    ///< shard-local task id
  int attempt = 0;         ///< staleness guard captured at admission
};

/// The coordinator's model of the shared edge->cloud link: replays
/// exactly the floating-point sequence of Link::transfer on the flat
/// no-trace no-outage path (the only configuration sharded runs accept),
/// so delivery timestamps are bit-identical to the single-queue link's.
class HubLink {
 public:
  /// Bandwidth in bytes/s (> 0), propagation latency in seconds (>= 0).
  HubLink(double bandwidth_bytes_per_s, double latency_s)
      : bandwidth_(bandwidth_bytes_per_s), latency_(latency_s) {}

  /// Admits a transfer of `bytes` at time `t` (admissions must be fed in
  /// global admission order) and returns its delivery time:
  /// FIFO serialization at the link bandwidth plus propagation.
  double admit(double t, double bytes) {
    // Mirrors Link::transfer: start = max(now, busy); busy = start +
    // bytes/bw; delivery = busy + latency. Same operations in the same
    // order => the same bits.
    const double start = t > busy_until_ ? t : busy_until_;
    const double remaining = bytes / bandwidth_;
    busy_until_ = start + remaining;
    return busy_until_ + latency_;
  }

  double busy_until() const { return busy_until_; }
  double latency() const { return latency_; }

 private:
  double bandwidth_;
  double latency_;
  double busy_until_ = 0.0;
};

/// Contiguous balanced device range [lo, hi) of shard `s` out of
/// `shards` over `n` devices: the first n % shards shards get one extra
/// device. Requires s < shards.
std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                std::size_t shards,
                                                std::size_t s);

/// The conservative lookahead horizon: the requested window clamped to
/// the edge-cloud propagation delay (the widest width for which every
/// hub delivery provably lands beyond the next barrier). Requires
/// edge_cloud_lat > 0 (validated by the sharded simulation).
double shard_window(const ShardOptions& opts, double edge_cloud_lat);

/// A thread budget: `threads`, or hardware_concurrency() when 0 (auto),
/// clamped to [1, ShardOptions::kMaxThreads]; the resolved count moves
/// wall time only, never results.
int resolve_pool_threads(int threads);

/// resolve_pool_threads on a host reporting `hw` hardware threads
/// (0 = unknown).
int resolve_pool_threads(int threads, unsigned hw);

/// Worker threads for a sharded run: opts.threads resolved, clamped to the
/// shard count — more threads than shards can never help.
int resolve_shard_threads(const ShardOptions& opts, std::size_t shards);

/// A persistent pool of worker threads executing one parallel region per
/// run() call: run(jobs, fn) invokes fn(0) .. fn(jobs-1) across the pool
/// and returns when all jobs finished. With threads <= 1 no threads are
/// spawned and run() executes inline — the deterministic reference path
/// (results never depend on which path executes; the pool only moves
/// wall time).
///
/// Errors are deterministic: every job runs even when another throws, and
/// run() rethrows the exception of the lowest-numbered failing job — the
/// one the inline path, which stops at its first failure, throws too.
///
/// run() takes any callable by reference and never copies it, so a region
/// allocates nothing however large the callable's captures are.
class ShardPool {
 public:
  explicit ShardPool(int threads);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  template <class Fn>
  void run(std::size_t jobs, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_erased(jobs,
               const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
               [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); });
  }

  /// Worker threads actually spawned (0 = inline execution).
  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  using Call = void (*)(void*, std::size_t);

  void run_erased(std::size_t jobs, void* fn, Call call);
  void worker_loop();
  void run_job(std::size_t i);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  void* fn_ = nullptr;     ///< the region's callable, guarded by mu_
  Call call_ = nullptr;    ///< invokes fn_, guarded by mu_
  std::size_t jobs_ = 0;   ///< guarded by mu_
  std::atomic<std::size_t> next_{0};  ///< job claim counter
  std::size_t busy_ = 0;              ///< workers in the current region
  std::uint64_t generation_ = 0;      ///< bumped per run()
  bool stop_ = false;
  /// The lowest-numbered failing job's exception, guarded by mu_.
  std::exception_ptr error_;
  std::size_t error_job_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace leime::sim
