// The policy core: a standalone, thread-safe facade over the exit-setting
// search (§III-C) and the per-slot Lyapunov offload update (§III-D), with
// three opt-in fast paths proven result-identical to the reference
// implementations they shortcut (DESIGN.md §12):
//
//   memo_cache  — exit settings memoized under quantized (model, env)
//                 buckets with an exact-match guard (exit_cache.h);
//   warm_start  — B&B seeded from the previous slot's incumbent
//                 (warm_start.h);
//   batch_eq20  — fleet offload decisions deduplicated across
//                 bit-identical device states (batch.h).
//
// Streaming interface: each control stream — one simulation, one adaptive
// epoch loop, one shard of the sharded DES — owns an Incumbent and feeds
// (bandwidth, load, sigma-profile) observations in as CostModels /
// DeviceSlotStates; exit sets and offload ratios come out. The Engine owns
// only cross-stream state (the shared memo cache and statistics) and may
// be called from many threads concurrently. With all knobs off,
// exit_setting is exactly the core:: reference search and decide_fleet is
// one OffloadPolicy::decide_batch call over the states it is handed — for
// LEIME and LEIME-balance the lane-batched eq. 19/20 kernel
// (core/lyapunov.h), bit-identical to deciding device by device. The
// simulation hands it only the devices whose slot state changed since
// their previous slot (policy/slot_memo.h), which is exact because the
// policy is a pure function of the state.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/exit_setting.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "policy/batch.h"
#include "policy/exit_cache.h"

namespace leime::policy {

/// The `[policy]` INI section. Defaults keep every fast path off — the
/// byte-identical golden configuration.
struct Config {
  bool memo_cache = false;   ///< exit-setting memo cache
  bool warm_start = false;   ///< warm-started B&B
  bool batch_eq20 = false;   ///< batched fleet offload decisions
  std::size_t cache_capacity = 4096;  ///< LRU entries (memo_cache)
  int quant_per_octave = 4;           ///< cache-key buckets per octave

  bool enabled() const { return memo_cache || warm_start || batch_eq20; }

  /// Throws std::invalid_argument on a zero capacity or a per-octave
  /// resolution outside [1, 64].
  void validate() const;
};

/// Per-stream warm-start state: the last exit setting this control stream
/// deployed. One Incumbent per stream/thread — never shared — so result
/// streams stay independent of how many threads hammer the Engine.
struct Incumbent {
  core::ExitCombo combo{};
  bool valid = false;
};

/// Monotone counters, snapshot via Engine::stats(). The counters span the
/// Engine's whole lifetime; per-run views subtract a baseline snapshot via
/// since() so an engine shared across plan rows does not leak one row's
/// work into the next row's metrics.
struct Stats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t warm_starts = 0;        ///< searches seeded from an incumbent
  std::uint64_t warm_pruned_scans = 0;  ///< Second-exit scans skipped
  std::uint64_t cold_starts = 0;        ///< reference B&B invocations
  std::uint64_t batch_groups = 0;       ///< distinct states solved
  std::uint64_t batch_reused = 0;       ///< devices served by a dedup

  /// Field-wise difference (this − baseline): the delta accumulated since
  /// `baseline` was snapshot. Requires baseline <= *this field-wise (both
  /// from the same engine, baseline taken earlier).
  Stats since(const Stats& baseline) const;
};

class Engine {
 public:
  /// Validates the config (Config::validate).
  explicit Engine(Config config = {});

  const Config& config() const { return config_; }

  /// One exit-setting observation in, one exit set out. Fast-path order:
  /// memo cache (exact hits replay a previous computation), then
  /// warm-started B&B when `incumbent` holds a compatible previous combo,
  /// else the cold core:: search. Always updates *incumbent (when given)
  /// with the returned combo. Thread-safe; the (combo, cost) pair is
  /// bit-identical to core::branch_and_bound_exit_setting for every knob
  /// combination (`evaluations`/`rounds` reflect the work actually done,
  /// or the original work for a cache hit).
  core::ExitSettingResult exit_setting(const core::CostModel& model,
                                       Incumbent* incumbent = nullptr);

  /// Per-slot offload ratios for a whole fleet: out[i] =
  /// policy.decide(states[i]) within 0 ULP. Off, batch_eq20 is one
  /// policy.decide_batch call over the fleet; on, bit-identical states are
  /// solved once (batch.h), reusing *scratch across rounds when given.
  /// Thread-safe (caller-owned or local scratch plus atomic counters); a
  /// scratch object serves one thread at a time. The simulation passes
  /// only the devices its per-device memo missed (slot_memo.h), so the
  /// batch counters count solves behind that memo. Throws
  /// std::invalid_argument on a size mismatch.
  void decide_fleet(const core::OffloadPolicy& policy,
                    std::span<const core::DeviceSlotState> states,
                    std::span<double> out,
                    FleetScratch* scratch = nullptr) const;

  /// Vector form: out resized to match, then the span form.
  void decide_fleet(const core::OffloadPolicy& policy,
                    const std::vector<core::DeviceSlotState>& states,
                    std::vector<double>& out,
                    FleetScratch* scratch = nullptr) const;

  Stats stats() const;

  /// Registers the leime_policy_* counters with their current values.
  /// Call after a run (the registry is not thread-safe; the Engine's own
  /// counters are atomics and may be read any time via stats()).
  void publish_metrics(obs::MetricsRegistry& registry) const;

  /// Per-run variant: registers the counters with the delta accumulated
  /// since `baseline` (a stats() snapshot taken at run start), so shared
  /// engines publish each run's own work rather than the process lifetime.
  void publish_metrics(obs::MetricsRegistry& registry,
                       const Stats& baseline) const;

  /// Attaches a decision-provenance recorder: every subsequent
  /// exit_setting call counts a decision and, when sampled, emits one
  /// DecisionRecord (fast path, explored/pruned work, chosen combo and
  /// cost; on oracle samples, the exhaustive two-best scan's regret and
  /// runner-up margin). Pass nullptr to detach. Not synchronized against
  /// in-flight exit_setting calls — attach before concurrent use; the
  /// recorder itself is thread-safe.
  void attach_provenance(obs::ProvenanceRecorder* recorder) {
    prov_ = recorder;
  }

 private:
  void emit_exit_setting_record(const core::CostModel& model,
                                const core::ExitSettingResult& result,
                                obs::DecisionPath path, std::uint64_t explored,
                                std::uint64_t pruned);

  Config config_;
  obs::ProvenanceRecorder* prov_ = nullptr;

  mutable std::mutex mu_;      ///< guards cache_
  ExitSettingCache cache_;

  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
  mutable std::atomic<std::uint64_t> cache_evictions_{0};
  mutable std::atomic<std::uint64_t> warm_starts_{0};
  mutable std::atomic<std::uint64_t> warm_pruned_scans_{0};
  mutable std::atomic<std::uint64_t> cold_starts_{0};
  mutable std::atomic<std::uint64_t> batch_groups_{0};
  mutable std::atomic<std::uint64_t> batch_reused_{0};
};

}  // namespace leime::policy
