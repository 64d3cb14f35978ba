// The policy core: a standalone, thread-safe facade over the exit-setting
// search (§III-C) and the per-slot Lyapunov offload update (§III-D), with
// one opt-in fast path proven result-identical to the reference search it
// shortcuts (DESIGN.md §12):
//
//   warm_start  — B&B seeded from the previous slot's incumbent
//                 (warm_start.h).
//
// Streaming interface: each control stream — one adaptive epoch loop, one
// multi-edge association search — owns an Incumbent and feeds
// (bandwidth, load, sigma-profile) observations in as CostModels; exit
// sets come out. The Engine holds no per-stream state and may be called
// from many threads concurrently. With warm_start off, exit_setting is
// exactly the core:: reference search.
// decide_fleet is one OffloadPolicy::decide_batch call over the states it
// is handed — for LEIME and LEIME-balance the lane-batched eq. 19/20
// kernel (core/lyapunov.h), bit-identical to deciding device by device.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "core/exit_setting.h"
#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "obs/provenance.h"

namespace leime::policy {

/// Engine options. The default (warm_start off) is exactly the core::
/// reference search.
struct Config {
  bool warm_start = false;  ///< warm-started B&B
};

/// Per-stream warm-start state: the last exit setting this control stream
/// deployed. One Incumbent per stream/thread — never shared — so result
/// streams stay independent of how many threads hammer the Engine.
struct Incumbent {
  core::ExitCombo combo{};
  bool valid = false;
};

class Engine {
 public:
  explicit Engine(Config config = {}) : config_(config) {}

  const Config& config() const { return config_; }

  /// One exit-setting observation in, one exit set out: warm-started B&B
  /// when warm_start is on and `incumbent` holds a compatible previous
  /// combo, else the cold core:: search. Always updates *incumbent (when
  /// given) with the returned combo. Thread-safe; the (combo, cost) pair is
  /// bit-identical to core::branch_and_bound_exit_setting either way
  /// (`evaluations`/`rounds` reflect the work actually done).
  core::ExitSettingResult exit_setting(const core::CostModel& model,
                                       Incumbent* incumbent = nullptr);

  /// Per-slot offload ratios for a whole fleet: out is resized to match
  /// and out[i] = policy.decide(states[i]) within 0 ULP, via one
  /// policy.decide_batch call. Thread-safe.
  void decide_fleet(const core::OffloadPolicy& policy,
                    const std::vector<core::DeviceSlotState>& states,
                    std::vector<double>& out) const;

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
};

}  // namespace leime::policy
