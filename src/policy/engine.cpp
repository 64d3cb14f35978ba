#include "policy/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "policy/warm_start.h"

namespace leime::policy {

namespace {

/// The exhaustive oracle, extended to track the runner-up: best cost under
/// the shared exit_setting_improves order plus the second-best cost over
/// all other (e1, e2) combos — the margin the chosen setting wins by.
struct TwoBestScan {
  double best = std::numeric_limits<double>::infinity();
  double second = std::numeric_limits<double>::infinity();
};

TwoBestScan exhaustive_two_best(const core::CostModel& model) {
  TwoBestScan scan;
  core::ExitCombo best_combo{};
  const int m = model.num_exits();
  for (int e1 = 1; e1 <= m - 2; ++e1) {
    for (int e2 = e1 + 1; e2 <= m - 1; ++e2) {
      const core::ExitCombo combo{e1, e2, m};
      const double cost = model.expected_tct(combo);
      if (core::exit_setting_improves(cost, combo, scan.best, best_combo)) {
        scan.second = scan.best;
        scan.best = cost;
        best_combo = combo;
      } else if (cost < scan.second) {
        scan.second = cost;
      }
    }
  }
  return scan;
}

}  // namespace

core::ExitSettingResult Engine::exit_setting(const core::CostModel& model,
                                             Incumbent* incumbent) {
  obs::DecisionPath path = obs::DecisionPath::kCold;
  std::uint64_t pruned = 0;
  core::ExitSettingResult result;
  if (config_.warm_start && incumbent && incumbent->valid &&
      incumbent_compatible(incumbent->combo, model.num_exits())) {
    // Thread-local two-exit memo buffer: per-stream scratch without
    // per-call allocation once warm.
    thread_local std::vector<double> scratch;
    const auto outcome =
        warm_start_branch_and_bound(model, incumbent->combo, scratch);
    result = outcome.result;
    path = obs::DecisionPath::kWarmStart;
    pruned = outcome.pruned_scans;
  } else {
    result = core::branch_and_bound_exit_setting(model);
  }
  if (prov_)
    emit_exit_setting_record(model, result, path, result.evaluations, pruned);
  if (incumbent) {
    incumbent->combo = result.combo;
    incumbent->valid = true;
  }
  return result;
}

void Engine::emit_exit_setting_record(const core::CostModel& model,
                                      const core::ExitSettingResult& result,
                                      obs::DecisionPath path,
                                      std::uint64_t explored,
                                      std::uint64_t pruned) {
  obs::ProvenanceRecorder* rec = prov_;
  if (!rec || !rec->enabled()) return;
  std::uint64_t seq = 0;
  bool oracle = false;
  if (!rec->begin_decision(&seq, &oracle)) return;

  obs::DecisionRecord r;
  r.seq = seq;
  r.cls = "engine";
  r.kind = obs::DecisionKind::kExitSetting;
  r.path = path;
  const core::Environment& env = model.environment();
  r.bandwidth = env.net.dev_edge_bw;
  r.edge_flops = env.caps.edge_flops;
  r.e1 = result.combo.e1;
  r.e2 = result.combo.e2;
  r.e3 = result.combo.e3;
  r.cost = result.cost;
  r.explored = explored;
  r.pruned = pruned;
  if (oracle) {
    // Re-run the exhaustive scan online. The §12 contracts make every fast
    // path bit-identical to it, so regret is exactly 0 here — this is the
    // watchdog that would catch a future fast path breaking the proof. The
    // min() keeps regret >= 0 by construction either way.
    const TwoBestScan scan = exhaustive_two_best(model);
    r.oracle = true;
    r.oracle_cost = std::min(scan.best, result.cost);
    r.regret = result.cost - r.oracle_cost;
    if (std::isfinite(scan.second)) {
      r.margin_valid = true;
      r.margin = scan.second - scan.best;
    }
  }
  rec->record(std::move(r));
}

void Engine::decide_fleet(const core::OffloadPolicy& policy,
                          const std::vector<core::DeviceSlotState>& states,
                          std::vector<double>& out) const {
  out.resize(states.size());
  policy.decide_batch(states, out);
}

}  // namespace leime::policy
