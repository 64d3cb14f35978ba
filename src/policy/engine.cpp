#include "policy/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
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

void Config::validate() const {
  if (cache_capacity == 0)
    throw std::invalid_argument("policy::Config: cache_capacity must be >= 1");
  if (quant_per_octave < 1 || quant_per_octave > 64)
    throw std::invalid_argument(
        "policy::Config: quant_per_octave must be in [1, 64]");
}

Engine::Engine(Config config)
    : config_((config.validate(), config)),
      cache_(config.cache_capacity, config.quant_per_octave) {}

core::ExitSettingResult Engine::exit_setting(const core::CostModel& model,
                                             Incumbent* incumbent) {
  const auto remember = [&](const core::ExitSettingResult& r) {
    if (incumbent) {
      incumbent->combo = r.combo;
      incumbent->valid = true;
    }
    return r;
  };

  obs::DecisionPath path = obs::DecisionPath::kCold;
  std::uint64_t pruned = 0;
  bool served_from_cache = false;
  core::ExitSettingResult result;

  std::uint64_t fp = 0;
  if (config_.memo_cache) {
    fp = profile_fingerprint(model.profile());
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* hit = cache_.lookup(fp, model.environment())) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        result = *hit;
        served_from_cache = true;
        path = obs::DecisionPath::kMemoHit;
      }
    }
    if (!served_from_cache)
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  if (!served_from_cache) {
    if (config_.warm_start && incumbent && incumbent->valid &&
        incumbent_compatible(incumbent->combo, model.num_exits())) {
      // Thread-local two-exit memo buffer: per-stream scratch without
      // per-call allocation once warm.
      thread_local std::vector<double> scratch;
      const auto outcome =
          warm_start_branch_and_bound(model, incumbent->combo, scratch);
      result = outcome.result;
      warm_starts_.fetch_add(1, std::memory_order_relaxed);
      warm_pruned_scans_.fetch_add(outcome.pruned_scans,
                                   std::memory_order_relaxed);
      path = obs::DecisionPath::kWarmStart;
      pruned = outcome.pruned_scans;
    } else {
      result = core::branch_and_bound_exit_setting(model);
      cold_starts_.fetch_add(1, std::memory_order_relaxed);
    }

    if (config_.memo_cache) {
      std::lock_guard<std::mutex> lock(mu_);
      // Two threads may race past the same miss; the second insert
      // overwrites with an identical result, so last-writer-wins is benign.
      if (cache_.insert(fp, model.environment(), result))
        cache_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // A memo hit replays a previous search verbatim: zero evaluations were
  // run for *this* decision, so its record reports explored = pruned = 0
  // (result.evaluations still carries the original work for the caller).
  if (prov_)
    emit_exit_setting_record(model, result, path,
                             served_from_cache ? 0 : result.evaluations,
                             pruned);
  return remember(result);
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
                          std::vector<double>& out,
                          FleetScratch* scratch) const {
  out.resize(states.size());
  decide_fleet(policy, std::span<const core::DeviceSlotState>(states),
               std::span<double>(out), scratch);
}

void Engine::decide_fleet(const core::OffloadPolicy& policy,
                          std::span<const core::DeviceSlotState> states,
                          std::span<double> out,
                          FleetScratch* scratch) const {
  if (!config_.batch_eq20) {
    policy.decide_batch(states, out);
    return;
  }
  FleetScratch one_shot;
  const auto stats = policy::decide_fleet(policy, states, out,
                                          scratch ? *scratch : one_shot);
  batch_groups_.fetch_add(stats.groups, std::memory_order_relaxed);
  batch_reused_.fetch_add(stats.reused, std::memory_order_relaxed);
}

Stats Stats::since(const Stats& baseline) const {
  Stats d;
  d.cache_hits = cache_hits - baseline.cache_hits;
  d.cache_misses = cache_misses - baseline.cache_misses;
  d.cache_evictions = cache_evictions - baseline.cache_evictions;
  d.warm_starts = warm_starts - baseline.warm_starts;
  d.warm_pruned_scans = warm_pruned_scans - baseline.warm_pruned_scans;
  d.cold_starts = cold_starts - baseline.cold_starts;
  d.batch_groups = batch_groups - baseline.batch_groups;
  d.batch_reused = batch_reused - baseline.batch_reused;
  return d;
}

Stats Engine::stats() const {
  Stats s;
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  s.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  s.warm_pruned_scans = warm_pruned_scans_.load(std::memory_order_relaxed);
  s.cold_starts = cold_starts_.load(std::memory_order_relaxed);
  s.batch_groups = batch_groups_.load(std::memory_order_relaxed);
  s.batch_reused = batch_reused_.load(std::memory_order_relaxed);
  return s;
}

void Engine::publish_metrics(obs::MetricsRegistry& registry) const {
  publish_metrics(registry, Stats{});
}

void Engine::publish_metrics(obs::MetricsRegistry& registry,
                             const Stats& baseline) const {
  const auto s = stats().since(baseline);
  registry
      .counter("leime_policy_cache_hits_total",
               "exit-setting memo cache exact hits")
      .inc(s.cache_hits);
  registry
      .counter("leime_policy_cache_misses_total",
               "exit-setting memo cache misses (incl. exact-guard misses)")
      .inc(s.cache_misses);
  registry
      .counter("leime_policy_cache_evictions_total",
               "LRU entries evicted from the exit-setting memo cache")
      .inc(s.cache_evictions);
  registry
      .counter("leime_policy_warm_starts_total",
               "B&B searches seeded from a previous incumbent")
      .inc(s.warm_starts);
  registry
      .counter("leime_policy_warm_pruned_scans_total",
               "Second-exit scans skipped by the warm-start lower bound")
      .inc(s.warm_pruned_scans);
  registry
      .counter("leime_policy_cold_starts_total",
               "reference branch-and-bound searches")
      .inc(s.cold_starts);
  registry
      .counter("leime_policy_batch_groups_total",
               "distinct device states solved by batched fleet decisions")
      .inc(s.batch_groups);
  registry
      .counter("leime_policy_batch_reused_total",
               "per-device decisions served by a bit-identical dedup")
      .inc(s.batch_reused);
}

}  // namespace leime::policy
