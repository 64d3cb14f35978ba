// The per-device slot-decision memo (policy/slot_memo.h, DESIGN.md §12.2)
// is exact: every slot decision the simulator applies equals a fresh
// policy's decide() on the state it observed, bit for bit, whether the
// decision was solved this slot or reused from the device's previous slot.
// An attached observer re-decides every on_slot_decision across the
// feature matrix (flat links, a routed fabric with backlog feedback,
// faults, periodic eq. 27 re-allocation), and the
// sharded runner must reproduce the single-queue run, solve counter
// included. The memo itself is exercised directly on hit/miss patterns;
// its zero-allocation gate lives in decide_alloc_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "models/zoo.h"
#include "policy/slot_memo.h"
#include "sim/observer.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/units.h"

namespace leime::sim {
namespace {

const core::MeDnnPartition& test_partition() {
  static const core::MeDnnPartition partition = [] {
    const auto profile = models::make_squeezenet();
    return core::make_partition(profile, {4, 8, profile.num_units()});
  }();
  return partition;
}

ScenarioConfig fleet(const std::string& policy, double rate) {
  ScenarioConfig cfg;
  cfg.partition = test_partition();
  for (int i = 0; i < 6; ++i) {
    DeviceSpec dev;
    dev.flops = core::kRaspberryPiFlops * (1.0 + 0.2 * (i % 3));
    dev.mean_rate = rate * (1.0 + 0.5 * (i % 2));
    dev.uplink_bw = util::mbps(8.0 + 4.0 * (i % 3));
    cfg.devices.push_back(dev);
  }
  cfg.policy = policy;
  cfg.lyapunov.tau = 0.5;
  cfg.duration = 20.0;
  cfg.warmup = 2.0;
  cfg.seed = 7;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Re-decides every slot decision with its own policy instance and checks
/// the memo's hit rule: a decision is reused exactly when the device's
/// state is bit-identical to its previous slot's.
class ReDecider final : public Observer {
 public:
  explicit ReDecider(const std::string& policy)
      : policy_(core::make_policy(policy)) {}

  void on_slot_decision(int device, double /*t*/,
                        const SlotTelemetry& tel) override {
    ++decisions;
    if (tel.solved) ++solved;
    if (tel.state == nullptr) {
      ++mismatches;
      return;
    }
    if (bits(policy_->decide(*tel.state)) != bits(tel.x)) ++mismatches;
    // The state a reused decision carries must still be the live one: the
    // telemetry reads the edge share and the fault state from the run.
    if (bits(tel.state->edge_share_flops) != bits(tel.edge_share_flops) ||
        tel.state->edge_available != (tel.edge_up && tel.link_up))
      ++stale_states;
    const auto d = static_cast<std::size_t>(device);
    if (prev_.size() <= d) prev_.resize(d + 1);
    const bool repeat =
        prev_[d] && policy::slot_state_bits_equal(*prev_[d], *tel.state);
    if (tel.solved == repeat) ++wrong_hits;
    prev_[d] = *tel.state;
  }

  std::size_t decisions = 0;
  std::size_t solved = 0;
  std::size_t mismatches = 0;
  std::size_t stale_states = 0;
  std::size_t wrong_hits = 0;

 private:
  std::unique_ptr<core::OffloadPolicy> policy_;
  std::vector<std::optional<core::DeviceSlotState>> prev_;
};

struct Setting {
  const char* name;
  void (*apply)(ScenarioConfig&);
};

const Setting kSettings[] = {
    {"flat", [](ScenarioConfig&) {}},
    {"topology",
     [](ScenarioConfig& cfg) {
       cfg.topology.aps = 2;
       cfg.topology.ap_bandwidth = util::mbps(20.0);
       cfg.topology.ap_latency = util::ms(2.0);
       cfg.uplink_backlog_feedback = true;
     }},
    {"faults",
     [](ScenarioConfig& cfg) {
       cfg.faults.edge.windows = {{5.0, 7.0, -1}};
       cfg.faults.churn.events = {{1, 8.0, 12.0}};
       cfg.faults.link.rate = 0.05;
       cfg.faults.link.mean_duration = 1.0;
       cfg.faults.degradation.detection_timeout = 0.5;
     }},
    {"realloc", [](ScenarioConfig& cfg) { cfg.reallocation_period = 3.0; }},
};

TEST(DecideMemo, EveryDecisionEqualsAFreshSolve) {
  for (const char* policy : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    for (const auto& setting : kSettings) {
      SCOPED_TRACE(std::string(policy) + " / " + setting.name);
      auto cfg = fleet(policy, 2.0);
      setting.apply(cfg);
      ReDecider check(policy);
      cfg.observer = &check;
      const auto r = run_scenario(cfg);
      ASSERT_GT(r.generated, 0u);
      EXPECT_GT(check.decisions, 6u * 30u);
      EXPECT_EQ(check.mismatches, 0u);
      EXPECT_EQ(check.stale_states, 0u);
      EXPECT_EQ(check.wrong_hits, 0u);
      EXPECT_GT(check.solved, 0u);
      EXPECT_LE(check.solved, check.decisions);
    }
  }
}

const obs::Snapshot::CounterSample& find_counter(const obs::Snapshot& snap,
                                                 const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c;
  throw std::runtime_error("counter not in snapshot: " + name);
}

TEST(DecideMemo, LowLoadServesMostDecisionsFromTheMemo) {
  for (const char* policy : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    SCOPED_TRACE(policy);
    auto cfg = fleet(policy, 0.2);
    cfg.obs.metrics = true;
    const auto r = run_scenario(cfg);
    const auto decisions =
        find_counter(r.metrics, "leime_slot_decisions_total").value;
    const auto solved =
        find_counter(r.metrics, "leime_slot_decisions_solved_total").value;
    ASSERT_GT(decisions, 0u);
    EXPECT_GE(solved, cfg.devices.size());  // round 0 solves everything
    EXPECT_LE(2 * solved, decisions);
  }
}

TEST(DecideMemo, ShardedRunsMatchTheSingleQueueRun) {
  for (const char* policy : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    SCOPED_TRACE(policy);
    auto cfg = fleet(policy, 1.0);
    cfg.reallocation_period = 3.0;
    cfg.obs.metrics = true;
    const auto single = run_scenario(cfg);
    cfg.shards.shards = 2;
    cfg.shards.threads = 2;
    const auto sharded = run_scenario(cfg);
    EXPECT_EQ(bits(sharded.mean_offload_ratio),
              bits(single.mean_offload_ratio));
    EXPECT_EQ(bits(sharded.tct.mean), bits(single.tct.mean));
    EXPECT_EQ(sharded.total_completed, single.total_completed);
    for (const char* name :
         {"leime_slot_decisions_total", "leime_slot_decisions_solved_total"})
      EXPECT_EQ(find_counter(sharded.metrics, name).value,
                find_counter(single.metrics, name).value)
          << name;
  }
}

// ------------------------------------------------------ the memo itself

std::vector<core::DeviceSlotState> random_fleet(std::size_t n,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::DeviceSlotState> states(n);
  for (auto& s : states) {
    s.partition = &test_partition();
    s.device_flops = rng.uniform(1e9, 4e10);
    s.edge_share_flops = rng.uniform(1e9, 1e11);
    s.bandwidth = rng.uniform(1e5, 2e7);
    s.latency = rng.uniform(0.001, 0.1);
    s.queue_device = static_cast<double>(rng.uniform_int(0, 6));
    s.queue_edge = static_cast<double>(rng.uniform_int(0, 6));
    s.arrivals = rng.uniform(0.25, 4.0);
  }
  return states;
}

TEST(DecideMemo, SolvesOnlyChangedStatesAndReusesTheRest) {
  const auto policy = core::make_policy("LEIME");
  auto states = random_fleet(37, 11);
  std::vector<std::size_t> solved_sizes;
  const auto solve = [&](std::span<const core::DeviceSlotState> s,
                         std::span<double> x) {
    solved_sizes.push_back(s.size());
    policy->decide_batch(s, x);
  };
  const auto observe = [&](std::size_t k) { return states[k]; };
  policy::SlotMemo memo;
  auto check_round = [&](std::size_t expect_solved) {
    SCOPED_TRACE(expect_solved);
    EXPECT_EQ(memo.round(states.size(), observe, solve), expect_solved);
    policy::SlotMemo::SolvedCursor cursor(memo);
    std::size_t flagged = 0;
    for (std::size_t k = 0; k < states.size(); ++k) {
      ASSERT_TRUE(policy::slot_state_bits_equal(memo.state(k), states[k]));
      ASSERT_EQ(bits(memo.x(k)), bits(policy->decide(states[k])));
      if (cursor.solved(k)) ++flagged;
    }
    EXPECT_EQ(flagged, expect_solved);
  };

  check_round(37);  // round 0: everything
  check_round(0);   // nothing changed: no solve call at all
  EXPECT_EQ(solved_sizes.size(), 1u);
  // Mixed: every third device's queue moves (the first and the last
  // device among them, so the swaps cover slot 0 and the far end), and
  // device 1's arrivals, so two misses are adjacent.
  for (std::size_t k = 0; k < states.size(); k += 3)
    states[k].queue_device += 1.0;
  states[1].arrivals *= 2.0;
  check_round(14);
  EXPECT_EQ(solved_sizes.back(), 14u);
  // All miss.
  for (auto& s : states) s.queue_edge += 1.0;
  check_round(37);
  // A change to the last device only, then back to the previous state:
  // the memo keeps one entry per device, so returning is a miss too.
  const auto before = states.back();
  states.back().queue_device += 1.0;
  check_round(1);
  states.back() = before;
  check_round(1);
  // Every field takes part in the hit rule: changing any one of them on
  // one device costs exactly one solve.
  const core::MeDnnPartition other = test_partition();
  const std::vector<void (*)(core::DeviceSlotState&)> edits = {
      [](core::DeviceSlotState& s) { s.device_flops *= 1.5; },
      [](core::DeviceSlotState& s) { s.edge_share_flops *= 0.5; },
      [](core::DeviceSlotState& s) { s.bandwidth *= 0.5; },
      [](core::DeviceSlotState& s) { s.latency *= 2.0; },
      [](core::DeviceSlotState& s) { s.queue_device += 1.0; },
      [](core::DeviceSlotState& s) { s.queue_edge += 1.0; },
      [](core::DeviceSlotState& s) { s.arrivals += 0.5; },
      [](core::DeviceSlotState& s) { s.uplink_backlog_bytes += 1e4; },
      [](core::DeviceSlotState& s) { s.edge_available = !s.edge_available; },
      [](core::DeviceSlotState& s) { s.config.V *= 2.0; },
      [](core::DeviceSlotState& s) { s.config.tau *= 2.0; },
  };
  for (std::size_t e = 0; e < edits.size(); ++e) {
    SCOPED_TRACE(e);
    edits[e](states[e]);
    check_round(1);
  }
  states[5].partition = &other;
  check_round(1);
  states[5].partition = &test_partition();
  // A different fleet size starts over.
  states.pop_back();
  check_round(36);
}

}  // namespace
}  // namespace leime::sim
