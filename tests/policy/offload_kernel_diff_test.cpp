// Differential suite for the lane-batched eq. 19/20 kernel: over seeded
// random fleets, OffloadPolicy::decide_batch returns bit for bit what the
// pre-kernel scalar solvers (scalar_oracle.h) return state by state, and
// spends exactly as many objective evaluations. The state generator
// deliberately hits both degenerate-interval ends, zero arrivals, uplink
// backlogs above the eq. 8 budget, and partitions on both sides of
// d0 = (1−σ1)·d1; batch sizes cover 0 through 2·kStatesInFlight + 1 so
// partial blocks, lone states and odd lane pairs all occur.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/partition.h"
#include "scalar_oracle.h"
#include "util/rng.h"

namespace leime::policy {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Partitions on both sides of the eq. 8 slope sign, plus σ1 = 1 (nothing
/// reaches block 2, so F^e_1 has a zero denominator at x = 0).
std::vector<core::MeDnnPartition> test_partitions() {
  std::vector<core::MeDnnPartition> parts(4);
  // d0 > (1−σ1)·d1: raw inputs cost more uplink, the budget caps x.
  parts[0].mu1 = 4e8;
  parts[0].mu2 = 9e8;
  parts[0].d0 = 6e5;
  parts[0].d1 = 2e5;
  parts[0].sigma1 = 0.4;
  // d0 < (1−σ1)·d1: survivors' tensors cost more, the budget floors x.
  parts[1].mu1 = 2e8;
  parts[1].mu2 = 1.5e9;
  parts[1].d0 = 1.5e5;
  parts[1].d1 = 8e5;
  parts[1].sigma1 = 0.2;
  // d0 == (1−σ1)·d1 exactly: zero slope.
  parts[2].mu1 = 1e8;
  parts[2].mu2 = 3e8;
  parts[2].d0 = 2e5;
  parts[2].d1 = 4e5;
  parts[2].sigma1 = 0.5;
  // σ1 = 1.
  parts[3].mu1 = 3e8;
  parts[3].mu2 = 2e8;
  parts[3].d0 = 3e5;
  parts[3].d1 = 1e5;
  parts[3].sigma1 = 1.0;
  return parts;
}

enum class Regime { kGeneral, kIdle, kFlooded, kPinnedLow, kPinnedHigh };

core::DeviceSlotState random_state(
    const std::vector<core::MeDnnPartition>& parts, util::Rng& rng,
    Regime regime) {
  core::DeviceSlotState s;
  s.partition = &parts[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(parts.size()) - 1))];
  s.device_flops = rng.uniform(1e8, 4e10);
  s.edge_share_flops = rng.uniform(1e8, 1e11);
  s.bandwidth = rng.uniform(1e5, 5e7);
  s.latency = rng.uniform(0.0, 0.2);
  s.queue_device = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 30.0);
  s.queue_edge = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 30.0);
  s.arrivals = rng.uniform(0.0, 8.0);
  s.uplink_backlog_bytes = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 1e6);
  s.edge_available = rng.uniform() < 0.75;
  s.config.V = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.5, 200.0);
  s.config.tau = rng.uniform(0.5, 2.0);
  switch (regime) {
    case Regime::kGeneral:
      break;
    case Regime::kIdle:
      s.arrivals = 0.0;
      break;
    case Regime::kFlooded:  // backlog above the whole eq. 8 budget
      s.uplink_backlog_bytes =
          s.bandwidth * (s.config.tau - s.latency) * rng.uniform(1.0, 3.0);
      break;
    case Regime::kPinnedLow:  // slope > 0, base over budget: {0, 0}
      s.partition = &parts[0];
      s.arrivals = rng.uniform(5.0, 50.0);
      s.bandwidth = rng.uniform(1e4, 1e5);
      break;
    case Regime::kPinnedHigh:  // slope < 0, floor at or past 1: {1, 1}
      s.partition = &parts[1];
      s.arrivals = rng.uniform(5.0, 50.0);
      s.bandwidth = rng.uniform(1e4, 1e5);
      break;
  }
  return s;
}

std::vector<core::DeviceSlotState> random_fleet(
    const std::vector<core::MeDnnPartition>& parts, util::Rng& rng,
    std::size_t n) {
  std::vector<core::DeviceSlotState> states;
  for (std::size_t i = 0; i < n; ++i)
    states.push_back(
        random_state(parts, rng, static_cast<Regime>(rng.uniform_int(0, 4))));
  return states;
}

constexpr std::size_t kMaxBatch = 2 * core::kStatesInFlight + 1;

TEST(OffloadKernelDiff, LaneObjectiveEqualsScalarObjectiveBitwise) {
  const auto parts = test_partitions();
  const util::Rng base(0x0B1Ecull);
  for (int trial = 0; trial < 2000; ++trial) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kMaxBatch)));
    const auto states = random_fleet(parts, rng, n);
    std::vector<double> xs(n), out(n);
    for (auto& x : xs) {
      const double u = rng.uniform();
      x = u < 0.1 ? 0.0 : u < 0.2 ? 1.0 : rng.uniform();
    }
    core::drift_plus_penalty(states, xs, out);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bits(out[i]), bits(core::drift_plus_penalty(states[i], xs[i])))
          << "trial " << trial << " state " << i << " x " << xs[i];
  }
}

/// Oracle decisions for one make_policy name, state by state.
double oracle_decide(const std::string& policy,
                     const core::DeviceSlotState& s,
                     std::uint64_t* evaluations) {
  if (policy.ends_with("+fallback")) {
    if (!s.edge_available) return 0.0;
    const std::string inner = policy.substr(0, policy.find('+'));
    return oracle_decide(inner, s, evaluations);
  }
  return policy == "LEIME" ? oracle::minimize_drift_plus_penalty(s, evaluations)
                           : oracle::balance_offload_ratio(s, evaluations);
}

TEST(OffloadKernelDiff, DecideBatchMatchesScalarOracleBitForBit) {
  const auto parts = test_partitions();
  const util::Rng base(0x1A2E5ull);
  std::uint64_t pinned_low = 0, pinned_high = 0, interior = 0;
  for (const std::string name :
       {"LEIME", "LEIME-balance", "LEIME+fallback", "LEIME-balance+fallback"}) {
    const auto policy = core::make_policy(name);
    for (int trial = 0; trial < 1800; ++trial) {
      util::Rng rng = base.split(static_cast<std::uint64_t>(trial));
      const std::size_t n = static_cast<std::size_t>(trial) % (kMaxBatch + 1);
      const auto states = random_fleet(parts, rng, n);
      std::vector<double> batched(n);
      policy->decide_batch(states, batched);
      std::uint64_t oracle_evals = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double expect = oracle_decide(name, states[i], &oracle_evals);
        ASSERT_EQ(bits(batched[i]), bits(expect))
            << name << " trial " << trial << " state " << i;
        if (name == "LEIME") {
          const auto iv = core::feasible_offload_interval(states[i]);
          pinned_low += iv.hi <= iv.lo && iv.lo == 0.0;
          pinned_high += iv.hi <= iv.lo && iv.lo == 1.0;
          interior += expect > 0.0 && expect < 1.0;
        }
      }
      if (name.ends_with("+fallback")) continue;
      // The kernel spends exactly the scalar solvers' evaluations.
      std::uint64_t kernel_evals = 0;
      std::vector<double> direct(n);
      if (name == "LEIME")
        core::minimize_drift_plus_penalty(states, direct, &kernel_evals);
      else
        core::balance_offload_ratio(states, direct, &kernel_evals);
      ASSERT_EQ(kernel_evals, oracle_evals) << name << " trial " << trial;
    }
  }
  // Both degenerate ends and real interior optima were exercised.
  EXPECT_GT(pinned_low, 1000u);
  EXPECT_GT(pinned_high, 1000u);
  EXPECT_GT(interior, 500u);
}

TEST(OffloadKernelDiff, ScalarEntryPointsAreBatchesOfOne) {
  const auto parts = test_partitions();
  util::Rng rng(0x5CA1Aull);
  for (int i = 0; i < 500; ++i) {
    const auto s = random_state(parts, rng, static_cast<Regime>(i % 5));
    std::uint64_t evals = 0;
    ASSERT_EQ(bits(core::minimize_drift_plus_penalty(s)),
              bits(oracle::minimize_drift_plus_penalty(s, &evals)));
    ASSERT_EQ(bits(core::balance_offload_ratio(s)),
              bits(oracle::balance_offload_ratio(s, &evals)));
  }
}

/// The message std::invalid_argument carries for a state, or "" if valid.
std::string validate_message(const core::DeviceSlotState& s) {
  try {
    s.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(OffloadKernelDiff, InvalidStateMidBatchThrowsLikeTheScalarPath) {
  const auto parts = test_partitions();
  util::Rng rng(0xBAD5ull);
  auto states = random_fleet(parts, rng, kMaxBatch);
  for (auto& s : states) s.edge_available = true;
  // Two different violations; the first in batch order must win.
  states[9].device_flops = -1.0;
  states[13].latency = 5.0;
  states[13].config.tau = 1.0;
  const std::string first = validate_message(states[9]);
  ASSERT_FALSE(first.empty());
  ASSERT_NE(first, validate_message(states[13]));
  for (const std::string name : {"LEIME", "LEIME-balance", "LEIME+fallback"}) {
    const auto policy = core::make_policy(name);
    std::vector<double> out(states.size());
    try {
      policy->decide_batch(states, out);
      FAIL() << name << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), first) << name;
    }
    // The scalar path throws the same exception at the same state.
    try {
      for (const auto& s : states) policy->decide(s);
      FAIL() << name << ": scalar path did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), first) << name;
    }
  }
  std::vector<double> short_out(states.size() - 1);
  EXPECT_THROW(core::LeimePolicy{}.decide_batch(states, short_out),
               std::invalid_argument);
}

TEST(OffloadKernelDiff, FallbackNeverValidatesAnUnavailableState) {
  const auto parts = test_partitions();
  util::Rng rng(0xFA11ull);
  for (const std::string name : {"LEIME+fallback", "LEIME-balance+fallback"}) {
    const auto policy = core::make_policy(name);
    auto states = random_fleet(parts, rng, kMaxBatch);
    // Unavailable states that validate() would reject twice over.
    for (std::size_t i = 0; i < states.size(); i += 3) {
      states[i].edge_available = false;
      states[i].partition = nullptr;
      states[i].bandwidth = -1.0;
    }
    std::vector<double> out(states.size(), -1.0);
    ASSERT_NO_THROW(policy->decide_batch(states, out)) << name;
    std::uint64_t evals = 0;
    for (std::size_t i = 0; i < states.size(); ++i)
      ASSERT_EQ(bits(out[i]), bits(oracle_decide(name, states[i], &evals)))
          << name << " state " << i;
  }
}

}  // namespace
}  // namespace leime::policy
