// Batched per-device eq. 20 / drift-plus-penalty updates.
//
// Groups devices whose DeviceSlotState is bit-identical — field-wise IEEE
// bit comparison, never a raw memcmp (padding bytes are indeterminate) —
// and solves the groups' representatives in one OffloadPolicy::decide_batch
// call, copying each group's double to every member. The policy contract
// (decide_batch[i] is bit-for-bit decide(states[i]), a pure function of the
// state) plus bit-identical inputs means every device receives exactly the
// double the sequential loop would have produced: equality within 0 ULP
// with no summation reordering anywhere, which is why the batched path can
// stay on inside golden-snapshot scenarios.
//
// The win is real for the common fleets: homogeneous device classes
// produce identical slot states whenever their queues drain to the same
// lengths (e.g. underloaded or saturated regimes), and each dedup saves a
// full solve. Dedup and the eq. 19/20 vector lanes compose: the distinct
// states go to the lanes together.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"

namespace leime::policy {

/// Bit-exact equality of two slot states (partition identity by pointer —
/// conservative: distinct pointers never dedup).
bool slot_state_bits_equal(const core::DeviceSlotState& a,
                           const core::DeviceSlotState& b);

/// FNV-1a over the state's field bit patterns; equal states hash equal.
std::uint64_t slot_state_hash(const core::DeviceSlotState& s);

struct BatchStats {
  std::size_t groups = 0;  ///< distinct states actually solved
  std::size_t reused = 0;  ///< devices served by another device's solve
};

/// Working memory for decide_fleet. Pass the same object every round and
/// steady-state rounds allocate nothing.
struct FleetScratch {
  std::vector<std::uint32_t> table;  ///< open addressing: group + 1, 0 free
  std::vector<std::uint32_t> group;  ///< per device: its group
  std::vector<core::DeviceSlotState> reps;  ///< per group, first-seen order
  std::vector<double> rep_x;                ///< per group: the decision
};

/// Fills out[i] with policy.decide(states[i]) for every device, solving
/// each group of bit-identical states once (all groups in one decide_batch
/// call). Throws std::invalid_argument on a size mismatch.
BatchStats decide_fleet(const core::OffloadPolicy& policy,
                        std::span<const core::DeviceSlotState> states,
                        std::span<double> out, FleetScratch& scratch);

}  // namespace leime::policy
