#include "policy/batch.h"

#include <bit>
#include <stdexcept>

#include "prof/profiler.h"

namespace leime::policy {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

// The slot memo and the batch_eq20 dedup reuse a decision whenever these
// compare equal, so a DeviceSlotState field they miss would serve stale
// ratios. A new field changes the size: cover it below, then update this.
static_assert(sizeof(void*) != 8 || sizeof(core::DeviceSlotState) == 96,
              "slot_state_bits_equal / slot_state_hash must cover every "
              "DeviceSlotState field");

bool slot_state_bits_equal(const core::DeviceSlotState& a,
                           const core::DeviceSlotState& b) {
  return a.partition == b.partition &&
         bits(a.device_flops) == bits(b.device_flops) &&
         bits(a.edge_share_flops) == bits(b.edge_share_flops) &&
         bits(a.bandwidth) == bits(b.bandwidth) &&
         bits(a.latency) == bits(b.latency) &&
         bits(a.queue_device) == bits(b.queue_device) &&
         bits(a.queue_edge) == bits(b.queue_edge) &&
         bits(a.arrivals) == bits(b.arrivals) &&
         bits(a.uplink_backlog_bytes) == bits(b.uplink_backlog_bytes) &&
         a.edge_available == b.edge_available &&
         bits(a.config.V) == bits(b.config.V) &&
         bits(a.config.tau) == bits(b.config.tau);
}

std::uint64_t slot_state_hash(const core::DeviceSlotState& s) {
  std::uint64_t h = kFnvOffset;
  h = mix(h, reinterpret_cast<std::uintptr_t>(s.partition));
  h = mix(h, bits(s.device_flops));
  h = mix(h, bits(s.edge_share_flops));
  h = mix(h, bits(s.bandwidth));
  h = mix(h, bits(s.latency));
  h = mix(h, bits(s.queue_device));
  h = mix(h, bits(s.queue_edge));
  h = mix(h, bits(s.arrivals));
  h = mix(h, bits(s.uplink_backlog_bytes));
  h = mix(h, s.edge_available ? 1u : 0u);
  h = mix(h, bits(s.config.V));
  h = mix(h, bits(s.config.tau));
  return h;
}

BatchStats decide_fleet(const core::OffloadPolicy& policy,
                        std::span<const core::DeviceSlotState> states,
                        std::span<double> out, FleetScratch& scratch) {
  LEIME_PROF_SCOPE("leime.policy.decide_fleet");
  if (out.size() != states.size())
    throw std::invalid_argument("decide_fleet: output size mismatch");
  // Linear probing over a power-of-two table at most half full; a hash
  // collision costs one extra exact comparison, never a wrong dedup.
  std::size_t capacity = 16;
  while (capacity < 2 * states.size()) capacity *= 2;
  const std::size_t mask = capacity - 1;
  scratch.table.assign(capacity, 0);
  scratch.group.resize(states.size());
  scratch.reps.clear();
  for (std::size_t i = 0; i < states.size(); ++i) {
    std::size_t slot = slot_state_hash(states[i]) & mask;
    while (true) {
      const std::uint32_t entry = scratch.table[slot];
      if (entry == 0) {
        scratch.group[i] = static_cast<std::uint32_t>(scratch.reps.size());
        scratch.reps.push_back(states[i]);
        scratch.table[slot] = static_cast<std::uint32_t>(scratch.reps.size());
        break;
      }
      if (slot_state_bits_equal(scratch.reps[entry - 1], states[i])) {
        scratch.group[i] = entry - 1;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  scratch.rep_x.resize(scratch.reps.size());
  policy.decide_batch(scratch.reps, scratch.rep_x);
  for (std::size_t i = 0; i < states.size(); ++i)
    out[i] = scratch.rep_x[scratch.group[i]];
  BatchStats stats;
  stats.groups = scratch.reps.size();
  stats.reused = states.size() - stats.groups;
  return stats;
}

}  // namespace leime::policy
