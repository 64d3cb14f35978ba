// Per-device slot-decision memo (DESIGN.md §12.2).
//
// Every slot, every device re-solves P1' (eq. 19, or the eq. 20 balance).
// Its inputs are integer queue lengths, an arrival estimate from a small
// discrete set and link / edge-share values that rarely move, so most
// slots hand a device exactly the state it had the slot before. An
// OffloadPolicy is a pure function of its DeviceSlotState, and
// decide_batch[i] is bit-for-bit decide(states[i]); so a device whose
// state is bit-identical (slot_state_bits_equal) to its previous one gets
// the same double again without a solve. Only the devices whose state
// changed are solved, all of them in one call.
//
// One entry per device, not a table of every state seen: the entry is the
// device's last state, which the round needs as its decision buffer anyway,
// so the memo costs no memory beyond an 8-byte miss-list slot per device. A
// table keyed on states would hold many states per device and grow the
// peak RSS of a 10^5-device fleet for hits that only a long-lived device
// history could produce.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/lyapunov.h"

namespace leime::policy {

// The memo reuses a decision whenever slot_state_bits_equal holds, so a
// DeviceSlotState field it missed would serve stale ratios. A new field
// changes the size: cover it below, then update this.
static_assert(sizeof(void*) != 8 || sizeof(core::DeviceSlotState) == 96,
              "slot_state_bits_equal must cover every DeviceSlotState field");

/// Bit-exact equality of two slot states: field-wise IEEE bit comparison,
/// never a raw memcmp (padding bytes are indeterminate). Partition identity
/// is by pointer — conservative: distinct pointers never match.
inline bool slot_state_bits_equal(const core::DeviceSlotState& a,
                                  const core::DeviceSlotState& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
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

class SlotMemo {
 public:
  /// One decision round over devices [0, n). `observe(k)` returns device
  /// k's DeviceSlotState for this slot; `solve(states, out)` must fill
  /// out[j] with the policy's decision for states[j] (decide_batch).
  /// Afterwards state(k) is the observed state
  /// and x(k) its decision, for every k. Returns how many states were
  /// solved.
  ///
  /// The first round (or a round over a different n) observes every device
  /// straight into the buffer and solves it whole. Later rounds solve only
  /// the misses. They are gathered without a second state buffer: the j-th
  /// miss (device k_j ≥ j, in device order) swaps its slot with slot j, so
  /// the misses occupy slots [0, m) for one solve call, and undoing the
  /// swaps in reverse order puts every entry back at its device. Rounds
  /// after the first allocate nothing.
  template <class Observe, class Solve>
  std::size_t round(std::size_t n, Observe&& observe, Solve&& solve) {
    if (states_.size() != n) {
      // Sized once, not grown: growth by doubling would briefly hold two
      // copies of a large fleet's states.
      states_.resize(n);
      x_.resize(2 * n);
      for (std::size_t k = 0; k < n; ++k) states_[k] = observe(k);
      solve(std::span<const core::DeviceSlotState>(states_),
            std::span<double>(x_.data(), n));
      all_solved_ = true;
      return n;
    }
    all_solved_ = false;
    double* const miss = x_.data() + n;
    std::size_t m = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const core::DeviceSlotState s = observe(k);
      if (slot_state_bits_equal(states_[k], s)) continue;
      if (k != m) {
        // Slot k still holds device k's entry (earlier swaps touched only
        // slots below m < k and earlier misses' slots), and that entry is
        // about to be replaced: park slot m's entry there instead.
        states_[k] = states_[m];
        x_[k] = x_[m];
      }
      states_[m] = s;
      miss[m] = static_cast<double>(k);
      ++m;
    }
    misses_ = m;
    if (m == 0) return 0;
    solve(std::span<const core::DeviceSlotState>(states_.data(), m),
          std::span<double>(x_.data(), m));
    for (std::size_t j = m; j-- > 0;) {
      const auto k = static_cast<std::size_t>(miss[j]);
      // k_j == j means the first j + 1 devices all missed: nothing below
      // was moved.
      if (k == j) break;
      std::swap(states_[j], states_[k]);
      std::swap(x_[j], x_[k]);
    }
    return m;
  }

  const core::DeviceSlotState& state(std::size_t k) const {
    return states_[k];
  }
  double x(std::size_t k) const { return x_[k]; }

  /// Walks the last round's solved devices in device order: call
  /// solved(k) once per device with ascending k, starting from a fresh
  /// cursor.
  class SolvedCursor {
   public:
    explicit SolvedCursor(const SlotMemo& memo) : memo_(memo) {}
    bool solved(std::size_t k) {
      if (memo_.all_solved_) return true;
      if (next_ < memo_.misses_ &&
          memo_.x_[memo_.states_.size() + next_] == static_cast<double>(k)) {
        ++next_;
        return true;
      }
      return false;
    }

   private:
    const SlotMemo& memo_;
    std::size_t next_ = 0;
  };

 private:
  std::vector<core::DeviceSlotState> states_;  ///< per device: last state
  /// [0, n): per device, its decision. [n, n + misses_): the last round's
  /// misses in device order, as exact integers, so the miss list shares
  /// the decisions' allocation.
  std::vector<double> x_;
  std::size_t misses_ = 0;
  bool all_solved_ = false;
};

}  // namespace leime::policy
