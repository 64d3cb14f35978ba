#include "core/offload_policy.h"

#include <sstream>
#include <stdexcept>

namespace leime::core {

void OffloadPolicy::decide_batch(std::span<const DeviceSlotState> states,
                                 std::span<double> out) const {
  if (out.size() != states.size())
    throw std::invalid_argument("OffloadPolicy: batch size mismatch");
  for (std::size_t i = 0; i < states.size(); ++i) out[i] = decide(states[i]);
}

double LeimePolicy::decide(const DeviceSlotState& state) const {
  return minimize_drift_plus_penalty(state);
}

void LeimePolicy::decide_batch(std::span<const DeviceSlotState> states,
                               std::span<double> out) const {
  minimize_drift_plus_penalty(states, out);
}

double BalancePolicy::decide(const DeviceSlotState& state) const {
  return balance_offload_ratio(state);
}

void BalancePolicy::decide_batch(std::span<const DeviceSlotState> states,
                                 std::span<double> out) const {
  balance_offload_ratio(states, out);
}

double DeviceOnlyPolicy::decide(const DeviceSlotState&) const { return 0.0; }

double EdgeOnlyPolicy::decide(const DeviceSlotState&) const { return 1.0; }

double CapabilityPolicy::decide(const DeviceSlotState& state) const {
  const double total = state.device_flops + state.edge_share_flops;
  return total > 0.0 ? state.edge_share_flops / total : 0.0;
}

FixedRatioPolicy::FixedRatioPolicy(double ratio) : ratio_(ratio) {
  if (ratio < 0.0 || ratio > 1.0)
    throw std::invalid_argument("FixedRatioPolicy: ratio outside [0,1]");
}

double FixedRatioPolicy::decide(const DeviceSlotState&) const {
  return ratio_;
}

std::string FixedRatioPolicy::name() const {
  std::ostringstream os;
  os << "fixed(" << ratio_ << ")";
  return os.str();
}

FallbackPolicy::FallbackPolicy(std::unique_ptr<OffloadPolicy> inner)
    : inner_(std::move(inner)) {
  if (!inner_)
    throw std::invalid_argument("FallbackPolicy: null inner policy");
}

double FallbackPolicy::decide(const DeviceSlotState& state) const {
  if (!state.edge_available) return 0.0;
  return inner_->decide(state);
}

void FallbackPolicy::decide_batch(std::span<const DeviceSlotState> states,
                                  std::span<double> out) const {
  if (out.size() != states.size())
    throw std::invalid_argument("FallbackPolicy: batch size mismatch");
  std::size_t i = 0;
  while (i < states.size()) {
    if (!states[i].edge_available) {
      out[i++] = 0.0;
      continue;
    }
    std::size_t end = i + 1;
    while (end < states.size() && states[end].edge_available) ++end;
    inner_->decide_batch(states.subspan(i, end - i), out.subspan(i, end - i));
    i = end;
  }
}

std::unique_ptr<OffloadPolicy> make_policy(const std::string& name) {
  constexpr const char* kSuffix = "+fallback";
  constexpr std::size_t kSuffixLen = 9;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0)
    return std::make_unique<FallbackPolicy>(
        make_policy(name.substr(0, name.size() - kSuffixLen)));
  if (name == "LEIME") return std::make_unique<LeimePolicy>();
  if (name == "LEIME-balance") return std::make_unique<BalancePolicy>();
  if (name == "D-only") return std::make_unique<DeviceOnlyPolicy>();
  if (name == "E-only") return std::make_unique<EdgeOnlyPolicy>();
  if (name == "cap_based") return std::make_unique<CapabilityPolicy>();
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

}  // namespace leime::core
