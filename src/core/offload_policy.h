// Offloading policies: the LEIME online policy and the classical baselines
// evaluated in Fig. 10(b) (device-only, edge-only, capability-based) plus a
// fixed-ratio policy for the Fig. 3 sweeps.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "core/lyapunov.h"

namespace leime::core {

/// Per-slot offloading decision maker. Stateless; all dynamics arrive via
/// DeviceSlotState, so one instance can serve many devices.
///
/// Purity is load-bearing: decide() must be a pure function of the state's
/// bits. The simulator reuses a device's previous decision whenever its
/// slot state is bit-identical to the previous slot's (policy/slot_memo.h).
/// A policy with hidden state — a counter, an RNG, a learned table updated
/// per call — would make that memo return stale ratios and break the
/// simulator's results.
class OffloadPolicy {
 public:
  virtual ~OffloadPolicy() = default;

  /// Returns the offloading ratio x ∈ [0,1] for this device and slot.
  virtual double decide(const DeviceSlotState& state) const = 0;

  /// out[i] = decide(states[i]) bit for bit, for a whole slot's fleet at
  /// once. The default loops over decide(); the eq. 19/20 policies solve
  /// the batch in vector lanes. Throws std::invalid_argument on a size
  /// mismatch, and whatever decide() throws for the first bad state.
  virtual void decide_batch(std::span<const DeviceSlotState> states,
                            std::span<double> out) const;

  virtual std::string name() const = 0;
};

/// LEIME: exact minimisation of the drift-plus-penalty objective (P1').
class LeimePolicy final : public OffloadPolicy {
 public:
  double decide(const DeviceSlotState& state) const override;
  void decide_batch(std::span<const DeviceSlotState> states,
                    std::span<double> out) const override;
  std::string name() const override { return "LEIME"; }
};

/// LEIME's decentralized closed rule: balance T_i^d = T_i^e (eq. 20).
class BalancePolicy final : public OffloadPolicy {
 public:
  double decide(const DeviceSlotState& state) const override;
  void decide_batch(std::span<const DeviceSlotState> states,
                    std::span<double> out) const override;
  std::string name() const override { return "LEIME-balance"; }
};

/// Everything runs on the device (x = 0).
class DeviceOnlyPolicy final : public OffloadPolicy {
 public:
  double decide(const DeviceSlotState& state) const override;
  std::string name() const override { return "D-only"; }
};

/// Everything is offloaded (x = 1).
class EdgeOnlyPolicy final : public OffloadPolicy {
 public:
  double decide(const DeviceSlotState& state) const override;
  std::string name() const override { return "E-only"; }
};

/// Static split proportional to compute capability:
/// x = p_i·F^e / (F_i^d + p_i·F^e).
class CapabilityPolicy final : public OffloadPolicy {
 public:
  double decide(const DeviceSlotState& state) const override;
  std::string name() const override { return "cap_based"; }
};

/// Constant ratio (used by the Fig. 3 offload-ratio sweeps).
class FixedRatioPolicy final : public OffloadPolicy {
 public:
  explicit FixedRatioPolicy(double ratio);
  double decide(const DeviceSlotState& state) const override;
  std::string name() const override;

 private:
  double ratio_;
};

/// Graceful-degradation decorator: device-only (x = 0) while the edge tier
/// is marked unreachable (DeviceSlotState::edge_available == false),
/// deferring to the wrapped policy otherwise. Spelled "<base>+fallback" in
/// make_policy, e.g. "LEIME+fallback".
class FallbackPolicy final : public OffloadPolicy {
 public:
  explicit FallbackPolicy(std::unique_ptr<OffloadPolicy> inner);
  double decide(const DeviceSlotState& state) const override;
  /// Hands each maximal run of edge-available states to the inner policy
  /// as one batch and writes 0.0 elsewhere (never validating those).
  void decide_batch(std::span<const DeviceSlotState> states,
                    std::span<double> out) const override;
  std::string name() const override { return inner_->name() + "+fallback"; }

 private:
  std::unique_ptr<OffloadPolicy> inner_;
};

/// Convenience factory for the Fig. 10(b) comparison set. A "+fallback"
/// suffix wraps any base policy in FallbackPolicy.
std::unique_ptr<OffloadPolicy> make_policy(const std::string& name);

}  // namespace leime::core
