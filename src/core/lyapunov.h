// Lyapunov drift-plus-penalty machinery for online offloading
// (paper §III-D, equations 8-19).
//
// Per device and per slot, given queue backlogs (Q_i, H_i) and the slot's
// arrivals, the offloading ratio x ∈ [0,1] splits first-block work between
// the device and its edge share. This header exposes the slot cost terms
// (eqs. 12-14), the drift-plus-penalty objective (eq. 19), the bandwidth
// feasibility interval (eq. 8), and two solvers: exact minimisation and
// the paper's decentralized T_d = T_e balance rule (eq. 20). The solvers
// are batched: one call decides a whole fleet's slot in vector lanes, and
// the single-state overloads are batches of one (DESIGN.md §12.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/partition.h"

namespace leime::core {

/// Lyapunov control parameters. V trades queue backlog for delay
/// (Theorem 3's O(B/V) gap); tau is the slot length in seconds.
struct LyapunovConfig {
  double V = 50.0;
  double tau = 1.0;
};

/// Everything one device needs to choose x for one slot.
struct DeviceSlotState {
  const MeDnnPartition* partition = nullptr;  ///< ME-DNN deployed on the fleet
  double device_flops = 0.0;       ///< F_i^d
  double edge_share_flops = 0.0;   ///< p_i * F^e
  double bandwidth = 0.0;          ///< B_i^e, bytes/s
  double latency = 0.0;            ///< L_i^e, seconds
  double queue_device = 0.0;       ///< Q_i(t), tasks
  double queue_edge = 0.0;         ///< H_i(t), tasks
  double arrivals = 0.0;           ///< M_i(t), tasks this slot
  /// Bytes already accepted by the uplink but not yet serialized. The
  /// eq. 8 budget is reduced by this backlog so consecutive slots cannot
  /// oversubscribe the link (a runtime refinement over the paper's
  /// memoryless per-slot constraint).
  double uplink_backlog_bytes = 0.0;
  /// False while the edge tier is unreachable for this device (edge server
  /// crashed or uplink in outage; fed by the fault layer, sim/faults.h).
  /// Policies wrapped with FallbackPolicy degrade to x = 0 when false.
  bool edge_available = true;
  LyapunovConfig config;

  /// Throws std::invalid_argument on inconsistent values.
  void validate() const;
};

/// F_{i,1}^e (eq. 9): the fraction of the device's edge share serving
/// first-block tasks, given offloading ratio x. Zero when x == 0.
double edge_first_block_flops(const DeviceSlotState& s, double x);

/// Device service rate b_i = F_i^d * tau / mu1 (tasks per slot).
double device_service_tasks(const DeviceSlotState& s);

/// Edge service rate c_i(x) = F_{i,1}^e * tau / mu1 (tasks per slot).
double edge_service_tasks(const DeviceSlotState& s, double x);

/// T_i^d(t) (eq. 12): waiting + processing + forwarding cost of the tasks
/// kept on the device this slot.
double device_slot_cost(const DeviceSlotState& s, double x);

/// T_i^e(t) (eq. 13): upload + waiting + processing cost of the tasks
/// offloaded this slot.
double edge_slot_cost(const DeviceSlotState& s, double x);

/// Y_i(t) = T_i^d + T_i^e (eq. 14).
double slot_cost(const DeviceSlotState& s, double x);

/// Drift-plus-penalty objective (eq. 19):
/// V·Y_i + Q_i·(A_i − b_i) + H_i·(D_i − c_i).
double drift_plus_penalty(const DeviceSlotState& s, double x);

/// The x-interval satisfying the uplink budget (eq. 8):
/// D·d0 + A·(1−σ1)·d1 <= B·(τ − L), intersected with [0,1]. When even the
/// least-demanding x violates the budget, returns the degenerate interval
/// at that x (the controller then least-violates).
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};
Interval feasible_offload_interval(const DeviceSlotState& s);

/// States the batched solvers keep in flight at once: each batch is solved
/// in blocks of this many states, interleaving their solves.
inline constexpr std::size_t kStatesInFlight = 8;

/// out[i] = drift_plus_penalty(states[i], xs[i]), evaluated two states per
/// vector by the batched solvers' lane code; bit-identical to the scalar
/// function. Throws std::invalid_argument unless all sizes match.
void drift_plus_penalty(std::span<const DeviceSlotState> states,
                        std::span<const double> xs, std::span<double> out);

/// Exact per-slot decision: minimises drift_plus_penalty over the feasible
/// interval (65-point grid, then golden-section refinement around the best
/// grid point; robust to the objective's piecewise form). Validates each
/// state in order, writes out[i] for states[i], and adds the number of
/// objective evaluations spent to *evaluations when given. Every output is
/// bit-for-bit the value a state-at-a-time solve returns. Throws
/// std::invalid_argument on an invalid state or a size mismatch.
void minimize_drift_plus_penalty(std::span<const DeviceSlotState> states,
                                 std::span<double> out,
                                 std::uint64_t* evaluations = nullptr);
double minimize_drift_plus_penalty(const DeviceSlotState& s);

/// The paper's decentralized rule: the x equalising T_i^d(x) = T_i^e(x)
/// (eq. 20's equality condition) by bisection, clipped to the feasible
/// interval. Falls back to the interval endpoint when no crossing exists.
/// Batch contract as minimize_drift_plus_penalty; *evaluations counts
/// T_i^d − T_i^e evaluations.
void balance_offload_ratio(std::span<const DeviceSlotState> states,
                           std::span<double> out,
                           std::uint64_t* evaluations = nullptr);
double balance_offload_ratio(const DeviceSlotState& s);

}  // namespace leime::core
