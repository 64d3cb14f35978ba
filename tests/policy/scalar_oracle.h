// Test-only oracle: the scalar eq. 19 minimiser and eq. 20 bisection as
// they stood before the lane-batched kernel replaced them in
// core/lyapunov.cpp, kept verbatim except that every objective (eq. 19) or
// gap (eq. 20) evaluation goes through a counting lambda. The differential
// suite in policy_diff_test.cpp checks the kernel against these bit for
// bit, and checks that it spends exactly as many evaluations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/lyapunov.h"

namespace leime::policy::oracle {

inline double minimize_drift_plus_penalty(const core::DeviceSlotState& s,
                                          std::uint64_t* evaluations) {
  auto objective = [&](double x) {
    ++*evaluations;
    return core::drift_plus_penalty(s, x);
  };
  s.validate();
  const core::Interval iv = core::feasible_offload_interval(s);
  if (iv.hi <= iv.lo) return iv.lo;

  constexpr int kGrid = 64;
  double best_x = iv.lo;
  double best_v = std::numeric_limits<double>::infinity();
  for (int g = 0; g <= kGrid; ++g) {
    const double x = iv.lo + (iv.hi - iv.lo) * g / kGrid;
    const double v = objective(x);
    if (v < best_v) {
      best_v = v;
      best_x = x;
    }
  }
  const double step = (iv.hi - iv.lo) / kGrid;
  double lo = std::max(iv.lo, best_x - step);
  double hi = std::min(iv.hi, best_x + step);
  constexpr double kPhi = 0.6180339887498949;
  for (int it = 0; it < 48 && hi - lo > 1e-9; ++it) {
    const double x1 = hi - kPhi * (hi - lo);
    const double x2 = lo + kPhi * (hi - lo);
    if (objective(x1) <= objective(x2))
      hi = x2;
    else
      lo = x1;
  }
  const double refined = 0.5 * (lo + hi);
  return objective(refined) < best_v ? refined : best_x;
}

inline double balance_offload_ratio(const core::DeviceSlotState& s,
                                    std::uint64_t* evaluations) {
  s.validate();
  const core::Interval iv = core::feasible_offload_interval(s);
  if (iv.hi <= iv.lo) return iv.lo;
  auto gap = [&](double x) {
    ++*evaluations;
    return core::device_slot_cost(s, x) - core::edge_slot_cost(s, x);
  };
  double lo = iv.lo;
  double hi = iv.hi;
  const double g_lo = gap(lo);
  const double g_hi = gap(hi);
  if (g_lo <= 0.0) return lo;
  if (g_hi >= 0.0) return hi;
  for (int it = 0; it < 60 && hi - lo > 1e-9; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (gap(mid) > 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace leime::policy::oracle
