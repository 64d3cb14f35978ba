#include "core/lyapunov.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace leime::core {

void DeviceSlotState::validate() const {
  if (partition == nullptr)
    throw std::invalid_argument("DeviceSlotState: null partition");
  if (device_flops <= 0.0 || edge_share_flops <= 0.0)
    throw std::invalid_argument("DeviceSlotState: non-positive FLOPS");
  if (bandwidth <= 0.0 || latency < 0.0)
    throw std::invalid_argument("DeviceSlotState: bad link parameters");
  if (queue_device < 0.0 || queue_edge < 0.0 || arrivals < 0.0)
    throw std::invalid_argument("DeviceSlotState: negative queue/arrivals");
  if (config.V < 0.0 || config.tau <= 0.0)
    throw std::invalid_argument("DeviceSlotState: bad Lyapunov config");
  if (config.tau <= latency)
    throw std::invalid_argument(
        "DeviceSlotState: slot shorter than link latency");
}

double edge_first_block_flops(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double denom = x * p.mu1 + (1.0 - p.sigma1) * p.mu2;
  if (denom <= 0.0) return 0.0;  // x == 0 and nothing survives to block 2
  return x * p.mu1 * s.edge_share_flops / denom;
}

double device_service_tasks(const DeviceSlotState& s) {
  return s.device_flops * s.config.tau / s.partition->mu1;
}

double edge_service_tasks(const DeviceSlotState& s, double x) {
  return edge_first_block_flops(s, x) * s.config.tau / s.partition->mu1;
}

double device_slot_cost(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double a = (1.0 - x) * s.arrivals;  // A_i(t)
  if (a <= 0.0) return 0.0;
  const double per_task = p.mu1 / s.device_flops;
  // C_{i,1}^d: drain the backlog first.
  const double wait_backlog = a * s.queue_device * per_task;
  // C_{i,2}^d: own processing + intra-slot queueing of this slot's batch.
  const double process = a * per_task + 0.5 * a * (a - 1.0) * per_task;
  // C_{i,3}^d: survivors of the First-exit upload their intermediate tensor.
  const double forward =
      (1.0 - p.sigma1) * a * (p.d1 / s.bandwidth + s.latency);
  return wait_backlog + std::max(process, a * per_task) + forward;
}

double edge_slot_cost(const DeviceSlotState& s, double x) {
  const auto& p = *s.partition;
  const double d = x * s.arrivals;  // D_i(t)
  if (d <= 0.0) return 0.0;
  const double f_e1 = edge_first_block_flops(s, x);
  LEIME_CHECK(f_e1 > 0.0);
  const double per_task = p.mu1 / f_e1;
  // C_{i,1}^e: raw inputs cross the uplink.
  const double upload = d * (p.d0 / s.bandwidth + s.latency);
  // C_{i,2}^e: drain this device's edge backlog.
  const double wait_backlog = d * s.queue_edge * per_task;
  // C_{i,3}^e: processing + intra-slot queueing.
  const double process = d * per_task + 0.5 * d * (d - 1.0) * per_task;
  return upload + wait_backlog + std::max(process, d * per_task);
}

double slot_cost(const DeviceSlotState& s, double x) {
  return device_slot_cost(s, x) + edge_slot_cost(s, x);
}

double drift_plus_penalty(const DeviceSlotState& s, double x) {
  const double a = (1.0 - x) * s.arrivals;
  const double d = x * s.arrivals;
  return s.config.V * slot_cost(s, x) +
         s.queue_device * (a - device_service_tasks(s)) +
         s.queue_edge * (d - edge_service_tasks(s, x));
}

Interval feasible_offload_interval(const DeviceSlotState& s) {
  const auto& p = *s.partition;
  if (s.arrivals <= 0.0) return {0.0, 1.0};
  // Eq. 8: x·M·d0 + (1−x)·M·(1−σ1)·d1 <= B(τ − L), with the budget reduced
  // by bytes the uplink still owes from previous slots.
  const double budget = std::max(
      0.0, s.bandwidth * (s.config.tau - s.latency) - s.uplink_backlog_bytes);
  const double base = s.arrivals * (1.0 - p.sigma1) * p.d1;   // x = 0 usage
  const double slope = s.arrivals * (p.d0 - (1.0 - p.sigma1) * p.d1);
  if (slope > 0.0) {
    // Offloading raw inputs costs more than forwarding survivors: cap x.
    const double hi = (budget - base) / slope;
    if (hi <= 0.0) return {0.0, 0.0};  // least-violating endpoint
    return {0.0, std::min(1.0, hi)};
  }
  if (slope < 0.0) {
    // Raw inputs are cheaper than intermediate tensors: floor x.
    const double lo = (budget - base) / slope;  // slope < 0 flips direction
    if (lo >= 1.0) return {1.0, 1.0};
    return {std::max(0.0, lo), 1.0};
  }
  return {0.0, 1.0};
}

// ------------------------------------------------------------------------
// Lane-batched eq. 19 / eq. 20 kernel (DESIGN.md §12.1).
//
// Every lane replays, operation for operation, the scalar IEEE sequence of
// drift_plus_penalty / device_slot_cost / edge_slot_cost above: the same
// products in the same association order, branches replaced by bitwise
// selects of both arms, and no contraction into fused multiply-adds (the
// build pins -ffp-contract=off). Per-state invariants are hoisted once per
// state; they are the very expressions the scalar code recomputes on every
// call, so hoisting them changes no bit. A lane therefore returns the
// scalar result bit for bit, and the solvers below make the scalar
// solvers' decisions in the scalar solvers' order.
namespace {

/// Two doubles per vector: SSE2 on x86-64, NEON on AArch64.
using v2d = double __attribute__((vector_size(16)));
using v2m = decltype(v2d{} < v2d{});

v2d splat(double v) { return v2d{v, v}; }

/// Per-element `mask ? if_true : if_false` with both arms evaluated.
v2d select(v2m mask, v2d if_true, v2d if_false) {
  return std::bit_cast<v2d>((mask & std::bit_cast<v2m>(if_true)) |
                            (~mask & std::bit_cast<v2m>(if_false)));
}

/// std::max(p, q), which is `p < q ? q : p`.
v2d max_of(v2d p, v2d q) { return select(p < q, q, p); }

bool any(v2m mask) { return (mask[0] | mask[1]) != 0; }

/// One state's eq. 9/12/13/19 invariants, one state per vector slot.
struct Lane {
  v2d arrivals, queue_device, queue_edge, V, tau, mu1, edge_flops;
  v2d survive1;          ///< 1 − σ1
  v2d device_per_task;   ///< μ1 / F_d
  v2d forward_per_task;  ///< d1/B + L
  v2d upload_per_task;   ///< d0/B + L
  v2d device_service;    ///< F_d·τ/μ1 (b_i)
  v2d block2_weight;     ///< (1 − σ1)·μ2
};

constexpr v2d Lane::*kLaneFields[] = {
    &Lane::arrivals,         &Lane::queue_device,     &Lane::queue_edge,
    &Lane::V,                &Lane::tau,              &Lane::mu1,
    &Lane::edge_flops,       &Lane::survive1,         &Lane::device_per_task,
    &Lane::forward_per_task, &Lane::upload_per_task,  &Lane::device_service,
    &Lane::block2_weight};

Lane make_lane(const DeviceSlotState& s) {
  const auto& p = *s.partition;
  Lane l;
  l.arrivals = splat(s.arrivals);
  l.queue_device = splat(s.queue_device);
  l.queue_edge = splat(s.queue_edge);
  l.V = splat(s.config.V);
  l.tau = splat(s.config.tau);
  l.mu1 = splat(p.mu1);
  l.edge_flops = splat(s.edge_share_flops);
  l.survive1 = splat(1.0 - p.sigma1);
  l.device_per_task = splat(p.mu1 / s.device_flops);
  l.forward_per_task = splat(p.d1 / s.bandwidth + s.latency);
  l.upload_per_task = splat(p.d0 / s.bandwidth + s.latency);
  l.device_service = splat(s.device_flops * s.config.tau / p.mu1);
  l.block2_weight = splat((1.0 - p.sigma1) * p.mu2);
  return l;
}

/// Two single-state lanes in one: slot 0 from `a`, slot 1 from `b`.
Lane merge(const Lane& a, const Lane& b) {
  Lane m;
  for (const auto field : kLaneFields)
    m.*field = v2d{(a.*field)[0], (b.*field)[0]};
  return m;
}

struct SlotCosts {
  v2d a, d;    ///< A_i(t), D_i(t)
  v2d device;  ///< T_i^d (eq. 12)
  v2d edge;    ///< T_i^e (eq. 13)
  v2d f_e1;    ///< F_{i,1}^e (eq. 9)
};

/// LEIME_CHECK(f_e1 > 0) failing in a lane; kept out of line so the lane
/// code stays small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void f_e1_check_failed() {
  util::detail::check_failed("f_e1 > 0.0", __FILE__, __LINE__, "");
}

[[gnu::always_inline]] inline SlotCosts slot_costs(const Lane& l, v2d x) {
  const v2d zero = splat(0.0);
  SlotCosts c;
  c.a = (1.0 - x) * l.arrivals;
  c.d = x * l.arrivals;
  // Eq. 12, as device_slot_cost.
  const v2d a = c.a;
  const v2d own = a * l.device_per_task;
  const v2d device_process = own + 0.5 * a * (a - 1.0) * l.device_per_task;
  const v2d device = a * l.queue_device * l.device_per_task +
                     max_of(device_process, own) +
                     l.survive1 * a * l.forward_per_task;
  c.device = select(a <= 0.0, zero, device);
  // Eq. 9, as edge_first_block_flops; computed once per probe and shared
  // by eq. 13 and the eq. 19 service term.
  const v2d offloaded_flops = x * l.mu1;
  const v2d denom = offloaded_flops + l.block2_weight;
  c.f_e1 = select(denom <= 0.0, zero, offloaded_flops * l.edge_flops / denom);
  // Eq. 13, as edge_slot_cost.
  const v2d d = c.d;
  const v2m idle = d <= 0.0;
  if (any(~idle & ~(c.f_e1 > 0.0))) [[unlikely]]
    f_e1_check_failed();
  const v2d per_task = l.mu1 / c.f_e1;
  const v2d edge_own = d * per_task;
  const v2d edge_process = edge_own + 0.5 * d * (d - 1.0) * per_task;
  const v2d edge = d * l.upload_per_task + d * l.queue_edge * per_task +
                   max_of(edge_process, edge_own);
  c.edge = select(idle, zero, edge);
  return c;
}

/// Eq. 19, as drift_plus_penalty.
[[gnu::always_inline]] inline v2d objective(const Lane& l, v2d x) {
  const SlotCosts c = slot_costs(l, x);
  return l.V * (c.device + c.edge) +
         l.queue_device * (c.a - l.device_service) +
         l.queue_edge * (c.d - c.f_e1 * l.tau / l.mu1);
}

/// Eq. 20's T_i^d − T_i^e.
[[gnu::always_inline]] inline v2d cost_gap(const Lane& l, v2d x) {
  const SlotCosts c = slot_costs(l, x);
  return c.device - c.edge;
}

/// Enough independent dependency chains to keep the vector units busy,
/// few enough that a block's working set stays in L1.
constexpr std::size_t kInFlight = kStatesInFlight;

/// The non-degenerate states of one block, with their feasible intervals.
struct Block {
  Lane lane[kInFlight];
  Interval iv[kInFlight];
  std::size_t at[kInFlight];  ///< index of the state within the block
  std::size_t size = 0;
};

/// Validates each state in order and writes the decision of every state
/// whose feasible interval is degenerate; the others join the block.
void open_block(const DeviceSlotState* states, double* out, std::size_t n,
                Block& b) {
  b.size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    states[i].validate();
    const Interval iv = feasible_offload_interval(states[i]);
    if (iv.hi <= iv.lo) {
      out[i] = iv.lo;
      continue;
    }
    b.lane[b.size] = make_lane(states[i]);
    b.iv[b.size] = iv;
    b.at[b.size] = i;
    ++b.size;
  }
}

constexpr int kGrid = 64;
constexpr int kGoldenSteps = 48;
constexpr int kBisectionSteps = 60;
constexpr double kPhi = 0.6180339887498949;
constexpr double kTolerance = 1e-9;

/// Eq. 19 over up to kInFlight states: a 65-point grid (two points per
/// vector), golden-section refinement around the best grid point (both
/// probes of one step in one vector), then the refined point.
std::uint64_t minimize_block(const DeviceSlotState* states, double* out,
                             std::size_t n) {
  Block b;
  open_block(states, out, n, b);
  // best[k] = {objective, x} of the best grid point so far.
  v2d best[kInFlight];
  for (std::size_t k = 0; k < b.size; ++k)
    best[k] = v2d{std::numeric_limits<double>::infinity(), b.iv[k].lo};
  for (int g = 0; g <= kGrid; g += 2) {
    const bool pair = g < kGrid;
    const v2d gs = {static_cast<double>(g),
                    static_cast<double>(pair ? g + 1 : g)};
    for (std::size_t k = 0; k < b.size; ++k) {
      const Interval& iv = b.iv[k];
      const v2d x = iv.lo + (iv.hi - iv.lo) * gs / static_cast<double>(kGrid);
      const v2d v = objective(b.lane[k], x);
      // Grid order: point g, then point g + 1 (strict <, first wins).
      best[k] = select(splat(v[0]) < splat(best[k][0]), v2d{v[0], x[0]},
                       best[k]);
      if (pair)
        best[k] = select(splat(v[1]) < splat(best[k][0]), v2d{v[1], x[1]},
                         best[k]);
    }
  }
  std::uint64_t evaluations = b.size * (kGrid + 2);  // grid + refined

  // bracket[k] = {lo, hi} of the golden-section search.
  v2d bracket[kInFlight];
  std::size_t active[kInFlight];
  std::size_t n_active = b.size;
  for (std::size_t k = 0; k < b.size; ++k) {
    const Interval& iv = b.iv[k];
    const double step = (iv.hi - iv.lo) / kGrid;
    bracket[k] = v2d{std::max(iv.lo, best[k][1] - step),
                     std::min(iv.hi, best[k][1] + step)};
    active[k] = k;
  }
  for (int it = 0; it < kGoldenSteps && n_active > 0; ++it) {
    std::size_t kept = 0;
    for (std::size_t j = 0; j < n_active; ++j) {
      const std::size_t k = active[j];
      const double lo = bracket[k][0], hi = bracket[k][1];
      if (!(hi - lo > kTolerance)) continue;  // retired
      active[kept++] = k;
      const v2d x = {hi - kPhi * (hi - lo), lo + kPhi * (hi - lo)};
      const v2d v = objective(b.lane[k], x);
      // A branch, not a select: speculating past it is what lets a lone
      // state's steps overlap, and it costs interleaved states nothing.
      if (v[0] <= v[1])
        bracket[k][1] = x[1];
      else
        bracket[k][0] = x[0];
    }
    evaluations += 2 * kept;
    n_active = kept;
  }

  // The refined points, two states per vector.
  for (std::size_t k = 0; k < b.size; k += 2) {
    const std::size_t k2 = std::min(k + 1, b.size - 1);
    const v2d refined = {0.5 * (bracket[k][0] + bracket[k][1]),
                         0.5 * (bracket[k2][0] + bracket[k2][1])};
    const v2d v = objective(
        k2 == k ? b.lane[k] : merge(b.lane[k], b.lane[k2]), refined);
    out[b.at[k]] = v[0] < best[k][0] ? refined[0] : best[k][1];
    if (k2 != k)
      out[b.at[k2]] = v[1] < best[k2][0] ? refined[1] : best[k2][1];
  }
  return evaluations;
}

/// Eq. 20 bisection for the only bisecting state of a block. Its chain of
/// dependent steps is the whole cost, so each vector round takes two
/// steps: the step's midpoint in slot 0, and both possible next midpoints
/// (one per outcome) in slot 1 and a second vector, evaluated in parallel.
/// The discarded probe is not counted.
std::uint64_t bisect_alone(const Block& b, std::size_t k, double* out) {
  const Lane& lane = b.lane[k];
  double lo = b.iv[k].lo, hi = b.iv[k].hi;
  std::uint64_t evaluations = 0;
  for (int it = 0; it < kBisectionSteps && hi - lo > kTolerance; it += 2) {
    const double mid = 0.5 * (lo + hi);
    const double next_if_above = 0.5 * (mid + hi);  // lo = mid
    const double next_if_below = 0.5 * (lo + mid);  // hi = mid
    const v2d first = cost_gap(lane, v2d{mid, next_if_above});
    const v2d second = cost_gap(lane, splat(next_if_below));
    const bool above = first[0] > 0.0;
    (above ? lo : hi) = mid;
    ++evaluations;
    if (it + 1 < kBisectionSteps && hi - lo > kTolerance) {
      const double next = above ? next_if_above : next_if_below;
      const double gap = above ? first[1] : second[0];
      (gap > 0.0 ? lo : hi) = next;
      ++evaluations;
    }
  }
  out[b.at[k]] = 0.5 * (lo + hi);
  return evaluations;
}

/// Eq. 20 over up to kInFlight states: both interval ends of one state in
/// one vector, then bisection with two states per vector.
std::uint64_t balance_block(const DeviceSlotState* states, double* out,
                            std::size_t n) {
  Block b;
  open_block(states, out, n, b);
  std::uint64_t evaluations = 2 * b.size;
  std::size_t bisect[kInFlight];
  std::size_t n_bisect = 0;
  for (std::size_t k = 0; k < b.size; ++k) {
    const Interval& iv = b.iv[k];
    const v2d gap = cost_gap(b.lane[k], v2d{iv.lo, iv.hi});
    if (gap[0] <= 0.0)
      out[b.at[k]] = iv.lo;  // device side already cheaper everywhere
    else if (gap[1] >= 0.0)
      out[b.at[k]] = iv.hi;  // edge side cheaper even at full offload
    else
      bisect[n_bisect++] = k;
  }

  if (n_bisect == 1) return evaluations + bisect_alone(b, bisect[0], out);

  // Bisecting states in pairs; a lone last state fills both slots and
  // only its first slot counts. Updates are selects: a mispredicted branch
  // would throw away the other pairs' work in flight.
  struct Pair {
    Lane lane;
    v2d lo, hi;
    v2m counted;
  } pairs[(kInFlight + 1) / 2];
  const std::size_t n_pairs = (n_bisect + 1) / 2;
  for (std::size_t p = 0; p < n_pairs; ++p) {
    const std::size_t k0 = bisect[2 * p];
    const bool lone = 2 * p + 1 == n_bisect;
    const std::size_t k1 = lone ? k0 : bisect[2 * p + 1];
    pairs[p].lane = lone ? b.lane[k0] : merge(b.lane[k0], b.lane[k1]);
    pairs[p].lo = v2d{b.iv[k0].lo, b.iv[k1].lo};
    pairs[p].hi = v2d{b.iv[k0].hi, b.iv[k1].hi};
    pairs[p].counted = v2m{-1, lone ? 0 : -1};
  }
  bool running = n_pairs > 0;
  for (int it = 0; it < kBisectionSteps && running; ++it) {
    running = false;
    for (std::size_t p = 0; p < n_pairs; ++p) {
      Pair& q = pairs[p];
      const v2m live = q.hi - q.lo > kTolerance;
      if (!any(live)) continue;
      running = true;
      const v2d mid = 0.5 * (q.lo + q.hi);
      const v2m above = cost_gap(q.lane, mid) > 0.0;
      q.lo = select(live & above, mid, q.lo);
      q.hi = select(live & ~above, mid, q.hi);
      const v2m counted = live & q.counted;  // lanes are 0 or -1
      evaluations += static_cast<std::uint64_t>(-(counted[0] + counted[1]));
    }
  }
  for (std::size_t j = 0; j < n_bisect; ++j) {
    const Pair& q = pairs[j / 2];
    out[b.at[bisect[j]]] = 0.5 * (q.lo[j % 2] + q.hi[j % 2]);
  }
  return evaluations;
}

using BlockSolver = std::uint64_t (*)(const DeviceSlotState*, double*,
                                      std::size_t);

void solve_blocks(BlockSolver solve, std::span<const DeviceSlotState> states,
                  std::span<double> out, std::uint64_t* evaluations) {
  if (out.size() != states.size())
    throw std::invalid_argument("offload batch: output size mismatch");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < states.size(); i += kInFlight)
    total += solve(states.data() + i, out.data() + i,
                   std::min(kInFlight, states.size() - i));
  if (evaluations) *evaluations += total;
}

}  // namespace

void drift_plus_penalty(std::span<const DeviceSlotState> states,
                        std::span<const double> xs, std::span<double> out) {
  if (xs.size() != states.size() || out.size() != states.size())
    throw std::invalid_argument("drift_plus_penalty: batch size mismatch");
  for (std::size_t i = 0; i < states.size(); i += 2) {
    const std::size_t j = std::min(i + 1, states.size() - 1);
    const Lane l = make_lane(states[i]);
    const v2d v = objective(j == i ? l : merge(l, make_lane(states[j])),
                            v2d{xs[i], xs[j]});
    out[i] = v[0];
    out[j] = v[1];
  }
}

void minimize_drift_plus_penalty(std::span<const DeviceSlotState> states,
                                 std::span<double> out,
                                 std::uint64_t* evaluations) {
  solve_blocks(minimize_block, states, out, evaluations);
}

void balance_offload_ratio(std::span<const DeviceSlotState> states,
                           std::span<double> out,
                           std::uint64_t* evaluations) {
  solve_blocks(balance_block, states, out, evaluations);
}

double minimize_drift_plus_penalty(const DeviceSlotState& s) {
  double x = 0.0;
  minimize_drift_plus_penalty({&s, 1}, {&x, 1});
  return x;
}

double balance_offload_ratio(const DeviceSlotState& s) {
  double x = 0.0;
  balance_offload_ratio({&s, 1}, {&x, 1});
  return x;
}

}  // namespace leime::core
