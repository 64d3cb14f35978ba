// Parallel slot-decision rounds (DESIGN.md §12.3).
//
// Under §III-D each device solves P1' on its own every slot, so one
// decision round is a set of independent pure solves. A large fleet's
// round is cut into chunks of whole core::kStatesInFlight blocks, and the
// chunks run OffloadPolicy::decide_batch on a persistent worker pool. Every
// per-state result is independent of which block or batch the state was
// solved in (§12.1), so the decisions are bit-identical to one serial
// decide_batch call for any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "sim/shard.h"

namespace leime::sim {

/// States from which a round is split across the pool. Derivation, on a
/// 4-core Xeon @ 2.1 GHz: one ShardPool region over 4 threads costs
/// ≈28 µs median and ≈75 µs p99 from run() to return (empty jobs, workers
/// asleep between regions). The cheapest solve is eq. 20 at ≈0.23 µs a
/// state (eq. 19: ≈1.2 µs). From 4096 states the serial round is ≥0.94 ms
/// even for eq. 20, so a p99 handoff costs ≤8% of it while 4 threads cut
/// it ~4×; eq. 19 rounds (≥4.9 ms) gain more. Fleets below it — every
/// paper-figure cell — never wake a thread.
inline constexpr std::size_t kParallelDecideMin = 4096;

/// Chunks per worker thread: enough that the pool's claim counter
/// balances chunks whose solves cost differently (eq. 19 refinements
/// retire at different steps; LEIME+fallback skips unavailable states).
inline constexpr std::size_t kDecideChunksPerThread = 4;

class ParallelDecide {
 public:
  /// `threads`: the run's [shards] threads budget. 1 keeps every round
  /// on the calling thread; 0 (auto) resolves to hardware_concurrency.
  /// Both the resolution and the pool wait for the first round large
  /// enough to go parallel, so small fleets pay for neither.
  explicit ParallelDecide(int threads) : threads_(threads) {}

  /// out[i] = policy.decide(states[i]) bit for bit: one decide_batch call
  /// on the calling thread below kParallelDecideMin states (or with
  /// threads = 1), else chunks of whole kStatesInFlight blocks across the
  /// pool.
  /// Throws what the serial call throws: a size mismatch, or the first
  /// invalid state's exception in state order.
  void solve(const core::OffloadPolicy& policy,
             std::span<const core::DeviceSlotState> states,
             std::span<double> out);

  /// Worker threads spawned so far: 0 until a round went parallel, and on
  /// a one-core host, where the pool runs chunks inline.
  int pool_threads() const { return pool_ ? pool_->threads() : 0; }

 private:
  int threads_;
  std::unique_ptr<ShardPool> pool_;
};

}  // namespace leime::sim
