#include "sim/parallel_decide.h"

#include <algorithm>

namespace leime::sim {

void ParallelDecide::solve(const core::OffloadPolicy& policy,
                           std::span<const core::DeviceSlotState> states,
                           std::span<double> out) {
  const std::size_t n = states.size();
  // A size mismatch stays serial, so decide_batch reports it.
  if (threads_ == 1 || n < kParallelDecideMin || out.size() != n) {
    policy.decide_batch(states, out);
    return;
  }
  if (!pool_)
    pool_ = std::make_unique<ShardPool>(resolve_pool_threads(threads_));
  const std::size_t blocks =
      (n + core::kStatesInFlight - 1) / core::kStatesInFlight;
  const std::size_t max_jobs =
      kDecideChunksPerThread *
      static_cast<std::size_t>(std::max(1, pool_->threads()));
  const std::size_t chunk =
      (blocks + max_jobs - 1) / max_jobs * core::kStatesInFlight;
  // Chunk j's exception is its first invalid state's; the pool rethrows
  // the lowest failing chunk's, so the round throws the serial call's.
  pool_->run((n + chunk - 1) / chunk, [&](std::size_t j) {
    const std::size_t lo = j * chunk;
    const std::size_t len = std::min(chunk, n - lo);
    policy.decide_batch(states.subspan(lo, len), out.subspan(lo, len));
  });
}

}  // namespace leime::sim
