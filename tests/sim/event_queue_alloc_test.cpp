// Zero-allocation steady-state gate for the DES hot path (DESIGN.md §10).
//
// After a warmup that grows the handler pool and the ladder's arrays to
// their working depth, a schedule/run cycle must perform no heap
// allocations at all: handlers live in InlineFn storage, keys and bucket
// lists in pre-grown flat arrays, and event slots recycle through the
// free list. The global
// operator new/delete counters from tests/support/alloc_hooks.cpp make
// that property a hard assertion instead of a hope.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "sim/event_queue.h"
#include "support/alloc_hooks.h"

namespace leime::sim {
namespace {

TEST(EventQueueAlloc, SteadyStateSchedulesAndRunsWithZeroAllocations) {
  EventQueue q;
  std::uint64_t fired = 0;
  constexpr int kDepth = 128;  // working queue depth
  double t = 0.0;

  // Warmup: reach full depth once (pool + heap grow to high water), then
  // drain. Also interns the profiler batch-section names on first use.
  for (int i = 0; i < kDepth; ++i)
    q.schedule(t += 0.25, EventKind::kGeneric, [&fired] { ++fired; });
  q.run_all();
  const std::size_t warm_pool = q.pool_capacity();

  const std::uint64_t allocs_before = testsupport::allocation_count();
  const std::uint64_t frees_before = testsupport::deallocation_count();

  // Steady state: 100k events through repeated fill-to-depth/drain cycles
  // plus a sustained schedule-on-pop churn, mixing tagged kinds.
  for (int round = 0; round < 400; ++round) {
    for (int i = 0; i < kDepth; ++i)
      q.schedule(t += 0.25,
                 (i % 2) ? EventKind::kArrival : EventKind::kComputeDone,
                 [&fired] { ++fired; });
    q.run_all();
  }
  for (int i = 0; i < kDepth; ++i)
    q.schedule(t += 0.25, [&fired] { ++fired; });
  for (int i = 0; i < 50000; ++i) {
    q.run_one();
    q.schedule(t += 0.25, EventKind::kTransferDone, [&fired] { ++fired; });
  }
  q.run_all();

  EXPECT_EQ(testsupport::allocation_count() - allocs_before, 0u)
      << "DES steady state allocated on the hot path";
  EXPECT_EQ(testsupport::deallocation_count() - frees_before, 0u)
      << "DES steady state freed on the hot path";
  EXPECT_EQ(q.pool_capacity(), warm_pool)
      << "handler pool grew past its warmup high-water mark";
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kDepth + 400 * kDepth +
                                              kDepth + 50000));
}

// The same gate at fleet depth with random exponential holds, the case
// that spawns and spends rungs all the time.
TEST(EventQueueAlloc, FleetDepthRandomHoldsRunWithZeroAllocations) {
  EventQueue q;
  std::uint64_t fired = 0;
  constexpr int kDepth = 65536;
  constexpr int kChurn = 200000;
  std::mt19937_64 rng(11);
  std::exponential_distribution<double> hold(1.0 / kDepth);
  auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      q.run_one();
      q.schedule(q.now() + hold(rng), [&fired] { ++fired; });
    }
  };
  for (int i = 0; i < kDepth; ++i)
    q.schedule(hold(rng), [&fired] { ++fired; });
  churn(kChurn);  // warmup: the pool and the rungs reach their high water
  const std::size_t warm_pool = q.pool_capacity();

  const std::uint64_t allocs_before = testsupport::allocation_count();
  const std::uint64_t frees_before = testsupport::deallocation_count();
  churn(kChurn);
  EXPECT_EQ(testsupport::allocation_count() - allocs_before, 0u)
      << "fleet-depth churn allocated on the hot path";
  EXPECT_EQ(testsupport::deallocation_count() - frees_before, 0u)
      << "fleet-depth churn freed on the hot path";
  EXPECT_EQ(q.pool_capacity(), warm_pool);
  EXPECT_EQ(q.pending(), static_cast<std::size_t>(kDepth));
  q.run_all();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kDepth + 2 * kChurn));
}

TEST(EventQueueAlloc, HookCountersActuallyCount) {
  const std::uint64_t before = testsupport::allocation_count();
  auto* p = new int(42);
  EXPECT_GT(testsupport::allocation_count(), before);
  const std::uint64_t frees_before = testsupport::deallocation_count();
  delete p;
  EXPECT_GT(testsupport::deallocation_count(), frees_before);
}

}  // namespace
}  // namespace leime::sim
