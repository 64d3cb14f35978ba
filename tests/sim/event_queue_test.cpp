#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace leime::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(q.now());
    q.schedule_in(0.5, [&] { times.push_back(q.now()); });
  });
  q.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue q;
  int ran = 0;
  q.schedule(1.0, [&] { ++ran; });
  q.schedule(5.0, [&] { ++ran; });
  q.run_until(2.0);
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_one());
}

// Regression: `when < now_` is false for NaN, so a NaN timestamp used to
// slip into the heap and corrupt its ordering. All non-finite times must
// be rejected up front, leaving the queue untouched.
TEST(EventQueue, RejectsNonFiniteTimes) {
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
  // The queue stays fully usable after the rejections.
  int ran = 0;
  q.schedule(1.0, [&] { ++ran; });
  q.run_all();
  EXPECT_EQ(ran, 1);
}

// FIFO among ties must hold at scale, where the burst is far over the
// size a ladder bucket is sorted at, not just the tiny 5-event case above.
TEST(EventQueue, ThousandSameTimestampTiesRunInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  order.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    q.schedule(7.0, [&order, i] { order.push_back(i); });
  // Interleave an earlier and a later event so ties sift around them.
  q.schedule(1.0, [] {});
  q.schedule(9.0, [] {});
  q.run_all();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i) << "position " << i;
}

// run_until(t) is inclusive: an event at exactly t runs, one just after
// stays queued, and now() lands on t either way.
TEST(EventQueue, RunUntilBoundaryEquality) {
  EventQueue q;
  int at_boundary = 0, after = 0;
  q.schedule(2.0, [&] { ++at_boundary; });
  q.schedule(std::nextafter(2.0, 3.0), [&] { ++after; });
  q.run_until(2.0);
  EXPECT_EQ(at_boundary, 1);
  EXPECT_EQ(after, 0);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_EQ(after, 1);
}

// After a full drain the pool must recycle slots instead of growing: a
// second wave of the same depth keeps pool_capacity() at its high water.
TEST(EventQueue, PoolSlotsAreReusedAfterRunAll) {
  EventQueue q;
  int ran = 0;
  for (int i = 0; i < 50; ++i) q.schedule(1.0 + i, [&] { ++ran; });
  q.run_all();
  const std::size_t high_water = q.pool_capacity();
  EXPECT_GE(high_water, 50u);
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 50; ++i) q.schedule(q.now() + 1.0 + i, [&] { ++ran; });
    q.run_all();
    EXPECT_EQ(q.pool_capacity(), high_water) << "wave " << wave;
  }
  EXPECT_EQ(ran, 200);
}

// Handlers scheduling during dispatch (the dominant DES pattern: a
// completion submits the next hop) must interleave deterministically with
// pre-queued events, including same-timestamp ties landing after existing
// ones.
TEST(EventQueue, ScheduleDuringDispatchInterleavesDeterministically) {
  EventQueue q;
  std::vector<std::string> log;
  q.schedule(1.0, [&] {
    log.push_back("a@1");
    q.schedule(2.0, [&] { log.push_back("a2@2"); });  // ties with b, later seq
    q.schedule_in(0.5, [&] { log.push_back("a1@1.5"); });
  });
  q.schedule(2.0, [&] {
    log.push_back("b@2");
    q.schedule(2.0, [&] { log.push_back("b1@2"); });  // same-time follow-on
  });
  q.run_all();
  EXPECT_EQ(log, (std::vector<std::string>{"a@1", "a1@1.5", "b@2", "a2@2",
                                           "b1@2"}));
  EXPECT_EQ(q.executed(), 5u);
}

// peek_time() exposes the earliest pending timestamp without disturbing
// the queue: infinity when empty, updated as events run or arrive, and
// consistent with tie-breaking (ties share the front timestamp).
TEST(EventQueue, PeekTimeTracksEarliestPendingEvent) {
  EventQueue q;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.peek_time(), inf);
  q.schedule(3.0, [] {});
  q.schedule(1.5, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.peek_time(), 1.5);
  EXPECT_EQ(q.pending(), 3u);  // peeking pops nothing
  EXPECT_TRUE(q.run_one());
  EXPECT_DOUBLE_EQ(q.peek_time(), 2.0);
  q.run_all();
  EXPECT_EQ(q.peek_time(), inf);
  // Events scheduled during dispatch are visible to the next peek.
  q.schedule(5.0, [&] { q.schedule_in(0.25, [] {}); });
  EXPECT_DOUBLE_EQ(q.peek_time(), 5.0);
  EXPECT_TRUE(q.run_one());
  EXPECT_DOUBLE_EQ(q.peek_time(), 5.25);
}

// The lookahead use case: run_until a barrier, peek to find the next
// shard-local event, and jump an empty window without executing anything.
TEST(EventQueue, PeekTimeAfterRunUntilSupportsWindowSkipping) {
  EventQueue q;
  int ran = 0;
  q.schedule(10.0, [&] { ++ran; });
  q.run_until(2.0);
  EXPECT_EQ(ran, 0);
  EXPECT_DOUBLE_EQ(q.peek_time(), 10.0);
  q.run_until(q.peek_time());  // inclusive boundary: the event runs
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.peek_time(), std::numeric_limits<double>::infinity());
}

TEST(EventQueue, PerKindExecutedCounters) {
  EventQueue q;
  q.schedule(1.0, EventKind::kSlotTick, [] {});
  q.schedule(2.0, EventKind::kSlotTick, [] {});
  q.schedule_in(3.0, EventKind::kChurn, [] {});
  q.schedule(4.0, [] {});  // untagged -> kGeneric
  q.run_all();
  EXPECT_EQ(q.executed(EventKind::kSlotTick), 2u);
  EXPECT_EQ(q.executed(EventKind::kChurn), 1u);
  EXPECT_EQ(q.executed(EventKind::kGeneric), 1u);
  EXPECT_EQ(q.executed(EventKind::kArrival), 0u);
  EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueue, EventKindNamesAreStable) {
  EXPECT_STREQ(to_string(EventKind::kSlotTick), "slot_tick");
  EXPECT_STREQ(to_string(EventKind::kFailoverProbe), "failover_probe");
  EXPECT_STREQ(to_string(EventKind::kGeneric), "generic");
}

// Every handler's capture must be constructed/destroyed in balance across
// the pool's move-out-and-recycle path (no double destruction, no leak).
TEST(EventQueue, HandlerLifetimesBalanceThroughThePool) {
  struct Probe {
    int* balance;
    explicit Probe(int* b) : balance(b) { ++*balance; }
    Probe(const Probe& o) : balance(o.balance) { ++*balance; }
    Probe(Probe&& o) noexcept : balance(o.balance) { ++*balance; }
    ~Probe() { --*balance; }
    void operator()() const {}
  };
  int balance = 0;
  {
    EventQueue q;
    for (int i = 0; i < 32; ++i) q.schedule(1.0 + i, Probe(&balance));
    q.run_until(16.0);        // half run...
    EXPECT_GT(q.pending(), 0u);
  }                           // ...half destroyed with the queue
  EXPECT_EQ(balance, 0);
}

// -0.0 is one instant with 0.0: the two tie by insertion order, and the
// clock reads +0.0 whichever of them ran.
TEST(EventQueue, NegativeZeroTiesWithZeroByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.0, [&] { order.push_back(0); });
  q.schedule(-0.0, [&] { order.push_back(1); });
  q.schedule(0.0, [&] { order.push_back(2); });
  q.schedule(-0.0, [&] { order.push_back(3); });
  EXPECT_FALSE(std::signbit(q.peek_time()));
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(std::signbit(q.now()));
}

// peek_time() after run_until may pull the next events into the bottom;
// an event scheduled afterwards into the gap before them still runs first.
TEST(EventQueue, ScheduleIntoTheGapAfterAPeekRunsFirst) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 4096; ++i)
    q.schedule(10.0 + 0.001 * i, [&order, i] { order.push_back(i); });
  q.run_until(5.0);
  EXPECT_DOUBLE_EQ(q.peek_time(), 10.0);
  q.schedule(7.0, [&] { order.push_back(-1); });
  q.schedule(10.0, [&] { order.push_back(-2); });  // ties with event 0
  EXPECT_DOUBLE_EQ(q.peek_time(), 7.0);
  q.run_all();
  ASSERT_EQ(order.size(), 4098u);
  EXPECT_EQ(order[0], -1);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], -2);
  EXPECT_EQ(order[3], 1);
}

// A rejected schedule leaves the queue as it was and its slot free.
TEST(EventQueue, RejectedScheduleLeavesTheQueueUntouched) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.schedule(1.0 + i, [] {});
  q.run_until(50.5);
  const std::size_t pool = q.pool_capacity();
  EXPECT_THROW(q.schedule(3.0, [] {}), std::invalid_argument);
  EXPECT_THROW(
      q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_EQ(q.pending(), 50u);
  EXPECT_DOUBLE_EQ(q.peek_time(), 51.0);
  q.schedule(60.0, [] {});  // reuses a freed slot
  EXPECT_EQ(q.pool_capacity(), pool);
  q.run_all();
  EXPECT_EQ(q.executed(), 101u);
}

// Differential test: EventQueue against a std::set<(when, seq)> model.
// Every op is followed by a comparison of now(), pending() and, when
// `peek_every_op`, peek_time(); every executed event is checked against
// the model's next one. A run that peeks only now and then also exercises
// the lazy refill: schedules that land while the bottom is spent.
class QueueVsModel {
 public:
  QueueVsModel(std::uint64_t seed, bool peek_every_op)
      : rng_(seed), peek_every_op_(peek_every_op) {}

  std::size_t ops() const { return ops_; }
  std::size_t pending() const { return model_.size(); }
  double now() const { return now_; }
  std::mt19937_64& rng() { return rng_; }

  void schedule(double when) {
    add(when);
    check();
  }

  void run_one() {
    if (model_.empty()) {
      EXPECT_FALSE(q_.run_one());
    } else {
      const auto expected = *model_.begin();
      model_.erase(model_.begin());
      const std::size_t before = ran_.size();
      ASSERT_TRUE(q_.run_one());  // may add follow-ups to the model
      ASSERT_EQ(ran_.size(), before + 1);
      EXPECT_EQ(ran_.back(), expected.second);
      now_ = expected.first;
    }
    check();
  }

  void run_until(double until) {
    const std::size_t before = ran_.size();
    q_.run_until(until);
    // Follow-ups scheduled during dispatch are in the model by now; each
    // has a larger key than its parent, so the model's key order is the
    // order the queue had to run them in.
    std::size_t i = before;
    while (!model_.empty() && model_.begin()->first <= until) {
      ASSERT_LT(i, ran_.size()) << "event " << model_.begin()->second
                                << " at " << model_.begin()->first;
      ASSERT_EQ(ran_[i], model_.begin()->second) << "position " << i;
      now_ = model_.begin()->first;
      model_.erase(model_.begin());
      ++i;
    }
    EXPECT_EQ(i, ran_.size());
    now_ = std::max(now_, until);
    check();
  }

  double peek() {
    ++ops_;
    const double t = q_.peek_time();
    EXPECT_EQ(t, model_peek());
    return t;
  }

 private:
  double model_peek() const {
    return model_.empty() ? std::numeric_limits<double>::infinity()
                          : model_.begin()->first;
  }

  void add(double when) {
    const std::uint64_t id = next_id_++;
    model_.emplace(when, id);
    q_.schedule(when, [this, id] { dispatch(id); });
  }

  // One event in five schedules a follow-up while it is dispatched: at
  // the same instant (a tie behind everything already there), or a
  // little later.
  void dispatch(std::uint64_t id) {
    ran_.push_back(id);
    std::uint64_t h = id * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    if (h % 5 != 0) return;
    static constexpr double kDelays[] = {0.0, 1e-9, 1e-3, 1.0};
    add(q_.now() + kDelays[(h >> 8) % 4]);
  }

  void check() {
    ++ops_;
    EXPECT_EQ(q_.pending(), model_.size());
    EXPECT_EQ(q_.now(), now_);
    if (peek_every_op_ || rng_() % 16 == 0) {
      EXPECT_EQ(q_.peek_time(), model_peek());
    }
  }

  EventQueue q_;
  std::set<std::pair<double, std::uint64_t>> model_;
  std::vector<std::uint64_t> ran_;
  std::mt19937_64 rng_;
  bool peek_every_op_;
  std::uint64_t next_id_ = 0;
  double now_ = 0.0;
  std::size_t ops_ = 0;
};

void run_differential(std::uint64_t seed, bool peek_every_op,
                      std::size_t max_depth) {
  QueueVsModel m(seed, peek_every_op);
  auto& rng = m.rng();
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> exp1(1.0);

  // -0.0 next to 0.0, while now() is still 0.
  for (int i = 0; i < 200; ++i) m.schedule(i % 3 == 0 ? -0.0 : 0.0);

  // Every depth is held once, in a seeded order, before the run may end.
  std::vector<std::size_t> depths = {1, 2, 16, 256, 4096, 32768};
  if (max_depth > depths.back()) depths.push_back(max_depth);
  std::shuffle(depths.begin(), depths.end(), rng);
  std::size_t phase = 0, holds = 0;
  while ((m.ops() < 100000 || holds < depths.size()) &&
         !::testing::Test::HasFatalFailure()) {
    switch (phase++ % 6) {
      case 0: {  // exponential holds at a fixed depth
        const std::size_t depth = depths[holds++ % depths.size()];
        const double mean = std::pow(10.0, -6.0 + 9.0 * unit(rng));
        while (m.pending() > depth) m.run_one();
        while (m.pending() < depth) m.schedule(m.now() + mean * exp1(rng));
        for (int i = 0; i < 3000; ++i) {
          m.run_one();
          m.schedule(m.now() + mean * exp1(rng));
        }
        break;
      }
      case 1: {  // a burst at one instant: now, or later
        const double t = rng() % 2 ? m.now() : m.now() + exp1(rng);
        for (int i = 0; i < 1500; ++i) {
          m.schedule(t);
          if (rng() % 10 == 0) m.run_one();
        }
        break;
      }
      case 2: {  // times a few ulps apart
        const double base = std::max(1e6, m.now());
        const double ulp = std::nextafter(base, 2.0 * base) - base;
        for (int i = 0; i < 1500; ++i)
          m.schedule(base + static_cast<double>(rng() % 4096) * ulp);
        break;
      }
      case 3: {  // offsets from 1e-9 to 1e9
        for (int i = 0; i < 1500; ++i)
          m.schedule(m.now() + std::pow(10.0, -9.0 + 18.0 * unit(rng)));
        break;
      }
      case 4: {  // run_until, peek (refilling), then schedule into the gap
        for (int i = 0; i < 100 && m.pending() > 0; ++i) {
          const double next = m.peek();
          const double until = rng() % 4 == 0
                                   ? next
                                   : m.now() + (next - m.now()) * 2.0 *
                                                   unit(rng);
          m.run_until(until);
          const double peeked = m.peek();
          if (!std::isfinite(peeked)) break;
          m.schedule(m.now());
          m.schedule(m.now() + (peeked - m.now()) * unit(rng));
          m.schedule(peeked);  // ties with the refilled front
        }
        break;
      }
      case 5: {  // drain to a random depth
        const std::size_t target = m.pending() * (rng() % 4) / 4;
        while (m.pending() > target) m.run_one();
        break;
      }
    }
  }
  m.run_until(std::numeric_limits<double>::max());
  EXPECT_EQ(m.pending(), 0u);
  EXPECT_GE(m.ops(), 100000u);
}

TEST(EventQueueDifferential, MatchesAnOrderedSetModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*peek_every_op=*/true,
                     seed <= 2 ? 131072 : 32768);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueDifferential, MatchesTheModelWithoutPeekingEveryOp) {
  for (std::uint64_t seed = 7; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_differential(seed, /*peek_every_op=*/false, 32768);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace leime::sim
