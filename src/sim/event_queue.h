// Deterministic discrete-event core.
//
// Events are (time, sequence, handler); ties on time break by insertion
// order, so a run is bit-reproducible for a fixed seed. Single-threaded by
// design: a fleet that outgrows one thread is split into shard queues
// (sim/shard.h), each of them one of these.
//
// The ready set is a ladder queue (Tang, Goh & Thng, ACM TOMACS 2005),
// so schedule and pop cost O(1) amortized at any depth (DESIGN.md §10):
//   * top: an unsorted list of every event at or after `top_start_`;
//   * rungs: up to kMaxRungs tiers of time buckets, each spawned lazily
//     from the earliest bucket of the tier above (the first from top);
//   * bottom: a small sorted run of the earliest events, popped in order.
//
// The hot path is allocation-free in steady state:
//   * handlers are util::InlineFn — fixed-capacity in-object storage sized
//     for the largest capture in simulation.cpp/resources.cpp and
//     static-asserted at every bind site, so no std::function mallocs;
//   * handlers live in pooled slots recycled through an intrusive free
//     list, their (when, seq) keys in a parallel array; top and rung
//     buckets are lists threaded through the keys, so they own no storage;
//   * the rung bucket heads grow in the pool's steps and the bottom only
//     at a new high water.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/inline_fn.h"

namespace leime::sim {

/// Typed tags for the known event kinds. Purely observational: kinds never
/// influence ordering or dispatch (that stays (when, seq) + the handler),
/// they label events for per-kind executed() telemetry and debugging.
enum class EventKind : std::uint8_t {
  kGeneric = 0,    ///< untagged (tests, ad-hoc callers)
  kSlotTick,       ///< per-slot Lyapunov decision tick (eq. 16–20 cadence)
  kReallocate,     ///< periodic eq. 27 edge re-allocation
  kArrival,        ///< task arrival at a device
  kComputeDone,    ///< FifoProcessor job completion (device/edge/cloud)
  kTransferDone,   ///< Link delivery (uplink/downlink/backhaul)
  kCloudService,   ///< uncontended cloud service completion
  kFailoverProbe,  ///< crash detection timeout / edge re-probe
  kTaskTimeout,    ///< per-task watchdog expiry
  kRetryLaunch,    ///< backoff redispatch after a timeout
  kFaultWindow,    ///< edge crash/restart window boundary
  kChurn,          ///< device leave/rejoin
};
inline constexpr std::size_t kNumEventKinds = 12;

/// Stable lowercase name for logs and tests.
const char* to_string(EventKind kind);

class EventQueue {
 public:
  /// Inline handler storage, in bytes. Sized for the largest schedule-site
  /// capture: Link::transfer's completion-forwarding lambda (this + a
  /// 56-byte inline Completion + a double, 80 bytes with padding) plus
  /// headroom. Every bind static-asserts against this, so growing a
  /// capture past it is a compile error, never a hidden allocation.
  static constexpr std::size_t kHandlerCapacity = 96;
  using Handler = util::InlineFn<void(), kHandlerCapacity>;

  /// Schedules `fn` at absolute time `when` (finite, >= now()).
  void schedule(double when, Handler fn) {
    schedule(when, EventKind::kGeneric, std::move(fn));
  }
  void schedule(double when, EventKind kind, Handler fn);

  /// Schedules `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(double delay, Handler fn) {
    schedule(now_ + delay, EventKind::kGeneric, std::move(fn));
  }
  void schedule_in(double delay, EventKind kind, Handler fn) {
    schedule(now_ + delay, kind, std::move(fn));
  }

  /// Pops and runs the earliest event; returns false when empty.
  bool run_one();

  /// Runs events until the queue is empty or the next event is after
  /// `until`; leaves later events queued and advances now() to `until`.
  void run_until(double until);

  /// Drains the queue completely.
  void run_all();

  double now() const { return now_; }

  /// Timestamp of the earliest queued event without popping it, or
  /// +infinity when the queue is empty. Drives the sharded runner's
  /// lookahead-horizon computation (how far a shard may safely advance
  /// before the next barrier) and lets idle windows be skipped outright.
  /// May refill the bottom from the rungs; that changes no observable
  /// order, because every later schedule() still lands in its place.
  double peek_time() const {
    if (bottom_head_ == bottom_.size()) {
      if (size_ == 0) return std::numeric_limits<double>::infinity();
      refill();
    }
    return bottom_[bottom_head_].when;
  }

  bool empty() const { return size_ == 0; }
  std::size_t pending() const { return size_; }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t executed(EventKind kind) const {
    return executed_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// High-water mark of pooled handler slots (monotone; steady state keeps
  /// it flat — the zero-allocation test pins this).
  std::size_t pool_capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Rung tiers at most; a bucket that would need a deeper one is sorted
  /// straight into the bottom instead.
  static constexpr std::size_t kMaxRungs = 8;
  /// A group of at most this many events is sorted into the bottom; a
  /// larger one is spread over a new rung of one bucket per event.
  static constexpr std::uint32_t kSortMax = 32;
  /// A sorted insert into the bottom that would move more entries than
  /// this spills the bottom onto a new rung instead.
  static constexpr std::ptrdiff_t kMaxShift = 64;

  /// A pooled event's ordering key and list link, kept in an array of
  /// their own so the ladder's list walks stay in dense memory, apart from
  /// the handlers. `next` links the event into the top list, a rung
  /// bucket or the free list; it is in exactly one of them at a time.
  struct Key {
    double when = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;
  };
  struct Slot {
    Handler fn;
    EventKind kind = EventKind::kGeneric;
  };
  /// A bottom entry: the ordering key copied next to its slot index, so
  /// sorting and searching the bottom never touch the pool.
  struct Entry {
    double when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Buckets [base, base + nb) of `heads_`; bucket b holds the events
  /// with bucket_of(when) == b. Buckets below `cur` are spent: their
  /// events went to a deeper rung or the bottom.
  struct Rung {
    double start = 0.0;
    double inv_width = 0.0;
    std::uint32_t base = 0;
    std::uint32_t nb = 0;
    std::uint32_t cur = 0;

    /// clamp(floor((when - start) * inv_width), 0, nb - 1): monotone in
    /// `when`, which is all ordering needs.
    std::uint32_t bucket_of(double when) const {
      const double x = (when - start) * inv_width;
      if (!(x > 0.0)) return 0;
      if (x >= static_cast<double>(nb)) return nb - 1;
      return static_cast<std::uint32_t>(x);
    }
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void insert(std::uint32_t idx);
  void insert_bottom(const Entry& e);
  bool spill_bottom(const Entry& e);
  void refill() const;
  bool spawn_rung(std::uint32_t head, std::uint32_t n, double lo,
                  double hi) const;
  void spread(std::uint32_t head, std::uint32_t n, double lo,
              double hi) const;

  std::vector<Slot> slots_;  ///< handler pool, grows at high water
  // The ladder is mutable: peek_time() may refill the bottom.
  mutable std::vector<Key> keys_;  ///< keys_[i] belongs to slots_[i]
  std::uint32_t free_head_ = kNil;
  /// Every event at or after top_start_ is in the top list.
  mutable double top_start_ = -std::numeric_limits<double>::infinity();
  mutable std::uint32_t top_head_ = kNil;
  mutable std::uint32_t top_count_ = 0;
  mutable double top_min_ = std::numeric_limits<double>::infinity();
  mutable double top_max_ = -std::numeric_limits<double>::infinity();
  mutable std::array<Rung, kMaxRungs> rungs_{};
  mutable std::size_t nrungs_ = 0;
  /// Every rung's bucket list heads, stacked.
  mutable std::vector<std::uint32_t> heads_;
  /// The earliest events in (when, seq) order from bottom_head_ on.
  mutable std::vector<Entry> bottom_;
  mutable std::size_t bottom_head_ = 0;
  std::size_t size_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::array<std::uint64_t, kNumEventKinds> executed_by_kind_{};
};

}  // namespace leime::sim
