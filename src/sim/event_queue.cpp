#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "prof/profiler.h"

namespace leime::sim {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kGeneric: return "generic";
    case EventKind::kSlotTick: return "slot_tick";
    case EventKind::kReallocate: return "reallocate";
    case EventKind::kArrival: return "arrival";
    case EventKind::kComputeDone: return "compute_done";
    case EventKind::kTransferDone: return "transfer_done";
    case EventKind::kCloudService: return "cloud_service";
    case EventKind::kFailoverProbe: return "failover_probe";
    case EventKind::kTaskTimeout: return "task_timeout";
    case EventKind::kRetryLaunch: return "retry_launch";
    case EventKind::kFaultWindow: return "fault_window";
    case EventKind::kChurn: return "churn";
  }
  return "unknown";
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = keys_[idx].next;
    return idx;
  }
  keys_.emplace_back();
  try {
    slots_.emplace_back();
  } catch (...) {
    keys_.pop_back();
    throw;
  }
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  slots_[idx].fn.reset();
  keys_[idx].next = free_head_;
  free_head_ = idx;
}

void EventQueue::schedule(double when, EventKind kind, Handler fn) {
  // NaN would satisfy neither `when < now_` nor any ordering comparison
  // and silently corrupt the ordering invariant; reject all non-finite
  // times.
  if (!std::isfinite(when))
    throw std::invalid_argument(
        "EventQueue: event time must be finite (got NaN or infinity)");
  if (when < now_)
    throw std::invalid_argument("EventQueue: scheduling into the past");
  when += 0.0;  // -0.0 -> +0.0, so an instant has one key and one bucket
  const std::uint32_t idx = acquire_slot();
  slots_[idx].fn = std::move(fn);
  slots_[idx].kind = kind;
  keys_[idx].when = when;
  keys_[idx].seq = next_seq_;
  try {
    insert(idx);
  } catch (...) {
    release_slot(idx);
    throw;
  }
  ++next_seq_;
  ++size_;
}

// The event goes to the outermost tier whose unspent range holds it: the
// top, else the first rung whose bucket for it is not spent yet, else the
// bottom. Every tier's events precede every event of the tiers outside
// it, because bucket_of() is monotone and a spent bucket's events all
// went inward.
void EventQueue::insert(std::uint32_t idx) {
  Key& s = keys_[idx];
  const double when = s.when;
  if (when >= top_start_) {
    s.next = top_head_;
    top_head_ = idx;
    ++top_count_;
    if (when < top_min_) top_min_ = when;
    if (when > top_max_) top_max_ = when;
    return;
  }
  for (std::size_t r = 0; r < nrungs_; ++r) {
    const Rung& g = rungs_[r];
    const std::uint32_t b = g.bucket_of(when);
    if (b >= g.cur) {
      std::uint32_t& head = heads_[g.base + b];
      s.next = head;
      head = idx;
      return;
    }
  }
  insert_bottom({when, s.seq, idx});
}

// Sorted insert of an event earlier than every unspent rung bucket. Its
// seq is the largest yet, so it goes after every event at its time. The
// cheaper side moves: the run's head shifts left into the popped prefix
// when the slot is nearer the front (as it is for an event due now).
void EventQueue::insert_bottom(const Entry& e) {
  const auto first =
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
  const auto pos = std::upper_bound(
      first, bottom_.end(), e.when,
      [](double when, const Entry& x) { return when < x.when; });
  const bool left = bottom_head_ > 0 && pos - first <= bottom_.end() - pos;
  const auto moves = left ? pos - first : bottom_.end() - pos;
  // A long shift means a big bottom with the event deep inside it: the
  // bottom is then bucketed instead, whole, on a new innermost rung.
  if (moves > kMaxShift && spill_bottom(e)) return;
  if (left) {
    std::move(first, pos, first - 1);
    --bottom_head_;
    *(pos - 1) = e;
    return;
  }
  bottom_.insert(pos, e);
}

bool EventQueue::spill_bottom(const Entry& e) {
  // A spent rung holds nothing and passes every event inward, so dropping
  // it (and leaving its buckets idle) frees a tier for the spill.
  nrungs_ = static_cast<std::size_t>(
      std::remove_if(rungs_.begin(), rungs_.begin() + nrungs_,
                     [](const Rung& g) { return g.cur == g.nb; }) -
      rungs_.begin());
  std::uint32_t head = e.slot;
  keys_[e.slot].next = kNil;
  for (std::size_t i = bottom_head_; i < bottom_.size(); ++i) {
    keys_[bottom_[i].slot].next = head;
    head = bottom_[i].slot;
  }
  const auto n = static_cast<std::uint32_t>(bottom_.size() - bottom_head_ + 1);
  if (!spawn_rung(head, n, std::min(e.when, bottom_[bottom_head_].when),
                  bottom_.back().when))
    return false;
  bottom_.clear();
  bottom_head_ = 0;
  return true;
}

// Spreads the list `head` (n events in [lo, hi]) over a new innermost
// rung of one bucket per event. Returns false, changing nothing, when the
// events cannot be bucketed apart (they share one time, or the width is
// not finite) or every rung is in use. Allocates before it relinks
// anything, so a throw leaves the list where it was.
bool EventQueue::spawn_rung(std::uint32_t head, std::uint32_t n, double lo,
                            double hi) const {
  if (nrungs_ == kMaxRungs || !(hi > lo)) return false;
  const double inv_width = static_cast<double>(n) / (hi - lo);
  if (!std::isfinite(inv_width)) return false;
  const std::uint32_t base =
      nrungs_ == 0 ? 0 : rungs_[nrungs_ - 1].base + rungs_[nrungs_ - 1].nb;
  if (base + n > heads_.size()) {
    // Reserved from the pool size, the heads grow in the pool's steps:
    // the first rung takes at most one head per pending event, and deeper
    // rungs split a bucket of it. Only heads in use are touched.
    if (base + n > heads_.capacity())
      heads_.reserve(std::max<std::size_t>(base + n, 2 * keys_.size()));
    heads_.resize(base + n);
  }
  std::fill_n(heads_.begin() + base, n, kNil);
  Rung& g = rungs_[nrungs_++];
  g = Rung{lo, inv_width, base, n, 0};
  for (std::uint32_t i = head; i != kNil;) {
    Key& s = keys_[i];
    const std::uint32_t next = s.next;
    std::uint32_t& bucket = heads_[base + g.bucket_of(s.when)];
    s.next = bucket;
    bucket = i;
    i = next;
  }
  return true;
}

// Moves the list `head` (n events in [lo, hi]) into the empty bottom: a
// small group sorted, a larger one onto a new rung when it can be
// bucketed apart, else sorted too.
void EventQueue::spread(std::uint32_t head, std::uint32_t n, double lo,
                        double hi) const {
  if (n > kSortMax && spawn_rung(head, n, lo, hi)) return;
  bottom_.reserve(n);
  for (std::uint32_t i = head; i != kNil; i = keys_[i].next)
    bottom_.push_back({keys_[i].when, keys_[i].seq, i});
  std::sort(bottom_.begin(), bottom_.end(), earlier);
}

// Refills the empty bottom from the innermost rung's earliest unspent
// bucket, spawning finer rungs while that bucket is large, and spreads the
// top over a fresh first rung once every rung is spent.
void EventQueue::refill() const {
  bottom_.clear();
  bottom_head_ = 0;
  while (bottom_.empty()) {
    if (nrungs_ == 0) {
      if (top_count_ == 0) return;
      spread(top_head_, top_count_, top_min_, top_max_);
      top_start_ = top_max_;
      top_head_ = kNil;
      top_count_ = 0;
      top_min_ = std::numeric_limits<double>::infinity();
      top_max_ = -std::numeric_limits<double>::infinity();
      continue;
    }
    Rung& g = rungs_[nrungs_ - 1];
    while (g.cur < g.nb && heads_[g.base + g.cur] == kNil) ++g.cur;
    if (g.cur == g.nb) {
      --nrungs_;
      continue;
    }
    const std::uint32_t head = heads_[g.base + g.cur];
    std::uint32_t n = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (std::uint32_t i = head; i != kNil; i = keys_[i].next, ++n) {
      lo = std::min(lo, keys_[i].when);
      hi = std::max(hi, keys_[i].when);
    }
    spread(head, n, lo, hi);
    heads_[g.base + g.cur] = kNil;
    ++g.cur;
  }
}

bool EventQueue::run_one() {
  if (bottom_head_ == bottom_.size()) {
    if (size_ == 0) return false;
    refill();
  }
  const Entry top = bottom_[bottom_head_++];
  --size_;
  // At fleet depth the next event's handler slot is long out of cache;
  // fetch both of its lines while this event's handler runs.
  if (bottom_head_ < bottom_.size()) {
    const char* next =
        reinterpret_cast<const char*>(&slots_[bottom_[bottom_head_].slot]);
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
  // Move the handler out of its pool slot and recycle the slot *before*
  // dispatch, so a handler that schedules new events reuses it.
  Slot& s = slots_[top.slot];
  Handler fn = std::move(s.fn);
  const EventKind kind = s.kind;
  release_slot(top.slot);
  now_ = top.when;
  ++executed_;
  ++executed_by_kind_[static_cast<std::size_t>(kind)];
  fn();
  return true;
}

// Profiler sections cover 64-event batches, not single events: a section's
// fixed cost (two clock reads) is comparable to one DES event, so per-event
// sections would leave ~5% of the event-loop wall time as unexplained gaps.
// A batch section amortises that cost to noise while still billing the
// queue machinery (ladder pop, clock advance, handler dispatch) to the
// queue instead of to the caller's unexplained self time.
void EventQueue::run_until(double until) {
  while (peek_time() <= until) {
    LEIME_PROF_SCOPE("leime.sim.queue.batch_until");
    for (int i = 0; i < 64 && peek_time() <= until; ++i) run_one();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::run_all() {
  while (size_ != 0) {
    LEIME_PROF_SCOPE("leime.sim.queue.batch");
    for (int i = 0; i < 64 && run_one(); ++i) {
    }
  }
}

}  // namespace leime::sim
