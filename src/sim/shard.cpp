#include "sim/shard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leime::sim {

void ShardOptions::validate() const {
  if (shards == 0)
    throw std::invalid_argument("ShardOptions: shards must be >= 1");
  if (threads < 0)
    throw std::invalid_argument("ShardOptions: threads must be >= 0");
  if (!std::isfinite(window_s) || window_s < 0.0)
    throw std::invalid_argument(
        "ShardOptions: window_s must be finite and >= 0");
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                std::size_t shards,
                                                std::size_t s) {
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  const std::size_t lo = s * base + std::min(s, rem);
  const std::size_t hi = lo + base + (s < rem ? 1 : 0);
  return {lo, hi};
}

double shard_window(const ShardOptions& opts, double edge_cloud_lat) {
  if (opts.window_s > 0.0) return std::min(opts.window_s, edge_cloud_lat);
  return edge_cloud_lat;
}

int resolve_pool_threads(int threads) {
  return resolve_pool_threads(threads, std::thread::hardware_concurrency());
}

int resolve_pool_threads(int threads, unsigned hw) {
  constexpr auto kMax = static_cast<unsigned>(ShardOptions::kMaxThreads);
  if (threads > 0) return std::min(threads, ShardOptions::kMaxThreads);
  return hw ? static_cast<int>(std::min(hw, kMax)) : 1;
}

int resolve_shard_threads(const ShardOptions& opts, std::size_t shards) {
  const auto t = static_cast<std::size_t>(resolve_pool_threads(opts.threads));
  return static_cast<int>(std::max<std::size_t>(1, std::min(t, shards)));
}

ShardPool::ShardPool(int threads) {
  if (threads <= 1) return;  // inline execution, no workers
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ShardPool::~ShardPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ShardPool::run_job(std::size_t i) {
  try {
    call_(fn_, i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_ || i < error_job_) {
      error_ = std::current_exception();
      error_job_ = i;
    }
  }
}

void ShardPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::size_t jobs = jobs_;
    lock.unlock();
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) break;
      run_job(i);
    }
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

void ShardPool::run_erased(std::size_t jobs, void* fn, Call call) {
  if (jobs == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < jobs; ++i) call(fn, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = fn;
    call_ = call;
    jobs_ = jobs;
    next_.store(0, std::memory_order_relaxed);
    busy_ = workers_.size();
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  call_ = nullptr;
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace leime::sim
