// Streaming and batch statistics used by the simulator and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace leime::util {

/// Numerically stable streaming mean/variance (Welford) with min/max.
///
/// Empty-accumulator contract: every accessor returns exactly 0.0 while
/// count() == 0 — mean(), min(), max() and sum() alike. A 0.0 min of an
/// all-positive sample therefore means "no observations", never an
/// observed zero; check empty() when the distinction matters. The
/// observability layer's histograms rely on these semantics.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the observations; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  double stddev() const;

  /// Smallest/largest observation; 0 when empty (same convention as
  /// mean(), NOT +/-infinity — see the class contract above).
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merges another accumulator into this one (parallel Welford).
  ///
  /// Merge-with-empty contract (asserted in stats_test): merging an empty
  /// accumulator is a bit-exact no-op, and merging into an empty
  /// accumulator is a bit-exact copy — the empty side's zero-valued
  /// min_/max_/mean_ placeholders never leak into the result. Merging
  /// shards in a fixed order is therefore deterministic regardless of how
  /// many shards stayed empty (the metrics-registry contract).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation between closest ranks.
/// q in [0, 1]; throws std::invalid_argument on empty input or bad q.
/// The input is copied and sorted internally.
double percentile(std::vector<double> values, double q);

/// Convenience batch mean; 0 on empty input.
double mean_of(const std::vector<double>& values);

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Computes a Summary; all fields zero for an empty sample. The
/// percentiles are percentile()'s, bit for bit, from one sorted copy.
Summary summarize(const std::vector<double>& values);

/// The same Summary, sorting its copy in `sort_buffer`: a caller that
/// summarizes many samples reuses one buffer instead of allocating a copy
/// per sample.
Summary summarize(std::span<const double> values,
                  std::vector<double>& sort_buffer);

/// Median with linear interpolation; 0 on empty input (no throw — timing
/// code treats "no rounds" as a degenerate measurement, not an error).
double median_of(const std::vector<double>& values);

/// Robust location/scale summary for repeated timing rounds, where a
/// single preempted round must not move the estimate: median for location,
/// MAD (median absolute deviation) for scale. `cv` is the robust
/// coefficient of variation 1.4826·MAD/median — the 1.4826 factor makes
/// MAD a consistent estimator of σ under normal noise — and is what the
/// bench regression gate scales its thresholds by.
struct RobustSummary {
  std::size_t count = 0;
  double median = 0.0;
  double mad = 0.0;  ///< raw median absolute deviation (same unit as data)
  double cv = 0.0;   ///< 1.4826 * mad / median; 0 when median == 0
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Computes a RobustSummary; all fields zero for an empty sample.
RobustSummary robust_summarize(const std::vector<double>& values);

}  // namespace leime::util
