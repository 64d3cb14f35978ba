// Host-side probes used only by the benchmark: a process-wide
// operator new counter (with live/peak heap bytes) and getrusage samples.
// Everything is read as a delta around one timed call into a layer.
#pragma once

#include <cstdint>

namespace perfbench {

/// Turns allocation accounting on or off. Off (the default) costs one
/// relaxed load per allocation, so untraced passes stay unperturbed.
void set_alloc_tracking(bool on);

/// operator new calls seen while tracking was on.
std::uint64_t alloc_count();

/// Heap bytes allocated minus bytes freed while tracking was on (may be
/// negative when memory allocated earlier is freed during tracking).
std::int64_t heap_live_bytes();

/// Highest heap_live_bytes() value since the last reset_heap_peak().
std::int64_t heap_peak_bytes();
void reset_heap_peak();

/// One getrusage(RUSAGE_SELF) sample (all threads) plus the steady clock.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t vol_ctx_switches = 0;
};

Usage sample_usage();
Usage operator-(const Usage& later, const Usage& earlier);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary process-local origin.
double now_s();

}  // namespace perfbench
