// In-memory span recorder for the benchmark's traced pass. Spans are
// recorded by the benchmark around its calls into each layer (and
// synthesized for executor cells from their RunRecord timing), kept in
// memory, and written as one chrome-trace JSON file when the run ends.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = -1.0;  ///< < start_s while the span is open
  int parent = -1;      ///< index of the enclosing span, -1 at the root
  int run = -1;         ///< per-run id (cell index), -1 when not per run
  int tid = 0;          ///< 0 = main thread, 1 + w = executor worker w
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name, int run = -1);
  void end(int index);

  /// Adds an already-closed span (times in now_s() seconds).
  void add(std::string name, double start_s, double end_s, int parent,
           int run, int tid);

  /// Index of the innermost open span, -1 when none is open.
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes chrome://tracing JSON ("X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op (the untraced passes).
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, int run = -1)
      : rec_(rec), index_(rec ? rec->begin(std::move(name), run) : -1) {}
  ~Span() {
    if (rec_) rec_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
