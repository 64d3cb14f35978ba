#include "spans.h"

#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "hooks.h"

namespace perfbench {

int SpanRecorder::begin(std::string name, int run) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now_s(), -1.0, current(), run, 0});
  stack_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::add(std::string name, double start_s, double end_s,
                       int parent, int run, int tid) {
  spans_.push_back({std::move(name), start_s, end_s, parent, run, tid});
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << std::setprecision(15) << "{\"traceEvents\":[";
  const char* sep = "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_s < s.start_s) continue;
    out << sep << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << (s.start_s - origin) * 1e6
        << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
