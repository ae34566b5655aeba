// In-memory span recorder for the traced pass. The benchmark records a span
// around each call it makes into a layer (name, start, end, parent span,
// request id shared by the spans of one query) and writes them out as JSON
// lines when the run ends. Spans inside the program are not recorded.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  /// Opens a span and returns its index (the handle children name as parent).
  std::int32_t Begin(const std::string& name, std::int32_t parent,
                     std::uint64_t request) {
    spans_.push_back(Span{name, NanosOf(Clock::now()), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t span) { spans_[span].end_ns = NanosOf(Clock::now()); }

  /// Runs `f` inside a span and returns its duration in microseconds.
  template <typename F>
  double Time(const std::string& name, std::int32_t parent,
              std::uint64_t request, F&& f) {
    const std::int32_t s = Begin(name, parent, request);
    std::forward<F>(f)();
    End(s);
    return DurationUs(s);
  }

  double DurationUs(std::int32_t s) const {
    return static_cast<double>(spans_[s].end_ns - spans_[s].start_ns) * 1e-3;
  }

  /// Duration minus the part of its interval that child spans cover.
  double SelfUs(std::int32_t s) const;

  /// Durations (us) of every span called `name`.
  std::vector<double> DurationsOf(const std::string& name) const;
  /// Self times (us) of every span called `name`.
  std::vector<double> SelfTimesOf(const std::string& name) const;

  /// Writes one JSON object per span; returns false on an IO error.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
