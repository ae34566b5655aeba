#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double SpanRecorder::SelfUs(std::int32_t s) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& c : spans_) {
    if (c.parent == s) children.emplace_back(c.start_ns, c.end_ns);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = spans_[s].start_ns;
  for (const auto& [start, end] : children) {
    const std::int64_t from = std::max(start, reach);
    const std::int64_t to = std::min(end, spans_[s].end_ns);
    if (to > from) covered += to - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(spans_[s].end_ns - spans_[s].start_ns - covered) *
         1e-3;
}

std::vector<double> SpanRecorder::DurationsOf(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(DurationUs(static_cast<std::int32_t>(i)));
  }
  return out;
}

std::vector<double> SpanRecorder::SelfTimesOf(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(SelfUs(static_cast<std::int32_t>(i)));
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path,
                              const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":%s,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 i, JsonString(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
