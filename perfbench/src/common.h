// Shared helpers of the benchmark program: clocks, order statistics, the
// result record every workload fills, and a minimal JSON writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline std::int64_t NanosOf(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Robust q-quantile of a time-ordered sample: the sample is cut into
/// consecutive windows, each large enough to hold at least ten samples beyond
/// its q-quantile (and at least 100 samples), and the median of the windows'
/// q-quantiles is returned. A short stall on a shared machine then moves one
/// window, not the figure. The last partial window joins the one before it.
inline double WindowedQuantile(const std::vector<double>& v, double q) {
  const std::size_t window = std::max<std::size_t>(
      100, static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q))));
  if (v.size() < 2 * window) return Quantile(v, q);
  std::vector<double> per_window;
  const std::size_t windows = v.size() / window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? v.end() : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

/// Median over whole windows of `window_s` seconds of the completion rate;
/// `completions_s` are completion times in seconds since the phase began,
/// `seconds` the phase length. A window's rate is measured between its first
/// and last completion, so it does not depend on where the boundaries fall.
inline double WindowedRate(std::vector<double> completions_s, double seconds,
                           double window_s) {
  std::sort(completions_s.begin(), completions_s.end());
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s));
  std::vector<double> rates;
  std::size_t i = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    const double end = static_cast<double>(w + 1) * window_s;
    const std::size_t first = i;
    while (i < completions_s.size() && completions_s[i] < end) ++i;
    if (i - first >= 2 && completions_s[i - 1] > completions_s[first]) {
      rates.push_back(static_cast<double>(i - first - 1) /
                      (completions_s[i - 1] - completions_s[first]));
    }
  }
  return Median(rates);
}

/// One named metric as printed in the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(). `failures` lists every check that
/// did not hold; `correct` is their absence.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> failures;
  /// Free-form notes for stderr (generator lateness, sample counts, ...).
  std::vector<std::string> notes;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Note(const std::string& what) { notes.push_back(what); }
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
};

inline std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
