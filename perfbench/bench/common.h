// Shared plumbing of the perfbench binary: clocks, the metric sink, the
// span tracer and the options every workload reads.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds of the whole process (every thread), for the *_cpu_ms
/// layer metrics: honest CPU, unlike summed per-thread wall time.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Keeps a computed value observable so the loop producing it is not
/// optimized away.
template <typename T>
inline void keep_observable(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median of a sample (by copy); 0 for an empty one.
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Threads the machine offers; scenario stages run with jobs = nproc.
  int nproc = 1;
  /// Directory (inside the checkout) for caches, artifacts and traces.
  std::string work_dir;
  /// CLOCK_MONOTONIC nanoseconds at which the launcher spawned this
  /// process; 0 when unknown.
  std::int64_t spawned_at_ns = 0;
};

/// One named measurement with its unit, in output order.
class Metrics {
 public:
  void set(const std::string& name, double value, std::string unit) {
    values_[name] = {value, std::move(unit)};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// In-memory span recorder for the traced mode. Spans nest on the calling
/// thread (the benchmark's main thread makes every call into the program);
/// each keeps its parent so self time is the span minus its children. With
/// tracing off, span() only calls its function: no clock is read.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    double cpu_ms = 0.0;
    int parent = -1;
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  template <typename Fn>
  decltype(auto) span(std::string_view name, Fn&& fn) {
    if (!enabled_) return std::forward<Fn>(fn)();
    const int index = open(name);
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() { tracer->close(index); }
    } closer{this, index};
    return std::forward<Fn>(fn)();
  }

  /// Summed wall milliseconds / process-CPU milliseconds of every span
  /// named `name`; 0 when none ran.
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] double cpu_ms(std::string_view name) const;
  /// The same, less the time of each span's children (self time).
  [[nodiscard]] double self_ms(std::string_view name) const;
  [[nodiscard]] double self_cpu_ms(std::string_view name) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON (complete "X" events,
  /// microsecond timestamps), each with its parent and self time in args.
  bool write_chrome_json(const std::string& path) const;

 private:
  int open(std::string_view name);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<double> cpu_start_;
};

}  // namespace perfbench
