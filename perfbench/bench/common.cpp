#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

int Tracer::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  cpu_start_.push_back(process_cpu_seconds());
  return index;
}

void Tracer::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  span.cpu_ms = 1e3 * (process_cpu_seconds() - cpu_start_.back());
  cpu_start_.pop_back();
  stack_.pop_back();
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += (span.end_us - span.start_us) / 1e3;
  }
  return total;
}

double Tracer::cpu_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.cpu_ms;
  }
  return total;
}

double Tracer::self_ms(std::string_view name) const {
  double total = total_ms(name);
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == name) {
      total -= (span.end_us - span.start_us) / 1e3;
    }
  }
  return total;
}

double Tracer::self_cpu_ms(std::string_view name) const {
  double total = cpu_ms(name);
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        spans_[static_cast<std::size_t>(span.parent)].name == name) {
      total -= span.cpu_ms;
    }
  }
  return total;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  // Self time: a span's duration minus the union of its children, which
  // never overlap (spans nest on one thread).
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double dur = span.end_us - span.start_us;
    const std::string parent =
        span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].name
                         : std::string();
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"id\":%zu,\"parent_id\":%d,\"parent\":\"%s\","
                  "\"self_us\":%.3f,\"cpu_ms\":%.3f}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.start_us, dur, i,
                  span.parent, parent.c_str(), dur - child_us[i], span.cpu_ms);
    out << buffer;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
