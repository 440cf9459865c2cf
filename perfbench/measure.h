// Measurement helpers of the end-to-end benchmark: percentiles over raw
// samples (never over histogram buckets), metric records that carry their
// unit and sample count, and an in-memory span log written when a run ends.
#ifndef XPATHSAT_PERFBENCH_MEASURE_H_
#define XPATHSAT_PERFBENCH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of raw samples (q in [0, 1]); sorts `v`.
/// Returns 0 for no samples.
inline double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[rank == 0 ? 0 : rank - 1];
}

/// One reported number: its value, unit, and how many raw samples (or, for
/// a ratio, counted events) it was computed from.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Named metrics in insertion-independent (sorted) order.
using MetricMap = std::map<std::string, Metric>;

inline void Put(MetricMap* m, const std::string& name, double value,
                const char* unit, uint64_t samples) {
  (*m)[name] = Metric{value, unit, samples};
}

/// Appends a JSON number with every digit a double carries.
inline std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// `{"name": {"value": V, "unit": U}, ...}`; with `samples`, each object
/// also carries its sample count.
inline std::string MetricsJson(const MetricMap& m, bool samples) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit);
    if (samples) out += ", \"samples\": " + std::to_string(metric.samples);
    out += "}";
  }
  return out + "}";
}

/// One span: a named interval of one request, with the index of the span
/// that caused it (-1 for a root).
struct Span {
  uint64_t request = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory for the whole run and written out at its end.
/// Thread-safe: the submitter and the client reader threads both record.
class SpanLog {
 public:
  /// Records a span and returns its index (the parent id of its children).
  int64_t Add(uint64_t request, int64_t parent, const char* name,
              int64_t start_ns, int64_t end_ns) {
    xpathsat::util::MutexLock lock(mu_);
    spans_.push_back(Span{request, parent, name, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> Take() {
    xpathsat::util::MutexLock lock(mu_);
    return std::move(spans_);
  }

 private:
  xpathsat::util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// Per span name: count, total duration and total self time, where a
/// span's self time is its duration minus the part of its interval that its
/// child spans cover.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

inline std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    t.self_us += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return out;
}

/// Writes one JSON object per line: id, parent, request, name, start/end.
inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // XPATHSAT_PERFBENCH_MEASURE_H_
