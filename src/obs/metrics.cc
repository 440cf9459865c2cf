#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace xpathsat {
namespace obs {

namespace {

int FloorLog2(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(v);
#else
  int r = 0;
  while (v >>= 1) ++r;
  return r;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

int Histogram::BucketIndex(uint64_t value_ns) {
  if (value_ns == 0) return 0;
  const int idx = 1 + FloorLog2(value_ns);
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

uint64_t Histogram::BucketUpperBoundNs(int index) {
  if (index <= 0) return 0;
  if (index >= kNumBuckets - 1) return UINT64_MAX;
  return (uint64_t{1} << index) - 1;
}

void Histogram::Record(uint64_t value_ns) {
  buckets_[BucketIndex(value_ns)].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(value_ns, std::memory_order_relaxed);
  uint64_t cur = max_ns_.load(std::memory_order_relaxed);
  while (value_ns > cur &&
         !max_ns_.compare_exchange_weak(cur, value_ns,
                                        std::memory_order_relaxed)) {
  }
  // Release-publish the count last so an acquire snapshot that observes this
  // increment also observes the bucket/sum/max writes above.
  count_.fetch_add(1, std::memory_order_release);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_acquire);
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t Histogram::Snapshot::BucketTotal() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) total += buckets[i];
  return total;
}

uint64_t Histogram::Snapshot::PercentileNs(double q) const {
  const uint64_t total = BucketTotal();
  if (total == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Never report a percentile above the observed max.
      const uint64_t upper = BucketUpperBoundNs(i);
      return max_ns != 0 ? std::min(upper, max_ns) : upper;
    }
  }
  return max_ns;
}

// ---------------------------------------------------------------------------
// RouteCounters

RouteCounters::~RouteCounters() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_acquire);
}

size_t RouteCounters::HashName(const std::string& name) {
  // FNV-1a; route names are short and fixed, so quality is ample.
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

void RouteCounters::Increment(const std::string& route, uint64_t n) {
  const size_t start = HashName(route) % kNumSlots;
  for (size_t probe = 0; probe < kNumSlots; ++probe) {
    std::atomic<Node*>& slot = slots_[(start + probe) % kNumSlots];
    Node* node = slot.load(std::memory_order_acquire);
    if (node == nullptr) {
      Node* fresh = new Node(route);
      fresh->count.store(n, std::memory_order_relaxed);
      if (slot.compare_exchange_strong(node, fresh, std::memory_order_release,
                                       std::memory_order_acquire)) {
        return;
      }
      delete fresh;  // lost the race; `node` now holds the winner
    }
    if (node->name == route) {
      node->count.fetch_add(n, std::memory_order_release);
      return;
    }
  }
  overflow_.fetch_add(n, std::memory_order_release);
}

std::map<std::string, uint64_t> RouteCounters::TakeSnapshot() const {
  std::map<std::string, uint64_t> out;
  for (const auto& slot : slots_) {
    const Node* node = slot.load(std::memory_order_acquire);
    if (node != nullptr) {
      out[node->name] += node->count.load(std::memory_order_acquire);
    }
  }
  const uint64_t overflow = overflow_.load(std::memory_order_acquire);
  if (overflow != 0) out["(overflow)"] = overflow;
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter* MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram());
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  util::MutexLock lock(mu_);
  for (const auto& kv : counters_) snap.counters[kv.first] = kv.second->value();
  for (const auto& kv : gauges_) snap.gauges[kv.first] = kv.second->value();
  for (const auto& kv : histograms_) {
    snap.histograms[kv.first] = kv.second->TakeSnapshot();
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Rendering

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

MetricsRegistry::Snapshot MergeSnapshots(const MetricsRenderInput& in) {
  MetricsRegistry::Snapshot merged;
  for (const MetricsRegistry* reg : in.registries) {
    if (reg == nullptr) continue;
    MetricsRegistry::Snapshot snap = reg->TakeSnapshot();
    for (auto& kv : snap.counters) merged.counters[kv.first] = kv.second;
    for (auto& kv : snap.gauges) merged.gauges[kv.first] = kv.second;
    for (auto& kv : snap.histograms) merged.histograms[kv.first] = kv.second;
  }
  return merged;
}

std::string PromName(const std::string& name) {
  std::string out = "xpathsat_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string RenderMetricsJson(const MetricsRenderInput& in) {
  const MetricsRegistry::Snapshot snap = MergeSnapshots(in);
  std::ostringstream os;
  os << "{\"uptime_ms\": " << in.uptime_ms
     << ", \"snapshot_seq\": " << in.snapshot_seq;
  os << ", \"counters\": {";
  bool first = true;
  for (const auto& kv : snap.counters) {
    os << (first ? "" : ", ") << '"' << JsonEscape(kv.first) << "\": " << kv.second;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& kv : snap.gauges) {
    os << (first ? "" : ", ") << '"' << JsonEscape(kv.first) << "\": " << kv.second;
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& kv : snap.histograms) {
    const Histogram::Snapshot& h = kv.second;
    os << (first ? "" : ", ") << '"' << JsonEscape(kv.first) << "\": {"
       << "\"count\": " << h.count << ", \"sum_ns\": " << h.sum_ns
       << ", \"max_ns\": " << h.max_ns
       << ", \"p50_ns\": " << h.PercentileNs(0.50)
       << ", \"p90_ns\": " << h.PercentileNs(0.90)
       << ", \"p99_ns\": " << h.PercentileNs(0.99) << '}';
    first = false;
  }
  os << "}, \"routes\": {";
  first = true;
  if (in.routes != nullptr) {
    for (const auto& kv : in.routes->TakeSnapshot()) {
      os << (first ? "" : ", ") << '"' << JsonEscape(kv.first) << "\": " << kv.second;
      first = false;
    }
  }
  os << "}}";
  return os.str();
}

std::string RenderMetricsProm(const MetricsRenderInput& in) {
  const MetricsRegistry::Snapshot snap = MergeSnapshots(in);
  std::ostringstream os;
  os << "# TYPE xpathsat_uptime_ms gauge\n"
     << "xpathsat_uptime_ms " << in.uptime_ms << '\n';
  os << "# TYPE xpathsat_snapshot_seq counter\n"
     << "xpathsat_snapshot_seq " << in.snapshot_seq << '\n';
  for (const auto& kv : snap.counters) {
    const std::string name = PromName(kv.first);
    os << "# TYPE " << name << " counter\n" << name << ' ' << kv.second << '\n';
  }
  for (const auto& kv : snap.gauges) {
    const std::string name = PromName(kv.first);
    os << "# TYPE " << name << " gauge\n" << name << ' ' << kv.second << '\n';
  }
  for (const auto& kv : snap.histograms) {
    const std::string name = PromName(kv.first);
    const Histogram::Snapshot& h = kv.second;
    os << "# TYPE " << name << " histogram\n";
    // Empty buckets are elided (cumulative values stay correct); the +Inf
    // bucket is mandatory in the exposition format and always emitted.
    uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
      if (h.buckets[i] == 0) continue;
      cumulative += h.buckets[i];
      os << name << "_bucket{le=\"" << Histogram::BucketUpperBoundNs(i)
         << "\"} " << cumulative << '\n';
    }
    cumulative += h.buckets[Histogram::kNumBuckets - 1];
    os << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
    os << name << "_sum " << h.sum_ns << '\n';
    os << name << "_count " << h.count << '\n';
  }
  if (in.routes != nullptr) {
    os << "# TYPE xpathsat_requests_by_route_total counter\n";
    for (const auto& kv : in.routes->TakeSnapshot()) {
      os << "xpathsat_requests_by_route_total{route=\"" << JsonEscape(kv.first)
         << "\"} " << kv.second << '\n';
    }
  }
  os << "# EOF\n";
  return os.str();
}

}  // namespace obs
}  // namespace xpathsat
