#include "src/obs/trace.h"

#include <sstream>
#include <utility>

#include "src/obs/metrics.h"

namespace xpathsat {
namespace obs {

void SlowQueryLog::Push(SlowQueryRecord record) {
  util::MutexLock lock(mu_);
  record.seq = next_seq_++;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() >= capacity_) {
    ring_.erase(ring_.begin());
    ++dropped_;
  }
  ring_.push_back(std::move(record));
}

SlowQueryLog::Drained SlowQueryLog::Drain() {
  Drained out;
  util::MutexLock lock(mu_);
  out.dropped = dropped_;
  dropped_ = 0;
  out.records.swap(ring_);
  return out;
}

std::string RenderSlowJson(const SlowQueryLog::Drained& drained) {
  std::ostringstream os;
  os << "{\"dropped\": " << drained.dropped << ", \"records\": [";
  bool first = true;
  for (const SlowQueryRecord& r : drained.records) {
    os << (first ? "" : ", ") << "{\"seq\": " << r.seq
       << ", \"ticket_id\": " << r.ticket_id
       << ", \"dtd_fingerprint\": " << r.dtd_fingerprint
       << ", \"query\": \"" << JsonEscape(r.query) << '"'
       << ", \"route\": \"" << JsonEscape(r.trace.route) << '"'
       << ", \"queue_ns\": " << r.trace.queue_ns
       << ", \"parse_ns\": " << r.trace.parse_ns
       << ", \"rewrite_ns\": " << r.trace.rewrite_ns
       << ", \"decide_ns\": " << r.trace.decide_ns
       << ", \"total_ns\": " << r.trace.total_ns << '}';
    first = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace obs
}  // namespace xpathsat
