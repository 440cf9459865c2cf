// Fixture: registers three metrics; README.md's metrics table documents
// only two — the metric-doc rule must flag `phantom_depth`.
#include "src/obs/metrics.h"

namespace fixture {

void Register(xpathsat::obs::MetricsRegistry* registry) {
  registry->counter("known_requests");
  registry->histogram("known_ns");
  registry->gauge("phantom_depth");
}

}  // namespace fixture
