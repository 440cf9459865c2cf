// The traced mode's in-process half: replays a workload's requests through
// each layer's public functions (parser, feature detection, deciders,
// engine, protocol formatting, store) and times the layers the served
// request path crosses, one at a time.
#ifndef XPATHSAT_PERFBENCH_LAYERS_H_
#define XPATHSAT_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/workloads.h"
#include "src/sat/decision.h"

namespace perfbench {

/// One replayed request: the id its wire request carried and its inputs.
struct ReplayItem {
  uint64_t request_id = 0;
  const Request* request = nullptr;
};

struct LayerInputs {
  const std::vector<Schema>* schemas = nullptr;
  /// Distinct requests, in the order the traced window sent them.
  std::vector<ReplayItem> items;
  /// Reference verdicts (facade) for every replayed request.
  const std::unordered_map<const Request*, xpathsat::SatVerdict>* reference =
      nullptr;
  /// Threads for the contended measurements (the host's nproc).
  int threads = 1;
  /// Engine worker threads: the served configuration's --threads.
  int engine_threads = 2;
  /// A snapshot the server wrote during the run (timed load).
  std::string snapshot_path;
};

/// Runs the replay and the layer measurements. Records spans (`layers` with
/// its xpath.parse / xpath.features / sat.decide children, and
/// engine.submit_get) into `log` under each item's request id, and adds
/// per-layer metrics to `out`. Returns false and sets `error` when a
/// replayed verdict disagrees with the reference.
bool RunLayers(const LayerInputs& in, SpanLog* log, MetricMap* out,
               std::string* error);

}  // namespace perfbench

#endif  // XPATHSAT_PERFBENCH_LAYERS_H_
