#include "perfbench/layers.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "src/engine/sat_engine.h"
#include "src/obs/metrics.h"
#include "src/sat/compiled_dtd.h"
#include "src/sat/satisfiability.h"
#include "src/server/protocol.h"
#include "src/util/thread_pool.h"
#include "src/xml/dtd.h"
#include "src/xpath/features.h"
#include "src/xpath/parser.h"

namespace perfbench {

namespace {

using xpathsat::CompiledDtd;
using xpathsat::Dtd;
using xpathsat::DtdHandle;
using xpathsat::SatEngine;
using xpathsat::SatEngineOptions;
using xpathsat::SatOptions;
using xpathsat::SatRequest;
using xpathsat::SatResponse;

// Timed loops run for at least this long, so per-call figures are not one
// scheduler quantum's worth of calls.
constexpr double kMinLoopSeconds = 0.2;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Median and p99 of `v` under `name` / `p99_name` (either may be empty).
void PutSummary(MetricMap* out, const std::string& name,
                const std::string& p99_name, std::vector<double> v,
                const char* unit) {
  uint64_t n = v.size();
  if (!name.empty()) Put(out, name, Percentile(&v, 0.5), unit, n);
  if (!p99_name.empty()) Put(out, p99_name, Percentile(&v, 0.99), unit, n);
}

// Runs `body(thread_index)` on `threads` threads started together and
// returns each thread's elapsed nanoseconds.
template <typename Body>
std::vector<double> Contended(int threads, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> elapsed(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      int64_t t0 = NowNs();
      body(t);
      elapsed[static_cast<size_t>(t)] = static_cast<double>(NowNs() - t0);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  go.store(true);
  for (std::thread& th : pool) th.join();
  return elapsed;
}

void MeasurePool(int threads, int engine_threads, MetricMap* out) {
  xpathsat::ThreadPool pool(engine_threads);
  std::vector<double> one;
  int64_t end = NowNs() + static_cast<int64_t>(kMinLoopSeconds * 1e9);
  while (NowNs() < end) {
    int64_t t0 = NowNs();
    pool.Submit([] {}).get();
    one.push_back(static_cast<double>(NowNs() - t0));
  }
  PutSummary(out, "util.pool_handoff_ns", "", std::move(one), "ns");

  const int kPerThread = 5000;
  std::vector<std::vector<double>> per(static_cast<size_t>(threads));
  Contended(threads, [&](int t) {
    std::vector<double>& mine = per[static_cast<size_t>(t)];
    mine.reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      int64_t t0 = NowNs();
      pool.Submit([] {}).get();
      mine.push_back(static_cast<double>(NowNs() - t0));
    }
  });
  std::vector<double> all;
  for (const auto& v : per) all.insert(all.end(), v.begin(), v.end());
  PutSummary(out, "util.pool_handoff_ns.contended", "", std::move(all), "ns");
}

void MeasureObs(int threads, const std::vector<std::string>& routes,
                MetricMap* out) {
  const int kOps = 400000;
  xpathsat::obs::Histogram hist;
  std::vector<double> ns = Contended(threads, [&](int t) {
    for (int i = 0; i < kOps; ++i) {
      hist.Record(static_cast<uint64_t>(i * 37 + t) & 0xfffff);
    }
  });
  for (double& v : ns) v /= kOps;
  PutSummary(out, "obs.histogram_record_ns.contended", "", std::move(ns),
             "ns");

  xpathsat::obs::RouteCounters counters;
  ns = Contended(threads, [&](int t) {
    for (int i = 0; i < kOps; ++i) {
      counters.Increment(routes[static_cast<size_t>(i + t) % routes.size()]);
    }
  });
  for (double& v : ns) v /= kOps;
  PutSummary(out, "obs.route_increment_ns.contended", "", std::move(ns),
             "ns");
}

// Calls `fn` over `n` items round-robin for at least kMinLoopSeconds and
// returns nanoseconds per call.
template <typename Fn>
double PerCallNs(size_t n, Fn fn) {
  uint64_t calls = 0;
  int64_t t0 = NowNs();
  int64_t end = t0 + static_cast<int64_t>(kMinLoopSeconds * 1e9);
  while (NowNs() < end) {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += n;
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
}

}  // namespace

bool RunLayers(const LayerInputs& in, SpanLog* log, MetricMap* out,
               std::string* error) {
  if (in.items.empty()) {
    *error = "the traced window sent nothing to replay";
    return false;
  }
  SatOptions options;
  options.compute_witness = false;  // as the server decides

  // sat: DTD compilation, per schema.
  std::vector<Dtd> dtds;
  std::vector<std::shared_ptr<const CompiledDtd>> compiled;
  std::vector<double> compile_us;
  for (const Schema& s : *in.schemas) {
    xpathsat::Result<Dtd> d = Dtd::Parse(s.text);
    if (!d.ok()) {
      *error = "schema " + s.name + ": " + d.error();
      return false;
    }
    dtds.push_back(std::move(d).value());
    for (int rep = 0; rep < 20; ++rep) {
      int64_t t0 = NowNs();
      std::shared_ptr<const CompiledDtd> c = CompiledDtd::Compile(dtds.back());
      compile_us.push_back(Us(NowNs() - t0));
      if (rep == 0) compiled.push_back(std::move(c));
    }
  }
  PutSummary(out, "sat.compile_dtd_us", "", std::move(compile_us), "us");

  // The replay: each request through the layers one by one under a
  // `layers` root span, then through a fresh engine (every request a miss)
  // under an `engine.submit_get` span with the same request id.
  SatEngineOptions engine_options;
  engine_options.num_threads = in.engine_threads;
  SatEngine engine(engine_options);
  std::vector<DtdHandle> handles;
  for (const Dtd& d : dtds) handles.push_back(engine.RegisterDtd(d));

  std::vector<double> parse_us, features_us, decide_us, miss_us, overhead_us;
  std::map<std::string, std::vector<double>> route_us;
  std::vector<SatResponse> responses;
  for (const ReplayItem& item : in.items) {
    const Request& r = *item.request;
    int64_t t0 = NowNs();
    auto parsed = xpathsat::ParsePath(r.query);
    int64_t t1 = NowNs();
    if (!parsed.ok()) {
      *error = "replay: query does not parse: " + r.query;
      return false;
    }
    xpathsat::Features features = xpathsat::DetectFeatures(*parsed.value());
    int64_t t2 = NowNs();
    xpathsat::SatReport report = xpathsat::DecideSatisfiability(
        *parsed.value(), features, *compiled[r.schema], options);
    int64_t t3 = NowNs();
    int64_t root = log->Add(item.request_id, -1, "layers", t0, t3);
    log->Add(item.request_id, root, "xpath.parse", t0, t1);
    log->Add(item.request_id, root, "xpath.features", t1, t2);
    log->Add(item.request_id, root, "sat.decide", t2, t3);

    SatRequest request;
    request.query = r.query;
    request.dtd = handles[r.schema];
    request.options = options;
    int64_t e0 = NowNs();
    SatResponse resp = engine.Submit(request).Get();
    int64_t e1 = NowNs();
    log->Add(item.request_id, -1, "engine.submit_get", e0, e1);

    xpathsat::SatVerdict want = in.reference->at(item.request);
    if (report.decision.verdict != want || !resp.status.ok() ||
        resp.report.decision.verdict != want) {
      *error = "replay verdict disagrees with the facade on " + r.query;
      return false;
    }
    parse_us.push_back(Us(t1 - t0));
    features_us.push_back(Us(t2 - t1));
    decide_us.push_back(Us(t3 - t2));
    route_us[ShortRoute(report.algorithm)].push_back(Us(t3 - t2));
    if (!resp.memo_hit) {
      miss_us.push_back(Us(e1 - e0));
      overhead_us.push_back(Us((e1 - e0) - (t1 - t0) - (t3 - t2)));
    }
    responses.push_back(std::move(resp));
  }
  size_t n = in.items.size();
  PutSummary(out, "xpath.parse_us", "", std::move(parse_us), "us");
  PutSummary(out, "xpath.features_us", "", std::move(features_us), "us");
  PutSummary(out, "sat.decide_us", "sat.decide_p99_us", std::move(decide_us),
             "us");
  for (const char* route : kRouteNames) {
    auto it = route_us.find(route);
    size_t count = it == route_us.end() ? 0 : it->second.size();
    Put(out, std::string("sat.route_share.") + route,
        n == 0 ? 0 : static_cast<double>(count) / static_cast<double>(n),
        "ratio", n);
    if (count > 0) {
      PutSummary(out, std::string("sat.decide_us.") + route, "",
                 std::move(it->second), "us");
    }
  }
  PutSummary(out, "engine.miss_us", "", std::move(miss_us), "us");
  PutSummary(out, "engine.overhead_us", "", std::move(overhead_us), "us");

  // engine: memo hits, one caller, then `threads` callers.
  std::vector<SatRequest> requests;
  for (const ReplayItem& item : in.items) {
    SatRequest request;
    request.query = item.request->query;
    request.dtd = handles[item.request->schema];
    request.options = options;
    requests.push_back(std::move(request));
  }
  std::vector<double> hit_us;
  int64_t end = NowNs() + static_cast<int64_t>(kMinLoopSeconds * 1e9);
  while (NowNs() < end) {
    for (const SatRequest& request : requests) {
      int64_t t0 = NowNs();
      SatResponse resp = engine.Submit(request).Get();
      hit_us.push_back(Us(NowNs() - t0));
      if (!resp.memo_hit) {
        *error = "replay: repeat request missed the memo: " + request.query;
        return false;
      }
    }
  }
  PutSummary(out, "engine.hit_us", "engine.hit_p99_us", std::move(hit_us),
             "us");
  std::atomic<uint64_t> hits{0};
  int64_t deadline = NowNs() + static_cast<int64_t>(kMinLoopSeconds * 1e9);
  std::vector<double> wall = Contended(in.threads, [&](int t) {
    uint64_t mine = 0;
    for (size_t i = static_cast<size_t>(t); NowNs() < deadline; ++i) {
      engine.Submit(requests[i % requests.size()]).Get();
      ++mine;
    }
    hits.fetch_add(mine);
  });
  double longest = *std::max_element(wall.begin(), wall.end());
  Put(out, "engine.hit_qps.contended",
      static_cast<double>(hits.load()) / (longest / 1e9), "req/s",
      hits.load());

  // server (protocol): request-line parsing and result-line formatting.
  std::vector<std::string> lines;
  for (const ReplayItem& item : in.items) {
    lines.push_back("query " + (*in.schemas)[item.request->schema].name +
                    " " + item.request->query);
  }
  size_t sink = 0;
  double parse_ns = PerCallNs(lines.size(), [&](size_t i) {
    sink += xpathsat::protocol::ParseCommandLine(lines[i]).command.arg.size();
  });
  double format_ns = PerCallNs(responses.size(), [&](size_t i) {
    sink += xpathsat::protocol::FormatResultLine(
                in.items[i].request_id, in.items[i].request->query,
                responses[i])
                .size();
  });
  if (sink == 0) {
    *error = "protocol replay produced no output";
    return false;
  }
  Put(out, "server.parse_line_ns", parse_ns, "ns", lines.size());
  Put(out, "server.format_result_ns", format_ns, "ns", responses.size());

  // store: loading the snapshot the server wrote.
  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    SatEngineOptions fresh_options;
    fresh_options.num_threads = 1;
    SatEngine fresh(fresh_options);
    int64_t t0 = NowNs();
    xpathsat::SnapshotLoadResult loaded = fresh.LoadSnapshot(in.snapshot_path);
    load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!loaded.status.ok() || loaded.dtds_loaded == 0) {
      *error = "snapshot load failed: " + loaded.status.message();
      return false;
    }
  }
  PutSummary(out, "store.load_ms", "", std::move(load_ms), "ms");

  // util and obs: the pool hand-off and the shared counters every request
  // touches, alone and with `threads` contenders.
  MeasurePool(in.threads, in.engine_threads, out);
  std::vector<std::string> routes;
  for (const SatResponse& r : responses) routes.push_back(r.report.algorithm);
  if (routes.empty()) routes.push_back("memo-hit");
  MeasureObs(in.threads, routes, out);
  return true;
}

}  // namespace perfbench
