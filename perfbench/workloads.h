// Seeded inputs of the end-to-end benchmark: the schemas it registers with
// the server and the query streams of its three workloads. Everything here
// is a pure function of the seed, so two runs with one seed send the same
// traffic.
#ifndef XPATHSAT_PERFBENCH_WORKLOADS_H_
#define XPATHSAT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace perfbench {

/// One schema: the name it is registered under (`dtd NAME PATH`) and its
/// source text in the Dtd::Parse syntax.
struct Schema {
  std::string name;
  std::string text;
};

/// One request: an index into the workload's schema list and the query text.
/// Generated query texts are canonical printings (ToString of the parsed
/// AST, the engine's cache key), so distinct texts are distinct cache keys.
struct Request {
  uint32_t schema = 0;
  std::string query;
};

/// The dispatch cells a generated query is aimed at, in the order of the
/// Sec. 8 dispatch.
enum class RouteClass { kReach, kSibling, kDjfree, kUpdown, kSkeleton,
                        kBoundedModel, kCount };

/// Short route names used in metric names ("reach-dp", ...), indexed by
/// RouteClass.
extern const char* const kRouteNames[static_cast<int>(RouteClass::kCount)];

/// Maps a SatReport::algorithm string ("reach-dp (Thm 4.1)") to its short
/// route name; "" for a route outside kRouteNames.
std::string ShortRoute(const std::string& algorithm);

/// The 30-type dj-free catalog schema (the engine bench's schema).
Schema CatalogSchema();
/// A recursive dj-free schema.
Schema RecursiveSchema();
/// A small schema whose content models use disjunction.
Schema DisjunctiveSchema();

/// `hot_repeat`: about 200 distinct catalog queries with the engine bench's
/// template mix.
std::vector<std::string> HotQueryPool(xpathsat::Rng* rng, int distinct);

/// Generates distinct queries (no canonical text twice) over a set of
/// schemas, RandomPath-shaped, with fixed per-route shares: each query is
/// built for one RouteClass and kept only if the dispatch's feature tests
/// send it there. Only the schemas that admit a class are drawn for it
/// (dj-free for djfree/updown, disjunctive for skeleton/bounded-model).
class QueryGenerator {
 public:
  QueryGenerator(uint64_t seed, const std::vector<Schema>& schemas);
  ~QueryGenerator();

  /// The next never-before-generated request.
  Request Next();

  /// Route-class shares in percent, indexed by RouteClass; they sum to 100.
  static const int kSharePercent[];

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `zipf_checkpoint` inputs: eight schemas (the three base schemas and
/// five seeded variants of them) and `distinct` (schema, query) pairs,
/// ordered by popularity rank (rank 0 most popular).
struct ZipfSet {
  std::vector<Schema> schemas;
  std::vector<Request> pairs;
};
ZipfSet MakeZipfSet(uint64_t seed, int distinct);

/// Draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(xpathsat::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // XPATHSAT_PERFBENCH_WORKLOADS_H_
