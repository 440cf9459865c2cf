#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstdlib>
#include <map>
#include <unordered_set>
#include <utility>

#include "src/xpath/ast.h"
#include "src/xpath/features.h"
#include "src/xpath/parser.h"

namespace perfbench {

using xpathsat::Features;
using xpathsat::PathExpr;
using xpathsat::PathKind;
using xpathsat::Qualifier;
using xpathsat::Rng;

const char* const kRouteNames[static_cast<int>(RouteClass::kCount)] = {"reach-dp",       "sibling-nfa",
                                   "djfree-dp",      "updown-rewrite",
                                   "skeleton",       "bounded-model"};

// Mostly PTIME routes with a small fixed slice of the NP skeleton search and
// the bounded-model search, whose worst cases dominate the latency tail.
const int QueryGenerator::kSharePercent[] = {34, 20, 24, 12, 6, 4};

std::string ShortRoute(const std::string& algorithm) {
  for (const char* name : kRouteNames) {
    if (algorithm.compare(0, std::string(name).size(), name) == 0) {
      return name;
    }
  }
  return "";
}

Schema CatalogSchema() {
  return {"catalog", R"(root catalog
catalog -> frontmatter, section*, backmatter
frontmatter -> title, subtitle, author*, legal
subtitle -> eps
author -> name, affiliation
name -> eps
affiliation -> eps
legal -> para*
section -> heading, para*, item*, figure*, subsection*, appendix
subsection -> heading, para*, item*, figure*
heading -> eps
para -> emph, xref
emph -> eps
xref -> eps
item -> title, price, variant*, note*
title -> eps
price -> amount, range*
amount -> eps
range -> amount, amount
variant -> swatch, swatch*
swatch -> eps
note -> ref, para*
ref -> eps
figure -> caption, image*, table*
caption -> eps
image -> eps
table -> row, row*
row -> cell*
cell -> para*
appendix -> note*
backmatter -> index, colophon
index -> entrylist*
entrylist -> eps
colophon -> eps
)"};
}

Schema RecursiveSchema() {
  return {"tree", R"(root doc
doc -> head, part*
head -> title, meta*
part -> title, part*, para*, list*
list -> entry, entry*
entry -> para*, list*
para -> text, ref*
title -> eps
meta -> eps
text -> eps
ref -> eps
)"};
}

Schema DisjunctiveSchema() {
  // Star-free, so the bounded-model search over it stays small: negated
  // queries over a schema with starred or recursive content explore a space
  // that grows exponentially with the caps.
  return {"form", R"(root form
form -> header, (group + field), footer
header -> title + label
group -> label, (field + choice)
field -> (text + choice), note
choice -> yes + no
footer -> note + sign
title -> eps
label -> eps
text -> eps
note -> eps
sign -> eps
yes -> eps
no -> eps
)"};
}

std::vector<std::string> HotQueryPool(Rng* rng, int distinct) {
  // The template mix of bench/bench_engine_throughput.cc, so the two benches
  // decide comparable traffic.
  const std::vector<std::string> labels = {
      "catalog", "section", "subsection", "item",   "title", "price",
      "variant", "swatch",  "note",       "ref",    "para",  "figure",
      "caption", "image",   "table",      "row",    "cell",  "heading",
      "author",  "name",    "amount",     "emph",   "xref"};
  auto label = [&] { return labels[rng->Below(labels.size())]; };
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  while (static_cast<int>(pool.size()) < distinct) {
    std::string q;
    switch (rng->IntIn(0, 9)) {
      case 0:
        q = "section/item/" + label();
        break;
      case 1:
      case 2:
        q = "**/" + label();
        break;
      case 3:
        q = label() + "|**/" + label();
        break;
      case 4:
        q = "*/" + label() + "/*";
        break;
      case 5:
        q = "section/**/" + label();
        break;
      case 6:
        q = "section/" + std::string(rng->Percent(50) ? "item/>" : "heading/>");
        break;
      case 7:
        q = "section/item/>/" + std::string(rng->Percent(50) ? ">" : "<");
        break;
      case 8:
        q = "section/item[" + label() + "]";
        break;
      default:
        q = "section/figure[table/row]|subsection/item[" + label() + "]";
        break;
    }
    // The template space is small: keep drawing until `distinct` texts.
    if (seen.insert(q).second) pool.push_back(std::move(q));
  }
  return pool;
}

namespace {

// The element types of a schema and, per type, the types its content model
// mentions: the generator walks these edges so most label steps follow the
// schema, as queries written against it do, and the mix has both verdicts.
struct Graph {
  std::string root;
  std::vector<std::string> types;
  std::map<std::string, std::vector<std::string>> children;
  bool disjunctive = false;  // some content model uses `+`
};

Graph ParseGraph(const Schema& schema) {
  Graph g;
  size_t pos = 0;
  while (pos < schema.text.size()) {
    size_t end = schema.text.find('\n', pos);
    if (end == std::string::npos) end = schema.text.size();
    std::string line = schema.text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("root ", 0) == 0) g.root = line.substr(5);
    size_t arrow = line.find(" -> ");
    if (arrow == std::string::npos) continue;
    std::string type = line.substr(0, arrow);
    g.types.push_back(type);
    if (line.find('+', arrow) != std::string::npos) g.disjunctive = true;
    std::vector<std::string>& kids = g.children[type];
    std::string token;
    for (size_t i = arrow + 4; i <= line.size(); ++i) {
      char c = i < line.size() ? line[i] : ' ';
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        token += c;
        continue;
      }
      if (!token.empty() && token != "eps") kids.push_back(token);
      token.clear();
    }
  }
  return g;
}

// Which axes and operators one route class may use. The shapes follow
// RandomPath (tests/test_util.h): sequences, unions and filters over label
// and axis steps, with qualifiers built from paths, label tests, and/or/not.
struct Shape {
  bool descendant = false;
  bool upward = false;
  bool sibling = false;
  bool union_op = false;
  bool filter = false;
  bool negation = false;
  bool disjunction = false;  // qualifier `||`
};

Shape ShapeOf(RouteClass c) {
  Shape s;
  switch (c) {
    case RouteClass::kReach:
      s.descendant = s.union_op = true;
      break;
    case RouteClass::kSibling:
      s.sibling = true;
      break;
    case RouteClass::kDjfree:
      s.descendant = s.union_op = s.filter = s.disjunction = true;
      break;
    case RouteClass::kUpdown:
      s.upward = true;
      break;
    case RouteClass::kSkeleton:
      s.descendant = s.union_op = s.filter = s.disjunction = true;
      break;
    case RouteClass::kBoundedModel:
      s.filter = s.negation = true;
      break;
    case RouteClass::kCount:
      break;
  }
  return s;
}

class PathMaker {
 public:
  PathMaker(Rng* rng, const Graph* graph, Shape shape)
      : rng_(rng), graph_(graph), shape_(shape) {}

  // One step after a node of type `*cur` ("" when unknown); updates `*cur`.
  std::unique_ptr<PathExpr> Step(std::string* cur) {
    int roll = rng_->IntIn(0, 99);
    if (shape_.descendant && roll < 15) {
      cur->clear();
      return PathExpr::Axis(PathKind::kDescOrSelf);
    }
    if (roll >= 15 && roll < 27) {
      cur->clear();
      return PathExpr::Axis(PathKind::kChildAny);
    }
    if (shape_.sibling && roll >= 27 && roll < 52) {
      cur->clear();
      return PathExpr::Axis(rng_->Percent(60) ? PathKind::kRightSib
                                              : PathKind::kLeftSib);
    }
    if (shape_.upward && roll >= 52 && roll < 70) {
      cur->clear();
      return PathExpr::Axis(PathKind::kParent);
    }
    return Label(cur);
  }

  // A child label of `*cur` three times in four, any type otherwise.
  std::unique_ptr<PathExpr> Label(std::string* cur) {
    auto it = graph_->children.find(*cur);
    if (it != graph_->children.end() && !it->second.empty() &&
        rng_->Percent(75)) {
      *cur = it->second[rng_->Below(it->second.size())];
    } else {
      *cur = graph_->types[rng_->Below(graph_->types.size())];
    }
    return PathExpr::Label(*cur);
  }

  // A chain of `min_len`..`max_len` steps from a node of type `*cur`, whose
  // first step is a label.
  std::unique_ptr<PathExpr> Chain(std::string* cur, int min_len,
                                  int max_len) {
    std::vector<std::unique_ptr<PathExpr>> parts;
    parts.push_back(Label(cur));
    int len = rng_->IntIn(min_len, max_len);
    for (int i = 1; i < len; ++i) parts.push_back(Step(cur));
    return PathExpr::SeqAll(std::move(parts));
  }

  std::unique_ptr<Qualifier> Qual(const std::string& at, int depth) {
    int roll = rng_->IntIn(0, 9);
    if (depth > 0 && roll < 2) {
      return Qualifier::And(Qual(at, depth - 1), Qual(at, depth - 1));
    }
    if (depth > 0 && roll < 4 && shape_.disjunction) {
      return Qualifier::Or(Qual(at, depth - 1), Qual(at, depth - 1));
    }
    if (roll == 9) {
      return Qualifier::LabelTest(
          graph_->types[rng_->Below(graph_->types.size())]);
    }
    std::string cur = at;
    return Qualifier::Path(Chain(&cur, 1, 2));
  }

  // A path from the root with at least one filter when the shape has
  // filters, so the query cannot fall back to a qualifier-free route.
  std::unique_ptr<PathExpr> Path() {
    std::string cur = graph_->root;
    std::unique_ptr<PathExpr> p = Chain(&cur, shape_.upward ? 3 : 1, 4);
    if (shape_.upward) {
      // Guarantee the upward step the route needs.
      p = PathExpr::Seq(std::move(p), PathExpr::Axis(PathKind::kParent));
      cur.clear();
      p = PathExpr::Seq(std::move(p), Label(&cur));
    }
    if (shape_.negation) {
      // Small negated qualifiers only: the bounded-model search is
      // exponential in the query, and the run must not stall on one request.
      std::unique_ptr<Qualifier> q = Qualifier::Not(Qual(cur, 0));
      if (rng_->Percent(40)) q = Qualifier::And(Qual(cur, 0), std::move(q));
      p = PathExpr::Filter(std::move(p), std::move(q));
    } else if (shape_.filter) {
      p = PathExpr::Filter(std::move(p), Qual(cur, 2));
      if (rng_->Percent(40)) p = PathExpr::Seq(std::move(p), Label(&cur));
    }
    if (shape_.union_op && rng_->Percent(30)) {
      std::string other = graph_->root;
      std::unique_ptr<PathExpr> q = Chain(&other, 1, 3);
      if (shape_.filter && rng_->Percent(50)) {
        q = PathExpr::Filter(std::move(q), Qual(other, 1));
      }
      p = PathExpr::Union(std::move(p), std::move(q));
    }
    return p;
  }

 private:
  Rng* rng_;
  const Graph* graph_;
  Shape shape_;
};

// The cell the Sec. 8 dispatch (DecideSatisfiability) picks for a query
// with features `f` over a schema, by the same feature tests in the same
// order. The dispatch moves on when a decider rejects the query, which the
// feature tests cannot see; the traced run reports the route every replayed
// request really took (sat.route_share.*).
RouteClass PredictRoute(const Features& f, bool disjunctive) {
  bool plain = !f.qualifier && !f.negation && !f.data_values && !f.HasUpward();
  if (plain && !f.HasSibling()) return RouteClass::kReach;
  if (plain && !f.descendant && !f.union_op && !f.right_sib_star &&
      !f.left_sib_star) {
    return RouteClass::kSibling;
  }
  if (!disjunctive && !f.negation && !f.data_values && !f.HasSibling()) {
    if (!f.HasUpward()) return RouteClass::kDjfree;
    if (!f.qualifier && !f.union_op && !f.HasRecursion()) {
      return RouteClass::kUpdown;
    }
  }
  if (f.IsPositive() && !f.HasSibling()) return RouteClass::kSkeleton;
  return RouteClass::kBoundedModel;
}

}  // namespace

struct QueryGenerator::Impl {
  Rng rng;
  std::vector<Graph> graphs;
  // Schemas each route class may draw, indexed by RouteClass.
  std::vector<std::vector<uint32_t>> eligible;
  std::unordered_set<std::string> seen;
};

QueryGenerator::QueryGenerator(uint64_t seed,
                               const std::vector<Schema>& schemas)
    : impl_(new Impl{Rng(seed), {}, {}, {}}) {
  impl_->eligible.resize(static_cast<size_t>(RouteClass::kCount));
  for (uint32_t i = 0; i < schemas.size(); ++i) {
    impl_->graphs.push_back(ParseGraph(schemas[i]));
    bool disjunctive = impl_->graphs.back().disjunctive;
    for (int c = 0; c < static_cast<int>(RouteClass::kCount); ++c) {
      bool needs_djfree = c == static_cast<int>(RouteClass::kDjfree) ||
                          c == static_cast<int>(RouteClass::kUpdown);
      bool needs_disjunction =
          c == static_cast<int>(RouteClass::kSkeleton) ||
          c == static_cast<int>(RouteClass::kBoundedModel);
      if ((needs_djfree && disjunctive) || (needs_disjunction && !disjunctive)) {
        continue;
      }
      impl_->eligible[static_cast<size_t>(c)].push_back(i);
    }
  }
  for (const auto& e : impl_->eligible) {
    if (e.empty()) {
      std::fprintf(stderr, "perfbench: a route class has no eligible schema\n");
      std::abort();
    }
  }
}

QueryGenerator::~QueryGenerator() = default;

Request QueryGenerator::Next() {
  Rng& rng = impl_->rng;
  int roll = rng.IntIn(0, 99);
  int c = 0;
  while (roll >= kSharePercent[c]) roll -= kSharePercent[c++];
  const RouteClass target = static_cast<RouteClass>(c);
  const std::vector<uint32_t>& eligible = impl_->eligible[c];
  // Redraw within the class until a new query lands on its route, so the
  // shares hold however often a class repeats itself or misses its route.
  for (int attempt = 0; attempt < 100000; ++attempt) {
    uint32_t schema = eligible[rng.Below(eligible.size())];
    const Graph& graph = impl_->graphs[schema];
    PathMaker maker(&rng, &graph, ShapeOf(target));
    // Canonicalize through the parser: the engine keys its caches on the
    // printing of the parsed AST, so this is the text it would see.
    std::string text = maker.Path()->ToString();
    auto parsed = xpathsat::ParsePath(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: generated query does not parse: %s\n",
                   text.c_str());
      std::abort();
    }
    if (PredictRoute(xpathsat::DetectFeatures(*parsed.value()),
                     graph.disjunctive) != target) {
      continue;
    }
    std::string canonical = parsed.value()->ToString();
    if (impl_->seen.insert(canonical).second) {
      return Request{schema, std::move(canonical)};
    }
  }
  std::fprintf(stderr, "perfbench: route class %s ran out of new queries\n",
               kRouteNames[c]);
  std::abort();
}

ZipfSet MakeZipfSet(uint64_t seed, int distinct) {
  ZipfSet set;
  const Schema bases[] = {CatalogSchema(), RecursiveSchema(),
                          DisjunctiveSchema()};
  const std::string roots[] = {"catalog", "doc", "form"};
  for (int i = 0; i < 8; ++i) {
    Schema s = bases[i % 3];
    if (i >= 3) {
      // A variant: the same schema with one more optional child of the
      // root, which gives it its own fingerprint and compiled artifacts.
      std::string pad = "pad" + std::to_string(i);
      std::string head = roots[i % 3] + " -> ";
      s.text.replace(s.text.find(head), head.size(), head + pad + "*, ");
      s.text += pad + " -> eps\n";
      s.name += std::to_string(i);
    }
    set.schemas.push_back(std::move(s));
  }
  QueryGenerator gen(seed, set.schemas);
  set.pairs.reserve(static_cast<size_t>(distinct));
  for (int i = 0; i < distinct; ++i) set.pairs.push_back(gen.Next());
  return set;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(Rng* rng) const {
  double u = static_cast<double>(rng->Next() >> 11) * 0x1.0p-53;
  size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

}  // namespace perfbench
