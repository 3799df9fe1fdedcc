#ifndef SARGUS_BENCH_BENCH_COMMON_H_
#define SARGUS_BENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// \brief Shared scaffolding for the benchmark suite: cached graph +
/// index-pipeline construction (graphs are expensive; benchmarks reuse them
/// across cases) and query-pair sampling.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/path_parser.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "graph/line_graph.h"
#include "index/cluster_index.h"
#include "index/line_oracle.h"
#include "index/transitive_closure.h"
#include "query/audience.h"
#include "synth/generators.h"

namespace sargus {
namespace bench {

/// Kind of synthetic graph.
enum class GraphKind { kErdosRenyi, kBarabasiAlbert, kWattsStrogatz };

inline const char* GraphKindName(GraphKind k) {
  switch (k) {
    case GraphKind::kErdosRenyi:
      return "ER";
    case GraphKind::kBarabasiAlbert:
      return "BA";
    case GraphKind::kWattsStrogatz:
      return "WS";
  }
  return "?";
}

/// A fully built pipeline over one synthetic graph.
struct Pipeline {
  std::unique_ptr<SocialGraph> g;
  CsrSnapshot csr;
  LineGraph lg;
  std::unique_ptr<LineReachabilityOracle> oracle;
  std::unique_ptr<ClusterJoinIndex> cluster_index;
  /// Directed (as_undirected=false): what bench_closure_cost measures,
  /// and a sound prefilter only for the forward-only expressions the
  /// query benches run.
  std::unique_ptr<TransitiveClosure> closure;
};

/// Generates the graph for (kind, nodes, labels, seed); deterministic.
inline SocialGraph MakeGraph(GraphKind kind, size_t nodes, size_t num_labels,
                             uint64_t seed, double degree = 4.0) {
  SocialGraphSpec base;
  base.num_nodes = nodes;
  base.seed = seed;
  base.labels.clear();
  static const char* kLabelNames[] = {"friend", "colleague", "family",
                                      "follows", "contact"};
  for (size_t i = 0; i < num_labels; ++i) {
    base.labels.push_back(i < 5 ? std::string(kLabelNames[i])
                                : std::string("l").append(std::to_string(i)));
  }
  Result<SocialGraph> g = [&]() -> Result<SocialGraph> {
    switch (kind) {
      case GraphKind::kErdosRenyi:
        return GenerateErdosRenyi({.base = base, .avg_out_degree = degree});
      case GraphKind::kBarabasiAlbert:
        return GenerateBarabasiAlbert(
            {.base = base,
             .edges_per_node = static_cast<size_t>(degree)});
      case GraphKind::kWattsStrogatz:
        return GenerateWattsStrogatz(
            {.base = base,
             .neighbors_per_side = static_cast<size_t>(degree),
             .rewire_probability = 0.1});
    }
    return Status::InvalidArgument("unknown kind");
  }();
  if (!g.ok()) std::abort();
  return std::move(g).ValueOrDie();
}

/// A churned overlay over `g`: every 32nd live edge staged for removal
/// and as many absent triples, drawn uniformly, staged for addition
/// (1/16 of the edge count in all). Deterministic per graph.
inline DeltaOverlay MakeChurnOverlay(const SocialGraph& g) {
  DeltaOverlay overlay;
  size_t removed = 0;
  for (EdgeId e = 0; e < g.EdgeSlotCount(); e += 32) {
    if (!g.IsLiveEdge(e)) continue;
    const Edge& rec = g.edge(e);
    removed += overlay.StageRemove(rec.src, rec.dst, rec.label) ? 1 : 0;
  }
  Rng rng(7);
  while (overlay.NumAdded() < removed) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const NodeId d = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    const LabelId l = static_cast<LabelId>(rng.NextBounded(g.labels().size()));
    if (!g.FindEdge(s, d, l).has_value()) (void)overlay.StageAdd(s, d, l);
  }
  return overlay;
}

/// Returns a cached pipeline (built once per process per key).
inline const Pipeline& GetPipeline(GraphKind kind, size_t nodes,
                                   size_t num_labels = 3, uint64_t seed = 42,
                                   double degree = 4.0) {
  using Key = std::tuple<int, size_t, size_t, uint64_t, int>;
  static std::map<Key, std::unique_ptr<Pipeline>> cache;
  Key key{static_cast<int>(kind), nodes, num_labels, seed,
          static_cast<int>(degree * 100)};
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto p = std::make_unique<Pipeline>();
  p->g = std::make_unique<SocialGraph>(
      MakeGraph(kind, nodes, num_labels, seed, degree));
  p->csr = CsrSnapshot::Build(*p->g);
  p->lg = LineGraph::Build(p->csr, {.include_backward = false});
  auto oracle = LineReachabilityOracle::Build(p->lg);
  if (!oracle.ok()) std::abort();
  p->oracle = std::make_unique<LineReachabilityOracle>(
      std::move(oracle).ValueOrDie());
  auto cidx = ClusterJoinIndex::Build(p->lg, p->csr);
  if (!cidx.ok()) std::abort();
  p->cluster_index =
      std::make_unique<ClusterJoinIndex>(std::move(cidx).ValueOrDie());
  p->closure = std::make_unique<TransitiveClosure>(
      TransitiveClosure::Build(p->csr, /*as_undirected=*/false));
  return *cache.emplace(key, std::move(p)).first->second;
}

/// Bound expression cache (expressions must outlive queries).
inline const BoundPathExpression& GetExpr(const Pipeline& p,
                                          const std::string& text) {
  using Key = std::pair<const Pipeline*, std::string>;
  static std::map<Key, std::unique_ptr<BoundPathExpression>> cache;
  Key key{&p, text};
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;
  auto parsed = ParsePathExpression(text);
  if (!parsed.ok()) std::abort();
  auto bound = BoundPathExpression::Bind(*parsed, *p.g);
  if (!bound.ok()) std::abort();
  return *cache
              .emplace(key, std::make_unique<BoundPathExpression>(
                                std::move(bound).ValueOrDie()))
              .first->second;
}

/// Query pairs: half audience-guided positives, half uniform (mostly
/// negative). Deterministic per (pipeline, expression).
inline const std::vector<std::pair<NodeId, NodeId>>& GetPairs(
    const Pipeline& p, const BoundPathExpression& expr, size_t count = 64) {
  using Key = std::pair<const Pipeline*, const BoundPathExpression*>;
  static std::map<Key, std::vector<std::pair<NodeId, NodeId>>> cache;
  Key key{&p, &expr};
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng rng(1234);
  const size_t n = p.g->NumNodes();
  while (pairs.size() < count) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(n));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(n));
    if (pairs.size() % 2 == 0) {
      auto audience = CollectMatchingAudience(*p.g, p.csr, expr, src);
      if (!audience.empty()) {
        dst = audience[rng.NextBounded(audience.size())];
      }
    }
    if (src != dst) pairs.emplace_back(src, dst);
  }
  return cache.emplace(key, std::move(pairs)).first->second;
}

}  // namespace bench
}  // namespace sargus

#endif  // SARGUS_BENCH_BENCH_COMMON_H_
