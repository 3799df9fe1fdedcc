#ifndef SARGUS_QUERY_JOIN_EVALUATOR_H_
#define SARGUS_QUERY_JOIN_EVALUATOR_H_

/// \file join_evaluator.h
/// \brief The paper's precomputed join pipeline (paper §3.3/§3.4), as a
/// library evaluator.
///
/// The engine does not serve it: on the end-to-end read benchmark online
/// BFS answered the same requests with higher throughput and a lower
/// tail, and the line graph and cluster index doubled the serving
/// bundle. The agreement tests and the paper benches (bench_query_latency's
/// join-vs-BFS series, the ablation, depth and selectivity sweeps)
/// construct it directly over a LineGraph and ClusterJoinIndex they
/// build themselves. It answers over that snapshot only: it has no
/// overlay.
///
/// A bound expression expands into concrete label sequences (one per
/// choice of hop count in every step — the multiplicative "line query"
/// expansion bench_depth_sweep.cc charts). Infeasible sequences are
/// discarded upfront via the cluster index's label-pair reachability
/// summary; each remaining sequence is evaluated as a frontier join
/// over line vertices through the ClusterJoinIndex: one cluster lookup
/// per (frontier vertex, hop), endpoint-anchored on both sides, early
/// exit on the first match.
///
/// The paper's own formulation — reachability joins over per-label base
/// tables, then a post-filter — is FaithfulJoinEvaluator
/// (query/faithful_join_evaluator.h), which reuses the expansion and
/// the prune above and replaces only the per-sequence join.

#include <vector>

#include "graph/csr.h"
#include "graph/line_graph.h"
#include "index/cluster_index.h"
#include "query/evaluator.h"

namespace sargus {

/// Work caps; exceeding either fails the query with kResourceExhausted.
struct JoinIndexOptions {
  /// Live tuples (one hop's frontier) allowed per sequence.
  size_t max_intermediate_tuples = size_t{1} << 22;
  /// Concrete sequences an expression may expand to.
  size_t max_line_queries = 4096;
};

class JoinIndexEvaluator : public Evaluator {
 public:
  /// All referenced structures must outlive the evaluator and must have
  /// been built over the same graph/line-graph.
  JoinIndexEvaluator(const SocialGraph& graph, const LineGraph& lg,
                     const ClusterJoinIndex& cluster_index,
                     JoinIndexOptions options = {})
      : graph_(&graph), lg_(&lg), cluster_(&cluster_index), options_(options) {}

  std::string_view name() const override { return "join-index"; }

 protected:
  struct Hop {
    LabelId label = kInvalidLabel;
    bool backward = false;
    const BoundStep* step = nullptr;  // filter source
  };

  Result<Evaluation> EvaluateWith(const ReachQuery& q,
                                  EvalContext& ctx) const override;

  /// Joins one concrete sequence that passed the label-pair prune;
  /// appends to `eval`'s stats (and witness, when requested).
  virtual Result<bool> JoinSequence(const ReachQuery& q,
                                    const std::vector<Hop>& hops,
                                    EvalContext& ctx, Evaluation* eval) const;

  const SocialGraph& graph() const { return *graph_; }
  const LineGraph& lg() const { return *lg_; }
  const JoinIndexOptions& options() const { return options_; }

 private:
  const SocialGraph* graph_;
  const LineGraph* lg_;
  const ClusterJoinIndex* cluster_;
  JoinIndexOptions options_;
};

}  // namespace sargus

#endif  // SARGUS_QUERY_JOIN_EVALUATOR_H_
