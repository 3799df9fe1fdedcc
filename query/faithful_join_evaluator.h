#ifndef SARGUS_QUERY_FAITHFUL_JOIN_EVALUATOR_H_
#define SARGUS_QUERY_FAITHFUL_JOIN_EVALUATOR_H_

/// \file faithful_join_evaluator.h
/// \brief The paper's join formulation (§3.3/§3.4), kept for the
/// ablation benchmarks and the agreement tests — not for serving.
///
/// Per-hop base tables (one row per line vertex of the hop's label and
/// orientation) are joined pairwise on *oracle reachability*, full
/// tuples are materialized, then post-processed down to consecutive
/// adjacency and, if anchor_endpoints_early is off, to the query
/// endpoints. The serving engine never builds the tables: this
/// evaluator owns its own. It shares JoinIndexEvaluator's sequence
/// expansion and label-pair prune and replaces only the per-sequence
/// join; the tuple cap guards its appetite.

#include "index/base_tables.h"
#include "index/line_oracle.h"
#include "query/join_evaluator.h"

namespace sargus {

struct FaithfulJoinOptions : JoinIndexOptions {
  /// Restrict the first/last hop tables to the query endpoints up front
  /// instead of leaving the endpoint check to post-processing.
  bool anchor_endpoints_early = true;
};

class FaithfulJoinEvaluator : public JoinIndexEvaluator {
 public:
  /// Builds the base tables from `lg`. All referenced structures must
  /// outlive the evaluator and be built over the same line graph.
  FaithfulJoinEvaluator(const SocialGraph& graph, const LineGraph& lg,
                        const LineReachabilityOracle& oracle,
                        const ClusterJoinIndex& cluster_index,
                        FaithfulJoinOptions options = {})
      : JoinIndexEvaluator(graph, lg, cluster_index, options),
        oracle_(&oracle),
        tables_(BaseTables::Build(lg)),
        anchor_endpoints_early_(options.anchor_endpoints_early) {}

  std::string_view name() const override { return "join-index-faithful"; }

 protected:
  Result<bool> JoinSequence(const ReachQuery& q, const std::vector<Hop>& hops,
                            EvalContext& ctx, Evaluation* eval) const override;

 private:
  const LineReachabilityOracle* oracle_;
  BaseTables tables_;
  bool anchor_endpoints_early_;
};

}  // namespace sargus

#endif  // SARGUS_QUERY_FAITHFUL_JOIN_EVALUATOR_H_
