#include "query/faithful_join_evaluator.h"

namespace sargus {

Result<bool> FaithfulJoinEvaluator::JoinSequence(const ReachQuery& q,
                                                 const std::vector<Hop>& hops,
                                                 EvalContext& /*ctx*/,
                                                 Evaluation* eval) const {
  // The paper's formulation: materialize per-hop candidate tables, join
  // consecutive hops on line-graph *reachability* (the precomputed
  // oracle), and post-process tuples down to true consecutive adjacency
  // and, if unanchored, to the query endpoints.
  const size_t m = hops.size();
  const bool anchor = anchor_endpoints_early_;

  // Tuples are full chains (one line vertex per completed hop).
  std::vector<std::vector<LineVertexId>> tuples;
  for (const BaseTables::Row& row :
       tables_.Rows(hops[0].label, hops[0].backward)) {
    if (anchor && row.tail != q.src) continue;
    if (!BoundPathExpression::NodePasses(graph(), row.head, *hops[0].step)) {
      continue;
    }
    tuples.push_back({row.line});
    ++eval->stats.tuples_generated;
    if (tuples.size() > options().max_intermediate_tuples) {
      return Status::ResourceExhausted("faithful join exceeded tuple cap");
    }
  }

  for (size_t i = 1; i < m && !tuples.empty(); ++i) {
    const bool last = (i + 1 == m);
    std::vector<std::vector<LineVertexId>> joined;
    for (const auto& chain : tuples) {
      const LineVertexId prev = chain.back();
      for (const BaseTables::Row& row :
           tables_.Rows(hops[i].label, hops[i].backward)) {
        if (anchor && last && row.head != q.dst) continue;
        if (!BoundPathExpression::NodePasses(graph(), row.head,
                                             *hops[i].step)) {
          continue;
        }
        // Reachability join: prev must reach row.line in the line graph.
        if (!oracle_->Reachable(prev, row.line)) continue;
        std::vector<LineVertexId> extended = chain;
        extended.push_back(row.line);
        joined.push_back(std::move(extended));
        ++eval->stats.tuples_generated;
        if (joined.size() > options().max_intermediate_tuples) {
          return Status::ResourceExhausted("faithful join exceeded tuple cap");
        }
      }
    }
    tuples.swap(joined);
  }

  // Post-processing: adjacency of consecutive hops, plus endpoint checks
  // when they were not anchored during the joins.
  for (const auto& chain : tuples) {
    bool keep = chain.size() == m;
    if (keep && lg().vertex(chain.front()).tail != q.src) keep = false;
    if (keep && lg().vertex(chain.back()).head != q.dst) keep = false;
    for (size_t i = 0; keep && i + 1 < chain.size(); ++i) {
      if (lg().vertex(chain[i]).head != lg().vertex(chain[i + 1]).tail) {
        keep = false;
      }
    }
    if (!keep) {
      ++eval->stats.tuples_post_filtered;
      continue;
    }
    if (q.want_witness) {
      eval->witness.clear();
      eval->witness.push_back(lg().vertex(chain.front()).tail);
      for (LineVertexId lv : chain) {
        eval->witness.push_back(lg().vertex(lv).head);
      }
    }
    return true;
  }
  return false;
}

}  // namespace sargus
