#include "query/join_evaluator.h"

#include <algorithm>

#include "query/eval_context.h"

namespace sargus {

Result<Evaluation> JoinIndexEvaluator::EvaluateWith(const ReachQuery& q,
                                                    EvalContext& ctx) const {
  // The join stack has no overlay: its bound is the line graph's
  // snapshot node count.
  SARGUS_RETURN_IF_ERROR(ValidateQuery(q, *graph_, lg_->NumGraphNodes()));
  const BoundPathExpression& expr = *q.expr;
  if (expr.HasBackwardStep() && !lg_->includes_backward()) {
    return Status::FailedPrecondition(
        "expression has backward steps but the line graph was built "
        "without backward orientations (LineGraph::Options::include_backward)");
  }

  Evaluation out;

  // Enumerate hop-count choices per step (odometer), materializing each
  // concrete sequence of unit hops.
  const auto& steps = expr.steps();
  const size_t k = steps.size();
  std::vector<uint32_t> counts(k);
  for (size_t i = 0; i < k; ++i) counts[i] = steps[i].min_hops;

  std::vector<Hop> hops;
  for (;;) {
    if (++out.stats.line_queries > options_.max_line_queries) {
      return Status::ResourceExhausted(
          "expression expands to more than " +
          std::to_string(options_.max_line_queries) + " line queries");
    }
    hops.clear();
    for (size_t i = 0; i < k; ++i) {
      for (uint32_t h = 0; h < counts[i]; ++h) {
        hops.push_back(Hop{steps[i].label, steps[i].backward, &steps[i]});
      }
    }
    // Feasibility prune via the cluster index's label-pair summary:
    // consecutive hops must at least be reachability-compatible.
    bool feasible = true;
    for (size_t h = 0; feasible && h + 1 < hops.size(); ++h) {
      feasible = cluster_->LabelPairReachable(hops[h].label, hops[h].backward,
                                              hops[h + 1].label,
                                              hops[h + 1].backward);
    }
    if (feasible) {
      auto matched = JoinSequence(q, hops, ctx, &out);
      if (!matched.ok()) return matched.status();
      if (*matched) {
        out.granted = true;
        return out;
      }
    }
    // Advance the odometer.
    size_t i = 0;
    while (i < k && counts[i] == steps[i].max_hops) {
      counts[i] = steps[i].min_hops;
      ++i;
    }
    if (i == k) break;
    ++counts[i];
  }
  return out;
}

Result<bool> JoinIndexEvaluator::JoinSequence(const ReachQuery& q,
                                              const std::vector<Hop>& hops,
                                              EvalContext& ctx,
                                              Evaluation* eval) const {
  // Frontier of line vertices after each hop, deduplicated per hop via
  // the pooled bit set. A hop's bits are exactly the frontier it pushed,
  // so the next hop clears them from that list (O(frontier), where the
  // seed code re-zeroed an O(|line vertices|) array per sequence). The
  // last hop inserts nothing, so every exit but the tuple cap's leaves
  // the set empty. Parents are kept only when a witness was requested.
  const size_t m = hops.size();
  QueryScratch& scratch = ctx.scratch;
  std::vector<LineVertexId>& frontier = scratch.line_frontier;
  std::vector<LineVertexId>& next = scratch.line_next;
  frontier.clear();
  SlotBitSet& seen = scratch.line_seen;
  seen.Reserve(lg_->NumVertices());
  std::vector<std::vector<LineVertexId>> parents;  // per hop, per vertex pos
  std::vector<std::vector<LineVertexId>> frontiers;
  const bool track = q.want_witness;

  auto passes = [&](LineVertexId lv, const Hop& hop) {
    return BoundPathExpression::NodePasses(*graph_, lg_->vertex(lv).head,
                                           *hop.step);
  };

  // Hop 0: cluster (label0, src).
  for (LineVertexId lv : cluster_->Cluster(hops[0].label, hops[0].backward,
                                           q.src)) {
    if (!passes(lv, hops[0])) continue;
    if (m == 1) {
      if (lg_->vertex(lv).head == q.dst) {
        if (track) eval->witness = {q.src, q.dst};
        ++eval->stats.tuples_generated;
        return true;
      }
      continue;
    }
    if (!seen.Insert(lv)) continue;
    frontier.push_back(lv);
    ++eval->stats.tuples_generated;
  }
  if (m == 1) return false;
  if (track) {
    frontiers.push_back(frontier);
    parents.push_back(std::vector<LineVertexId>(frontier.size(),
                                                kInvalidLineVertex));
  }

  for (size_t i = 1; i < m; ++i) {
    // Fresh dedup scope for this hop: the set holds the last hop's
    // frontier.
    for (LineVertexId lv : frontier) seen.ClearWordOf(lv);
    next.clear();
    std::vector<LineVertexId> next_parents;
    const bool last = (i + 1 == m);
    for (size_t fpos = 0; fpos < frontier.size(); ++fpos) {
      const LineVertexId lv = frontier[fpos];
      const NodeId mid = lg_->vertex(lv).head;
      for (LineVertexId nx :
           cluster_->Cluster(hops[i].label, hops[i].backward, mid)) {
        if (!passes(nx, hops[i])) continue;
        if (last) {
          ++eval->stats.tuples_generated;
          if (lg_->vertex(nx).head == q.dst) {
            if (track) {
              // Walk parent positions back to hop 0: parents[h][pos] is
              // the position of frontiers[h][pos]'s parent within
              // frontiers[h-1].
              std::vector<LineVertexId> chain{nx, lv};
              size_t pos = fpos;
              for (size_t h = i - 1; h >= 1; --h) {
                pos = parents[h][pos];
                chain.push_back(frontiers[h - 1][pos]);
              }
              eval->witness.clear();
              eval->witness.push_back(q.src);
              for (size_t c = chain.size(); c-- > 0;) {
                eval->witness.push_back(lg_->vertex(chain[c]).head);
              }
            }
            return true;
          }
          continue;
        }
        if (!seen.Insert(nx)) continue;
        next.push_back(nx);
        if (track) next_parents.push_back(static_cast<LineVertexId>(fpos));
        ++eval->stats.tuples_generated;
        // Cap is on *live* tuples (this hop's frontier), as in the
        // faithful join — not on cumulative work across sequences.
        if (next.size() > options_.max_intermediate_tuples) {
          for (LineVertexId pushed : next) seen.ClearWordOf(pushed);
          return Status::ResourceExhausted("adjacency join exceeded tuple cap");
        }
      }
    }
    frontier.swap(next);
    if (track && !last) {
      frontiers.push_back(frontier);
      parents.push_back(std::move(next_parents));
    }
    if (frontier.empty() && !last) return false;
  }
  return false;
}

}  // namespace sargus
