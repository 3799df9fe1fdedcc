#ifndef SARGUS_QUERY_ONLINE_EVALUATOR_H_
#define SARGUS_QUERY_ONLINE_EVALUATOR_H_

/// \file online_evaluator.h
/// \brief Index-free online search: the paper's per-request O(|V|+|E|)
/// baseline.
///
/// Explores the product space (graph node × hop-automaton state) from the
/// source in breadth-first order, stopping the moment the destination is
/// reached in an accepting configuration. No precomputation: immune to
/// graph churn (rebuild the CSR and go), pays full exploration on denies.
/// The traversal itself is the shared ProductWalker; per-query state
/// comes from the EvalContext scratch pool, so steady-state cost is
/// O(work touched), not O(|V|).

#include "core/automaton.h"
#include "graph/csr.h"
#include "query/evaluator.h"
#include "query/product_walker.h"

namespace sargus {

class OnlineEvaluator : public Evaluator {
 public:
  /// `graph` and `csr` must outlive the evaluator; `csr` must be a
  /// snapshot of `graph`. `overlay` (optional, must also outlive the
  /// evaluator) layers pending mutations over the snapshot, so queries
  /// see AddEdge/RemoveEdge immediately without a rebuild; an empty
  /// overlay costs one branch per expansion.
  OnlineEvaluator(const SocialGraph& graph, const CsrSnapshot& csr,
                  const DeltaOverlay* overlay = nullptr)
      : graph_(&graph), csr_(&csr), overlay_(overlay) {}

  std::string_view name() const override { return "online-bfs"; }

 protected:
  Result<Evaluation> EvaluateWith(const ReachQuery& q,
                                  EvalContext& ctx) const override;

 private:
  const SocialGraph* graph_;
  const CsrSnapshot* csr_;
  const DeltaOverlay* overlay_;
};

}  // namespace sargus

#endif  // SARGUS_QUERY_ONLINE_EVALUATOR_H_
