#include "query/online_evaluator.h"

#include "query/eval_context.h"

namespace sargus {

Result<Evaluation> OnlineEvaluator::EvaluateWith(const ReachQuery& q,
                                                 EvalContext& ctx) const {
  SARGUS_RETURN_IF_ERROR(
      ValidateQuery(q, *graph_, LogicalNumNodes(*csr_, overlay_)));
  return ForwardProductSearch(*graph_, *csr_, q.expr->automaton(), q.src,
                              q.dst, q.want_witness, ctx.scratch, overlay_);
}

}  // namespace sargus
