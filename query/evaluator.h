#ifndef SARGUS_QUERY_EVALUATOR_H_
#define SARGUS_QUERY_EVALUATOR_H_

/// \file evaluator.h
/// \brief The polymorphic query contract every sargus evaluator honors.
///
/// A ReachQuery asks: does a path from `src` (the resource owner) to
/// `dst` (the requester) match `expr`? Every evaluator must return the
/// same granted/denied decision for the same query — the strategies
/// differ only in cost profile. The cross-evaluator agreement test suite
/// (tests/evaluator_agreement_test.cc) enforces this invariant; it is the
/// correctness backbone every optimization PR must keep green.
///
/// This interface is sargus_paper's: the serving read view calls
/// ForwardProductSearch (product_walker.h, which also holds Evaluation
/// and EvalStats) directly.

#include <string_view>

#include "common/result.h"
#include "common/types.h"
#include "core/path_expression.h"
#include "query/product_walker.h"

namespace sargus {

struct EvalContext;

struct ReachQuery {
  NodeId src = 0;
  NodeId dst = 0;
  /// Must be bound to the same SocialGraph the evaluator was built over,
  /// and must outlive the call.
  const BoundPathExpression* expr = nullptr;
  /// Ask for a witness path (src ... dst) when granted. May cost extra.
  bool want_witness = false;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Decides `q` using this thread's pooled scratch (thread-safe: any
  /// number of threads may call Evaluate on one shared const evaluator;
  /// each gets its own scratch). Statuses: kInvalidArgument for
  /// null/foreign expressions or out-of-range endpoints;
  /// kFailedPrecondition when the evaluator's index lacks a capability
  /// the expression needs (backward steps without a backward line graph);
  /// kResourceExhausted when a configured work cap was exceeded.
  Result<Evaluation> Evaluate(const ReachQuery& q) const;

  /// Same, with caller-owned scratch. `ctx` must not be shared between
  /// concurrently running Evaluate calls; reusing one context across
  /// back-to-back queries is the zero-allocation steady state.
  Result<Evaluation> Evaluate(const ReachQuery& q, EvalContext& ctx) const {
    return EvaluateWith(q, ctx);
  }

  virtual std::string_view name() const = 0;

 protected:
  /// Strategy implementation; may use (and grow) `ctx.scratch` freely.
  virtual Result<Evaluation> EvaluateWith(const ReachQuery& q,
                                          EvalContext& ctx) const = 0;
};

/// Shared argument validation; returns non-OK to propagate.
/// `num_nodes` is the evaluator's serving bound — the logical node
/// count of the snapshot (+ staged overlay nodes) it walks, NOT the
/// live graph's counter: an endpoint past the frozen snapshot (a node
/// added after it was built) must fail with kInvalidArgument here
/// rather than index past scratch arrays sized at snapshot time.
Status ValidateQuery(const ReachQuery& q, const SocialGraph& graph,
                     size_t num_nodes);

}  // namespace sargus

#endif  // SARGUS_QUERY_EVALUATOR_H_
