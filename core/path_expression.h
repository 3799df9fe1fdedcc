#ifndef SARGUS_CORE_PATH_EXPRESSION_H_
#define SARGUS_CORE_PATH_EXPRESSION_H_

/// \file path_expression.h
/// \brief The paper's access-condition language, parsed and bound.
///
/// An access condition is a sequence of steps separated by `/`:
///
///     friend[1,2]/colleague[1]{age>=18}
///
/// A step `label[a,b]` matches between `a` and `b` consecutive edges with
/// that label; `label[k]` is shorthand for `[k,k]`. `label-[a,b]` traverses
/// edges against their direction. An optional `{attr OP value, ...}` filter
/// constrains every node *entered* by the step's hops (the query source is
/// never filtered; the destination is filtered by the last step it is
/// entered under).
///
/// `PathExpression` is the name-based AST produced by ParsePathExpression.
/// `BoundPathExpression` resolves names against one SocialGraph's
/// dictionaries; it pins that graph and is what queries carry.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "graph/social_graph.h"

namespace sargus {

class HopAutomaton;

enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

std::string_view CmpOpName(CmpOp op);
bool EvalCmp(CmpOp op, int64_t lhs, int64_t rhs);

/// `age >= 18` — attribute name still unresolved.
struct AttrCondition {
  std::string attr;
  CmpOp op = CmpOp::kGe;
  int64_t value = 0;
  bool operator==(const AttrCondition&) const = default;
};

struct PathStep {
  std::string label;
  bool backward = false;
  uint32_t min_hops = 1;
  uint32_t max_hops = 1;
  std::vector<AttrCondition> conditions;
  bool operator==(const PathStep&) const = default;
};

class PathExpression {
 public:
  PathExpression() = default;
  explicit PathExpression(std::vector<PathStep> steps)
      : steps_(std::move(steps)) {}

  const std::vector<PathStep>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }

  /// Canonical text form; ParsePathExpression round-trips it.
  std::string ToString() const;

  bool operator==(const PathExpression&) const = default;

 private:
  std::vector<PathStep> steps_;
};

/// A resolved condition: attribute id in the bound graph's dictionary.
struct BoundCondition {
  AttrId attr = kInvalidAttr;
  CmpOp op = CmpOp::kGe;
  int64_t value = 0;
};

struct BoundStep {
  LabelId label = kInvalidLabel;
  bool backward = false;
  uint32_t min_hops = 1;
  uint32_t max_hops = 1;
  std::vector<BoundCondition> conditions;
};

class BoundPathExpression {
 public:
  BoundPathExpression() = default;

  /// Resolves label and attribute names against `g`'s dictionaries.
  /// Fails with kNotFound when a label or attribute is not interned in the
  /// graph, and kInvalidArgument for an empty expression.
  static Result<BoundPathExpression> Bind(const PathExpression& expr,
                                          const SocialGraph& g);

  const std::vector<BoundStep>& steps() const { return steps_; }

  /// The graph the expression was bound against. Evaluators refuse
  /// queries whose expression was bound to a different graph.
  const SocialGraph* graph() const { return graph_; }

  /// Original (unbound) form, kept for diagnostics.
  const PathExpression& source() const { return source_; }
  std::string ToString() const { return source_.ToString(); }

  /// True if any step traverses edges backward.
  bool HasBackwardStep() const;

  /// True if any step carries an attribute filter.
  bool HasAttributeFilter() const;

  /// Upper bound on matching path length: sum of max_hops.
  uint64_t MaxPathLength() const;

  /// Number of concrete label sequences the expression expands to:
  /// product over steps of (max - min + 1). Saturates at 2^32.
  uint64_t ExpansionCount() const;

  /// True when `node` satisfies `step`'s filter in graph `g`.
  /// Missing attributes fail the filter (closed-world).
  static bool NodePasses(const SocialGraph& g, NodeId node,
                         const BoundStep& step);

  /// The hop automaton compiled from this expression. Built eagerly by
  /// Bind() (so const access is trivially thread-safe) and shared across
  /// copies — the query hot path never recompiles it. Only valid on
  /// expressions produced by Bind(); a default-constructed expression has
  /// none, so callers walk only expressions whose Bind succeeded.
  const HopAutomaton& automaton() const { return *automaton_; }

 private:
  std::vector<BoundStep> steps_;
  const SocialGraph* graph_ = nullptr;
  PathExpression source_;
  std::shared_ptr<const HopAutomaton> automaton_;
};

}  // namespace sargus

#endif  // SARGUS_CORE_PATH_EXPRESSION_H_
