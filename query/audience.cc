#include "query/audience.h"

#include <algorithm>

#include "core/automaton.h"
#include "query/eval_context.h"
#include "query/product_walker.h"

namespace sargus {

std::vector<NodeId> CollectMatchingAudience(const SocialGraph& g,
                                            const CsrSnapshot& csr,
                                            const BoundPathExpression& expr,
                                            NodeId src, EvalContext* ctx,
                                            const DeltaOverlay* overlay) {
  const size_t num_nodes = LogicalNumNodes(csr, overlay);
  if (expr.graph() != &g || src >= num_nodes || expr.steps().empty()) {
    return {};
  }
  QueryScratch& scratch =
      (ctx != nullptr ? *ctx : ThreadLocalEvalContext()).scratch;
  const HopAutomaton& nfa = expr.automaton();

  scratch.node_marks.Reserve(num_nodes);
  std::vector<NodeId> audience;
  auto mark = [&](NodeId v) {
    if (scratch.node_marks.Insert(v)) audience.push_back(v);
  };
  if (nfa.AcceptsEmpty()) mark(src);

  ProductWalker walker(g, csr, nfa, scratch, /*track_parents=*/false,
                       overlay);
  walker.SeedStarts(src);
  walker.Run([&](NodeId entered, NodeId, uint32_t) {
    mark(entered);
    return false;  // collect the whole audience, never stop early
  });

  // Every mark is an audience member, so the marks clear from the list.
  for (NodeId v : audience) scratch.node_marks.ClearWordOf(v);
  std::sort(audience.begin(), audience.end());
  return audience;
}

}  // namespace sargus
