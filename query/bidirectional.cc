#include "query/bidirectional.h"

#include "query/eval_context.h"
#include "query/product_walker.h"

namespace sargus {

Result<Evaluation> BidirectionalEvaluator::EvaluateWith(
    const ReachQuery& q, EvalContext& ctx) const {
  SARGUS_RETURN_IF_ERROR(
      ValidateQuery(q, *graph_, LogicalNumNodes(*csr_, overlay_)));
  const HopAutomaton& nfa = q.expr->automaton();
  const uint32_t num_states = nfa.NumStates();

  Evaluation out;
  if (nfa.AcceptsEmpty() && q.src == q.dst) {
    out.granted = true;
    if (q.want_witness) out.witness = {q.src};
    return out;
  }

  QueryScratch& scratch = ctx.scratch;
  bool met = false;
  {
    // Forward side: the shared walker over the scratch's visited set and
    // frontier, cleared when it goes out of scope at the end of this
    // block, before the witness rerun below starts a walker of its own.
    ProductWalker forward(*graph_, *csr_, nfa, scratch,
                          /*track_parents=*/false, overlay_);
    // Backward side: membership + FIFO frontier from the same pool.
    scratch.visited_back.Reserve(LogicalNumNodes(*csr_, overlay_) *
                                 size_t{num_states});
    scratch.frontier_back.clear();
    size_t head_back = 0;

    auto push_back_side = [&](NodeId node, uint32_t state) {
      const size_t id = ProductConfigId(node, state, num_states);
      if (!scratch.visited_back.Insert(id)) return;
      if (forward.Visited(node, state)) met = true;
      scratch.frontier_back.push_back(ProductConfig{node, state});
    };

    // Forward seeds: the start closure at the source.
    forward.SeedStarts(q.src);

    // Backward seeds: configurations whose next edge can land on dst and
    // accept. The destination must pass the final step's filter. Edges
    // entering dst under `step`'s orientation (the reverse of the step's
    // own traversal direction, overlay merged); their far end is a node
    // that can finish the run in state s. A seed the forward side already
    // holds decides the query, so seeding stops there: every further
    // seed would only be pushed to be cleared again.
    for (uint32_t s : nfa.AcceptingEdgeStates()) {
      const BoundStep& step = nfa.StepSpec(s);
      if (!BoundPathExpression::NodePasses(*graph_, q.dst, step)) continue;
      ForEachNeighborEdge(*csr_, overlay_, q.dst, step.label, !step.backward,
                          [&](NodeId w) {
                            push_back_side(w, s);
                            return met;
                          });
      if (met) break;
    }

    auto on_accept = [&](NodeId entered, NodeId, uint32_t) {
      if (entered != q.dst) return false;
      met = true;
      return true;
    };
    auto on_push = [&](NodeId node, uint32_t state) {
      if (!scratch.visited_back.Contains(
              ProductConfigId(node, state, num_states))) {
        return false;
      }
      met = true;
      return true;
    };

    uint64_t backward_visited = 0;
    while (!met && (forward.Remaining() > 0 ||
                    head_back < scratch.frontier_back.size())) {
      const size_t remaining_back = scratch.frontier_back.size() - head_back;
      const bool expand_forward =
          forward.Remaining() > 0 &&
          (remaining_back == 0 || forward.Remaining() <= remaining_back);
      if (expand_forward) {
        forward.Step(on_accept, on_push);
      } else {
        const ProductConfig c = scratch.frontier_back[head_back++];
        ++backward_visited;
        // Predecessor configs (u, s): consuming one `s`-edge from u enters
        // c.node and transitions into c.state (overlay merged).
        for (uint32_t s : nfa.SourcesIntoState(c.state)) {
          const BoundStep& step = nfa.StepSpec(s);
          if (!BoundPathExpression::NodePasses(*graph_, c.node, step)) {
            continue;
          }
          ForEachNeighborEdge(*csr_, overlay_, c.node, step.label,
                              !step.backward, [&](NodeId w) {
                                push_back_side(w, s);
                                return met;
                              });
          if (met) break;
        }
      }
    }
    out.stats.pairs_visited = forward.pairs_visited() + backward_visited;
    // Every fresh backward insert was pushed to frontier_back.
    for (const ProductConfig& c : scratch.frontier_back) {
      scratch.visited_back.ClearWordOf(
          ProductConfigId(c.node, c.state, num_states));
    }
  }

  out.granted = met;
  if (met && q.want_witness) {
    // Membership sets cannot reproduce the path; rerun the shared forward
    // search for the witness (reusing this context's scratch, which the
    // bidirectional pass left empty) and fold its work into the stats.
    Evaluation rerun =
        ForwardProductSearch(*graph_, *csr_, nfa, q.src, q.dst,
                             /*want_witness=*/true, scratch, overlay_);
    if (rerun.granted) {
      out.witness = std::move(rerun.witness);
      out.stats.pairs_visited += rerun.stats.pairs_visited;
    }
  }
  return out;
}

}  // namespace sargus
