#include "query/product_walker.h"

#include <algorithm>

namespace sargus {

std::vector<NodeId> ProductWalker::BuildWitness(NodeId final_node, NodeId at,
                                                uint32_t state) const {
  // Chain: src ... at, then the final edge to final_node.
  std::vector<NodeId> path{final_node, at};
  NodeId cur_node = at;
  uint32_t cur_state = state;
  while (true) {
    const ProductParent& p =
        scratch_->parents_[ProductConfigId(cur_node, cur_state, num_states_)];
    if (p.node == kInvalidNode) break;
    // Every parent link is exactly one consumed edge, so repeated nodes
    // (self-loops) are legitimate path entries.
    path.push_back(p.node);
    cur_node = p.node;
    cur_state = p.state;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Evaluation ForwardProductSearch(const SocialGraph& graph,
                                const CsrSnapshot& csr,
                                const HopAutomaton& nfa, NodeId src,
                                NodeId dst, bool want_witness,
                                QueryScratch& scratch,
                                const DeltaOverlay* overlay) {
  Evaluation out;
  if (nfa.AcceptsEmpty() && src == dst) {
    out.granted = true;
    if (want_witness) out.witness = {src};
    return out;
  }

  ProductWalker walker(graph, csr, nfa, scratch, want_witness, overlay);
  walker.SeedStarts(src);
  out.granted =
      walker.Run([&](NodeId entered, NodeId from, uint32_t from_state) {
        if (entered != dst) return false;
        if (want_witness) {
          out.witness = walker.BuildWitness(entered, from, from_state);
        }
        return true;
      });
  out.stats.pairs_visited = walker.pairs_visited();
  return out;
}

}  // namespace sargus
