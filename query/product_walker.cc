#include "query/product_walker.h"

#include <algorithm>

namespace sargus {

std::vector<NodeId> ProductWalker::BuildWitness(NodeId final_node, NodeId at,
                                                uint32_t state) const {
  // Every visited configuration is on the frontier exactly once, so one
  // scan finds (at, state); its parent links then lead back to a seed.
  const std::vector<ProductConfig>& frontier = scratch_->frontier_;
  size_t i = 0;
  while (frontier[i].node != at || frontier[i].state != state) ++i;
  // Chain: src ... at, then the final edge to final_node.
  std::vector<NodeId> path{final_node, at};
  // Every parent link is exactly one consumed edge, so repeated nodes
  // (self-loops) are legitimate path entries.
  for (i = scratch_->parents_[i]; i != QueryScratch::kNoParent;
       i = scratch_->parents_[i]) {
    path.push_back(frontier[i].node);
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
