#include "graph/subgraph.h"

#include <string>

namespace sargus {

Result<SocialGraph> ExtractShardGraph(const SocialGraph& g,
                                      std::span<const uint32_t> shard_of,
                                      uint32_t shard) {
  if (shard_of.size() != g.NumNodes()) {
    return Status::InvalidArgument(
        "ExtractShardGraph: assignment covers " +
        std::to_string(shard_of.size()) + " nodes, graph has " +
        std::to_string(g.NumNodes()));
  }

  SocialGraph sub;
  sub.AddNodes(g.NumNodes());

  // Dictionaries first, in interning order, so every label/attribute id
  // is identical in every shard copy — the invariant the whole sharded
  // tier leans on (identical BoundSteps => identical automaton state
  // numbering => wire frontier states compose).
  for (uint16_t i = 0; i < g.labels().size(); ++i) {
    sub.labels().Intern(g.labels().ToString(i));
  }
  for (uint16_t i = 0; i < g.attrs().size(); ++i) {
    sub.attrs().Intern(g.attrs().ToString(i));
  }

  // Full attribute copy: cut-edge walks filter on far-side nodes too.
  for (uint16_t a = 0; a < g.attrs().size(); ++a) {
    const std::string& name = g.attrs().ToString(a);
    for (NodeId node = 0; node < g.NumNodes(); ++node) {
      if (const auto v = g.GetAttribute(node, static_cast<AttrId>(a))) {
        SARGUS_RETURN_IF_ERROR(sub.SetAttribute(node, name, *v));
      }
    }
  }

  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    const Edge& edge = g.edge(e);
    if (shard_of[edge.src] != shard && shard_of[edge.dst] != shard) continue;
    const auto added = sub.AddEdge(edge.src, edge.dst, edge.label);
    if (!added.ok()) return added.status();
  }
  // A shard graph is finished here: drop slot slack and the triple index,
  // as a generated graph does.
  sub.ShrinkToFit();
  return sub;
}

}  // namespace sargus
