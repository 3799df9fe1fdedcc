#include "index/line_oracle.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace sargus {

Result<LineReachabilityOracle> LineReachabilityOracle::Build(
    const LineGraph& lg) {
  LineReachabilityOracle oracle;
  oracle.scc_ = ComputeScc(lg);
  oracle.dag_ = BuildCondensation(oracle.scc_, lg);
  auto two_hop = TwoHopLabeling::Build(oracle.dag_);
  if (!two_hop.ok()) return two_hop.status();
  oracle.two_hop_ = std::move(*two_hop);
  return oracle;
}

std::optional<LineReachabilityOracle> LineReachabilityOracle::BuildIncremental(
    const LineReachabilityOracle& prev, const LineGraph& lg,
    LineVertexId first_new_vertex) {
  const size_t num_line = lg.NumVertices();
  const uint32_t old_components = prev.scc_.num_components;

  LineReachabilityOracle oracle;
  // Each appended line vertex is tentatively its own condensation
  // vertex; a cycle through one (detected below) voids the tentative
  // assignment and forces the full Tarjan rebuild.
  oracle.scc_.component_of = prev.scc_.component_of;
  oracle.scc_.component_of.reserve(num_line);
  for (LineVertexId v = first_new_vertex; v < num_line; ++v) {
    oracle.scc_.component_of.push_back(
        old_components + (v - first_new_vertex));
  }
  oracle.scc_.num_components =
      old_components + static_cast<uint32_t>(num_line - first_new_vertex);
  const auto& comp = oracle.scc_.component_of;

  // Arcs the new vertices induce: every line-graph arc touches the new
  // vertex itself (a -> b exists iff head(a) == tail(b)), so
  // enumerating both sides of each new vertex covers them all —
  // old-to-old arcs are unchanged.
  std::vector<std::pair<uint32_t, uint32_t>> new_arcs;
  for (LineVertexId v = first_new_vertex; v < num_line; ++v) {
    const uint32_t cv = comp[v];
    for (LineVertexId w : lg.VerticesWithTail(lg.vertex(v).head)) {
      if (comp[w] != cv) new_arcs.emplace_back(cv, comp[w]);
    }
    for (LineVertexId w : lg.VerticesWithHead(lg.vertex(v).tail)) {
      if (comp[w] != cv) new_arcs.emplace_back(comp[w], cv);
    }
  }
  std::sort(new_arcs.begin(), new_arcs.end());
  new_arcs.erase(std::unique(new_arcs.begin(), new_arcs.end()),
                 new_arcs.end());

  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  arcs.reserve(prev.dag_.NumArcs() + new_arcs.size());
  for (uint32_t u = 0; u < old_components; ++u) {
    for (uint32_t w : prev.dag_.Out(u)) arcs.emplace_back(u, w);
  }
  arcs.insert(arcs.end(), new_arcs.begin(), new_arcs.end());
  oracle.dag_ = Dag::FromArcs(oracle.scc_.num_components, std::move(arcs));
  if (oracle.dag_.TopoOrder().size() != oracle.scc_.num_components) {
    // Kahn's sort could not drain: an inserted edge closed a cycle, so
    // some components must merge. Full rebuild territory.
    return std::nullopt;
  }

  oracle.two_hop_ = TwoHopLabeling::PatchInsertions(
      prev.two_hop_, oracle.dag_, old_components, new_arcs);
  return oracle;
}

bool LineReachabilityOracle::Reachable(LineVertexId u, LineVertexId v) const {
  if (u >= scc_.component_of.size() || v >= scc_.component_of.size()) {
    return false;
  }
  return ComponentReachable(scc_.component_of[u], scc_.component_of[v]);
}

}  // namespace sargus
