#include "shard/boundary_summary.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/automaton.h"
#include "core/path_expression.h"
#include "graph/delta_overlay.h"
#include "index/scc.h"

namespace sargus {

Result<BoundarySummary> BoundarySummary::Build(
    const SocialGraph& graph, const CsrSnapshot& csr,
    const DeltaOverlay& overlay, std::span<const NodeId> boundary,
    const PolicySnapshot& policy, wire::Stamp stamp) {
  BoundarySummary summary;
  summary.stamp_ = stamp;
  summary.boundary_.assign(boundary.begin(), boundary.end());
  std::sort(summary.boundary_.begin(), summary.boundary_.end());
  summary.boundary_.erase(
      std::unique(summary.boundary_.begin(), summary.boundary_.end()),
      summary.boundary_.end());

  const size_t num_nodes = LogicalNumNodes(csr, &overlay);
  for (NodeId b : summary.boundary_) {
    if (b >= num_nodes) {
      return Status::FailedPrecondition(
          "BoundarySummary: boundary vertex " + std::to_string(b) +
          " is past the view's logical node count (topology is newer than "
          "the view)");
    }
  }

  summary.paths_.resize(policy.rules.size());
  for (RuleId r = 0; r < policy.rules.size(); ++r) {
    const PolicySnapshot::CompiledRule& rule = policy.rules[r];
    summary.paths_[r].resize(rule.paths.size());
    for (uint32_t p = 0; p < rule.paths.size(); ++p) {
      const PolicySnapshot::CompiledPath& cp = rule.paths[p];
      if (!cp.bind_status.ok() || cp.bound == nullptr) continue;
      const HopAutomaton& nfa = cp.bound->automaton();
      const uint32_t S = nfa.NumStates();
      if (S == 0) continue;
      const size_t product_size = num_nodes * S;
      if (summary.boundary_.size() * S > kMaxBoundaryConfigs ||
          product_size > UINT32_MAX) {
        continue;  // Unbuilt; the router falls back to frontier exchange.
      }

      // Product graph: vertex node*S + state; an arc per edge consumed.
      // Identical neighbor iteration + filter to the live walkers, so
      // the summary's notion of reachability is the evaluators' notion.
      auto for_each_succ = [&](uint32_t pv, auto&& emit) {
        const NodeId node = static_cast<NodeId>(pv / S);
        const uint32_t state = pv % S;
        const std::vector<uint32_t>& targets = nfa.TargetsAfterEdge(state);
        if (targets.empty()) return;
        const BoundStep& step = nfa.StepSpec(state);
        ForEachNeighborEdge(
            csr, &overlay, node, step.label, step.backward, [&](NodeId w) {
              if (!BoundPathExpression::NodePasses(graph, w, step)) {
                return false;
              }
              for (uint32_t t : targets) {
                emit(static_cast<uint32_t>(static_cast<size_t>(w) * S + t));
              }
              return false;
            });
      };

      SccResult scc = ComputeSccGeneric(product_size, for_each_succ);

      // Condensation arcs (deduplicated).
      std::vector<std::pair<uint32_t, uint32_t>> arcs;
      for (size_t pv = 0; pv < product_size; ++pv) {
        const uint32_t cu = scc.component_of[pv];
        for_each_succ(static_cast<uint32_t>(pv), [&](uint32_t w) {
          const uint32_t cw = scc.component_of[w];
          if (cu != cw) arcs.emplace_back(cu, cw);
        });
      }
      std::sort(arcs.begin(), arcs.end());
      arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
      Dag dag = Dag::FromArcs(scc.num_components, std::move(arcs));

      PathSummary ps;
      ps.num_states = S;
      ps.comp_of.resize(summary.boundary_.size() * S);
      for (size_t i = 0; i < summary.boundary_.size(); ++i) {
        for (uint32_t s = 0; s < S; ++s) {
          ps.comp_of[i * S + s] =
              scc.component_of[static_cast<size_t>(summary.boundary_[i]) * S +
                               s];
        }
      }
      SARGUS_ASSIGN_OR_RETURN(
          ps.labels,
          TwoHopLabeling::BuildRestricted(dag, ps.comp_of));
      ps.built = true;
      summary.paths_[r][p] = std::move(ps);
    }
  }
  return summary;
}

int64_t BoundarySummary::BoundaryIndexOf(NodeId node) const {
  const auto it =
      std::lower_bound(boundary_.begin(), boundary_.end(), node);
  if (it == boundary_.end() || *it != node) return -1;
  return it - boundary_.begin();
}

bool BoundarySummary::PathBuilt(RuleId rule, uint32_t path) const {
  return rule < paths_.size() && path < paths_[rule].size() &&
         paths_[rule][path].built;
}

bool BoundarySummary::Reaches(RuleId rule, uint32_t path, size_t from_idx,
                              uint32_t from_state, size_t to_idx,
                              uint32_t to_state) const {
  const PathSummary& ps = paths_[rule][path];
  return ps.labels.Reachable(ps.comp_of[from_idx * ps.num_states + from_state],
                             ps.comp_of[to_idx * ps.num_states + to_state]);
}

}  // namespace sargus
