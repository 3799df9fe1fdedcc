#ifndef SARGUS_SHARD_BOUNDARY_SUMMARY_H_
#define SARGUS_SHARD_BOUNDARY_SUMMARY_H_

/// \file boundary_summary.h
/// \brief Per-shard boundary reachability summaries: the index that lets
/// the router answer most cross-shard checks without any frontier
/// exchange.
///
/// For each compiled rule path, a shard summarizes its local graph's
/// *product space* (node × automaton state): Tarjan SCC over the product
/// graph, condensation DAG, then 2-hop labels restricted to the shard's
/// boundary configurations (boundary vertex × state) via
/// TwoHopLabeling::BuildRestricted. The result answers
///
///     "starting at boundary vertex b in state s, can a walk confined to
///      this shard's edges reach boundary vertex b' in state s'?"
///
/// exactly — never over-approximating — because the product graph is
/// built over the same (csr, overlay, NodePasses) iteration the live
/// evaluators use. The router composes these per-shard answers with the
/// cut-edge table (shard/topology.h) into a global fixpoint; see
/// ShardRouter::PathReaches.
///
/// Freshness: a summary is stamped with the (generation, overlay
/// version) of the read view it was built from. Any later mutation on
/// the shard changes the view's stamp, the router's stamp comparison
/// fails, and the router falls back to live frontier exchange until
/// RefreshSummaries() is called — stale summaries are never consulted,
/// so conservatism is a freshness property, not a correctness one.

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "engine/read_view.h"
#include "index/two_hop.h"
#include "shard/wire.h"

namespace sargus {

class BoundarySummary {
 public:
  /// Build skips (leaves unbuilt) any path whose boundary-config count
  /// |boundary| × |states| exceeds this; the router falls back to
  /// frontier exchange for unbuilt paths.
  static constexpr size_t kMaxBoundaryConfigs = size_t{1} << 16;

  /// Builds summaries for every successfully bound path of every rule in
  /// `policy`, over the product space of (csr ⊕ overlay) with attribute
  /// filters evaluated against `graph` — exactly the iteration the live
  /// walkers use, which is what makes the summary exact. `boundary`
  /// is this shard's boundary vertex list; `stamp` identifies the read
  /// view the (csr, overlay) pair came from.
  static Result<BoundarySummary> Build(const SocialGraph& graph,
                                       const CsrSnapshot& csr,
                                       const DeltaOverlay& overlay,
                                       std::span<const NodeId> boundary,
                                       const PolicySnapshot& policy,
                                       wire::Stamp stamp);

  /// The read-view stamp this summary reflects. The router compares it
  /// against the shard's *current* view stamp before every use.
  const wire::Stamp& stamp() const { return stamp_; }

  size_t num_boundary() const { return boundary_.size(); }

  /// The sorted, deduplicated boundary vertex list indices refer to.
  const std::vector<NodeId>& boundary_nodes() const { return boundary_; }

  /// Index of `node` in the boundary list, or -1 when it is not a
  /// boundary vertex of this shard.
  int64_t BoundaryIndexOf(NodeId node) const;

  /// Whether a usable summary exists for (rule, path). False for failed
  /// binds and paths skipped by kMaxBoundaryConfigs.
  bool PathBuilt(RuleId rule, uint32_t path) const;

  /// Exact shard-local product reachability between boundary configs:
  /// from (boundary_[from_idx], from_state) to (boundary_[to_idx],
  /// to_state). Both states must be < the path automaton's NumStates()
  /// and PathBuilt(rule, path) must hold.
  bool Reaches(RuleId rule, uint32_t path, size_t from_idx,
               uint32_t from_state, size_t to_idx, uint32_t to_state) const;

 private:
  struct PathSummary {
    bool built = false;
    uint32_t num_states = 0;
    /// (boundary index × num_states + state) -> condensation vertex.
    std::vector<uint32_t> comp_of;
    TwoHopLabeling labels;
  };

  std::vector<std::vector<PathSummary>> paths_;  // [rule][path]
  std::vector<NodeId> boundary_;                 // sorted ascending
  wire::Stamp stamp_;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_BOUNDARY_SUMMARY_H_
