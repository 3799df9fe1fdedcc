#ifndef SARGUS_GRAPH_DELTA_OVERLAY_H_
#define SARGUS_GRAPH_DELTA_OVERLAY_H_

/// \file delta_overlay.h
/// \brief DeltaOverlay: pending edge mutations layered over an immutable
/// CsrSnapshot, so queries see a live graph without paying a rebuild.
///
/// A CsrSnapshot never observes graph mutations; before this subsystem,
/// every AddEdge/RemoveEdge forced a full RebuildIndexes (the cost model
/// bench_dynamic.cc charts). The overlay closes that gap: it records the
/// *difference* between the snapshot and the logical graph as per-label
/// added/removed edge sets, materialized in both orientations, and the
/// traversal evaluators merge it into neighbor iteration on the fly
/// (see ForEachNeighborEdge below). A mutation is then an O(1) hash
/// update; the snapshot is merged and rebuilt only when the overlay
/// exceeds a compaction threshold (AccessControlEngine::Compact).
///
/// The overlay is *relative to one snapshot*: a staged add must not
/// duplicate a live base edge, and a staged remove must name a live base
/// edge. AccessControlEngine enforces both; direct users must do the
/// same, or neighbor iteration may yield duplicates (harmless for
/// reachability, wasteful) or no-op removals.
///
/// Node growth is staged too: StageNode() extends the *logical* node id
/// range past the snapshot without touching the SocialGraph — staged
/// node k gets id snapshot_nodes + k, the id the graph will assign when
/// compaction folds the nodes in, so ids are stable across the fold.
/// Endpoints of staged edges must be < snapshot NumNodes() +
/// num_staged_nodes(): walkers size their visited arrays to that
/// logical count (LogicalNumNodes below), and ForEachNeighborEdge
/// serves nodes at or past the snapshot from the overlay adjacency
/// alone (they have no base entries). Staged nodes have no attributes
/// until compaction, so attribute-filtered steps treat them as unset.
///
/// Thread-safety and snapshot-consistency contract: the overlay is NOT
/// internally synchronized. Readers (evaluators mid-query) and writers
/// (Stage*/Unstage*/Clear) must be externally serialized — a mutation
/// racing a traversal is a data race, and a mutation between two queries
/// of one CheckAccess would make its rule disjunction evaluate against
/// two different logical graphs. `version()` increments on every
/// successful staging change, so callers can detect overlay churn between
/// reads; generation counters on the engine cover snapshot swaps.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "graph/csr.h"

namespace sargus {

namespace storage {
struct StorageAccess;
}

class DeltaOverlay {
 public:
  /// One logical edge. The graph coalesces duplicate (src, dst, label)
  /// edges, so the triple identifies an edge without an EdgeId — which
  /// staged additions do not have yet.
  struct EdgeTriple {
    NodeId src = 0;
    NodeId dst = 0;
    LabelId label = kInvalidLabel;
    bool operator==(const EdgeTriple&) const = default;
  };

  // ---- Staging (engine-facing) --------------------------------------------

  /// Stages src -[label]-> dst as pending-added. Returns true when newly
  /// staged, false when it was already staged.
  bool StageAdd(NodeId src, NodeId dst, LabelId label);

  /// Withdraws a pending addition (the logical edge disappears again).
  /// Returns false when it was not staged.
  bool UnstageAdd(NodeId src, NodeId dst, LabelId label);

  /// Stages the *base* edge src -[label]-> dst as pending-removed.
  /// Returns true when newly staged.
  bool StageRemove(NodeId src, NodeId dst, LabelId label);

  /// Withdraws a pending removal (the base edge is visible again).
  /// Returns false when it was not staged.
  bool UnstageRemove(NodeId src, NodeId dst, LabelId label);

  /// Stages one node addition past the snapshot's id range; returns the
  /// zero-based index of the staged node (its logical id is the
  /// snapshot's NumNodes() + that index). Unlike edges, node additions
  /// never cancel: ids already handed out must stay valid.
  uint32_t StageNode() {
    ++version_;
    return staged_nodes_++;
  }

  bool IsStagedAdd(NodeId src, NodeId dst, LabelId label) const {
    return added_.contains(EdgeTriple{src, dst, label});
  }
  bool IsStagedRemove(NodeId src, NodeId dst, LabelId label) const {
    return removed_.contains(EdgeTriple{src, dst, label});
  }

  /// Drops every staged mutation (after the engine folded them into a
  /// fresh snapshot, or to abandon them).
  void Clear();

  /// Rebases this overlay onto the snapshot `base ⊕ frozen`, where
  /// `frozen` is an earlier copy of this overlay over the same `base`:
  /// `base ⊕ frozen ⊕ Since(frozen)` is `base ⊕ *this`. No log is needed,
  /// because the set a triple sits in says whether `base` holds it
  /// (added: absent, removed: present). So adds and removes not in
  /// `frozen` carry over, a frozen add withdrawn since becomes a remove,
  /// and a frozen remove restored since becomes an add. Staged nodes
  /// are the ones past `frozen`'s; the version carries on from this
  /// overlay. Requires num_staged_nodes() >= frozen.num_staged_nodes().
  DeltaOverlay Since(const DeltaOverlay& frozen) const;

  // ---- Query side (the traversal hot path) --------------------------------

  /// True when the base edge src -[label]-> dst is pending-removed and
  /// must be skipped during neighbor iteration.
  bool IsRemoved(NodeId src, NodeId dst, LabelId label) const {
    return removed_.contains(EdgeTriple{src, dst, label});
  }

  /// Pending-added out-neighbors w of `node` (edges node -[label]-> w).
  /// Unordered; stable until the next staging change.
  std::span<const NodeId> AddedOut(NodeId node, LabelId label) const {
    return AdjSpan(added_out_, node, label);
  }

  /// Pending-added in-neighbors w of `node` (edges w -[label]-> node).
  std::span<const NodeId> AddedIn(NodeId node, LabelId label) const {
    return AdjSpan(added_in_, node, label);
  }

  // ---- Introspection / compaction -----------------------------------------

  size_t NumAdded() const { return added_.size(); }
  size_t NumRemoved() const { return removed_.size(); }
  /// Staged node additions past the snapshot (see StageNode).
  size_t num_staged_nodes() const { return staged_nodes_; }
  /// Total staged mutations — the compaction-threshold metric.
  size_t size() const {
    return added_.size() + removed_.size() + staged_nodes_;
  }
  bool empty() const {
    return added_.empty() && removed_.empty() && staged_nodes_ == 0;
  }

  /// Any pending additions? While true, "index says unreachable" proofs
  /// over the base snapshot are invalid (an added edge may connect).
  bool has_insertions() const { return !added_.empty(); }
  /// Any pending removals? While true, "index says reachable" proofs
  /// over the base snapshot are invalid (the witness path may be gone).
  bool has_deletions() const { return !removed_.empty(); }

  /// Monotonic counter, bumped by every successful staging change and by
  /// Clear() on a non-empty overlay.
  uint64_t version() const { return version_; }

  /// Enumeration for compaction; fn(const EdgeTriple&). Unordered.
  template <typename Fn>
  void ForEachAdded(Fn&& fn) const {
    for (const EdgeTriple& t : added_) fn(t);
  }
  template <typename Fn>
  void ForEachRemoved(Fn&& fn) const {
    for (const EdgeTriple& t : removed_) fn(t);
  }

  size_t MemoryBytes() const;

 private:
  struct TripleHash {
    size_t operator()(const EdgeTriple& t) const {
      uint64_t h = (static_cast<uint64_t>(t.src) << 32) ^
                   (static_cast<uint64_t>(t.dst) << 16) ^ t.label;
      h *= 0x9e3779b97f4a7c15ULL;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  using TripleSet = std::unordered_set<EdgeTriple, TripleHash>;
  /// (node, label) -> unordered endpoint list; key packs node and label.
  using AdjMap = std::unordered_map<uint64_t, std::vector<NodeId>>;

  static uint64_t AdjKey(NodeId node, LabelId label) {
    return (static_cast<uint64_t>(node) << 16) | label;
  }
  static std::span<const NodeId> AdjSpan(const AdjMap& map, NodeId node,
                                         LabelId label) {
    auto it = map.find(AdjKey(node, label));
    if (it == map.end()) return {};
    return {it->second.data(), it->second.size()};
  }
  static void AdjErase(AdjMap& map, NodeId node, LabelId label, NodeId other);

  TripleSet added_;
  TripleSet removed_;
  AdjMap added_out_;
  AdjMap added_in_;
  uint32_t staged_nodes_ = 0;
  uint64_t version_ = 0;

  friend struct storage::StorageAccess;
};

/// Node ids a traversal over (csr, overlay) may legally touch: the
/// snapshot's range plus any staged node additions. This is the size
/// every walker's visited/parent arrays must cover.
inline size_t LogicalNumNodes(const CsrSnapshot& csr,
                              const DeltaOverlay* overlay) {
  return csr.NumNodes() +
         (overlay == nullptr ? 0 : overlay->num_staged_nodes());
}

/// Merged neighbor iteration: the one place base entries and overlay
/// deltas combine, shared by every traversal (ProductWalker steps,
/// bidirectional seeds and backward expansion).
///
/// With backward == false, visits every w such that the logical graph has
/// node -[label]-> w; with backward == true, every w with
/// w -[label]-> node. Base entries pending removal are skipped, then
/// staged additions are appended. `fn(NodeId w)` returns true to stop
/// early; the function returns true when a callback stopped it. A null or
/// empty overlay adds one branch, no per-edge cost.
template <typename Fn>
inline bool ForEachNeighborEdge(const CsrSnapshot& csr,
                                const DeltaOverlay* overlay, NodeId node,
                                LabelId label, bool backward, Fn&& fn) {
  if (node >= csr.NumNodes()) {
    // A staged node: no base entries, overlay adjacency only. (Callers
    // validate node < LogicalNumNodes, so overlay is non-null here.)
    if (overlay == nullptr) return false;
    const auto added = backward ? overlay->AddedIn(node, label)
                                : overlay->AddedOut(node, label);
    for (NodeId w : added) {
      if (fn(w)) return true;
    }
    return false;
  }
  const std::span<const NodeId> base =
      backward ? csr.InWithLabel(node, label) : csr.OutWithLabel(node, label);
  if (overlay == nullptr || overlay->empty()) {
    for (NodeId w : base) {
      if (fn(w)) return true;
    }
    return false;
  }
  const bool check_removed = overlay->has_deletions();
  for (NodeId w : base) {
    if (check_removed && (backward ? overlay->IsRemoved(w, node, label)
                                   : overlay->IsRemoved(node, w, label))) {
      continue;
    }
    if (fn(w)) return true;
  }
  const auto added =
      backward ? overlay->AddedIn(node, label) : overlay->AddedOut(node, label);
  for (NodeId w : added) {
    if (fn(w)) return true;
  }
  return false;
}

}  // namespace sargus

#endif  // SARGUS_GRAPH_DELTA_OVERLAY_H_
