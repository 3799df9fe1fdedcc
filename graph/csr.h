#ifndef SARGUS_GRAPH_CSR_H_
#define SARGUS_GRAPH_CSR_H_

/// \file csr.h
/// \brief CsrSnapshot: an immutable compressed-sparse-row view of a
/// SocialGraph, in both directions.
///
/// This is the structure traversal-based evaluators run on. It is a value
/// type: the result never observes later mutations of the source graph.
/// Every node's range, out and in, is sorted by (label, other), so a
/// per-label neighbor range is contiguous and LabelRange finds it by
/// binary search.
///
/// Build scatters the out-side straight from the edge slots and sorts
/// each range; the in-side is the out-side transposed in source order,
/// which leaves only a stable by-label pass per range.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/social_graph.h"

namespace sargus {

class DeltaOverlay;

namespace storage {
struct StorageAccess;
}

class CsrSnapshot {
 public:
  /// One adjacency entry: the far endpoint plus the edge's label and slot.
  struct Entry {
    NodeId other = 0;
    LabelId label = kInvalidLabel;
    EdgeId edge = 0;
  };

  CsrSnapshot() = default;

  /// Snapshots the live edges of `g`.
  static CsrSnapshot Build(const SocialGraph& g);

  /// Snapshots the *logical* graph g ⊕ overlay without mutating g: base
  /// live edges minus staged removals, plus staged additions and staged
  /// nodes. Staged additions get the edge ids the fold will assign —
  /// `first_new_edge + i` for the i-th triple of the overlay's added-set
  /// iteration order — so the result is bit-identical to Build(g) after
  /// the same overlay is folded into g (removals first, additions in
  /// that same iteration order). This is what lets a background
  /// compaction build indexes against a frozen overlay while the graph
  /// object stays untouched.
  static CsrSnapshot Build(const SocialGraph& g, const DeltaOverlay& overlay,
                           EdgeId first_new_edge);

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return out_entries_.size(); }

  /// Outgoing entries of `node`, sorted by (label, other).
  std::span<const Entry> Out(NodeId node) const {
    return {out_entries_.data() + out_offsets_[node],
            out_offsets_[node + 1] - out_offsets_[node]};
  }

  /// Incoming entries of `node` (Entry::other is the source), sorted by
  /// (label, other).
  std::span<const Entry> In(NodeId node) const {
    return {in_entries_.data() + in_offsets_[node],
            in_offsets_[node + 1] - in_offsets_[node]};
  }

  /// Outgoing entries of `node` restricted to `label` (binary search on
  /// the (label, other)-sorted range).
  std::span<const Entry> OutWithLabel(NodeId node, LabelId label) const {
    return LabelRange(Out(node), label);
  }
  std::span<const Entry> InWithLabel(NodeId node, LabelId label) const {
    return LabelRange(In(node), label);
  }

  size_t MemoryBytes() const {
    return (out_offsets_.capacity() + in_offsets_.capacity()) *
               sizeof(uint32_t) +
           (out_entries_.capacity() + in_entries_.capacity()) * sizeof(Entry);
  }

 private:
  friend struct storage::StorageAccess;

  static std::span<const Entry> LabelRange(std::span<const Entry> all,
                                           LabelId label);

  /// Shared core of both Build overloads. `for_each_edge(fn)` calls
  /// fn(const Edge&, EdgeId) once per logical edge, in the same order on
  /// each of its two calls (count, then fill). Keeping one core is what
  /// guarantees the merged build stays bit-identical to a post-fold
  /// rebuild.
  template <typename ForEachEdge>
  static CsrSnapshot Scatter(size_t num_nodes,
                             const ForEachEdge& for_each_edge);

  size_t num_nodes_ = 0;
  std::vector<uint32_t> out_offsets_{0};
  std::vector<Entry> out_entries_;
  std::vector<uint32_t> in_offsets_{0};
  std::vector<Entry> in_entries_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
