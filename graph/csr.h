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
/// The out-side is the one copy of the snapshot's edges; the bundle
/// stores only it. The in-side is always derived from it. Both sides are
/// laid out by the same chunked counting scatter:
///  - the input (edge slots for the out-side, source nodes for the
///    in-side) is cut into contiguous chunks, one per thread, and each
///    chunk counts its share into its own per-node array;
///  - a prefix pass turns the counts into cursors that start chunk c
///    after every earlier chunk in each node's range, so each range holds
///    its entries in input order, exactly as a serial pass would, and no
///    two threads write the same slot;
///  - each out-range is then sorted by (label, other), and each in-range,
///    which the transpose leaves in source order, gets a stable pass by
///    label, over node ranges of equal entry count.
/// The result is byte-identical whatever the chunk count. A build uses
/// min(cores, entries / 2^18) chunks, at least one: on a 4-vCPU host a
/// new thread started about one 4 ms scheduler tick after the one before
/// it, so a smaller build runs on the calling thread alone, and a
/// compaction of a graph above that floor briefly uses every core. Build
/// and the bundle loader share the in-side step.

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
  /// One adjacency entry: the far endpoint plus the edge's label. An
  /// entry names no edge slot; the (label, other) key is unique within
  /// one node's range.
  struct Entry {
    NodeId other = 0;
    LabelId label = kInvalidLabel;
  };

  CsrSnapshot() = default;

  /// Snapshots the live edges of `g`.
  static CsrSnapshot Build(const SocialGraph& g);

  /// Snapshots the *logical* graph g ⊕ overlay without mutating g: base
  /// live edges minus staged removals, plus staged additions and staged
  /// nodes. Every range is sorted by its unique key, so the result equals
  /// Build(g) after the same overlay is folded into g, in whatever order
  /// the fold adds its edges. This is what lets a background compaction
  /// build against a frozen overlay while the graph object stays
  /// untouched.
  static CsrSnapshot Build(const SocialGraph& g, const DeltaOverlay& overlay);

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

  /// Shared core of both Build overloads, over `num_inputs` input
  /// positions. `for_each_edge(begin, end, fn)` calls fn(const Edge&)
  /// once per logical edge at positions [begin, end), in position order
  /// and the same way on every call; calls for disjoint ranges run
  /// concurrently.
  template <typename ForEachEdge>
  static CsrSnapshot Scatter(size_t num_nodes, size_t num_inputs,
                             const ForEachEdge& for_each_edge);

  /// Fills the in-side from the finished, (label, other)-sorted
  /// out-side: a transpose in source order, then a stable pass by label,
  /// both chunked like the out-side. Scatter and the bundle loader both
  /// end here.
  void DeriveInSide();

  size_t num_nodes_ = 0;
  std::vector<uint32_t> out_offsets_{0};
  std::vector<Entry> out_entries_;
  std::vector<uint32_t> in_offsets_{0};
  std::vector<Entry> in_entries_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
