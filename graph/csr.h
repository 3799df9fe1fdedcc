#ifndef SARGUS_GRAPH_CSR_H_
#define SARGUS_GRAPH_CSR_H_

/// \file csr.h
/// \brief CsrSnapshot: an immutable compressed-sparse-row view of a
/// SocialGraph, in both directions.
///
/// This is the structure traversal-based evaluators run on. It is a value
/// type: the result never observes later mutations of the source graph.
///
/// Each side holds per-node offsets (4 B a node) into two parallel
/// columns: `ids`, the far endpoint of every entry (4 B), and `labels`,
/// its edge label (2 B). An entry thus costs 6 B, not the 8 B of a
/// padded {id, label} struct, and a walk that only follows ids never
/// reads a label. Every node's range, out and in, is sorted by (label,
/// other), so a per-label neighbor range is contiguous: OutWithLabel and
/// InWithLabel binary-search the node's label slice and return the ids
/// at the same positions.
///
/// The out-side is the one copy of the snapshot's edges; the bundle
/// stores its two columns as they lie in memory, and Build and the
/// bundle loader make only it. The in-side, which only a backward step
/// (`label-[a,b]`) walks, is derived from the out-side by the first
/// In(), InLabels() or InWithLabel() call, exactly
/// once however many threads race on it, and published with a release
/// store, so a later backward expansion pays one acquire load and a
/// forward-only snapshot never holds it. The engine makes that first call
/// itself, before it publishes a view whose policy has a backward step
/// (access_engine.h), so no reader pays the derivation on the serving
/// path; the paper's indexes and the tests simply call In().
///
/// Both sides are laid out by the same chunked counting scatter:
///  - the input (edge slots for the out-side, source nodes for the
///    in-side) is cut into contiguous chunks, one per thread, and each
///    chunk counts its share into its own per-node array;
///  - a prefix pass turns the counts into cursors that start chunk c
///    after every earlier chunk in each node's range, so each range holds
///    its entries in input order, exactly as a serial pass would, and no
///    two threads write the same slot;
///  - the scatter writes both columns, prefetching the destination of
///    the input 16 positions ahead; every range, out and in, is then
///    sorted by one packed key, `uint64_t{label} << 32 | other`,
///    gathered from them (graph/csr_sort.h): up to 16 entries by a
///    branch-free sorting network of 4, 8 or 16 inputs, up to 32 by
///    insertion and longer ones by std::sort, each written back to both
///    columns. As many workers as the scatter had chunks take blocks of
///    4,096 nodes from one shared cursor, so the block with a graph's
///    hubs or a helper that starts late holds up no other worker.
/// The result is byte-identical whatever the chunk count. A build uses
/// min(cores, entries / 2^18) chunks, at least one (NumChunks, see
/// common/parallel.h for the measured fork-join and start-up costs
/// behind that floor), so a smaller build runs on the calling thread
/// alone, and a compaction of a graph above the floor briefly uses
/// every core.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/for_overwrite.h"
#include "common/types.h"
#include "graph/social_graph.h"

namespace sargus {

class DeltaOverlay;

namespace storage {
struct StorageAccess;
}

class CsrSnapshot {
 public:
  CsrSnapshot() = default;
  /// Movable, so a snapshot can be built into a member; the source must
  /// not be in use by another thread. Not copyable.
  CsrSnapshot(CsrSnapshot&& other) noexcept;
  CsrSnapshot& operator=(CsrSnapshot&& other) noexcept;
  ~CsrSnapshot();

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
  size_t NumEdges() const { return out_.ids.size(); }

  /// Targets of `node`'s out-edges, sorted by (label, target);
  /// OutLabels(node) holds their labels, entry for entry.
  std::span<const NodeId> Out(NodeId node) const { return out_.Ids(node); }
  std::span<const LabelId> OutLabels(NodeId node) const {
    return out_.Labels(node);
  }

  /// Sources of `node`'s in-edges, sorted by (label, source);
  /// InLabels(node) holds their labels. The first call to either derives
  /// the in-side (see the file comment); safe from any number of threads.
  std::span<const NodeId> In(NodeId node) const { return InSide().Ids(node); }
  std::span<const LabelId> InLabels(NodeId node) const {
    return InSide().Labels(node);
  }

  /// Targets of `node`'s out-edges labelled `label`, ascending (a binary
  /// search over the node's label slice).
  std::span<const NodeId> OutWithLabel(NodeId node, LabelId label) const {
    return out_.WithLabel(node, label);
  }
  /// Sources of `node`'s in-edges labelled `label`, ascending.
  std::span<const NodeId> InWithLabel(NodeId node, LabelId label) const {
    return InSide().WithLabel(node, label);
  }

  /// True once the in-side has been derived.
  bool HasInSide() const {
    return in_.load(std::memory_order_acquire) != nullptr;
  }

  /// Bytes held by both sides, the in-side only once derived: 4 B per
  /// node plus 6 B per entry each.
  size_t MemoryBytes() const;

 private:
  friend struct storage::StorageAccess;

  /// resize() leaves new elements unwritten: the scatter fills them.
  template <typename T>
  using Column = std::vector<T, ForOverwrite<T>>;

  /// One direction of the snapshot: node v's entries are positions
  /// [offsets[v], offsets[v + 1]) of two parallel columns, the far
  /// endpoint and the edge's label. An entry names no edge slot; the
  /// (label, other) key is unique within one node's range.
  struct Side {
    std::vector<uint32_t> offsets{0};
    Column<NodeId> ids;
    Column<LabelId> labels;

    std::span<const NodeId> Ids(NodeId v) const {
      return {ids.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }
    std::span<const LabelId> Labels(NodeId v) const {
      return {labels.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }
    std::span<const NodeId> WithLabel(NodeId v, LabelId label) const {
      const LabelId* first = labels.data() + offsets[v];
      const auto [lo, hi] =
          std::equal_range(first, labels.data() + offsets[v + 1], label);
      return {ids.data() + (lo - labels.data()),
              static_cast<size_t>(hi - lo)};
    }
    size_t MemoryBytes() const {
      return offsets.capacity() * sizeof(uint32_t) +
             ids.capacity() * sizeof(NodeId) +
             labels.capacity() * sizeof(LabelId);
    }
  };

  /// Shared core of both Build overloads, over `num_inputs` input
  /// positions. `for_each_edge(begin, end, fn)` calls fn(const Edge&,
  /// NodeId ahead) once per logical edge at positions [begin, end), in
  /// position order and the same way on every call, where `ahead` is the
  /// source of an input about 16 positions later (any node of the
  /// snapshot is correct: it only steers a prefetch); calls for disjoint
  /// ranges run concurrently.
  template <typename ForEachEdge>
  static CsrSnapshot Scatter(size_t num_nodes, size_t num_inputs,
                             const ForEachEdge& for_each_edge);

  const Side& InSide() const {
    const Side* in = in_.load(std::memory_order_acquire);
    return in != nullptr ? *in : DeriveInSide();
  }

  /// Derives the in-side from the out-side, once: a transpose, then the
  /// out-side's per-range sort, both chunked like the out-side. Callers
  /// that lose the race wait on in_mu_ and return the winner's result.
  const Side& DeriveInSide() const;

  size_t num_nodes_ = 0;
  Side out_;
  /// Owned; null until DeriveInSide publishes it, then never changed.
  mutable std::atomic<const Side*> in_{nullptr};
  mutable std::mutex in_mu_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
