#ifndef SARGUS_GRAPH_CSR_H_
#define SARGUS_GRAPH_CSR_H_

/// \file csr.h
/// \brief CsrSnapshot: an immutable compressed-sparse-row view of a
/// SocialGraph, in both directions.
///
/// This is the structure traversal-based evaluators run on. It is a value
/// type: the result never observes later mutations of the source graph.
/// A frozen SocialGraph is one of these, shared: the engine serves it,
/// and a mutation thaws the graph into slots without touching it.
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
/// stores its two columns as they lie in memory, and Build, Filtered and
/// the bundle loader make only it. The in-side, which only a backward step
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
///  - the input (edge ids for the out-side, source nodes for the
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

  /// Snapshots the live edges of `g`: a scatter of a thawed graph's
  /// slots, or a copy of a frozen graph's out-side (an engine adopts
  /// that snapshot rather than calling this).
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

  /// Calls fn(EdgeId e, const Edge& rec, NodeId ahead) for every live
  /// edge of `g` with an id in [begin, end), in id order. A frozen graph
  /// is read by node range: one binary search finds the first source,
  /// then each node's out-range follows in turn. `ahead` only steers a
  /// prefetch: the source of the edge about 16 ids later on a thawed
  /// graph, the edge's own source on a frozen one (whose edges arrive
  /// by source already).
  template <typename Fn>
  static void ForEachEdge(const SocialGraph& g, size_t begin, size_t end,
                          const Fn& fn);

  /// A snapshot over the same nodes holding the out-entries src -> other
  /// for which keep(src, other) is true. Dropping entries keeps every
  /// range's (label, other) order, so this is two passes, a count into
  /// offsets and a copy of both columns, with no scatter and no sort.
  /// The in-side is derived on first use, as on any snapshot.
  template <typename Keep>
  CsrSnapshot Filtered(const Keep& keep) const;

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
  friend class SocialGraph;  // a frozen graph reads its own snapshot

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

  /// Every input also names the key of the input about this many
  /// positions later, whose destination the scatter prefetches for
  /// writing. An entry goes to two columns, so most inputs would
  /// otherwise stall on two cache misses; at 16 inputs ahead the lines
  /// arrive in time, and the cursor read then has rarely moved on by
  /// more than a line. The serial scatter pass at 65,536 nodes took
  /// 1.8-2.1 ms without the prefetch and 1.3-1.45 ms with it (Intel Xeon,
  /// 4 vCPUs).
  static constexpr size_t kScatterAhead = 16;

  /// Shared core of both Build overloads, over `num_inputs` input
  /// positions. `for_each_edge(begin, end, fn)` calls fn(const Edge&,
  /// NodeId ahead) once per logical edge at positions [begin, end), in
  /// position order and the same way on every call, where `ahead` is the
  /// source of an input about 16 positions later (any node of the
  /// snapshot is correct: it only steers a prefetch); calls for disjoint
  /// ranges run concurrently.
  template <typename ForEachInput>
  static CsrSnapshot Scatter(size_t num_nodes, size_t num_inputs,
                             const ForEachInput& for_each_edge);

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

template <typename Fn>
void CsrSnapshot::ForEachEdge(const SocialGraph& g, size_t begin, size_t end,
                              const Fn& fn) {
  const CsrSnapshot* csr = g.frozen_csr().get();
  if (csr == nullptr) {
    for (size_t e = begin; e < end; ++e) {
      if (!g.IsLiveEdge(static_cast<EdgeId>(e))) continue;
      fn(static_cast<EdgeId>(e), g.edge(static_cast<EdgeId>(e)),
         g.edge(static_cast<EdgeId>(std::min(e + kScatterAhead, end - 1))).src);
    }
    return;
  }
  if (begin >= end) return;
  const Side& out = csr->out_;
  auto v = static_cast<NodeId>(
      std::upper_bound(out.offsets.begin(), out.offsets.end(), begin) -
      out.offsets.begin() - 1);
  for (size_t e = begin; e < end; ++v) {
    const size_t stop = std::min<size_t>(end, out.offsets[v + 1]);
    for (; e < stop; ++e) {
      fn(static_cast<EdgeId>(e), Edge{v, out.ids[e], out.labels[e]}, v);
    }
  }
}

template <typename Keep>
CsrSnapshot CsrSnapshot::Filtered(const Keep& keep) const {
  CsrSnapshot snap;
  snap.num_nodes_ = num_nodes_;
  const std::vector<uint32_t>& from = out_.offsets;
  std::vector<uint32_t>& to = snap.out_.offsets;
  const NodeId* ids = out_.ids.data();
  const LabelId* labels = out_.labels.data();
  to.resize(num_nodes_ + 1);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    uint32_t kept = to[v];
    for (uint32_t i = from[v]; i < from[v + 1]; ++i) kept += keep(v, ids[i]);
    to[v + 1] = kept;
  }
  const uint32_t total = to.back();
  snap.out_.ids.resize(total);  // unwritten: the copy fills both
  snap.out_.labels.resize(total);
  NodeId* kept_ids = snap.out_.ids.data();
  LabelId* kept_labels = snap.out_.labels.data();
  // No branch on keep, which would mispredict: every entry is written
  // at the cursor and only a kept one moves it on, so a dropped entry is
  // overwritten by the next kept one (or stopped past the last).
  uint32_t at = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (uint32_t i = from[v]; i < from[v + 1]; ++i) {
      if (at < total) {
        kept_ids[at] = ids[i];
        kept_labels[at] = labels[i];
      }
      at += keep(v, ids[i]);
    }
  }
  return snap;
}

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
