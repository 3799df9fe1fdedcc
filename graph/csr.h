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
/// stores only it, and Build and the bundle loader make only it. The
/// in-side, which only a backward step (`label-[a,b]`) walks, is derived
/// from the out-side by the first In() or InWithLabel() call, exactly
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
///  - every range, out and in, is then sorted by one packed key,
///    `uint64_t{label} << 32 | other` (graph/csr_sort.h): up to eight
///    entries by a branch-free sorting network padded with an all-ones
///    key no entry can have, up to 32 by insertion and longer ones by
///    std::sort. As many workers as the scatter had chunks take blocks of
///    4,096 nodes from one shared cursor, so the block with a graph's
///    hubs or a helper that starts late holds up no other worker.
/// The result is byte-identical whatever the chunk count. A build uses
/// min(cores, entries / 2^18) chunks, at least one (NumChunks, see
/// common/parallel.h for the measured fork-join and start-up costs
/// behind that floor), so a smaller build runs on the calling thread
/// alone, and a compaction of a graph above the floor briefly uses
/// every core.

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
  /// One adjacency entry: the far endpoint plus the edge's label. An
  /// entry names no edge slot; the (label, other) key is unique within
  /// one node's range. Trivial, so a build's entry array is not filled
  /// before the scatter writes every slot of it.
  struct Entry {
    NodeId other;
    LabelId label;
  };

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
  size_t NumEdges() const { return out_entries_.size(); }

  /// Outgoing entries of `node`, sorted by (label, other).
  std::span<const Entry> Out(NodeId node) const {
    return {out_entries_.data() + out_offsets_[node],
            out_offsets_[node + 1] - out_offsets_[node]};
  }

  /// Incoming entries of `node` (Entry::other is the source), sorted by
  /// (label, other). The first call derives the in-side (see the file
  /// comment); safe from any number of threads.
  std::span<const Entry> In(NodeId node) const {
    const InSide* in = in_.load(std::memory_order_acquire);
    if (in == nullptr) in = &DeriveInSide();
    return {in->entries.data() + in->offsets[node],
            in->offsets[node + 1] - in->offsets[node]};
  }

  /// Outgoing entries of `node` restricted to `label` (binary search on
  /// the (label, other)-sorted range).
  std::span<const Entry> OutWithLabel(NodeId node, LabelId label) const {
    return LabelRange(Out(node), label);
  }
  std::span<const Entry> InWithLabel(NodeId node, LabelId label) const {
    return LabelRange(In(node), label);
  }

  /// True once the in-side has been derived.
  bool HasInSide() const {
    return in_.load(std::memory_order_acquire) != nullptr;
  }

  /// Bytes held by both sides, the in-side only once derived.
  size_t MemoryBytes() const;

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

  /// resize() leaves new entries unwritten: the scatter fills them.
  using Entries = std::vector<Entry, ForOverwrite<Entry>>;

  struct InSide {
    std::vector<uint32_t> offsets;
    Entries entries;
  };

  /// Derives the in-side from the out-side, once: a transpose, then the
  /// out-side's per-range sort, both chunked like the out-side. Callers
  /// that lose the race wait on in_mu_ and return the winner's result.
  const InSide& DeriveInSide() const;

  size_t num_nodes_ = 0;
  std::vector<uint32_t> out_offsets_{0};
  Entries out_entries_;
  /// Owned; null until DeriveInSide publishes it, then never changed.
  mutable std::atomic<const InSide*> in_{nullptr};
  mutable std::mutex in_mu_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
