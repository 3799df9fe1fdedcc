#ifndef SARGUS_GRAPH_SOCIAL_GRAPH_H_
#define SARGUS_GRAPH_SOCIAL_GRAPH_H_

/// \file social_graph.h
/// \brief The mutable system of record: a labeled directed multigraph of
/// users with integer node attributes.
///
/// SocialGraph is the only mutable structure in sargus. Everything else
/// (CsrSnapshot, LineGraph, the index stack) is an immutable snapshot built
/// from it; after a mutation, callers rebuild the snapshots they need
/// (see bench/bench_dynamic.cc for the cost model this implies).
///
/// A graph's edges take one of two forms.
///  - **Thawed**: edge slots plus a triple index, the form a graph is
///    built and mutated in. A slot is one 10-byte record {src, dst,
///    label} with no padding, and a dead slot is marked in band by label
///    kInvalidLabel: AddEdge refuses a label id at or past the
///    dictionary's size, and the dictionary holds at most 0xFFFF names,
///    so no stored edge carries that label. RemoveEdge tombstones the
///    slot instead of compacting. The triple index costs 4 B per index
///    slot, kept 3/8 to 3/4 full.
///  - **Frozen**: the graph's CsrSnapshot and nothing else, held as a
///    shared_ptr<const CsrSnapshot> (6 B an edge: a 4-byte id and a
///    2-byte label, in two columns). Freeze() makes it; the generators
///    and ExtractShardGraph freeze every graph they finish, and a
///    reopened bundle's graph is frozen over the CSR the loader read.
///    An engine built over a frozen graph serves that very snapshot
///    instead of building a second one, and a copy of the graph shares
///    it. FindEdge binary-searches the source's out-range, so a frozen
///    graph needs no triple index.
/// Every node or edge mutation (AddNode(s), an AddEdge that adds,
/// RemoveEdge) thaws a frozen graph first: the slots are refilled from
/// the CSR, one node range per core, and the triple index is rebuilt.
/// SetAttribute does not thaw (attributes live beside either form).
///
/// The EdgeId contract: an EdgeId names one edge from one Freeze() to
/// the next. Freeze renumbers the live edges into CSR order (by source,
/// then label, then target) and drops the tombstones, so a frozen graph
/// holds edges 0 .. NumEdges() - 1, edge e being the e-th CSR out-entry.
/// A thaw keeps every id (slot e is refilled with edge e), and a thawed
/// graph's mutations keep the ids of the edges they leave live, so ids
/// are stable across a thaw and between Freeze calls. Iteration goes
/// through EdgeSlotCount()/IsLiveEdge() in either form.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/for_overwrite.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace sargus {

class CsrSnapshot;

namespace storage {
struct StorageAccess;  // snapshot bundle (de)serializer, storage/
}

/// Interning dictionary for label / attribute names.
class NameDictionary {
 public:
  /// Returns the id for `name`, interning it if new.
  uint16_t Intern(const std::string& name);

  /// Returns the id for `name`, or the sentinel (0xFFFF) if unknown.
  uint16_t Lookup(const std::string& name) const;

  /// Inverse mapping; `id` must be a valid interned id.
  const std::string& ToString(uint16_t id) const;

  size_t size() const { return names_.size(); }

 private:
  friend struct storage::StorageAccess;

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint16_t> ids_;
};

/// One directed labeled edge. `label` is interned in the graph's label
/// dictionary. A value type: SocialGraph stores its slots in a packed
/// record of its own and hands out copies.
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;
  LabelId label = kInvalidLabel;
};

class SocialGraph {
 public:
  SocialGraph() = default;

  // Movable and copyable (generators return by value; benches copy). A
  // copy of a frozen graph shares its snapshot, and thawing either one
  // leaves the other as it was.
  SocialGraph(const SocialGraph&) = default;
  SocialGraph& operator=(const SocialGraph&) = default;
  SocialGraph(SocialGraph&&) noexcept = default;
  SocialGraph& operator=(SocialGraph&&) noexcept = default;

  // ---- Nodes ---------------------------------------------------------------

  /// Thaws a frozen graph (see the file comment).
  NodeId AddNode();

  /// Appends `count` nodes at once; returns the first new id. Thaws a
  /// frozen graph; otherwise touches only the node counter — attribute
  /// columns grow lazily on the next SetAttribute — which is what lets
  /// compaction fold staged node additions in while read views (which
  /// never consult the counter and bound attribute reads by column size)
  /// are in flight.
  NodeId AddNodes(size_t count);

  size_t NumNodes() const { return num_nodes_; }

  /// Sets integer attribute `name` on `node` (interning the name).
  /// Fails with kInvalidArgument if `node` is out of range. Never thaws.
  Status SetAttribute(NodeId node, const std::string& name, int64_t value);

  /// Attribute by pre-resolved id; nullopt when unset/unknown.
  std::optional<int64_t> GetAttribute(NodeId node, AttrId attr) const;

  /// Attribute by name; nullopt when unset/unknown.
  std::optional<int64_t> GetAttribute(NodeId node,
                                      const std::string& name) const;

  // ---- Edges ---------------------------------------------------------------

  /// Adds edge src -[label]-> dst, interning the label name. Duplicate
  /// (src, dst, label) edges are coalesced: the existing id is returned
  /// (without thawing a frozen graph).
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, const std::string& label);

  /// Same, with a label id already interned in this graph's dictionary.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, LabelId label);

  /// Tombstones the edge slot, thawing a frozen graph first: its record's
  /// label becomes kInvalidLabel. kNotFound if the slot is dead or
  /// invalid.
  Status RemoveEdge(EdgeId edge);

  /// Id of the live edge (src, dst, label), or nullopt when absent.
  /// (Duplicate triples are coalesced by AddEdge, so the triple is a key.)
  /// A frozen graph binary-searches the label range of src's out-range;
  /// a thawed one probes its triple index. Either way a pure read, safe
  /// from any number of threads.
  std::optional<EdgeId> FindEdge(NodeId src, NodeId dst, LabelId label) const;

  /// Number of live edges.
  size_t NumEdges() const { return num_live_edges_; }

  /// Total slots ever allocated (live + tombstoned); the iteration bound.
  /// A frozen graph has no tombstones: it is NumEdges().
  size_t EdgeSlotCount() const {
    return csr_ != nullptr ? num_live_edges_ : slots_.size();
  }

  /// True when `edge` is a live edge: below NumEdges() on a frozen graph,
  /// a slot whose record carries a label (not the kInvalidLabel
  /// tombstone) on a thawed one.
  bool IsLiveEdge(EdgeId edge) const {
    if (csr_ != nullptr) return edge < num_live_edges_;
    return edge < slots_.size() && slots_[edge].label != kInvalidLabel;
  }

  /// A copy of the edge's record; meaningful only while IsLiveEdge(edge)
  /// (a dead slot reads back with label kInvalidLabel). On a frozen graph
  /// this binary-searches the CSR offsets for the source, so a loop over
  /// every edge should read the CSR by node range instead
  /// (CsrSnapshot::ForEachEdge).
  Edge edge(EdgeId edge) const {
    if (csr_ != nullptr) return FrozenEdge(edge);
    const Slot& s = slots_[edge];
    return Edge{s.src, s.dst, s.label};
  }

  // ---- Forms ---------------------------------------------------------------

  /// Freezes the graph: builds its CsrSnapshot once, renumbers the live
  /// edges into CSR order, and frees the slots and the triple index. A
  /// no-op on a frozen graph.
  void Freeze();

  /// Thaws a frozen graph back into slots, in the same order (so every
  /// EdgeId survives), rebuilds the triple index and drops this graph's
  /// share of the snapshot. A no-op on a thawed graph.
  void Thaw() { ReserveEdges(0); }

  /// Makes room for `count` more edges: thaws a frozen graph, then sizes
  /// the slots' capacity and the triple index so that `count` further
  /// AddEdge calls neither reallocate the slots nor rehash the index.
  /// The engine's compaction worker calls it off the writer lock before
  /// each build, with the size of the overlay it will fold, so the fold
  /// under the lock never thaws or rehashes.
  void ReserveEdges(size_t count);

  /// True while the graph is in its frozen form.
  bool frozen() const { return csr_ != nullptr; }

  /// The frozen form's snapshot, or null while thawed. An engine adopts
  /// it instead of building its own.
  const std::shared_ptr<const CsrSnapshot>& frozen_csr() const {
    return csr_;
  }

  // ---- Dictionaries --------------------------------------------------------

  const NameDictionary& labels() const { return labels_; }
  NameDictionary& labels() { return labels_; }
  const NameDictionary& attrs() const { return attrs_; }
  /// Mutable attribute dictionary, mirroring labels(): shard-graph
  /// extraction pre-interns every name so attribute ids are identical
  /// across all shard copies (see graph/subgraph.h).
  NameDictionary& attrs() { return attrs_; }

  /// Slots in the triple -> edge index (a power of two, or 0 while no
  /// edge is live or the graph is frozen). It is kept at most 3/4 full.
  size_t edge_index_capacity() const { return edge_lookup_.size(); }

  /// Home-slot hash of a triple in that index: the slot is the hash
  /// masked to the capacity. Tests use it to build probe chains that
  /// wrap past the end of the table.
  static uint64_t EdgeTripleHash(NodeId src, NodeId dst, LabelId label);

  /// Approximate heap footprint in bytes: the slots and the triple index
  /// of a thawed graph, or the snapshot of a frozen one (counted once,
  /// however many engines and copies share it), plus the attribute
  /// columns.
  size_t MemoryBytes() const;

 private:
  friend struct storage::StorageAccess;

  /// One edge slot: Edge's fields without its 2 padding bytes. Read
  /// its members by value; a reference cannot bind to a packed member.
  /// No member initialisers, so ForOverwrite leaves a resized array
  /// unwritten for a thaw to fill.
  struct [[gnu::packed]] Slot {
    NodeId src;
    NodeId dst;
    LabelId label;  // kInvalidLabel marks a dead slot
  };
  static_assert(sizeof(Slot) == 10 &&
                std::is_trivially_default_constructible_v<Slot>);

  size_t num_nodes_ = 0;
  std::vector<Slot, ForOverwrite<Slot>> slots_;  // empty while frozen
  size_t num_live_edges_ = 0;
  /// The frozen form; null while thawed. Never mutated through: copies
  /// of the graph and engines share it.
  std::shared_ptr<const CsrSnapshot> csr_;
  NameDictionary labels_;
  NameDictionary attrs_;
  // Per-attribute dense columns; INT64_MIN marks "unset". Columns may
  // trail num_nodes_ (nodes appended since the column last grew);
  // GetAttribute treats the missing tail as unset.
  std::vector<std::vector<int64_t>> attr_columns_;

  /// edge(e) of a frozen graph.
  Edge FrozenEdge(EdgeId edge) const;
  /// Index in edge_lookup_ of the live edge (src, dst, label), or of the
  /// empty slot where it would go. The graph must be thawed and the
  /// table non-empty.
  size_t ProbeSlot(NodeId src, NodeId dst, LabelId label) const;
  /// Rebuilds edge_lookup_ at `capacity` slots from the live edges.
  void RehashEdgeLookup(size_t capacity);

  // The triple -> slot index of a thawed graph: an open-addressed,
  // linearly probed table of live edge ids. A slot holds only the id;
  // its key is read back from that edge's record in slots_, one record
  // per probe. The capacity is a power of two (or 0) at most 3/4 full,
  // and RemoveEdge deletes by backward shift, so no tombstones
  // accumulate. Freeze frees it and Thaw rebuilds it.
  std::vector<EdgeId> edge_lookup_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_SOCIAL_GRAPH_H_
