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
/// Edge slots are stable: RemoveEdge tombstones the slot instead of
/// compacting, so EdgeIds held by callers never dangle. Iteration goes
/// through EdgeSlotCount()/IsLiveEdge(). A slot is one 10-byte record
/// {src, dst, label} with no padding, and a dead slot is marked in band
/// by label kInvalidLabel: AddEdge refuses a label id at or past the
/// dictionary's size, and the dictionary holds at most 0xFFFF names, so
/// no stored edge carries that label. An edge thus costs 10 B of slot
/// and, in every CsrSnapshot, a 6-byte entry per side (a 4-byte id and
/// a 2-byte label, in two columns). The triple index (4 B per index
/// slot, kept 3/8 to 3/4 full) exists only while a graph is being
/// mutated: ShrinkToFit, which the generators and ExtractShardGraph
/// run on a finished graph, releases it, and a snapshot bundle stores
/// neither it nor the slots (the loader refills the slots densely, in
/// CSR order, one node range per core).

#include <cstdint>
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

  // Movable and copyable (generators return by value; benches copy).
  SocialGraph(const SocialGraph&) = default;
  SocialGraph& operator=(const SocialGraph&) = default;
  SocialGraph(SocialGraph&&) noexcept = default;
  SocialGraph& operator=(SocialGraph&&) noexcept = default;

  // ---- Nodes ---------------------------------------------------------------

  NodeId AddNode();

  /// Appends `count` nodes at once; returns the first new id. Touches
  /// only the node counter — attribute columns grow lazily on the next
  /// SetAttribute — which is what lets compaction fold staged node
  /// additions in while read views (which never consult the counter and
  /// bound attribute reads by column size) are in flight.
  NodeId AddNodes(size_t count);

  size_t NumNodes() const { return num_nodes_; }

  /// Sets integer attribute `name` on `node` (interning the name).
  /// Fails with kInvalidArgument if `node` is out of range.
  Status SetAttribute(NodeId node, const std::string& name, int64_t value);

  /// Attribute by pre-resolved id; nullopt when unset/unknown.
  std::optional<int64_t> GetAttribute(NodeId node, AttrId attr) const;

  /// Attribute by name; nullopt when unset/unknown.
  std::optional<int64_t> GetAttribute(NodeId node,
                                      const std::string& name) const;

  // ---- Edges ---------------------------------------------------------------

  /// Adds edge src -[label]-> dst, interning the label name. Duplicate
  /// (src, dst, label) edges are coalesced: the existing id is returned.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, const std::string& label);

  /// Same, with a label id already interned in this graph's dictionary.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, LabelId label);

  /// Tombstones the edge slot: its record's label becomes kInvalidLabel.
  /// kNotFound if the slot is dead or invalid.
  Status RemoveEdge(EdgeId edge);

  /// Slot of the live edge (src, dst, label), or nullopt when absent.
  /// (Duplicate triples are coalesced by AddEdge, so the triple is a key.)
  /// A generated or loaded graph holds a stale triple index (see
  /// ShrinkToFit); the first AddEdge/RemoveEdge/FindEdge rebuilds it,
  /// mutating state under this const method, so concurrent FindEdge
  /// calls on a stale graph need external synchronization.
  std::optional<EdgeId> FindEdge(NodeId src, NodeId dst, LabelId label) const;

  /// Number of live edges.
  size_t NumEdges() const { return num_live_edges_; }

  /// Total slots ever allocated (live + tombstoned); the iteration bound.
  size_t EdgeSlotCount() const { return slots_.size(); }

  /// True when `edge` is a slot whose record carries a label, not the
  /// kInvalidLabel tombstone.
  bool IsLiveEdge(EdgeId edge) const {
    return edge < slots_.size() && slots_[edge].label != kInvalidLabel;
  }

  /// A copy of the slot's record; meaningful only while IsLiveEdge(edge)
  /// (a dead slot reads back with label kInvalidLabel).
  Edge edge(EdgeId edge) const {
    const Slot& s = slots_[edge];
    return Edge{s.src, s.dst, s.label};
  }

  // ---- Dictionaries --------------------------------------------------------

  const NameDictionary& labels() const { return labels_; }
  NameDictionary& labels() { return labels_; }
  const NameDictionary& attrs() const { return attrs_; }
  /// Mutable attribute dictionary, mirroring labels(): shard-graph
  /// extraction pre-interns every name so attribute ids are identical
  /// across all shard copies (see graph/subgraph.h).
  NameDictionary& attrs() { return attrs_; }

  /// Releases the edge slots' spare capacity and the triple index,
  /// leaving the index stale. The generators and ExtractShardGraph call
  /// it on a finished graph, so a graph that will only be read carries
  /// neither up to 2x its edge storage nor the index; the first
  /// AddEdge/RemoveEdge/FindEdge after it rebuilds the index from the
  /// slots.
  void ShrinkToFit();

  /// Slots in the triple -> edge index (a power of two, or 0 while no
  /// edge is live or the index is stale). It is kept at most 3/4 full.
  size_t edge_index_capacity() const { return edge_lookup_.size(); }

  /// Home-slot hash of a triple in that index: the slot is the hash
  /// masked to the capacity. Tests use it to build probe chains that
  /// wrap past the end of the table.
  static uint64_t EdgeTripleHash(NodeId src, NodeId dst, LabelId label);

  /// Approximate heap footprint in bytes, the edge index included.
  size_t MemoryBytes() const;

 private:
  friend struct storage::StorageAccess;

  /// One edge slot: Edge's fields without its 2 padding bytes. Read
  /// its members by value; a reference cannot bind to a packed member.
  /// No member initialisers, so ForOverwrite leaves a resized array
  /// unwritten for the loader to fill.
  struct [[gnu::packed]] Slot {
    NodeId src;
    NodeId dst;
    LabelId label;  // kInvalidLabel marks a dead slot
  };
  static_assert(sizeof(Slot) == 10 &&
                std::is_trivially_default_constructible_v<Slot>);

  size_t num_nodes_ = 0;
  std::vector<Slot, ForOverwrite<Slot>> slots_;
  size_t num_live_edges_ = 0;
  NameDictionary labels_;
  NameDictionary attrs_;
  // Per-attribute dense columns; INT64_MIN marks "unset". Columns may
  // trail num_nodes_ (nodes appended since the column last grew);
  // GetAttribute treats the missing tail as unset.
  std::vector<std::vector<int64_t>> attr_columns_;

  /// Frees edge_lookup_'s buffer and marks it stale.
  void ReleaseEdgeLookup();
  /// Rematerializes edge_lookup_ from the live slots when stale.
  void EnsureEdgeLookup() const;
  /// Index in edge_lookup_ of the live edge (src, dst, label), or of the
  /// empty slot where it would go. The table must be non-empty.
  size_t ProbeSlot(NodeId src, NodeId dst, LabelId label) const;
  /// Rebuilds edge_lookup_ at `capacity` slots from the live edges.
  void RehashEdgeLookup(size_t capacity) const;

  // The triple -> slot index: an open-addressed, linearly probed table
  // of live edge ids. A slot holds only the id; its key is read back
  // from that edge's record in slots_, one record per probe. The
  // capacity is a power of two (or 0) at most 3/4 full, and RemoveEdge
  // deletes by backward shift, so no tombstones accumulate. Lazily
  // materialized (hence mutable): ShrinkToFit and the loader release it
  // and the first lookup/mutation rebuilds it from slots_.
  mutable std::vector<EdgeId> edge_lookup_;
  mutable bool edge_lookup_stale_ = false;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_SOCIAL_GRAPH_H_
