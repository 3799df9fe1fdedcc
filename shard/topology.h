#ifndef SARGUS_SHARD_TOPOLOGY_H_
#define SARGUS_SHARD_TOPOLOGY_H_

/// \file topology.h
/// \brief The immutable shard map: node -> shard assignment, the cut
/// edge table, and each shard's boundary vertex list.
///
/// A ShardTopology is copy-on-write state shared between the router and
/// every shard engine's readers. The router mutates a private clone
/// (cut-edge add/remove, node growth) and republishes it behind a
/// mutex-guarded shared_ptr with a bumped epoch; readers pin whatever
/// version was current when they started and never see it change. This
/// mirrors the engine's own read-view discipline (engine/read_view.h) so
/// a CheckAccess in flight during an AddEdge sees one coherent pair of
/// (graph view, topology) snapshots.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace sargus {

/// One direction of a cut edge as seen from a boundary vertex: the far
/// endpoint and the edge label. Stored in both orientations (cut_out
/// keyed by src, cut_in keyed by dst) so forward and backward automaton
/// steps both expand crossings with one lookup.
struct CutArc {
  NodeId other = 0;
  LabelId label = kInvalidLabel;
  bool operator==(const CutArc&) const = default;
};

struct ShardTopology {
  uint32_t num_shards = 1;
  /// node -> owning shard; size is the logical node count this topology
  /// version covers (nodes added later belong to a newer topology).
  std::vector<uint32_t> shard_of;
  /// Cut edges by src (cut_out) and by dst (cut_in).
  std::unordered_map<NodeId, std::vector<CutArc>> cut_out;
  std::unordered_map<NodeId, std::vector<CutArc>> cut_in;
  /// Per shard, the sorted list of its boundary vertices: nodes the
  /// shard owns that touch at least one cut edge (either direction).
  /// This is the vertex set boundary summaries are restricted to.
  std::vector<std::vector<NodeId>> boundary;
  /// Bumped on every republish; purely diagnostic.
  uint64_t epoch = 0;

  std::span<const CutArc> CutOut(NodeId node) const {
    const auto it = cut_out.find(node);
    if (it == cut_out.end()) return {};
    return it->second;
  }
  std::span<const CutArc> CutIn(NodeId node) const {
    const auto it = cut_in.find(node);
    if (it == cut_in.end()) return {};
    return it->second;
  }
};

}  // namespace sargus

#endif  // SARGUS_SHARD_TOPOLOGY_H_
