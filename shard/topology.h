#ifndef SARGUS_SHARD_TOPOLOGY_H_
#define SARGUS_SHARD_TOPOLOGY_H_

/// \file topology.h
/// \brief The immutable shard map: node -> shard assignment.
///
/// A ShardTopology is copy-on-write state shared between the router and
/// every shard engine's readers. The router mutates a private clone
/// (node growth) and republishes it behind a mutex-guarded shared_ptr
/// with a bumped epoch; readers pin whatever version was current when
/// they started and never see it change. This mirrors the engine's own
/// read-view discipline (engine/read_view.h) so a CheckAccess in flight
/// during an AddNode sees one coherent pair of (graph view, topology)
/// snapshots. Cut edges need no table here: a shard's walk exports a
/// configuration whenever it reaches a node `shard_of` assigns
/// elsewhere, and every cut edge is stored in both endpoints' shards.

#include <cstdint>
#include <vector>

namespace sargus {

struct ShardTopology {
  uint32_t num_shards = 1;
  /// node -> owning shard; size is the logical node count this topology
  /// version covers (nodes added later belong to a newer topology).
  std::vector<uint32_t> shard_of;
  /// Bumped on every republish; purely diagnostic.
  uint64_t epoch = 0;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_TOPOLOGY_H_
