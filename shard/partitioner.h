#ifndef SARGUS_SHARD_PARTITIONER_H_
#define SARGUS_SHARD_PARTITIONER_H_

/// \file partitioner.h
/// \brief Splits a SocialGraph's node set into N shards.
///
/// Two strategies, both deterministic:
///
///  - kContiguous: equal-width contiguous id ranges (ceil-div). Zero
///    graph inspection; the right default for synthetic id-ordered
///    graphs and the cheapest to reason about in tests.
///  - kCommunity: a bounded number of label-propagation sweeps over the
///    undirected adjacency (ties broken toward the smallest label, fixed
///    node order), then communities packed greedily onto the
///    least-loaded shard, largest first. Cuts far fewer edges than
///    contiguous ranges on clustered graphs — fewer cut edges means
///    fewer walks that leave their owner's shard, and fewer frontier
///    rounds.
///
/// The partitioner only assigns nodes; building the per-shard graphs is
/// graph/subgraph.h and wiring them together is shard/router.h.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/social_graph.h"

namespace sargus {

enum class PartitionStrategy {
  kContiguous,
  kCommunity,
};

struct PartitionOptions {
  uint32_t num_shards = 1;
  PartitionStrategy strategy = PartitionStrategy::kContiguous;
};

struct GraphPartition {
  uint32_t num_shards = 1;
  /// node -> shard id, covering every node of the source graph.
  std::vector<uint32_t> shard_of;
  /// Per shard, its member nodes in ascending id order.
  std::vector<std::vector<NodeId>> members;
  /// Live edges whose endpoints landed on different shards (slot order).
  std::vector<Edge> cut_edges;
  size_t total_live_edges = 0;
};

class GraphPartitioner {
 public:
  /// kInvalidArgument when num_shards is zero. More shards than nodes is
  /// allowed — trailing shards are simply empty.
  static Result<GraphPartition> Partition(const SocialGraph& g,
                                          const PartitionOptions& options);
};

}  // namespace sargus

#endif  // SARGUS_SHARD_PARTITIONER_H_
