#include "shard/partitioner.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/csr.h"

namespace sargus {
namespace {

std::vector<uint32_t> ContiguousAssignment(size_t num_nodes,
                                           uint32_t num_shards) {
  std::vector<uint32_t> shard_of(num_nodes);
  if (num_nodes == 0) return shard_of;
  const size_t width = (num_nodes + num_shards - 1) / num_shards;
  for (size_t v = 0; v < num_nodes; ++v) {
    shard_of[v] = static_cast<uint32_t>(v / width);
  }
  return shard_of;
}

/// Label-propagation sweeps before packing. The propagation usually
/// converges in 3-5 sweeps on social graphs; the cap keeps worst-case
/// cost linear.
constexpr uint32_t kCommunitySweeps = 4;

std::vector<uint32_t> CommunityAssignment(const SocialGraph& g,
                                          uint32_t num_shards) {
  const size_t n = g.NumNodes();

  // Undirected adjacency (CSR over live edges, both directions).
  std::vector<uint32_t> degree(n, 0);
  CsrSnapshot::ForEachEdge(g, 0, g.EdgeSlotCount(),
                           [&](EdgeId, const Edge& edge, NodeId) {
                             ++degree[edge.src];
                             ++degree[edge.dst];
                           });
  std::vector<size_t> offset(n + 1, 0);
  for (size_t v = 0; v < n; ++v) offset[v + 1] = offset[v] + degree[v];
  std::vector<NodeId> adj(offset[n]);
  std::vector<size_t> cursor(offset.begin(), offset.end() - 1);
  CsrSnapshot::ForEachEdge(g, 0, g.EdgeSlotCount(),
                           [&](EdgeId, const Edge& edge, NodeId) {
                             adj[cursor[edge.src]++] = edge.dst;
                             adj[cursor[edge.dst]++] = edge.src;
                           });

  // Label propagation: each node takes the most frequent label among its
  // neighbors, smallest label on ties, nodes visited in id order. Fully
  // deterministic, so tests can pin assignments.
  std::vector<NodeId> label(n);
  std::iota(label.begin(), label.end(), NodeId{0});
  std::vector<uint32_t> count(n, 0);
  for (uint32_t sweep = 0; sweep < kCommunitySweeps; ++sweep) {
    bool changed = false;
    for (NodeId v = 0; v < n; ++v) {
      if (degree[v] == 0) continue;
      NodeId best = label[v];
      uint32_t best_count = 0;
      std::span<const NodeId> neigh(adj.data() + offset[v], degree[v]);
      for (NodeId u : neigh) ++count[label[u]];
      for (NodeId u : neigh) {
        const NodeId l = label[u];
        const uint32_t c = count[l];
        if (c > best_count || (c == best_count && l < best)) {
          best = l;
          best_count = c;
        }
      }
      for (NodeId u : neigh) count[label[u]] = 0;
      if (best != label[v]) {
        label[v] = best;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Gather communities, order them (size desc, min-label asc), then pack
  // each onto the currently least-loaded shard (lowest id on ties).
  std::unordered_map<NodeId, std::vector<NodeId>> groups;
  for (NodeId v = 0; v < n; ++v) groups[label[v]].push_back(v);
  std::vector<std::pair<NodeId, std::vector<NodeId>>> ordered;
  ordered.reserve(groups.size());
  for (auto& [l, members] : groups) ordered.emplace_back(l, std::move(members));
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    if (a.second.size() != b.second.size()) {
      return a.second.size() > b.second.size();
    }
    return a.first < b.first;
  });

  std::vector<size_t> load(num_shards, 0);
  std::vector<uint32_t> shard_of(n, 0);
  for (const auto& [l, members] : ordered) {
    uint32_t target = 0;
    for (uint32_t s = 1; s < num_shards; ++s) {
      if (load[s] < load[target]) target = s;
    }
    for (NodeId v : members) shard_of[v] = target;
    load[target] += members.size();
  }
  return shard_of;
}

}  // namespace

Result<GraphPartition> GraphPartitioner::Partition(
    const SocialGraph& g, const PartitionOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("Partition: num_shards must be >= 1");
  }

  GraphPartition part;
  part.num_shards = options.num_shards;
  part.shard_of = options.strategy == PartitionStrategy::kCommunity
                      ? CommunityAssignment(g, options.num_shards)
                      : ContiguousAssignment(g.NumNodes(), options.num_shards);

  part.members.resize(options.num_shards);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    part.members[part.shard_of[v]].push_back(v);
  }
  return part;
}

}  // namespace sargus
