#include "graph/subgraph.h"

#include <memory>
#include <string>

#include "graph/csr.h"

namespace sargus {

Result<SocialGraph> ExtractShardGraph(const SocialGraph& g,
                                      std::span<const uint32_t> shard_of,
                                      uint32_t shard) {
  if (shard_of.size() != g.NumNodes()) {
    return Status::InvalidArgument(
        "ExtractShardGraph: assignment covers " +
        std::to_string(shard_of.size()) + " nodes, graph has " +
        std::to_string(g.NumNodes()));
  }
  // The copy brings the node count, both dictionaries (same ids in
  // every shard, so automaton states and wire frontiers compose) and
  // every attribute column (cut-edge walks filter on far-side nodes).
  // It shares a frozen master's snapshot; a thawed one's is built here.
  SocialGraph sub = g;
  sub.Freeze();
  const std::shared_ptr<const CsrSnapshot> master = sub.frozen_csr();
  SARGUS_RETURN_IF_ERROR(
      sub.FreezeOver(std::make_shared<const CsrSnapshot>(
          master->Filtered([shard_of, shard](NodeId src, NodeId dst) {
            return shard_of[src] == shard || shard_of[dst] == shard;
          }))));
  return sub;
}

}  // namespace sargus
