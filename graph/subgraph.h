#ifndef SARGUS_GRAPH_SUBGRAPH_H_
#define SARGUS_GRAPH_SUBGRAPH_H_

/// \file subgraph.h
/// \brief Shard-local graph extraction: the edge-partitioned copies the
/// sharded serving tier (shard/) builds its per-shard engines over.
///
/// A shard graph keeps the FULL node id space and both dictionaries of
/// the source graph — node ids, label ids and attribute ids are global —
/// but only the edges with at least one endpoint assigned to the shard:
/// the shard's interior edges plus its side of every cut edge. Keeping
/// ids global is what lets automaton state numbering and wire frontiers
/// (shard/wire.h) compose across shards with no translation tables,
/// and what makes cross-cut mutations safe: a staged cut edge's far
/// endpoint always already exists in both shard graphs, with its
/// attributes, so attribute-filtered steps agree with a single-engine
/// oracle. Edges are the dominant storage cost at scale;
/// the O(|V|) node/attribute replication is the accepted price of the
/// translation-free design (see docs/ARCHITECTURE.md, "Sharded serving
/// tier").

#include <span>

#include "common/result.h"
#include "graph/social_graph.h"

namespace sargus {

/// The shard-local copy of `g` for `shard` under assignment `shard_of`
/// (node -> shard id; must cover every node). Node count, attribute
/// values and both dictionaries are copied in full — and in interning
/// order, so every id means the same thing in every copy; edges are
/// kept iff an endpoint lies on the shard. kInvalidArgument when
/// `shard_of` does not match the graph's node count.
Result<SocialGraph> ExtractShardGraph(const SocialGraph& g,
                                      std::span<const uint32_t> shard_of,
                                      uint32_t shard);

}  // namespace sargus

#endif  // SARGUS_GRAPH_SUBGRAPH_H_
