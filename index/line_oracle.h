#ifndef SARGUS_INDEX_LINE_ORACLE_H_
#define SARGUS_INDEX_LINE_ORACLE_H_

/// \file line_oracle.h
/// \brief LineReachabilityOracle: constant-ish-time reachability between
/// line-graph vertices.
///
/// Pipeline (the paper's §4 construction, one stage per bench in
/// bench_index_build.cc):
///
///   line graph --SCC--> condensation DAG --> 2-hop labels (pruned landmark)
///
/// Queries map both line vertices to their DAG components and answer
/// within-component immediately; across components the 2-hop labels
/// decide. The GRAIL interval labels the paper also describes are a
/// benchmark artifact (index/intervals.h), built from dag() by the
/// benches that measure them; the oracle neither builds nor stores them.

#include <cstdint>
#include <memory>
#include <optional>

#include "common/result.h"
#include "graph/line_graph.h"
#include "index/scc.h"
#include "index/two_hop.h"

namespace sargus {

namespace storage {
struct StorageAccess;
}

class LineReachabilityOracle {
 public:
  /// Builds the full SCC -> DAG -> 2-hop stack over `lg`.
  static Result<LineReachabilityOracle> Build(const LineGraph& lg);

  /// Incremental build for an insertion-only delta: `lg` must be
  /// LineGraph::BuildIncremental of prev's line graph — old vertex ids
  /// preserved, new vertices appended from `first_new_vertex`. Skips
  /// the two implicit-arc enumerations (Tarjan + condensation) and the
  /// full label sweep: each new line vertex becomes its own condensation
  /// vertex, the DAG is extended with the arcs it induces, and the 2-hop
  /// labels are patched (TwoHopLabeling::PatchInsertions). Returns
  /// nullopt — caller falls back to a full Build — when an inserted edge
  /// closes a cycle in the line graph (the appended-singleton-component
  /// assumption breaks: existing SCCs would have to merge).
  static std::optional<LineReachabilityOracle> BuildIncremental(
      const LineReachabilityOracle& prev, const LineGraph& lg,
      LineVertexId first_new_vertex);

  /// Exact line-graph reachability u ->* v (u == v counts as reachable).
  bool Reachable(LineVertexId u, LineVertexId v) const;

  /// Component-level reachability (cu, cv are DAG vertices).
  bool ComponentReachable(uint32_t cu, uint32_t cv) const {
    return cu == cv || two_hop_.Reachable(cu, cv);
  }

  uint32_t ComponentOf(LineVertexId v) const {
    return scc_.component_of[v];
  }

  const SccResult& scc() const { return scc_; }
  const Dag& dag() const { return dag_; }
  const TwoHopLabeling* two_hop() const { return &two_hop_; }

  size_t MemoryBytes() const {
    return scc_.component_of.capacity() * sizeof(uint32_t) +
           dag_.MemoryBytes() + two_hop_.MemoryBytes();
  }

 private:
  friend struct storage::StorageAccess;

  SccResult scc_;
  Dag dag_;
  TwoHopLabeling two_hop_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_LINE_ORACLE_H_
