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
///
/// The oracle is a library structure, not part of the serving bundle:
/// FaithfulJoinEvaluator joins on it and the index-construction benches
/// measure it. The cluster index derives its label-pair summary from the
/// node graph instead (index/cluster_index.h).

#include <cstdint>

#include "common/result.h"
#include "graph/line_graph.h"
#include "index/scc.h"
#include "index/two_hop.h"

namespace sargus {

class LineReachabilityOracle {
 public:
  /// Builds the full SCC -> DAG -> 2-hop stack over `lg`.
  static Result<LineReachabilityOracle> Build(const LineGraph& lg);

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
  SccResult scc_;
  Dag dag_;
  TwoHopLabeling two_hop_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_LINE_ORACLE_H_
