#ifndef SARGUS_INDEX_CLUSTER_INDEX_H_
#define SARGUS_INDEX_CLUSTER_INDEX_H_

/// \file cluster_index.h
/// \brief ClusterJoinIndex: the paper's clustered join access structure.
///
/// A library structure: JoinIndexEvaluator and FaithfulJoinEvaluator
/// read it, and the agreement tests and paper benches build it; the
/// engine's serving bundle does not carry it.
///
/// Line vertices are clustered by (label, orientation, tail node); each
/// non-empty cluster has a center (its first member) and the W-tables map
/// a cluster key straight to its member list. A join step "extend the
/// frontier by one `label` hop from node u" is then a single cluster
/// lookup instead of a scan of the label's whole base table.
///
/// On top of the clusters, Build derives a label-pair reachability summary:
/// label A can precede label B in some path iff some A line vertex reaches
/// some B line vertex. It is computed on the node graph, not the line
/// graph: for line vertices a ≠ b, a reaches b iff head(a) reaches tail(b)
/// in H, the graph whose arcs are the line vertices (G, or G ∪ Gᵀ when the
/// line graph carries backward orientations). So Build condenses H — |V|
/// vertices, not the line graph's |E| — and runs one DAG search per
/// oriented label. The join evaluator uses the summary to discard
/// infeasible concrete label sequences before generating a single tuple.

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "graph/csr.h"
#include "graph/line_graph.h"

namespace sargus {

class ClusterJoinIndex {
 public:
  ClusterJoinIndex() = default;

  /// `csr` must be the snapshot `lg` was built from; a CSR whose node or
  /// edge count disagrees with `lg` is kInvalidArgument.
  static Result<ClusterJoinIndex> Build(const LineGraph& lg,
                                        const CsrSnapshot& csr);

  /// Members of cluster (label, orientation, tail=node): the line vertices
  /// a frontier at `node` extends through for one hop of `label`.
  std::span<const LineVertexId> Cluster(LabelId label, bool backward,
                                        NodeId node) const;

  /// Number of non-empty clusters (centers).
  size_t NumCenters() const { return num_centers_; }

  /// May an edge of (label a, orientation) precede — via any number of
  /// line-graph arcs — an edge of (label b, orientation)? Sound prune:
  /// false means no concrete sequence pairing them can match. A pair
  /// with a == b (same orientation) holds iff the oriented label has an
  /// edge.
  bool LabelPairReachable(LabelId a, bool a_backward, LabelId b,
                          bool b_backward) const;

  /// The label-pair stage of Build on its own: the row-major matrix over
  /// oriented labels (2 * label + backward) that LabelPairReachable
  /// reads, computed from this index's clusters and the node graph.
  /// Build stores its result; it is public so the construction
  /// benchmarks can time the stage.
  std::vector<uint8_t> LabelPairMatrix(const LineGraph& lg,
                                       const CsrSnapshot& csr) const;

  size_t MemoryBytes() const {
    return offsets_.capacity() * sizeof(uint32_t) +
           members_.capacity() * sizeof(LineVertexId) +
           label_reach_.capacity() + centers_.capacity() * sizeof(LineVertexId);
  }

 private:
  size_t BucketIndex(LabelId label, bool backward, NodeId node) const {
    return (2 * static_cast<size_t>(label) + (backward ? 1 : 0)) *
               num_nodes_ +
           node;
  }

  size_t num_nodes_ = 0;
  size_t num_oriented_labels_ = 0;  // 2 * (max label + 1)
  size_t num_centers_ = 0;
  // Bucketed members: offsets_ has num_oriented_labels_ * num_nodes_ + 1
  // entries; members_ lists line vertices sorted by bucket.
  std::vector<uint32_t> offsets_{0};
  std::vector<LineVertexId> members_;
  // One center per non-empty bucket, in bucket order (diagnostic).
  std::vector<LineVertexId> centers_;
  // Row-major oriented-label pair matrix.
  std::vector<uint8_t> label_reach_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_CLUSTER_INDEX_H_
