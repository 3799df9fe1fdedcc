#ifndef SARGUS_GRAPH_LINE_GRAPH_H_
#define SARGUS_GRAPH_LINE_GRAPH_H_

/// \file line_graph.h
/// \brief LineGraph: the oriented edge graph the paper's index stack is
/// built over.
///
/// Each line vertex is one (edge, orientation) pair of the snapshot, in
/// CSR order: the edge is its (tail, head, label), not a graph slot.
///   * forward  — tail = edge.src, head = edge.dst;
///   * backward — tail = edge.dst, head = edge.src (only when
///     Options::include_backward, needed for `label-[a,b]` policy steps).
///
/// An arc a -> b exists iff head(a) == tail(b): consecutive edges of a
/// path. Arcs are kept implicit — successors of `a` are exactly
/// VerticesWithTail(head(a)) — because materializing them costs
/// sum(in_v * out_v) memory, the super-linear blow-up the paper's
/// construction benchmarks chart.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/csr.h"

namespace sargus {

class LineGraph {
 public:
  struct Options {
    /// Also create backward-oriented copies of every edge.
    bool include_backward = false;
  };

  struct Vertex {
    NodeId tail = 0;
    NodeId head = 0;
    LabelId label = kInvalidLabel;
    bool backward = false;
  };

  LineGraph() = default;

  static LineGraph Build(const CsrSnapshot& csr, Options options);
  static LineGraph Build(const CsrSnapshot& csr) {
    return Build(csr, Options{});
  }

  size_t NumVertices() const { return vertices_.size(); }

  /// Number of implicit arcs: sum over line vertices of
  /// |VerticesWithTail(head(v))|.
  uint64_t NumArcs() const { return num_arcs_; }

  const Vertex& vertex(LineVertexId v) const { return vertices_[v]; }

  /// All line vertices whose tail is `node` (any label, any orientation) —
  /// the successor set of every line vertex whose head is `node`.
  std::span<const LineVertexId> VerticesWithTail(NodeId node) const {
    return {tail_list_.data() + tail_offsets_[node],
            tail_offsets_[node + 1] - tail_offsets_[node]};
  }

  /// All line vertices whose head is `node` — the predecessor set of every
  /// line vertex whose tail is `node`.
  std::span<const LineVertexId> VerticesWithHead(NodeId node) const {
    return {head_list_.data() + head_offsets_[node],
            head_offsets_[node + 1] - head_offsets_[node]};
  }

  bool includes_backward() const { return includes_backward_; }
  size_t NumGraphNodes() const { return num_graph_nodes_; }

  size_t MemoryBytes() const {
    return vertices_.capacity() * sizeof(Vertex) +
           (tail_offsets_.capacity() + head_offsets_.capacity()) *
               sizeof(uint32_t) +
           (tail_list_.capacity() + head_list_.capacity()) *
               sizeof(LineVertexId);
  }

 private:
  /// Re-derives the tail/head bucket lists and the implicit arc count
  /// from vertices_ for an n-node snapshot.
  void RebuildBuckets(size_t n);

  std::vector<Vertex> vertices_;
  std::vector<uint32_t> tail_offsets_{0};
  std::vector<LineVertexId> tail_list_;
  std::vector<uint32_t> head_offsets_{0};
  std::vector<LineVertexId> head_list_;
  uint64_t num_arcs_ = 0;
  size_t num_graph_nodes_ = 0;
  bool includes_backward_ = false;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_LINE_GRAPH_H_
