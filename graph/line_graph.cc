#include "graph/line_graph.h"

#include <algorithm>

namespace sargus {

LineGraph LineGraph::Build(const CsrSnapshot& csr, Options options) {
  LineGraph lg;
  const size_t n = csr.NumNodes();
  lg.num_graph_nodes_ = n;
  lg.includes_backward_ = options.include_backward;

  lg.vertices_.reserve(csr.NumEdges() * (options.include_backward ? 2 : 1));
  for (NodeId u = 0; u < n; ++u) {
    const auto dsts = csr.Out(u);
    const auto labels = csr.OutLabels(u);
    for (size_t i = 0; i < dsts.size(); ++i) {
      lg.vertices_.push_back(Vertex{u, dsts[i], labels[i], /*backward=*/false});
    }
  }
  if (options.include_backward) {
    for (NodeId u = 0; u < n; ++u) {
      const auto dsts = csr.Out(u);
      const auto labels = csr.OutLabels(u);
      for (size_t i = 0; i < dsts.size(); ++i) {
        // Backward orientation: traversed dst -> src.
        lg.vertices_.push_back(
            Vertex{dsts[i], u, labels[i], /*backward=*/true});
      }
    }
  }

  lg.RebuildBuckets(n);
  return lg;
}

void LineGraph::RebuildBuckets(size_t n) {
  LineGraph& lg = *this;
  // Bucket vertices by tail and by head (counting sort).
  lg.tail_offsets_.assign(n + 1, 0);
  lg.head_offsets_.assign(n + 1, 0);
  for (const Vertex& v : lg.vertices_) {
    ++lg.tail_offsets_[v.tail + 1];
    ++lg.head_offsets_[v.head + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    lg.tail_offsets_[i + 1] += lg.tail_offsets_[i];
    lg.head_offsets_[i + 1] += lg.head_offsets_[i];
  }
  lg.tail_list_.resize(lg.vertices_.size());
  lg.head_list_.resize(lg.vertices_.size());
  std::vector<uint32_t> tail_cursor(lg.tail_offsets_.begin(),
                                    lg.tail_offsets_.end() - 1);
  std::vector<uint32_t> head_cursor(lg.head_offsets_.begin(),
                                    lg.head_offsets_.end() - 1);
  for (LineVertexId v = 0; v < lg.vertices_.size(); ++v) {
    lg.tail_list_[tail_cursor[lg.vertices_[v].tail]++] = v;
    lg.head_list_[head_cursor[lg.vertices_[v].head]++] = v;
  }

  // Implicit arc count: each vertex fans out to every vertex whose tail is
  // its head.
  lg.num_arcs_ = 0;
  for (const Vertex& v : lg.vertices_) {
    lg.num_arcs_ += lg.tail_offsets_[v.head + 1] - lg.tail_offsets_[v.head];
  }
}

}  // namespace sargus
