#include "index/cluster_index.h"

#include <algorithm>

#include "index/scc.h"

namespace sargus {

Result<ClusterJoinIndex> ClusterJoinIndex::Build(const LineGraph& lg,
                                                 const CsrSnapshot& csr) {
  const size_t orientations = lg.includes_backward() ? 2 : 1;
  if (csr.NumNodes() != lg.NumGraphNodes() ||
      csr.NumEdges() * orientations != lg.NumVertices()) {
    return Status::InvalidArgument(
        "ClusterJoinIndex::Build: the CSR is not the snapshot the line "
        "graph was built from");
  }
  ClusterJoinIndex idx;
  idx.num_nodes_ = lg.NumGraphNodes();
  size_t max_label = 0;
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    max_label = std::max<size_t>(max_label, lg.vertex(v).label);
  }
  idx.num_oriented_labels_ = lg.NumVertices() ? 2 * (max_label + 1) : 0;
  const size_t num_buckets = idx.num_oriented_labels_ * idx.num_nodes_;

  // Counting sort into (oriented label, tail) buckets.
  idx.offsets_.assign(num_buckets + 1, 0);
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const LineGraph::Vertex& lv = lg.vertex(v);
    ++idx.offsets_[idx.BucketIndex(lv.label, lv.backward, lv.tail) + 1];
  }
  for (size_t i = 0; i < num_buckets; ++i) {
    idx.offsets_[i + 1] += idx.offsets_[i];
  }
  idx.members_.resize(lg.NumVertices());
  std::vector<uint32_t> cursor(idx.offsets_.begin(), idx.offsets_.end() - 1);
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const LineGraph::Vertex& lv = lg.vertex(v);
    idx.members_[cursor[idx.BucketIndex(lv.label, lv.backward, lv.tail)]++] =
        v;
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    if (idx.offsets_[b + 1] > idx.offsets_[b]) {
      ++idx.num_centers_;
      idx.centers_.push_back(idx.members_[idx.offsets_[b]]);
    }
  }

  idx.label_reach_ = idx.LabelPairMatrix(lg, csr);
  return idx;
}

std::vector<uint8_t> ClusterJoinIndex::LabelPairMatrix(
    const LineGraph& lg, const CsrSnapshot& csr) const {
  const size_t ol_count = num_oriented_labels_;
  std::vector<uint8_t> matrix(ol_count * ol_count, 0);
  if (ol_count == 0) return matrix;

  // Condense H: the CSR's out-edges, plus its in-edges when the line
  // graph holds backward orientations.
  const bool backward = lg.includes_backward();
  auto for_each_succ = [&csr, backward](uint32_t v, auto&& emit) {
    for (const auto& e : csr.Out(v)) emit(e.other);
    if (backward) {
      for (const auto& e : csr.In(v)) emit(e.other);
    }
  };
  const SccResult scc = ComputeSccGeneric(num_nodes_, for_each_succ);
  const std::vector<uint32_t>& comp = scc.component_of;
  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for_each_succ(u, [&](uint32_t w) {
      if (comp[u] != comp[w]) arcs.emplace_back(comp[u], comp[w]);
    });
  }
  const Dag dag = Dag::FromArcs(scc.num_components, std::move(arcs));

  // Per oriented label, the distinct components holding a head and a
  // tail of its line vertices. members_ groups vertices by oriented
  // label, so one "last label that listed it" stamp per component
  // deduplicates every list.
  const size_t c = dag.NumVertices();
  std::vector<std::vector<uint32_t>> heads(ol_count);
  std::vector<std::vector<uint32_t>> tails(ol_count);
  std::vector<uint32_t> head_stamp(c, UINT32_MAX);
  std::vector<uint32_t> tail_stamp(c, UINT32_MAX);
  for (uint32_t ol = 0; ol < ol_count; ++ol) {
    for (uint32_t i = offsets_[ol * num_nodes_];
         i < offsets_[(ol + 1) * num_nodes_]; ++i) {
      const LineGraph::Vertex& lv = lg.vertex(members_[i]);
      const uint32_t ch = comp[lv.head];
      const uint32_t ct = comp[lv.tail];
      if (head_stamp[ch] != ol) {
        head_stamp[ch] = ol;
        heads[ol].push_back(ch);
      }
      if (tail_stamp[ct] != ol) {
        tail_stamp[ct] = ol;
        tails[ol].push_back(ct);
      }
    }
  }

  // One DAG search per oriented label A from its head components; B is
  // reachable from A iff the search touched one of B's tail components.
  std::vector<uint32_t> reached(c, UINT32_MAX);  // stamp: source label
  std::vector<uint32_t> queue;
  for (uint32_t a = 0; a < ol_count; ++a) {
    if (heads[a].empty()) continue;
    queue = heads[a];
    for (uint32_t v : queue) reached[v] = a;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (uint32_t w : dag.Out(queue[head])) {
        if (reached[w] != a) {
          reached[w] = a;
          queue.push_back(w);
        }
      }
    }
    for (uint32_t b = 0; b < ol_count; ++b) {
      matrix[a * ol_count + b] =
          a == b || std::any_of(tails[b].begin(), tails[b].end(),
                                [&](uint32_t v) { return reached[v] == a; });
    }
  }
  return matrix;
}

std::span<const LineVertexId> ClusterJoinIndex::Cluster(LabelId label,
                                                        bool backward,
                                                        NodeId node) const {
  const size_t ol = 2 * static_cast<size_t>(label) + (backward ? 1 : 0);
  if (label == kInvalidLabel || ol >= num_oriented_labels_ ||
      node >= num_nodes_) {
    return {};
  }
  const size_t b = BucketIndex(label, backward, node);
  return {members_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
}

bool ClusterJoinIndex::LabelPairReachable(LabelId a, bool a_backward,
                                          LabelId b, bool b_backward) const {
  const size_t ola = 2 * static_cast<size_t>(a) + (a_backward ? 1 : 0);
  const size_t olb = 2 * static_cast<size_t>(b) + (b_backward ? 1 : 0);
  if (ola >= num_oriented_labels_ || olb >= num_oriented_labels_) {
    return false;
  }
  return label_reach_[ola * num_oriented_labels_ + olb] != 0;
}

}  // namespace sargus
