#ifndef SARGUS_INDEX_SCC_H_
#define SARGUS_INDEX_SCC_H_

/// \file scc.h
/// \brief Strongly connected components and DAG condensation.
///
/// First stage of the paper's index pipeline: every reachability oracle in
/// sargus works on the condensation DAG, where mutually reachable vertices
/// (reciprocal friendships create many) collapse into one vertex. The SCC
/// routine is an iterative Tarjan templated on an adjacency callback so the
/// same code runs over the implicit line graph and over plain CSR node
/// graphs (TransitiveClosure, ClusterJoinIndex's label-pair matrix).

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/line_graph.h"

namespace sargus {

struct SccResult {
  /// Component of each input vertex. Components are numbered in reverse
  /// topological order of the condensation (an arc u->v between different
  /// components implies component_of[u] < ... is NOT guaranteed; use
  /// Dag::TopoOrder).
  std::vector<uint32_t> component_of;
  uint32_t num_components = 0;
};

/// Condensation DAG with both arc directions and a topological order.
class Dag {
 public:
  size_t NumVertices() const { return num_vertices_; }
  uint64_t NumArcs() const { return fwd_arcs_.size(); }

  std::span<const uint32_t> Out(uint32_t v) const {
    return {fwd_arcs_.data() + fwd_offsets_[v],
            fwd_offsets_[v + 1] - fwd_offsets_[v]};
  }
  std::span<const uint32_t> In(uint32_t v) const {
    return {bwd_arcs_.data() + bwd_offsets_[v],
            bwd_offsets_[v + 1] - bwd_offsets_[v]};
  }

  /// Vertices ordered so every arc goes from an earlier to a later entry.
  const std::vector<uint32_t>& TopoOrder() const { return topo_order_; }

  size_t MemoryBytes() const {
    return (fwd_offsets_.capacity() + bwd_offsets_.capacity() +
            topo_order_.capacity()) *
               sizeof(uint32_t) +
           (fwd_arcs_.capacity() + bwd_arcs_.capacity()) * sizeof(uint32_t);
  }

  /// Builds from an explicit (deduplicated) arc list.
  static Dag FromArcs(uint32_t num_vertices,
                      std::vector<std::pair<uint32_t, uint32_t>> arcs);

 private:
  size_t num_vertices_ = 0;
  std::vector<uint32_t> fwd_offsets_{0};
  std::vector<uint32_t> fwd_arcs_;
  std::vector<uint32_t> bwd_offsets_{0};
  std::vector<uint32_t> bwd_arcs_;
  std::vector<uint32_t> topo_order_;
};

/// Iterative Tarjan over an arbitrary adjacency relation.
/// `for_each_succ(v, fn)` must invoke `fn(w)` for every successor w of v.
template <typename ForEachSucc>
SccResult ComputeSccGeneric(size_t n, ForEachSucc&& for_each_succ);

/// SCCs of the (implicit) line graph.
SccResult ComputeScc(const LineGraph& lg);

/// Condenses the line graph under `scc` into its DAG.
Dag BuildCondensation(const SccResult& scc, const LineGraph& lg);

// ---- template implementation ------------------------------------------------

template <typename ForEachSucc>
SccResult ComputeSccGeneric(size_t n, ForEachSucc&& for_each_succ) {
  SccResult result;
  result.component_of.assign(n, UINT32_MAX);
  if (n == 0) return result;

  constexpr uint32_t kUnvisited = UINT32_MAX;
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<uint32_t> stack;      // Tarjan stack
  std::vector<uint32_t> succ_buf;   // successors of the frame being opened

  struct Frame {
    uint32_t v;
    uint32_t succ_begin;  // into succ_storage
    uint32_t succ_end;
    uint32_t next;  // cursor into [succ_begin, succ_end)
  };
  std::vector<Frame> frames;
  std::vector<uint32_t> succ_storage;
  uint32_t next_index = 0;

  auto open_frame = [&](uint32_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = 1;
    const uint32_t begin = static_cast<uint32_t>(succ_storage.size());
    for_each_succ(v, [&](uint32_t w) { succ_storage.push_back(w); });
    frames.push_back(
        Frame{v, begin, static_cast<uint32_t>(succ_storage.size()), begin});
  };

  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    open_frame(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next < f.succ_end) {
        const uint32_t w = succ_storage[f.next++];
        if (index[w] == kUnvisited) {
          open_frame(w);  // may invalidate f; loop re-reads frames.back()
        } else if (on_stack[w]) {
          if (index[w] < lowlink[f.v]) lowlink[f.v] = index[w];
        }
        continue;
      }
      // Frame finished: pop component if root, propagate lowlink.
      const uint32_t v = f.v;
      if (lowlink[v] == index[v]) {
        const uint32_t comp = result.num_components++;
        for (;;) {
          const uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          result.component_of[w] = comp;
          if (w == v) break;
        }
      }
      succ_storage.resize(f.succ_begin);
      frames.pop_back();
      if (!frames.empty()) {
        Frame& parent = frames.back();
        if (lowlink[v] < lowlink[parent.v]) lowlink[parent.v] = lowlink[v];
      }
    }
  }
  return result;
}

}  // namespace sargus

#endif  // SARGUS_INDEX_SCC_H_
