#include "index/transitive_closure.h"

#include <numeric>

#include "index/scc.h"

namespace sargus {
namespace {

/// Union-find over nodes for the undirected variant.
struct Dsu {
  explicit Dsu(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[b] = a;
  }
  std::vector<uint32_t> parent;
};

}  // namespace

TransitiveClosure TransitiveClosure::Build(const CsrSnapshot& csr,
                                           bool as_undirected) {
  TransitiveClosure tc;
  tc.undirected_ = as_undirected;
  const size_t n = csr.NumNodes();

  if (as_undirected) {
    Dsu dsu(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : csr.Out(u)) dsu.Union(u, v);
    }
    // Renumber roots densely.
    std::vector<uint32_t> dense(n, UINT32_MAX);
    tc.component_of_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      const uint32_t root = dsu.Find(u);
      if (dense[root] == UINT32_MAX) {
        dense[root] = tc.num_components_++;
        tc.component_size_.push_back(0);
      }
      tc.component_of_[u] = dense[root];
      ++tc.component_size_[dense[root]];
    }
    for (const uint32_t size : tc.component_size_) {
      tc.reachable_pairs_ += static_cast<uint64_t>(size) * (size - 1);
    }
    return tc;
  }

  // Directed: SCC condensation, then bitset rows propagated in reverse
  // topological order (successors before predecessors).
  SccResult scc = ComputeSccGeneric(n, [&csr](uint32_t v, auto&& emit) {
    for (NodeId w : csr.Out(v)) emit(w);
  });
  tc.component_of_ = std::move(scc.component_of);
  tc.num_components_ = scc.num_components;
  tc.component_size_.assign(tc.num_components_, 0);
  for (NodeId u = 0; u < n; ++u) ++tc.component_size_[tc.component_of_[u]];

  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t cu = tc.component_of_[u];
    for (NodeId v : csr.Out(u)) {
      const uint32_t cv = tc.component_of_[v];
      if (cu != cv) arcs.emplace_back(cu, cv);
    }
  }
  Dag dag = Dag::FromArcs(tc.num_components_, std::move(arcs));

  const size_t c = tc.num_components_;
  tc.words_ = (c + 63) / 64;
  tc.reach_.assign(c * tc.words_, 0);
  const auto& topo = dag.TopoOrder();
  for (size_t i = topo.size(); i-- > 0;) {
    const uint32_t v = topo[i];
    uint64_t* row = tc.reach_.data() + static_cast<size_t>(v) * tc.words_;
    row[v / 64] |= uint64_t{1} << (v % 64);
    for (uint32_t w : dag.Out(v)) {
      const uint64_t* wrow =
          tc.reach_.data() + static_cast<size_t>(w) * tc.words_;
      for (size_t k = 0; k < tc.words_; ++k) row[k] |= wrow[k];
    }
  }

  // Reachable ordered pairs: sum over components of
  // size(cu) * (total size of reachable components) minus the |V| self
  // pairs (every node reaches itself through its own component bit).
  for (size_t cu = 0; cu < c; ++cu) {
    const uint64_t* row = tc.reach_.data() + cu * tc.words_;
    uint64_t reach_nodes = 0;
    for (size_t k = 0; k < tc.words_; ++k) {
      uint64_t bits = row[k];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        reach_nodes += tc.component_size_[k * 64 + b];
      }
    }
    tc.reachable_pairs_ +=
        static_cast<uint64_t>(tc.component_size_[cu]) * reach_nodes;
  }
  tc.reachable_pairs_ -= n;
  return tc;
}

}  // namespace sargus
