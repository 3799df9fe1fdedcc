#ifndef SARGUS_INDEX_TWO_HOP_H_
#define SARGUS_INDEX_TWO_HOP_H_

/// \file two_hop.h
/// \brief Exact 2-hop reachability labels over the condensation DAG.
///
/// Every vertex u stores Lout(u) = {hubs x : u ->* x} and
/// Lin(u) = {hubs x : x ->* u}; then u ->* v iff u == v or
/// Lout(u) ∩ Lin(v) ≠ ∅. Two construction strategies, ablated in
/// bench_ablation.cc:
///
///  * kPrunedLandmark — pruned landmark labeling (Akiba-style): sweep
///    vertices in a degree-driven order, BFS forward/backward, prune any
///    vertex whose reachability is already witnessed by earlier hubs.
///    Scales to every graph the suite generates.
///  * kGreedyMaxCover — Cheng-style greedy cover approximation: computes
///    exact descendant/ancestor counts via bitset closure (hence the
///    max_vertices_for_greedy guard) and runs the pruned sweep in
///    decreasing |ancestors|x|descendants| order, the classic max-cover
///    surrogate. Smaller labelings, much costlier construction.

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "index/scc.h"

namespace sargus {

enum class TwoHopStrategy { kPrunedLandmark, kGreedyMaxCover };

struct TwoHopOptions {
  TwoHopStrategy strategy = TwoHopStrategy::kPrunedLandmark;
  /// kGreedyMaxCover materializes an n^2-bit closure; refuse beyond this.
  size_t max_vertices_for_greedy = 16384;
};

class TwoHopLabeling {
 public:
  static Result<TwoHopLabeling> Build(const Dag& dag,
                                      TwoHopOptions options = {});

  /// Exact DAG reachability: u ->* v.
  bool Reachable(uint32_t u, uint32_t v) const;

  /// Total number of label entries (sum of |Lin| + |Lout|).
  uint64_t LabelingSize() const { return out_hubs_.size() + in_hubs_.size(); }

  size_t MemoryBytes() const {
    return (out_offsets_.capacity() + in_offsets_.capacity()) *
               sizeof(uint32_t) +
           (out_hubs_.capacity() + in_hubs_.capacity()) * sizeof(uint32_t);
  }

 private:
  /// Rebuilds the CSR arrays from per-vertex hub lists.
  void Flatten(const std::vector<std::vector<uint32_t>>& out_hubs,
               const std::vector<std::vector<uint32_t>>& in_hubs);

  // CSR label storage; hub lists are sorted by hub rank so Reachable is a
  // sorted-merge intersection.
  std::vector<uint32_t> out_offsets_{0};
  std::vector<uint32_t> out_hubs_;
  std::vector<uint32_t> in_offsets_{0};
  std::vector<uint32_t> in_hubs_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_TWO_HOP_H_
