#ifndef SARGUS_INDEX_INTERVALS_H_
#define SARGUS_INDEX_INTERVALS_H_

/// \file intervals.h
/// \brief GRAIL-style interval labels over the condensation DAG.
///
/// Each of K randomized post-order traversals assigns every DAG vertex an
/// interval [low, post]; a vertex u can only reach v if u's interval
/// contains v's in *every* traversal. Containment is a necessary — not
/// sufficient — condition, so interval labels are a filter:
/// IntervalFilteredReachable pairs them with a pruned DFS for exact
/// answers, and skips the DFS entirely when any traversal refutes
/// containment (the common negative case).
///
/// Not part of the serving stack: LineReachabilityOracle answers with
/// 2-hop labels only. The ablation and index-build benchmarks build an
/// IntervalIndex from the oracle's dag() to measure the paper's
/// alternative.

#include <cstdint>
#include <vector>

#include "index/scc.h"

namespace sargus {

/// Interval labels for one direction (descendants or ancestors).
class IntervalLabeling {
 public:
  static constexpr uint32_t kTraversals = 3;

  /// Labels of the DAG reached-from relation. `reversed` labels the
  /// transposed DAG (ancestor intervals).
  static IntervalLabeling Build(const Dag& dag, bool reversed, uint64_t seed);

  /// Necessary condition for u ->* v.
  bool MayReach(uint32_t u, uint32_t v) const {
    for (uint32_t k = 0; k < kTraversals; ++k) {
      const Interval& iu = intervals_[u * kTraversals + k];
      const Interval& iv = intervals_[v * kTraversals + k];
      if (iv.low < iu.low || iv.post > iu.post) return false;
    }
    return true;
  }

  uint64_t TotalIntervals() const {
    return intervals_.size();
  }

  size_t MemoryBytes() const {
    return intervals_.capacity() * sizeof(Interval);
  }

 private:
  struct Interval {
    uint32_t low = 0;
    uint32_t post = 0;
  };
  std::vector<Interval> intervals_;  // kTraversals per vertex
};

/// Forward (descendant) and backward (ancestor) labelings, as a pair —
/// the shape the oracle and the construction benches consume.
struct IntervalIndex {
  IntervalLabeling forward;
  IntervalLabeling backward;

  static IntervalIndex Build(const Dag& dag, uint64_t seed = 0x5eed);

  size_t MemoryBytes() const {
    return forward.MemoryBytes() + backward.MemoryBytes();
  }
};

/// Exact DAG reachability cu ->* cv (cu == cv counts as reachable) by a
/// DFS from cu that prunes every vertex whose `forward` interval cannot
/// contain cv. `forward` must label `dag`.
bool IntervalFilteredReachable(const Dag& dag, const IntervalLabeling& forward,
                               uint32_t cu, uint32_t cv);

}  // namespace sargus

#endif  // SARGUS_INDEX_INTERVALS_H_
