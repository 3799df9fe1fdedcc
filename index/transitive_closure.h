#ifndef SARGUS_INDEX_TRANSITIVE_CLOSURE_H_
#define SARGUS_INDEX_TRANSITIVE_CLOSURE_H_

/// \file transitive_closure.h
/// \brief Label-blind node-level transitive closure.
///
/// The baseline the paper argues *against*: O(1) lookups bought with
/// O(|V|*|E|) construction and worst-case quadratic storage
/// (bench_closure_cost.cc charts exactly that blow-up on DAG-like
/// graphs). It ignores labels, hop bounds and orientation constraints, so
/// it cannot answer an access condition by itself — but as a prefilter it
/// gives certain fast denies: no path at all implies no labeled path
/// (ClosurePrefilterEvaluator).
///
/// Storage is SCC-compressed: a bitset matrix over condensation
/// components, so graphs with a giant SCC (high reciprocity) collapse to
/// almost nothing while DAG-like graphs exhibit the quadratic cost.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/csr.h"

namespace sargus {

class TransitiveClosure {
 public:
  TransitiveClosure() = default;

  /// Builds over the node graph of `csr`. With `as_undirected`, edges are
  /// treated as symmetric (connected components; the sound prefilter for
  /// expressions with backward steps).
  static TransitiveClosure Build(const CsrSnapshot& csr, bool as_undirected);

  /// Is there any directed (resp. undirected) path u ->* v? u == v is
  /// reachable.
  bool Reachable(NodeId u, NodeId v) const {
    if (u >= component_of_.size() || v >= component_of_.size()) return false;
    const uint32_t cu = component_of_[u];
    const uint32_t cv = component_of_[v];
    if (cu == cv) return true;
    if (undirected_) return false;
    return (reach_[static_cast<size_t>(cu) * words_ + cv / 64] >>
            (cv % 64)) & 1;
  }

  size_t NumComponents() const { return num_components_; }

  /// Number of nodes of the snapshot the closure was built over.
  size_t NumNodes() const { return component_of_.size(); }

  /// Ordered pairs (u, v), u != v, with v reachable from u.
  uint64_t NumReachablePairs() const { return reachable_pairs_; }

  bool is_undirected() const { return undirected_; }

  size_t MemoryBytes() const {
    return component_of_.capacity() * sizeof(uint32_t) +
           reach_.capacity() * sizeof(uint64_t) +
           component_size_.capacity() * sizeof(uint32_t);
  }

 private:
  bool undirected_ = false;
  uint32_t num_components_ = 0;
  size_t words_ = 0;  // bitset row width in 64-bit words
  uint64_t reachable_pairs_ = 0;
  std::vector<uint32_t> component_of_;
  std::vector<uint32_t> component_size_;
  std::vector<uint64_t> reach_;  // row-major component x component bits
};

}  // namespace sargus

#endif  // SARGUS_INDEX_TRANSITIVE_CLOSURE_H_
