#ifndef SARGUS_INDEX_PREFILTER_VALIDITY_H_
#define SARGUS_INDEX_PREFILTER_VALIDITY_H_

/// \file prefilter_validity.h
/// \brief Which index-based pruning directions stay sound while a
/// DeltaOverlay holds pending mutations.
///
/// Every index in this directory (transitive closure, the cluster
/// index's label-pair matrix, the library 2-hop labels and the line
/// oracle built on them, the benchmark-only GRAIL intervals) is a
/// snapshot of the *base* graph. While the overlay is non-empty, the
/// logical graph differs from that snapshot, and index answers are only
/// usable as one-sided approximations:
///
///  * "unreachable in the index ⇒ deny" (negative pruning) is broken by
///    pending *insertions* — an added edge may create the very path the
///    index never saw. It stays sound under pure deletions, which only
///    shrink the path set the index over-approximates.
///  * "reachable in the index ⇒ accept/skip-residual-check" (positive
///    pruning) is broken by pending *deletions* — the index's witness
///    path may traverse a removed edge. It stays sound under pure
///    insertions.
///
/// Queries that lose their pruning direction fall through to overlay-
/// aware online search (each index-backed evaluator delegates to the one
/// it wraps), so every evaluator keeps agreeing on grant/deny —
/// conservatism, not staleness.

#include "graph/delta_overlay.h"

namespace sargus {

struct PrefilterValidity {
  /// "index says unreachable ⇒ deny" may be used.
  bool deny_pruning = true;
  /// "index says reachable ⇒ accept / skip residual check" may be used.
  bool grant_pruning = true;
};

/// Validity of snapshot-index pruning under `overlay` (nullptr or empty
/// = the snapshot is the logical graph, both directions valid).
inline PrefilterValidity PrefilterValidityUnder(const DeltaOverlay* overlay) {
  PrefilterValidity v;
  if (overlay == nullptr || overlay->empty()) return v;
  v.deny_pruning = !overlay->has_insertions();
  v.grant_pruning = !overlay->has_deletions();
  return v;
}

}  // namespace sargus

#endif  // SARGUS_INDEX_PREFILTER_VALIDITY_H_
