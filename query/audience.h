#ifndef SARGUS_QUERY_AUDIENCE_H_
#define SARGUS_QUERY_AUDIENCE_H_

/// \file audience.h
/// \brief CollectMatchingAudience: every requester one rule path grants.
///
/// One product walk from the owner enumerates the whole audience of an
/// expression. The read view answers large same-resource batches with
/// it, and benches and tests use it to pick requesters that should be
/// granted: uniformly sampled (src, dst) pairs are almost always denies
/// on sparse graphs, and denies and grants cost very differently.

#include <vector>

#include "common/types.h"
#include "core/path_expression.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"

namespace sargus {

struct EvalContext;

/// All nodes reachable from `src` through a path matching `expr`
/// (i.e. every dst for which access would be granted), sorted ascending.
/// The expression must be bound against `g`; `csr` must snapshot `g`.
/// Returns empty on any argument mismatch. Traversal scratch comes from
/// `ctx` when given, this thread's pooled context otherwise — repeated
/// calls reuse it instead of allocating O(|V|·states) arrays each time.
/// `overlay` (optional) layers pending mutations over `csr`, so the
/// audience reflects AddEdge/RemoveEdge staged since the snapshot.
std::vector<NodeId> CollectMatchingAudience(const SocialGraph& g,
                                            const CsrSnapshot& csr,
                                            const BoundPathExpression& expr,
                                            NodeId src,
                                            EvalContext* ctx = nullptr,
                                            const DeltaOverlay* overlay =
                                                nullptr);

}  // namespace sargus

#endif  // SARGUS_QUERY_AUDIENCE_H_
