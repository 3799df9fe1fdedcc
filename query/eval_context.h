#ifndef SARGUS_QUERY_EVAL_CONTEXT_H_
#define SARGUS_QUERY_EVAL_CONTEXT_H_

/// \file eval_context.h
/// \brief Per-query scratch memory, pooled across queries.
///
/// Every evaluator needs transient working state proportional to the
/// product space (|V| × automaton states): visited sets, parent chains,
/// frontiers, per-hop dedup arrays. Allocating and zeroing those per
/// query puts an O(|V|) floor under every request, even a one-hop grant.
/// QueryScratch owns all of them as epoch-stamped sets (O(1) logical
/// reset, see common/epoch_set.h) and lazily-grown vectors, so in steady
/// state a query performs no heap allocation for them at all — cost is
/// O(work touched), the whole point of this subsystem.
///
/// Thread-safety contract: an EvalContext must not be used by two threads
/// at once. A reader thread hammering an AccessReadView passes one
/// context per thread (or relies on the thread-local default), and
/// CheckAccessBatch reuses a single context across the whole batch —
/// scratch is the only mutable state on the otherwise lock-free read
/// path. The paper evaluators (sargus_paper) follow the same split.

#include <cstdint>
#include <vector>

#include "common/epoch_set.h"
#include "common/types.h"

namespace sargus {

/// One (graph node, automaton state) configuration on a frontier.
struct ProductConfig {
  NodeId node = 0;
  uint32_t state = 0;
};

/// Parent link for witness reconstruction: the configuration whose edge
/// discovered this one (kInvalidNode marks a search seed).
struct ProductParent {
  NodeId node = kInvalidNode;
  uint32_t state = 0;
};

/// The pooled scratch arrays. Grown to the high-water mark of everything
/// evaluated through it and reused; never shrinks.
struct QueryScratch {
  /// Product-space membership for the (forward) walker.
  EpochStampSet visited;
  /// Parent chain, indexed like `visited`; a slot is meaningful only when
  /// `visited` contains it in the current epoch, so stale values are
  /// harmless and the array is never cleared.
  std::vector<ProductParent> parents;
  /// Forward frontier: FIFO via the walker's moving head index (BFS).
  /// Cleared (capacity kept) per query.
  std::vector<ProductConfig> frontier;

  /// Backward-side membership + frontier for bidirectional search.
  EpochStampSet visited_back;
  std::vector<ProductConfig> frontier_back;

  /// Per-hop line-vertex dedup for the adjacency join (one epoch per
  /// hop), plus its double-buffered frontiers.
  EpochStampSet line_seen;
  std::vector<LineVertexId> line_frontier;
  std::vector<LineVertexId> line_next;

  /// Node-level marks for audience collection.
  EpochStampSet node_marks;
};

struct EvalContext {
  QueryScratch scratch;
};

/// This thread's lazily-created context — the default scratch when a
/// caller passes none. Lives until thread exit; repeated queries on
/// one thread reuse its arrays, which is what removes the per-query
/// allocation floor on the serving path.
EvalContext& ThreadLocalEvalContext();

}  // namespace sargus

#endif  // SARGUS_QUERY_EVAL_CONTEXT_H_
