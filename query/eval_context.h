#ifndef SARGUS_QUERY_EVAL_CONTEXT_H_
#define SARGUS_QUERY_EVAL_CONTEXT_H_

/// \file eval_context.h
/// \brief Per-query scratch memory, pooled across queries.
///
/// Every evaluator needs working state proportional to the product space
/// (|V| × automaton states): visited sets, parent chains, frontiers,
/// per-hop dedup sets. Allocating and zeroing those per query puts an
/// O(|V|) floor under every request, even a one-hop grant. QueryScratch
/// owns them all as one-bit-per-slot sets (common/slot_bitset.h) and
/// lazily-grown vectors. Every set is empty between queries: the code
/// that inserts into it clears it again, when it is done, from the list
/// of slots it already keeps (a frontier, an audience). So in steady
/// state a query allocates none of them and touches only the slots it
/// visits, the whole point of this subsystem.
///
/// Thread-safety contract: an EvalContext must not be used by two threads
/// at once. A reader thread hammering an AccessReadView passes one
/// context per thread (or relies on the thread-local default), and
/// CheckAccessBatch reuses a single context across the whole batch —
/// scratch is the only mutable state on the otherwise lock-free read
/// path. The paper evaluators (sargus_paper) follow the same split.

#include <cstdint>
#include <vector>

#include "common/slot_bitset.h"
#include "common/types.h"

namespace sargus {

/// One (graph node, automaton state) configuration on a frontier.
struct ProductConfig {
  NodeId node = 0;
  uint32_t state = 0;
};

/// The pooled scratch arrays. Grown to the high-water mark of everything
/// evaluated through it and reused; never shrinks.
class QueryScratch {
 public:
  /// Product-space membership of the (forward) walker. Only a
  /// ProductWalker inserts into it, and each walk clears it from its
  /// frontier when it ends, so it reads empty between walks.
  const SlotBitSet& visited() const { return visited_; }

  /// Backward-side membership + frontier for bidirectional search; the
  /// search clears the set from `frontier_back` when it is done.
  SlotBitSet visited_back;
  std::vector<ProductConfig> frontier_back;

  /// Per-hop line-vertex dedup for the adjacency join, plus its
  /// double-buffered frontiers; each hop clears the previous hop's bits
  /// from the frontier they were pushed to.
  SlotBitSet line_seen;
  std::vector<LineVertexId> line_frontier;
  std::vector<LineVertexId> line_next;

  /// Node-level marks for audience collection, cleared from the
  /// audience the collector returns.
  SlotBitSet node_marks;

  /// Bytes held by every pooled array (capacity, not size): the
  /// per-context footprint a serving thread keeps between queries.
  size_t MemoryBytes() const;

 private:
  friend class ProductWalker;

  /// The parent link of a search root.
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  SlotBitSet visited_;
  /// Forward frontier: FIFO via the walker's moving head index (BFS).
  /// Every fresh `visited_` insert is pushed here and nothing is popped,
  /// so it lists exactly the set's members until the walk ends.
  std::vector<ProductConfig> frontier_;
  /// Witness walks only: parallel to `frontier_`, the frontier index of
  /// the configuration whose edge discovered each entry (kNoParent for
  /// a root). O(configurations visited), emptied with the frontier.
  std::vector<size_t> parents_;
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
