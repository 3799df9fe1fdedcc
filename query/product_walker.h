#ifndef SARGUS_QUERY_PRODUCT_WALKER_H_
#define SARGUS_QUERY_PRODUCT_WALKER_H_

/// \file product_walker.h
/// \brief ProductWalker: the one product-space (graph node × automaton
/// state) traversal the whole system shares.
///
/// The grant semantics of a traversal — visited indexing, start-closure
/// seeding, per-step edge orientation, attribute-filter checks, the
/// accept-after-edge test, parent chains for witnesses — used to be
/// hand-rolled three times (online evaluator, bidirectional forward side,
/// audience collector). They now live here, once: callers differ only in
/// what they do when an edge lands in an accepting configuration
/// (on_accept) and when a fresh configuration is pushed (on_push, used by
/// bidirectional search to detect frontier intersection).
///
/// All transient state lives in the caller's QueryScratch: the walker
/// itself is a cheap view object constructed per query. A walk starts
/// on an empty visited set and frontier and leaves them empty: every
/// fresh visited insert is pushed to the frontier, so the destructor
/// clears the set from that list, O(configurations visited) and never
/// O(|V|·states). Only one walker may use a scratch at a time.
///
/// Snapshot-consistency contract: a walk runs over one CsrSnapshot plus
/// an optional DeltaOverlay (pending mutations merged into every neighbor
/// expansion via ForEachNeighborEdge — the walk sees the *logical* graph,
/// base minus staged removals plus staged additions). The snapshot and
/// the overlay must stay frozen for the duration of the walk: mutating
/// the overlay mid-walk is a logic race (configurations already expanded
/// used the old delta), and swapping the snapshot is a lifetime bug.
/// Staged-edge endpoints must be < LogicalNumNodes(csr, overlay) —
/// visited arrays are sized to the snapshot plus staged node additions.
///
/// Thread-safety: a walker is single-threaded by construction — it owns
/// no state but mutates the caller's QueryScratch, which must never be
/// shared between concurrent walks. Any number of concurrent walkers may
/// share one (csr, overlay, nfa) as long as each has its own scratch and
/// nothing mutates the shared structures meanwhile.

#include <cstdint>
#include <vector>

#include "core/automaton.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "query/eval_context.h"

namespace sargus {

class ProductWalker {
 public:
  /// Opens a fresh breadth-first walk over `scratch`. `graph`, `csr`,
  /// `nfa` and `scratch` must outlive the walker; `csr` must snapshot
  /// `graph` and `nfa` must be compiled from an expression bound to it.
  /// With `track_parents`, parent links are recorded for BuildWitness.
  /// `overlay` (optional) layers pending mutations over `csr`; it must be
  /// relative to exactly that snapshot and outlive the walker.
  ProductWalker(const SocialGraph& graph, const CsrSnapshot& csr,
                const HopAutomaton& nfa, QueryScratch& scratch,
                bool track_parents, const DeltaOverlay* overlay = nullptr)
      : graph_(&graph),
        csr_(&csr),
        overlay_(overlay),
        nfa_(&nfa),
        scratch_(&scratch),
        track_parents_(track_parents),
        num_states_(nfa.NumStates()) {
    // Size by the logical node range — snapshot nodes plus staged node
    // additions — so walks may touch overlay-staged nodes safely.
    const size_t slots = LogicalNumNodes(csr, overlay) * size_t{num_states_};
    scratch.visited_.Reserve(slots);
  }

  /// Clears every visited bit this walk set, from the frontier that
  /// lists them, and empties the frontier and its parent links for the
  /// next walk.
  ~ProductWalker() {
    for (const ProductConfig& c : scratch_->frontier_) {
      scratch_->visited_.ClearWordOf(
          ProductConfigId(c.node, c.state, num_states_));
    }
    scratch_->frontier_.clear();
    scratch_->parents_.clear();
  }

  ProductWalker(const ProductWalker&) = delete;
  ProductWalker& operator=(const ProductWalker&) = delete;

  /// Seeds the automaton's start closure at `node` (search roots).
  void SeedStarts(NodeId node) {
    for (uint32_t s : nfa_->StartStates()) Push(node, s);
  }

  /// Marks (node, state) visited and enqueues it as a search root;
  /// returns true when the configuration is fresh this walk.
  bool Push(NodeId node, uint32_t state) {
    return PushFrom(node, state, QueryScratch::kNoParent);
  }

  bool Visited(NodeId node, uint32_t state) const {
    return scratch_->visited_.Contains(
        ProductConfigId(node, state, num_states_));
  }

  /// Configurations still awaiting expansion.
  size_t Remaining() const { return scratch_->frontier_.size() - head_; }

  /// Pops the oldest configuration (FIFO) and expands it. For every
  /// outgoing (or, for backward steps, incoming) edge whose far node
  /// passes the step filter:
  ///   * when the successor closure accepts, `on_accept(entered, from,
  ///     from_state)` runs first — returning true stops the walk (the
  ///     entered node is a match endpoint);
  ///   * each fresh successor configuration is pushed; `on_push(node,
  ///     state)` runs on fresh pushes and may also stop the walk.
  /// Returns true when a callback stopped the walk.
  template <typename OnAcceptEdge, typename OnFreshPush>
  bool Step(OnAcceptEdge&& on_accept, OnFreshPush&& on_push) {
    const size_t at = head_++;
    const ProductConfig c = scratch_->frontier_[at];
    ++pairs_visited_;

    const BoundStep& step = nfa_->StepSpec(c.state);
    const bool accepts = nfa_->AcceptsAfterEdge(c.state);
    const auto& targets = nfa_->TargetsAfterEdge(c.state);
    // Logical neighbors: base entries minus overlay removals plus overlay
    // additions (one shared merge point, see ForEachNeighborEdge).
    return ForEachNeighborEdge(
        *csr_, overlay_, c.node, step.label, step.backward, [&](NodeId w) {
          if (!BoundPathExpression::NodePasses(*graph_, w, step)) return false;
          if (accepts && on_accept(w, c.node, c.state)) return true;
          for (uint32_t t : targets) {
            if (PushFrom(w, t, at) && on_push(w, t)) return true;
          }
          return false;
        });
  }

  /// Runs to exhaustion or until `on_accept` stops the walk; returns true
  /// in the latter case.
  template <typename OnAcceptEdge>
  bool Run(OnAcceptEdge&& on_accept) {
    auto no_push_stop = [](NodeId, uint32_t) { return false; };
    while (Remaining() > 0) {
      if (Step(on_accept, no_push_stop)) return true;
    }
    return false;
  }

  uint64_t pairs_visited() const { return pairs_visited_; }

  /// Witness path src ... final_node, given the accepting edge
  /// (at, state) -> final_node, where (at, state) is a configuration
  /// this walk visited. Requires track_parents.
  std::vector<NodeId> BuildWitness(NodeId final_node, NodeId at,
                                   uint32_t state) const;

 private:
  /// Push, recording frontier index `parent` as the configuration whose
  /// edge discovered this one.
  bool PushFrom(NodeId node, uint32_t state, size_t parent) {
    const size_t id = ProductConfigId(node, state, num_states_);
    if (!scratch_->visited_.Insert(id)) return false;
    if (track_parents_) scratch_->parents_.push_back(parent);
    scratch_->frontier_.push_back(ProductConfig{node, state});
    return true;
  }

  const SocialGraph* graph_;
  const CsrSnapshot* csr_;
  const DeltaOverlay* overlay_;
  const HopAutomaton* nfa_;
  QueryScratch* scratch_;
  bool track_parents_;
  uint32_t num_states_;
  size_t head_ = 0;
  uint64_t pairs_visited_ = 0;
};

/// Work counters for one decision. The walk fills `pairs_visited`; the
/// other fields belong to the paper's join and prefilter evaluators
/// (sargus_paper) and stay 0 on the serving path.
struct EvalStats {
  /// (node, automaton state) configurations expanded (traversal engines).
  uint64_t pairs_visited = 0;
  /// Join tuples materialized (join engines).
  uint64_t tuples_generated = 0;
  /// Tuples discarded by post-processing (FaithfulJoinEvaluator).
  uint64_t tuples_post_filtered = 0;
  /// Concrete label sequences (line queries) evaluated (join engines).
  uint64_t line_queries = 0;
  /// Queries answered "deny" by a closure prefilter without evaluation.
  uint64_t prefilter_rejections = 0;
};

struct Evaluation {
  bool granted = false;
  /// Node path src ... dst when granted and witness was requested.
  std::vector<NodeId> witness;
  EvalStats stats;
};

/// The complete forward product-space search: seed at `src`, walk
/// breadth-first, grant on reaching `dst` in an accepting configuration,
/// optionally reconstructing the witness path. The read view decides
/// every rule path with it. Validation is the caller's job: `src` and
/// `dst` must be < LogicalNumNodes(csr, overlay), and `nfa` must come
/// from a non-empty expression bound to `graph`. `overlay` layers
/// pending mutations over `csr` (nullptr = the snapshot alone).
Evaluation ForwardProductSearch(const SocialGraph& graph,
                                const CsrSnapshot& csr,
                                const HopAutomaton& nfa, NodeId src,
                                NodeId dst, bool want_witness,
                                QueryScratch& scratch,
                                const DeltaOverlay* overlay = nullptr);

}  // namespace sargus

#endif  // SARGUS_QUERY_PRODUCT_WALKER_H_
