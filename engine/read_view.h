#ifndef SARGUS_ENGINE_READ_VIEW_H_
#define SARGUS_ENGINE_READ_VIEW_H_

/// \file read_view.h
/// \brief AccessReadView: the immutable, lock-free serving surface.
///
/// The serving model is RCU-style snapshot publication. A view is a
/// frozen bundle of everything one CheckAccess needs:
///
///   * a `CsrSnapshot`, shared across views until the next
///     RebuildIndexes/Compact;
///   * a `PolicySnapshot` (resource table + eagerly bound, compiled
///     rules), shared across views until the policy store changes;
///   * a frozen copy of the DeltaOverlay as of publication, so staged
///     mutations are visible without any synchronization.
///
/// Every rule path is decided by one overlay-aware breadth-first
/// product walk over those pieces (ForwardProductSearch, in
/// query/product_walker.h).
///
/// `CheckAccess` on a view is fully const and lock-free: any number of
/// threads may hammer one shared view concurrently, each drawing scratch
/// from its own `EvalContext` (or the thread-local one). Nothing a view
/// references is ever mutated after publication — the engine's write
/// path (AddEdge/RemoveEdge/Compact/RebuildIndexes) builds the *next*
/// view off the serving path and publishes it with one atomic swap
/// (see the publication machinery in access_engine.h); in-flight
/// readers drain on the old view, which stays
/// alive (and keeps answering against its frozen state) for as long as
/// anyone holds the shared_ptr. The (snapshot_generation,
/// overlay_version) stamps on every AccessDecision identify which
/// published state a decision was evaluated against.
///
/// Requests are structured: `AccessRequest` carries a per-request
/// `want_witness`, and `CheckAccessBatch` amortizes resource/rule
/// resolution and scratch reuse across a whole batch (requests are
/// grouped by resource).

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/policy.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "query/product_walker.h"

namespace sargus {

struct EvalContext;

/// Build-time engine configuration. Everything request-scoped (witness)
/// lives on AccessRequest instead. Mutations always go through the
/// engine's MutationQueue, and compaction always runs on its compaction
/// thread (see access_engine.h); write_queue_capacity sizes the former.
struct EngineOptions {
  /// Decisions kept in the engine's audit ring (0 disables auditing —
  /// and with it the only lock on the engine's CheckAccess facade).
  size_t audit_capacity = 1024;
  /// Staged overlay mutations (adds + removes + node additions)
  /// tolerated before a mutation triggers an automatic Compact(). The
  /// default, kCompactThresholdAuto, scales with the snapshot:
  /// max(1024, |E|/16), recomputed at every rebuild — a fixed constant
  /// either starves small graphs (overlay never folds, conservatism
  /// never lifts) or compacts pathologically often on large ones, where
  /// each fold is expensive. Any explicit value is used as-is; 0
  /// disables auto-compaction (the overlay then grows until an explicit
  /// Compact()).
  size_t compact_threshold = kCompactThresholdAuto;
  /// Mutations the queue holds before Submit blocks (backpressure).
  /// The writer drains at most MutationQueue::kMaxBatch of them into
  /// one group-commit batch (one WAL fsync, one published view).
  size_t write_queue_capacity = 4096;

  static constexpr size_t kCompactThresholdAuto =
      std::numeric_limits<size_t>::max();
};

/// One access-control question, fully self-describing. Replaces the old
/// positional CheckAccess(requester, resource) plus global
/// EngineOptions::want_witness.
struct AccessRequest {
  NodeId requester = 0;
  ResourceId resource = 0;
  /// Ask for a witness path on grants. May cost extra; per request, not
  /// per engine.
  bool want_witness = false;
};

struct AccessDecision {
  bool granted = false;
  NodeId requester = 0;
  ResourceId resource = 0;
  /// Rule that granted access (unset on denies and owner grants).
  std::optional<RuleId> matched_rule;
  /// True when requester == owner (always granted, no rule consulted).
  bool owner_access = false;
  /// Evaluator work, summed over all expressions tried.
  EvalStats stats;
  /// Witness path for the matched expression (when requested).
  std::vector<NodeId> witness;
  /// What produced the verdict: "online-bfs" (the product walk),
  /// "batch-audience" (a shared batch walk), "owner", or a sharded
  /// router's "shard-*" names.
  std::string_view evaluator_name;
  /// Snapshot/overlay state the decision was evaluated against: the
  /// stamps of the AccessReadView that served it.
  uint64_t snapshot_generation = 0;
  uint64_t overlay_version = 0;
};

/// The immutable policy bundle: the resource table plus every rule bound
/// and its automaton compiled, once per distinct expression (paths with
/// the same canonical text share one CompiledPath, a failed bind
/// included). Built at publish time; shared by every
/// view until the PolicyStore grows (rule/resource counts are the
/// staleness key). Binding is against the SocialGraph's dictionaries,
/// which only grow, so a policy snapshot stays valid across overlay
/// churn and compactions — only a store change (or a rebuild, whose
/// fresh dictionary entries may fix previously failed binds) forces a
/// new one.
struct PolicySnapshot {
  struct CompiledPath {
    /// A failed bind keeps its status here so rule disjunction semantics
    /// can surface it only when nothing grants.
    Status bind_status = OkStatus();
    std::shared_ptr<const BoundPathExpression> bound;
  };
  struct CompiledRule {
    std::vector<CompiledPath> paths;
  };
  struct ResourceEntry {
    NodeId owner = 0;
    std::vector<RuleId> rules;
  };

  std::vector<ResourceEntry> resources;
  std::vector<CompiledRule> rules;
  /// Store sizes this snapshot was built from — the staleness key the
  /// engine compares before reusing it in the next published view.
  size_t source_num_resources = 0;
  size_t source_num_rules = 0;

  /// True when some bound path has a backward step, so serving this
  /// policy reads the CSR's in-side; the engine derives it before it
  /// publishes a view over such a policy.
  bool HasBackwardStep() const { return has_backward_step_; }

  static std::shared_ptr<const PolicySnapshot> Build(const PolicyStore& store,
                                                     const SocialGraph& graph);

 private:
  bool has_backward_step_ = false;
};

/// An immutable, reference-counted serving snapshot. See the file
/// comment for the publication model. Obtain one from
/// AccessControlEngine::AcquireReadView() (or go through the engine's
/// CheckAccess facade, which acquires the current view per call and
/// additionally records the decision in the audit ring).
class AccessReadView {
 public:
  /// Freezes `overlay` (by copy) against the given snapshots. `graph`
  /// must outlive the view, and `policy` must be bound against it; the
  /// view reads only its node count and attribute columns (see the
  /// thread-safety contract in access_engine.h).
  static std::shared_ptr<const AccessReadView> Create(
      const SocialGraph& graph, std::shared_ptr<const CsrSnapshot> csr,
      std::shared_ptr<const PolicySnapshot> policy, const DeltaOverlay& overlay,
      uint64_t snapshot_generation);

  AccessReadView(const AccessReadView&) = delete;
  AccessReadView& operator=(const AccessReadView&) = delete;

  /// Decides one request. Fully const and lock-free; safe to call from
  /// any number of threads concurrently when each passes its own `ctx`.
  Result<AccessDecision> CheckAccess(const AccessRequest& request,
                                     EvalContext& ctx) const;

  /// Same, drawing scratch from this thread's pooled EvalContext.
  Result<AccessDecision> CheckAccess(const AccessRequest& request) const;

  /// Decides a whole batch with one scratch context, grouping requests
  /// by resource so the resource entry and its compiled rules are
  /// resolved once per group — and so large groups can share the
  /// traversal itself: when ≥ 4 requests target one resource (and ask
  /// for no witness), the group is answered with one audience walk per
  /// rule path instead of one product search per request. Decisions
  /// from that shared walk report evaluator_name "batch-audience" and
  /// carry no per-request work stats; grant/deny agrees with the
  /// per-request path. Results are positional: out[i] answers
  /// requests[i]; a bad request (unknown resource, out-of-range
  /// requester) fails its own slot only.
  std::vector<Result<AccessDecision>> CheckAccessBatch(
      std::span<const AccessRequest> requests, EvalContext& ctx) const;
  std::vector<Result<AccessDecision>> CheckAccessBatch(
      std::span<const AccessRequest> requests) const;

  /// Stamps identifying the published state this view serves (mirrored
  /// into every AccessDecision).
  uint64_t snapshot_generation() const { return snapshot_generation_; }
  uint64_t overlay_version() const { return overlay_.version(); }

  /// The frozen pending-mutation set this view layers over its snapshot.
  const DeltaOverlay& overlay() const { return overlay_; }
  const CsrSnapshot& csr() const { return *csr_; }
  size_t num_resources() const { return policy_->resources.size(); }

  /// Raw pieces of the frozen bundle, exposed for the sharded serving
  /// tier (shard/): cross-shard frontier expansion runs ProductWalker
  /// directly over this view's (graph, csr, overlay, compiled rules).
  /// Same lifetime and immutability contract as csr()/overlay() — valid
  /// while the view is held, never mutated.
  const SocialGraph& graph() const { return *graph_; }
  const PolicySnapshot& policy() const { return *policy_; }

  /// Node ids this view can answer for: snapshot nodes plus the frozen
  /// overlay's staged node additions. A request (or resource owner)
  /// at or past this bound — e.g. a node added after this view was
  /// published — fails with kInvalidArgument instead of indexing past
  /// scratch arrays sized at snapshot time.
  size_t logical_num_nodes() const { return logical_num_nodes_; }

 private:
  AccessReadView(const SocialGraph& graph,
                 std::shared_ptr<const CsrSnapshot> csr,
                 std::shared_ptr<const PolicySnapshot> policy,
                 const DeltaOverlay& overlay, uint64_t snapshot_generation);

  /// Core of CheckAccess once the resource entry is resolved.
  Result<AccessDecision> CheckResolved(const PolicySnapshot::ResourceEntry& res,
                                       const AccessRequest& request,
                                       EvalContext& ctx) const;

  /// True when every path of every rule on `res` bound successfully
  /// (precondition for the shared-audience batch path: a failed bind
  /// must surface per request under disjunction semantics).
  bool AllPathsBindable(const PolicySnapshot::ResourceEntry& res) const;

  /// Batch fast path: decides every request in `group` (slot indices
  /// into `slots`) against `res` with one audience walk per rule path.
  void CheckGroupByAudience(
      const PolicySnapshot::ResourceEntry& res,
      std::span<const AccessRequest> requests, std::span<const uint32_t> group,
      std::vector<std::optional<Result<AccessDecision>>>& slots,
      EvalContext& ctx) const;

  const SocialGraph* graph_;
  std::shared_ptr<const CsrSnapshot> csr_;
  std::shared_ptr<const PolicySnapshot> policy_;
  /// Frozen at Create().
  DeltaOverlay overlay_;
  size_t logical_num_nodes_ = 0;
  uint64_t snapshot_generation_ = 0;
};

}  // namespace sargus

#endif  // SARGUS_ENGINE_READ_VIEW_H_
