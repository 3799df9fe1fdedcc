#ifndef SARGUS_ENGINE_READ_VIEW_H_
#define SARGUS_ENGINE_READ_VIEW_H_

/// \file read_view.h
/// \brief AccessReadView: the immutable, lock-free serving surface.
///
/// The serving model is RCU-style snapshot publication. A view is a
/// frozen bundle of everything one CheckAccess needs:
///
///   * a `SnapshotIndexes` (CSR + line graph + oracle + cluster index +
///     closure), shared across views until the next
///     RebuildIndexes/Compact;
///   * a `PolicySnapshot` (resource table + eagerly bound, compiled
///     rules), shared across views until the policy store changes;
///   * a frozen copy of the DeltaOverlay as of publication, so staged
///     mutations are visible without any synchronization;
///   * per-view evaluator instances wired to the three pieces above
///     (cheap: evaluators are pointer bundles).
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
/// Requests are structured: `AccessRequest` carries per-request
/// `want_witness` and an optional per-request evaluator override, and
/// `CheckAccessBatch` amortizes resource/rule resolution and scratch
/// reuse across a whole batch (requests are grouped by resource).

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/policy.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "graph/line_graph.h"
#include "index/cluster_index.h"
#include "index/line_oracle.h"
#include "index/transitive_closure.h"
#include "query/evaluator.h"
#include "query/join_evaluator.h"

namespace sargus {

struct EvalContext;

/// The paper's two ways to decide a request, plus the automatic pick
/// between them. The other evaluators in query/ (bidirectional search,
/// the faithful join) are library-only: the agreement tests and the
/// benchmarks construct them directly, the engine never serves them.
enum class EvaluatorChoice {
  /// Join index when built and the expression expands modestly; online
  /// BFS otherwise. The paper's deployment advice, codified.
  kAuto,
  /// Online product-space BFS: no index, immune to graph churn.
  kOnlineBfs,
  /// The precomputed join over 2-hop reachability labels.
  kJoinIndex,
};

/// Build-time engine configuration. Everything request-scoped (witness,
/// evaluator override) lives on AccessRequest instead. Mutations always
/// go through the engine's MutationQueue, and compaction always runs on
/// its compaction thread (see access_engine.h); the write_queue_* knobs
/// size the former.
struct EngineOptions {
  /// Default evaluator for requests that carry no override. Also decides
  /// which indexes RebuildIndexes constructs (kAuto/kJoinIndex build the
  /// full join stack; online-only choices skip it).
  EvaluatorChoice evaluator = EvaluatorChoice::kAuto;
  /// Build an (undirected) transitive closure and use it as a fast-deny
  /// prefilter in front of the chosen evaluator.
  bool use_closure_prefilter = false;
  /// Build the line graph with backward orientations (required when any
  /// policy uses `label-[a,b]` steps and the join index may serve it).
  bool line_graph_backward = false;
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
  /// Compactions whose staged delta is insertion-only and no larger
  /// than this fraction of the snapshot's edges patch the line graph /
  /// oracle incrementally instead of rebuilding them (see
  /// SnapshotIndexes::BuildIncremental). 0 disables incremental
  /// maintenance.
  double incremental_max_fraction = 0.05;
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
  /// Force a specific evaluator for this request (kAuto re-runs the
  /// automatic pick). Unset uses the engine's configured default. A
  /// forced kJoinIndex on a configuration that never built the join
  /// stack surfaces kFailedPrecondition; while the overlay is non-empty
  /// join picks still re-route to overlay-aware online search so every
  /// evaluator keeps agreeing.
  std::optional<EvaluatorChoice> evaluator_override;
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
  /// name() of the evaluator that produced the final verdict.
  std::string_view evaluator_name;
  /// Snapshot/overlay state the decision was evaluated against: the
  /// stamps of the AccessReadView that served it.
  uint64_t snapshot_generation = 0;
  uint64_t overlay_version = 0;
  /// Non-empty when the sharded tier answered this check in degraded
  /// mode (an owner shard was unreachable and the decision was
  /// concluded exactly from fresh boundary summaries — see
  /// shard/router.h). The answer is still exact; this records that a
  /// reduced path produced it. Always empty from a single engine.
  std::string degraded_reason;
};

/// Which concrete evaluator a compiled path resolved to. Indexes the
/// view's evaluator arrays.
enum class EvaluatorKind : uint8_t {
  kOnlineBfs = 0,
  kJoinIndex = 1,
};
inline constexpr size_t kNumEvaluatorKinds = 2;

/// The immutable index bundle one RebuildIndexes produces. Shared (via
/// shared_ptr) by every view published until the next rebuild; nothing
/// in it is written after Build returns.
struct SnapshotIndexes {
  CsrSnapshot csr;
  LineGraph lg;
  std::unique_ptr<LineReachabilityOracle> oracle;
  std::unique_ptr<ClusterJoinIndex> cluster;
  std::unique_ptr<TransitiveClosure> closure;
  /// True when the join stack (lg/oracle/cluster) was built. The
  /// paper's per-label base tables are not part of it: only
  /// FaithfulJoinEvaluator (query/faithful_join_evaluator.h) reads them,
  /// and it builds its own.
  bool join_built = false;

  /// Builds the bundle the configuration needs (the join stack only for
  /// kAuto/kJoinIndex, the closure only when the prefilter is on).
  static Result<std::shared_ptr<const SnapshotIndexes>> Build(
      const SocialGraph& graph, const EngineOptions& options);

  /// Same bundle over the *logical* graph `graph` ⊕ `overlay`, without
  /// mutating `graph` — what a background compaction builds against its
  /// frozen inputs. `first_new_edge` is the id the fold will assign the
  /// overlay's first staged addition (the graph's EdgeSlotCount() at
  /// freeze time), so the bundle is identical to Build() after the fold.
  static Result<std::shared_ptr<const SnapshotIndexes>> BuildMerged(
      const SocialGraph& graph, const DeltaOverlay& overlay,
      EdgeId first_new_edge, const EngineOptions& options);

  /// Incremental variant of BuildMerged: patches `prev`'s line graph and
  /// reachability oracle instead of rebuilding them (the CSR, closure
  /// and cluster index are re-derived — all linear). Only
  /// applicable when the delta is insertion-only (removals shrink
  /// reachability, which labels cannot un-learn), no larger than
  /// options.incremental_max_fraction of the snapshot's edges, and the
  /// insertions close no cycle in the line graph; returns null (not an
  /// error) when any of these fail and the caller should fall back to
  /// the full BuildMerged. Produces the same answers as the full build
  /// (the equivalence test suite pins this on randomized overlays).
  static Result<std::shared_ptr<const SnapshotIndexes>> BuildIncremental(
      const SnapshotIndexes& prev, const SocialGraph& graph,
      const DeltaOverlay& overlay, EdgeId first_new_edge,
      const EngineOptions& options);
};

/// The immutable policy bundle: the resource table plus every rule
/// bound, its automaton compiled, and its automatic evaluator pick
/// precomputed. Built at publish time; shared by every view until the
/// PolicyStore grows (rule/resource counts are the staleness key).
/// Binding is against the SocialGraph's dictionaries, which only grow,
/// so a policy snapshot stays valid across overlay churn and
/// compactions — only a store change (or a rebuild, whose fresh
/// dictionary entries may fix previously failed binds) forces a new one.
struct PolicySnapshot {
  struct CompiledPath {
    /// A failed bind keeps its status here so rule disjunction semantics
    /// can surface it only when nothing grants.
    Status bind_status = OkStatus();
    std::shared_ptr<const BoundPathExpression> bound;
    /// What kAuto resolves to for this path (join index when built and
    /// affordable, online BFS otherwise).
    EvaluatorKind auto_pick = EvaluatorKind::kOnlineBfs;
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

  static std::shared_ptr<const PolicySnapshot> Build(
      const PolicyStore& store, const SocialGraph& graph,
      const SnapshotIndexes& idx);

  /// Clone of `prev` with every path's automatic evaluator pick
  /// recomputed against a new index bundle — what a background
  /// compaction publishes. Deliberately does NOT touch the PolicyStore
  /// (the compaction thread must not race rule registration on the
  /// user's thread), so binds that failed in `prev` stay failed until
  /// the next store-refreshing publish (any external write-path call).
  static std::shared_ptr<const PolicySnapshot> WithAutoPicks(
      const PolicySnapshot& prev, const SnapshotIndexes& idx);
};

/// An immutable, reference-counted serving snapshot. See the file
/// comment for the publication model. Obtain one from
/// AccessControlEngine::AcquireReadView() (or go through the engine's
/// CheckAccess facade, which acquires the current view per call and
/// additionally records the decision in the audit ring).
class AccessReadView {
 public:
  /// Freezes `overlay` (by copy) against the given bundles and wires the
  /// per-view evaluator instances. `graph` must outlive the view; the
  /// view reads only its node count and attribute columns (see the
  /// thread-safety contract in access_engine.h).
  static std::shared_ptr<const AccessReadView> Create(
      const SocialGraph& graph, std::shared_ptr<const SnapshotIndexes> idx,
      std::shared_ptr<const PolicySnapshot> policy, const DeltaOverlay& overlay,
      const EngineOptions& options, uint64_t snapshot_generation);

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
  /// traversal itself: when ≥ 4 requests target one resource (and carry
  /// no witness/override), the group is answered with one audience walk
  /// per rule path instead of one product search per request. Decisions
  /// from that shared walk report evaluator_name "batch-audience" and
  /// carry no per-request work stats; grant/deny agrees with the
  /// per-request path wherever that path produces a decision. (One
  /// deliberate divergence: the shared walk has no work caps, so a
  /// query whose per-request join plan would fail with
  /// kResourceExhausted gets a definitive answer here instead of an
  /// error.) Results are positional: out[i] answers
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
  const CsrSnapshot& csr() const { return idx_->csr; }
  size_t num_resources() const { return policy_->resources.size(); }

  /// Raw pieces of the frozen bundle, exposed for the sharded serving
  /// tier (shard/): cross-shard frontier expansion and boundary-summary
  /// builds run ProductWalker directly over this view's (graph, csr,
  /// overlay, compiled rules). Same lifetime and immutability contract
  /// as csr()/overlay() — valid while the view is held, never mutated.
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
                 std::shared_ptr<const SnapshotIndexes> idx,
                 std::shared_ptr<const PolicySnapshot> policy,
                 const DeltaOverlay& overlay, const EngineOptions& options,
                 uint64_t snapshot_generation);

  /// The serving evaluator for `kind`: the prefilter wrapper when the
  /// closure is configured, the base evaluator otherwise. Null when the
  /// kind's index was never built (join on an online-only config).
  const Evaluator* Serving(EvaluatorKind kind) const {
    const auto i = static_cast<size_t>(kind);
    return prefiltered_[i] != nullptr ? prefiltered_[i].get() : base_[i].get();
  }

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
  EngineOptions options_;
  std::shared_ptr<const SnapshotIndexes> idx_;
  std::shared_ptr<const PolicySnapshot> policy_;
  /// Frozen at Create(); evaluators below hold its address.
  DeltaOverlay overlay_;
  bool overlay_empty_ = true;
  size_t logical_num_nodes_ = 0;
  uint64_t snapshot_generation_ = 0;

  std::array<std::unique_ptr<Evaluator>, kNumEvaluatorKinds> base_;
  std::array<std::unique_ptr<Evaluator>, kNumEvaluatorKinds> prefiltered_;
};

}  // namespace sargus

#endif  // SARGUS_ENGINE_READ_VIEW_H_
