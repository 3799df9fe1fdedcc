#ifndef SARGUS_SHARD_ROUTER_H_
#define SARGUS_SHARD_ROUTER_H_

/// \file router.h
/// \brief ShardRouter: the sharded serving tier's front door.
///
/// Build() partitions the master graph (shard/partitioner.h), extracts
/// one shard-local graph per shard (graph/subgraph.h), stands up one
/// ShardEngine per shard, and publishes the initial ShardTopology. From
/// then on the router exposes the same CheckAccess / CheckAccessBatch /
/// AddEdge / RemoveEdge / AddNode surface as a single
/// AccessControlEngine — decisions agree exactly with a single engine
/// over the unpartitioned graph — while all real work happens inside
/// the shards, reached only through the wire messages of shard/wire.h.
///
/// Decision procedure for a cross-shard check (see PathReaches):
///
///   1. *Local phase*: ask the resource owner's shard directly. A grant
///      is authoritative (shard-local edges are a subset of global
///      edges); a deny is authoritative only if the phase-one walk's
///      export set is empty (no configuration escaped the shard).
///   2. *Summary composition*: compose the shards' boundary summaries
///      (shard/boundary_summary.h) with the cut-edge table into a
///      router-local fixpoint over boundary configurations — no shard
///      traffic at all. Exact when every consulted summary is fresh;
///      any stale summary aborts to step 3.
///   3. *Frontier exchange fallback*: two-phase rounds shipping
///      (node, state, residual-hops) frontiers to the owning shards
///      until acceptance or a global fixpoint. Always available, always
///      exact; the summaries only exist to avoid it.
///
/// Mutations route to the owning shard — both owners for a cut edge —
/// preserving each engine's single-writer contract, and republish a
/// copy-on-write topology when the cut set or node count changes.
///
/// The contract is the same at every N, 1 included: Build() copies the
/// caller's graph into per-shard graphs and clones the caller's store
/// per shard, so neither is ever written afterwards (mutations and
/// compactions land in the shard copies), and every data-plane call
/// reaches its shard through the thread-per-shard executor
/// (shard/executor_transport.h). An N = 1 router is one copied shard
/// behind that executor, not a shortcut to a plain engine.
///
/// Robustness (PR 7): every data-plane shard call goes through a
/// ShardTransport (shard/transport.h) under a retry / deadline /
/// circuit-breaker policy (RouterRobustnessOptions). When an owner
/// shard is unreachable, checks concludable exactly from fresh boundary
/// summaries are still answered (stamped with degraded_reason);
/// everything else fails with an explicit kUnavailable or
/// kDeadlineExceeded — a completed decision is always exact, a
/// non-answer is always an error, and a silently wrong grant or deny is
/// never returned. Control-plane operations (Build, AddNode,
/// RefreshSummaries, CompactAll, stamp and summary reads) stay direct
/// in-process calls: they model cluster management, which a real
/// deployment runs over a reliable coordination channel, not the
/// request path.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/access_engine.h"
#include "shard/boundary_summary.h"
#include "shard/executor_transport.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"
#include "shard/topology.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {

/// Retry / deadline / circuit-breaker policy for the router's data-
/// plane calls (see docs/ARCHITECTURE.md, "Failure model & degraded
/// serving"). Every transport call gets a per-attempt deadline; failed
/// attempts retry with exponential backoff + deterministic jitter under
/// a per-operation budget; a shard that keeps failing trips a breaker
/// (ShardRouter::kBreakerFailureThreshold consecutive failures) and
/// fails fast for ShardRouter::kBreakerOpenMs until a half-open probe
/// succeeds.
struct RouterRobustnessOptions {
  /// Per-attempt deadline, ms (0 = none).
  uint32_t call_deadline_ms = 50;
  /// Total time budget for one logical shard operation including
  /// retries and backoff, ms (0 = none).
  uint32_t op_budget_ms = 250;
  /// Attempts per logical call (1 = no retries).
  uint32_t max_attempts = 3;
  /// Backoff before retry k (0-based) is
  /// min(backoff_base_ms << k, backoff_max_ms), stretched by up to
  /// backoff_jitter of itself (deterministic per-call jitter).
  uint32_t backoff_base_ms = 1;
  uint32_t backoff_max_ms = 32;
  double backoff_jitter = 0.5;
  /// When an owner shard is unreachable, answer cross-shard checks that
  /// are concludable exactly from fresh boundary summaries instead of
  /// failing them (the decision is stamped with degraded_reason).
  /// Checks that cannot be concluded exactly still fail with
  /// kUnavailable — degraded mode never guesses.
  bool allow_degraded = true;
};

struct RouterOptions {
  PartitionOptions partition;
  EngineOptions engine;
  /// Build boundary summaries at Build()/RefreshSummaries() and consult
  /// them before falling back to frontier exchange. Off = every
  /// cross-shard path goes straight to the fallback (the forced-
  /// fallback tests use this).
  bool build_summaries = true;
  /// Retry / breaker / degraded-serving policy.
  RouterRobustnessOptions robustness;
  /// Ignored: every router runs the thread-per-shard executor. Kept
  /// only because bench/e2e/sharded_read.cc still sets it.
  bool threaded_transport = false;
  /// Executor test seam (see ThreadedTransportOptions).
  ThreadedTransportOptions executor;
  /// Wraps the router's ThreadedTransport at Build() — the seam the
  /// fault-injection tests use (wrap it in a FaultInjectionTransport).
  std::function<std::unique_ptr<ShardTransport>(
      std::unique_ptr<ShardTransport>)>
      transport_decorator;
};

/// Monotonic router-level counters (relaxed atomics; read with
/// counters()). The bench derives its summary-hit-rate from these.
struct RouterCounters {
  uint64_t checks = 0;
  /// Checks that needed the cross-shard machinery (not answered by an
  /// owner grant or an owner-shard local grant).
  uint64_t cross_shard_checks = 0;
  /// Checks answered by the owner shard's local engine (grant).
  uint64_t local_conclusive = 0;
  /// Cross-shard checks concluded without any frontier exchange
  /// (phase-one conclusive or summary composition).
  uint64_t summary_resolved = 0;
  /// Frontier-exchange walks run (per path evaluation).
  uint64_t fallback_walks = 0;
  /// Cross-shard checks that needed at least one frontier exchange.
  uint64_t cross_fallback_walks = 0;
  /// Total frontier-exchange rounds across all fallback walks.
  uint64_t fallback_rounds = 0;
  /// Fallbacks caused by a stale/missing/unbuilt summary.
  uint64_t stale_summary_fallbacks = 0;
  /// Fallbacks caused by the composition work cap.
  uint64_t capped_compositions = 0;
  /// Transport-call re-attempts (attempt 2+ of a logical call).
  uint64_t retries = 0;
  /// Transport attempts that ended kDeadlineExceeded.
  uint64_t timeouts = 0;
  /// Circuit-breaker open transitions (closed->open and re-opens).
  uint64_t breaker_opens = 0;
  /// Checks answered exactly through the degraded (owner-shard-down)
  /// summary path.
  uint64_t degraded_answers = 0;
  /// Checks that returned kUnavailable / kDeadlineExceeded.
  uint64_t unavailable_errors = 0;
};

class ShardRouter {
 public:
  /// Consecutive transport failures that open a shard's breaker.
  static constexpr uint32_t kBreakerFailureThreshold = 3;
  /// How long an open breaker fails fast before allowing one half-open
  /// probe, ms.
  static constexpr uint32_t kBreakerOpenMs = 100;
  /// Summary-composition work cap (reachability tests per path); an
  /// exceeding composition falls back to frontier exchange.
  static constexpr size_t kMaxCompositionTests = size_t{1} << 20;

  /// `graph` and `store` must outlive the router and stay unmodified
  /// while it serves. Build() copies them into the shards; the router
  /// only reads them afterwards (node attributes for summary
  /// composition) and never writes them.
  ShardRouter(const SocialGraph& graph, const PolicyStore& store,
              RouterOptions options = {});

  /// Partitions, extracts, builds every shard engine, publishes the
  /// initial topology, and (when configured) builds boundary summaries.
  Status Build();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const GraphPartition& partition() const { return partition_; }
  ShardEngine& shard(uint32_t id) { return *shards_[id]; }
  const ShardEngine& shard(uint32_t id) const { return *shards_[id]; }
  std::shared_ptr<const ShardTopology> topology() const;

  /// The data-plane transport built at Build() (after decoration).
  /// Valid only after Build().
  ShardTransport& transport() const { return *transport_; }
  /// The per-shard circuit breaker. Valid only after Build().
  ShardHealthTracker& health() const { return *health_; }

  // ---- Read path (thread-safe; concurrent with one writer) ----------------

  Result<AccessDecision> CheckAccess(const AccessRequest& request) const;

  /// Positional batch. Requests are grouped by resource-owner shard and
  /// decided with one shard-local batch per group; only slots a
  /// shard-local batch cannot settle authoritatively (non-grants on a
  /// multi-shard topology) escalate to the per-request cross-shard
  /// procedure.
  std::vector<Result<AccessDecision>> CheckAccessBatch(
      std::span<const AccessRequest> requests) const;

  /// Sum of the per-shard view stamps: changes whenever any shard's
  /// published state changes, so it orders router-level decisions the
  /// way a single engine's (generation, version) pair does.
  wire::Stamp Stamp() const;

  RouterCounters counters() const;

  // ---- Write path (thread-safe: router-level mutations serialize on an
  // internal lock, then flow through each shard's MutationQueue) ------------
  //
  // AddEdge/RemoveEdge/AddNode may be called from any number of threads
  // concurrently. An internal write lock makes each call's multi-shard
  // protocol atomic with respect to other router mutations — the
  // cut-edge both-shards sequence (apply s1, apply s2, roll back s1 on
  // transport failure) and the AddNode all-shards id-alignment round
  // never interleave — while inside each shard the mutation rides the
  // engine's queue like any other producer's. Fail-stop-before-apply
  // on transport mutations (PR 7/8) is unchanged.

  Status AddEdge(NodeId src, NodeId dst, const std::string& label);
  Status AddEdge(NodeId src, NodeId dst, LabelId label);
  Status RemoveEdge(NodeId src, NodeId dst, const std::string& label);
  Status RemoveEdge(NodeId src, NodeId dst, LabelId label);

  /// Adds one node to every shard (ids stay aligned across shards) and
  /// assigns it to the least-loaded shard in a republished topology.
  /// The all-shards round fans out through the per-shard queues
  /// (ShardEngine::SubmitMutate) and gathers the tickets, so N shards
  /// assign the id concurrently, not serially.
  Result<NodeId> AddNode();

  /// Rebuilds every shard's boundary summary against its current view.
  /// No-op when summaries are disabled or N == 1.
  Status RefreshSummaries();

  /// Compacts every shard (waiting each out), then refreshes summaries.
  Status CompactAll();

 private:
  struct RouterResource {
    NodeId owner = 0;
    std::vector<RuleId> rules;
  };
  struct RouterPath {
    Status bind_status = OkStatus();
    std::shared_ptr<const BoundPathExpression> bound;
  };
  /// Per-evaluation bookkeeping threaded through the cross-shard path.
  struct CrossStats {
    uint64_t pairs_visited = 0;
    bool used_summary = false;
    bool used_fallback = false;
  };

  /// How a summary-composition run ended (shared by the healthy and
  /// degraded paths).
  enum class ComposeOutcome : uint8_t {
    kGranted = 0,
    kDenied = 1,
    /// A consulted summary was missing, stale, or did not cover a
    /// needed boundary vertex. Healthy path: frontier-exchange
    /// fallback. Degraded path: kUnavailable.
    kStale = 2,
    /// The composition work cap was hit. Same handling as kStale.
    kCapped = 3,
  };

  void PublishTopology(std::shared_ptr<const ShardTopology> topo);

  /// Full multi-shard decision procedure (file comment, steps 1-3),
  /// plus retry / breaker / degraded handling. Wrapped by DecideMulti,
  /// which maintains the robustness counters.
  Result<AccessDecision> DecideMultiImpl(const AccessRequest& request) const;
  Result<AccessDecision> DecideMulti(const AccessRequest& request) const;

  /// Degraded decision: the owner's shard is unreachable
  /// (`owner_error`); conclude every rule path exactly from fresh
  /// boundary summaries and healthy shards, or fail with kUnavailable.
  Result<AccessDecision> DecideDegraded(const ShardTopology& topo,
                                        const AccessRequest& request,
                                        NodeId owner,
                                        const Status& owner_error) const;

  /// Does a path from `owner` to `requester` matching (rule, path)
  /// exist in the global graph? Exact.
  Result<bool> PathReaches(const ShardTopology& topo, RuleId rule,
                           uint32_t path, NodeId owner, NodeId requester,
                           CrossStats& stats) const;

  /// Step 2 core: router-local summary composition from `seeds`,
  /// finishing with a local walk on the requester's shard when entry
  /// configurations landed there. Transport failures propagate as
  /// statuses; composition obstructions come back as kStale / kCapped.
  Result<ComposeOutcome> ComposeSummaries(
      const ShardTopology& topo, RuleId rule, uint32_t path, NodeId owner,
      NodeId requester, std::span<const wire::FrontierEntry> seeds,
      CrossStats& stats) const;

  /// Step 3: two-phase frontier-exchange rounds from `seeds`.
  Result<bool> FallbackWalk(const ShardTopology& topo, RuleId rule,
                            uint32_t path, NodeId owner, NodeId requester,
                            std::span<const wire::FrontierEntry> seeds,
                            CrossStats& stats) const;

  /// One logical transport call split into a scatter half and a gather
  /// half, so fan-out paths can submit every shard's call before
  /// waiting on any. BeginCall consults the circuit breaker, builds the
  /// attempt-0 deadline, and submits; FinishCall waits the ticket and
  /// runs the bounded retry loop (resubmitting `request` and waiting
  /// each attempt in turn) with jittered exponential backoff on
  /// failure. `request` must outlive FinishCall. `salt` feeds the
  /// jitter hash and must be derived from the call's CONTENT (shard,
  /// request identity), never shared mutable state, so concurrent
  /// retries jitter deterministically regardless of interleaving.
  template <typename Request>
  struct PendingCall {
    uint32_t shard = 0;
    uint64_t salt = 0;
    uint64_t budget_deadline = 0;
    const Request* request = nullptr;
    /// Set when the call failed before submission (breaker open).
    std::optional<Status> early;
    TransportTicket<ReplyFor<Request>> ticket;
  };
  template <typename Request>
  PendingCall<Request> BeginCall(uint32_t shard, uint64_t salt,
                                 const Request& request) const;
  template <typename Request>
  Result<ReplyFor<Request>> FinishCall(PendingCall<Request>& pending) const;

  /// The serial composition of the two halves: one robust logical
  /// transport call with per-attempt deadlines, bounded retries, and
  /// circuit-breaker consultation.
  template <typename Request>
  Result<ReplyFor<Request>> CallShard(uint32_t shard, uint64_t salt,
                                     const Request& request) const;

  /// The per-attempt deadline: `now` + call_deadline_ms, capped by the
  /// op budget's absolute deadline (either may be 0 = none).
  uint64_t AttemptDeadline(uint64_t now, uint64_t budget_deadline) const;

  Result<wire::MutateReply> CallMutate(uint32_t shard,
                                       const wire::MutateRequest& req);

  /// Resolved-label mutation bodies; caller holds write_mu_ (the public
  /// by-name overloads resolve/pre-intern the label, then delegate).
  Status AddEdgeImpl(NodeId src, NodeId dst, LabelId label);
  Status RemoveEdgeImpl(NodeId src, NodeId dst, LabelId label);

  const SocialGraph* master_graph_;
  const PolicyStore* master_store_;
  RouterOptions options_;

  GraphPartition partition_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;
  /// Data-plane road to the shards (a ThreadedTransport, possibly
  /// decorated). Null until Build(). Declared after shards_, so it is
  /// destroyed first and its workers never touch a dead engine.
  std::unique_ptr<ShardTransport> transport_;
  std::unique_ptr<ShardHealthTracker> health_;
  /// Owner + rule mirror of the master store (resource-id indexed).
  std::vector<RouterResource> resources_;
  /// Router-side binds against the master dictionaries (rule-id
  /// indexed; ids identical in every shard).
  std::vector<std::vector<RouterPath>> paths_;
  bool built_ = false;

  mutable std::mutex topo_mu_;
  std::shared_ptr<const ShardTopology> topo_;

  /// Serializes router-level mutation protocols (cut-edge both-shards
  /// sequences, the AddNode fan-out, label pre-interning) against each
  /// other so concurrent callers cannot interleave their multi-shard
  /// steps. Per-shard serialization happens in the shard engines'
  /// MutationQueues; this lock only orders the router's own protocol.
  std::mutex write_mu_;
  /// Writer-side per-shard node loads, for AddNode placement. Guarded
  /// by write_mu_.
  std::vector<size_t> loads_;

  struct AtomicCounters {
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> cross_shard_checks{0};
    std::atomic<uint64_t> local_conclusive{0};
    std::atomic<uint64_t> summary_resolved{0};
    std::atomic<uint64_t> fallback_walks{0};
    std::atomic<uint64_t> cross_fallback_walks{0};
    std::atomic<uint64_t> fallback_rounds{0};
    std::atomic<uint64_t> stale_summary_fallbacks{0};
    std::atomic<uint64_t> capped_compositions{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> degraded_answers{0};
    std::atomic<uint64_t> unavailable_errors{0};
    // breaker_opens lives on the ShardHealthTracker.
  };
  mutable AtomicCounters counters_;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_ROUTER_H_
