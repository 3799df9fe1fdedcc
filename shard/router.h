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
/// Decision procedure. CheckAccessBatch runs it for a whole batch, and
/// CheckAccess is a batch of one. It runs in rounds, and each round
/// sends at most one frame per shard:
///
///   1. *Owner phase*: one shard-local sub-batch per resource-owner
///      shard. A grant is authoritative (shard-local edges are a subset
///      of global edges); its matched rule is final when no earlier rule
///      of the resource is left that could grant across shards.
///   2. *Frontier exchange*: every slot the owner phase left open gets
///      one walk per (rule, path). The first frame per owner shard
///      seeds each such walk at the owner (phase one). Configurations a
///      walk pushes at nodes another shard owns come back as exports,
///      and frontier rounds ship them to their owning shards — one
///      frame per shard per round, carrying every walk with entries
///      there — until the walk accepts or reaches its fixpoint. Each
///      walk keeps its own processed set, so a (node, state)
///      configuration enters a shard at most once per walk, which
///      bounds the rounds. Exact at every step: a walk never guesses.
///
/// matched_rule is the first rule, in the resource's order, with a
/// reaching path: a grant drops only the slot's walks for its own and
/// later rules. The first error surfaces only when nothing grants.
/// Frames are gathered in ascending shard order, so two routers over
/// copies of one graph agree byte for byte, counters included.
///
/// Mutations route to the owning shard — both owners for a cut edge —
/// preserving each engine's single-writer contract. AddNode republishes
/// a copy-on-write topology with the new node's assignment.
///
/// The contract is the same at every N, 1 included: Build() copies the
/// caller's graph into per-shard graphs and the caller's store into one
/// immutable copy every shard shares, so neither is ever written
/// afterwards (mutations and compactions land in the shard copies), and
/// every data-plane call reaches its shard through the thread-per-shard
/// executor (shard/executor_transport.h). An N = 1 router is one copied
/// shard behind that executor, not a shortcut to a plain engine.
///
/// Robustness: every data-plane shard call goes through a
/// ShardTransport (shard/transport.h) under a retry / deadline /
/// circuit-breaker policy (RouterRobustnessOptions). A check whose
/// owner shard is unreachable fails with an explicit kUnavailable or
/// kDeadlineExceeded — a completed decision is always exact, a
/// non-answer is always an error, and a silently wrong grant or deny is
/// never returned. Control-plane operations (Build, AddNode,
/// CompactAll, stamp reads) stay direct in-process calls: they model
/// cluster management, which a real deployment runs over a reliable
/// coordination channel, not the request path.

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
#include "shard/executor_transport.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"
#include "shard/topology.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {

/// Retry / deadline / circuit-breaker policy for the router's data-
/// plane calls (see docs/ARCHITECTURE.md, "Failure model"). Every
/// transport call gets a per-attempt deadline; failed attempts retry
/// with exponential backoff + deterministic jitter under a
/// per-operation budget; a shard that keeps failing trips a breaker
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
};

struct RouterOptions {
  PartitionOptions partition;
  EngineOptions engine;
  /// Retry / deadline / breaker policy.
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
/// counters()).
struct RouterCounters {
  uint64_t checks = 0;
  /// Checks the owner phase left open (no owner grant, or an owner
  /// grant with an earlier rule still to try across shards).
  uint64_t cross_shard_checks = 0;
  /// Checks answered by the owner shard's local engine (grant).
  uint64_t local_conclusive = 0;
  /// Walks that outlived phase one and entered frontier rounds.
  uint64_t fallback_walks = 0;
  /// Checks with at least one walk in frontier rounds.
  uint64_t cross_fallback_walks = 0;
  /// Frontier rounds, summed over walks.
  uint64_t fallback_rounds = 0;
  /// Transport-call re-attempts (attempt 2+ of a logical call).
  uint64_t retries = 0;
  /// Transport attempts that ended kDeadlineExceeded.
  uint64_t timeouts = 0;
  /// Circuit-breaker open transitions (closed->open and re-opens).
  uint64_t breaker_opens = 0;
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

  /// `graph` and `store` must outlive the router and stay unmodified
  /// while it serves. Build() copies them into the shards; the router
  /// never writes them.
  ShardRouter(const SocialGraph& graph, const PolicyStore& store,
              RouterOptions options = {});

  /// Partitions, extracts, builds every shard engine, and publishes the
  /// initial topology.
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

  /// Positional batch, decided by the procedure in the file comment:
  /// one owner sub-batch per owner shard, then one walk frame per owner
  /// shard, then frontier rounds for all of the batch's walks together.
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
  // protocol atomic with respect to other router mutations — the one
  // cut-edge sequence AddEdge and RemoveEdge share (apply s1, apply s2,
  // undo s1 with the inverse op on transport failure) and the AddNode
  // all-shards id-alignment round never interleave — while inside each
  // shard the mutation rides the engine's queue like any other
  // producer's. The by-name overloads resolve the label to an id first
  // (AddEdge interns it into every shard; a full dictionary is
  // kResourceExhausted), so a shard frame never carries a name.

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

  /// Compacts every shard, waiting each out.
  Status CompactAll();

 private:
  struct RouterResource {
    NodeId owner = 0;
    std::vector<RuleId> rules;
  };

  void PublishTopology(std::shared_ptr<const ShardTopology> topo);

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

  /// One round: submits frames[s] for every shard with a non-empty
  /// frame before gathering any, then gathers in ascending shard order.
  /// Each frame's retry salt is `salt_base` mixed with its content.
  template <typename Request>
  std::vector<std::pair<uint32_t, Result<ReplyFor<Request>>>> ScatterGather(
      const std::vector<Request>& frames, uint64_t salt_base) const;

  /// The per-attempt deadline: `now` + call_deadline_ms, capped by the
  /// op budget's absolute deadline (either may be 0 = none).
  uint64_t AttemptDeadline(uint64_t now, uint64_t budget_deadline) const;

  /// One mutation as one robust logical transport call: BeginCall then
  /// FinishCall, salted by the request's content.
  Result<wire::MutateReply> CallMutate(uint32_t shard,
                                       const wire::MutateRequest& req) const;

  /// The one cut-edge protocol behind AddEdge and RemoveEdge (`op` is
  /// kAddEdge or kRemoveEdge; the label is an id every shard knows).
  /// Applies on src's shard, then on dst's; if dst's transport call
  /// fails after src's shard applied, src's shard is rolled back with
  /// the inverse op. Caller holds write_mu_.
  Status MutateEdge(wire::MutateOp op, NodeId src, NodeId dst,
                    LabelId label);

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
  /// Paths per rule (rule-id indexed; ids identical in every shard).
  std::vector<uint32_t> num_paths_;
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
    std::atomic<uint64_t> fallback_walks{0};
    std::atomic<uint64_t> cross_fallback_walks{0};
    std::atomic<uint64_t> fallback_rounds{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> unavailable_errors{0};
    // breaker_opens lives on the ShardHealthTracker.
  };
  mutable AtomicCounters counters_;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_ROUTER_H_
