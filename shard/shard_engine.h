#ifndef SARGUS_SHARD_SHARD_ENGINE_H_
#define SARGUS_SHARD_SHARD_ENGINE_H_

/// \file shard_engine.h
/// \brief One shard of the sharded serving tier: an AccessControlEngine
/// over the shard's induced subgraph (plus its side of every cut edge),
/// spoken to exclusively through the wire messages of shard/wire.h.
///
/// A ShardEngine is the unit that would become a server process in a
/// distributed deployment. It answers:
///
///   * Check / CheckBatch — plain access decisions over the shard-local
///     graph (authoritative when the resource's whole rule evaluation
///     stays inside the shard; a building block otherwise);
///   * ExpandFrontier — run a product-space walk seeded either at a
///     resource owner (phase one) or at an imported frontier (phase two
///     and fallback rounds), returning acceptance plus every
///     configuration that escaped into nodes this shard does not own;
///   * Mutate / SubmitMutate — the mutation entry points, delegating to
///     the wrapped engine's MPSC MutationQueue (engine/write_queue.h):
///     SubmitMutate enqueues and returns the WriteTicket, Mutate is the
///     Submit+Wait composition. Safe from any number of threads; the
///     per-shard writer thread group-commits concurrent mutations;
///   * RefreshSummary — (re)build the shard's boundary summary against
///     its current read view.
///
/// A ShardEngine owns its extracted graph copy and a clone of the master
/// policy store (identical resource/rule ids — see ClonePolicyStore), at
/// every shard count: an N = 1 router copies the whole graph into its
/// one shard, so the caller's graph and store are never written.

#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "engine/access_engine.h"
#include "shard/boundary_summary.h"
#include "shard/topology.h"
#include "shard/wire.h"

namespace sargus {

/// Deep copy of `store` preserving every ResourceId and RuleId (replayed
/// in id order through the public registration API; path expressions
/// round-trip through their canonical text form). The sharded tier
/// clones the master store per shard so rule ids in wire messages mean
/// the same thing everywhere.
Result<PolicyStore> ClonePolicyStore(const PolicyStore& store);

// Wire <-> engine request/decision conversion, shared by the router and
// the shard engines.
wire::CheckRequest ToWire(const AccessRequest& request);
AccessRequest FromWire(const wire::CheckRequest& request);
wire::CheckReply ToWire(const Result<AccessDecision>& decision);
/// Rebuilds the engine-shaped decision; `requester`/`resource` come from
/// the request the reply answered (the wire reply does not repeat them).
Result<AccessDecision> FromWire(const wire::CheckReply& reply,
                                NodeId requester, ResourceId resource);

class ShardEngine {
 public:
  /// Takes ownership of the extracted shard graph and the cloned policy
  /// store.
  ShardEngine(uint32_t id, std::unique_ptr<SocialGraph> graph,
              std::unique_ptr<PolicyStore> store,
              const EngineOptions& options);

  /// Builds the wrapped engine's indexes; required before any request.
  Status Build() { return engine_.RebuildIndexes(); }

  AccessControlEngine& engine() { return engine_; }
  const AccessControlEngine& engine() const { return engine_; }

  /// Interns `name` into the shard graph's label dictionary, returning
  /// the id. The router pre-interns new labels into every shard (shard 0
  /// first) so ids stay aligned; see ShardRouter::AddEdge.
  LabelId InternLabel(const std::string& name) {
    return graph_->labels().Intern(name);
  }
  /// The id of `name` in the shard graph's label dictionary, or
  /// kInvalidLabel.
  LabelId LookupLabel(const std::string& name) const {
    return graph_->labels().Lookup(name);
  }

  /// Publishes / pins the current shard map (copy-on-write; see
  /// shard/topology.h).
  void SetTopology(std::shared_ptr<const ShardTopology> topology);
  std::shared_ptr<const ShardTopology> topology() const;

  /// Stamps of the currently published read view (what replies carry).
  wire::Stamp ViewStamp() const;

  // ---- Wire request handlers (all thread-safe; mutations are
  // serialized by the engine's per-shard MutationQueue) ---------------------

  wire::CheckReply Check(const wire::CheckRequest& request) const;
  wire::BatchCheckReply CheckBatch(const wire::BatchCheckRequest& request) const;
  wire::WalkReply ExpandFrontier(const wire::WalkRequest& request) const;
  wire::MutateReply Mutate(const wire::MutateRequest& request);

  /// Async mutation: enqueues on the shard engine's MutationQueue and
  /// returns the ticket immediately. The router's AddNode fan-out uses
  /// this to run the all-shards id-alignment round concurrently; the
  /// reply a waited ticket yields is ReplyFromOutcome(request, Wait()).
  WriteTicket SubmitMutate(const wire::MutateRequest& request);

  /// Packs a completed ticket outcome into the wire reply `Mutate`
  /// would have returned: per-op status, the exact (generation,
  /// overlay_version) stamp the mutation landed in, and the assigned id
  /// for kAddNode.
  static wire::MutateReply ReplyFromOutcome(const wire::MutateRequest& request,
                                            const WriteOutcome& outcome);

  /// Byte-level dispatch: the entry point a socket server loop would
  /// hand incoming frames to. Parses `frame`, routes request messages
  /// to the handlers above, and returns the encoded reply. Anything
  /// unparseable or non-request (a reply or error frame is not a valid
  /// thing to SEND a shard) comes back as an encoded wire::ErrorFrame —
  /// garbage in, a clean validated error frame out, never a crash.
  /// A kMutateRequest routed through HandleFrame goes through the
  /// engine's MutationQueue like every other mutation, so concurrent
  /// byte-level callers are safe (serialized by submission order).
  std::vector<uint8_t> HandleFrame(std::span<const uint8_t> frame);

  // ---- Boundary summary ---------------------------------------------------

  /// Rebuilds this shard's boundary summary from its current read view
  /// and `topology`'s boundary list, stamped with the view's stamps.
  Status RefreshSummary(const ShardTopology& topology);

  /// The last built summary (null before the first RefreshSummary). The
  /// router checks its stamp against ViewStamp() before trusting it.
  std::shared_ptr<const BoundarySummary> summary() const;

 private:
  uint32_t id_;
  std::unique_ptr<SocialGraph> graph_;
  std::unique_ptr<PolicyStore> store_;
  AccessControlEngine engine_;  // after the owned pieces: ctor order

  mutable std::mutex topo_mu_;
  std::shared_ptr<const ShardTopology> topology_;

  mutable std::mutex summary_mu_;
  std::shared_ptr<const BoundarySummary> summary_;
};

/// The handler for each request message as one overload set, so the
/// transports dispatch every request kind through one code path.
inline wire::CheckReply Serve(ShardEngine& shard,
                              const wire::CheckRequest& request) {
  return shard.Check(request);
}
inline wire::BatchCheckReply Serve(ShardEngine& shard,
                                   const wire::BatchCheckRequest& request) {
  return shard.CheckBatch(request);
}
inline wire::WalkReply Serve(ShardEngine& shard,
                             const wire::WalkRequest& request) {
  return shard.ExpandFrontier(request);
}
inline wire::MutateReply Serve(ShardEngine& shard,
                               const wire::MutateRequest& request) {
  return shard.Mutate(request);
}

}  // namespace sargus

#endif  // SARGUS_SHARD_SHARD_ENGINE_H_
