#ifndef SARGUS_SHARD_SHARD_ENGINE_H_
#define SARGUS_SHARD_SHARD_ENGINE_H_

/// \file shard_engine.h
/// \brief One shard of the sharded serving tier: an AccessControlEngine
/// over the shard's induced subgraph (plus its side of every cut edge),
/// spoken to exclusively through the typed messages of shard/wire.h.
///
/// A ShardEngine is the unit that would become a server process in a
/// distributed deployment; today the router reaches it in-process
/// through ShardTransport, which hands it the request structs directly.
/// It answers:
///
///   * CheckBatch — plain access decisions over the shard-local graph,
///     one positional reply per request (authoritative for a grant, since
///     shard-local edges are a subset of global edges; the router's
///     owner phase);
///   * ExpandFrontier — run a frame of product-space walks against one
///     pinned read view, each seeded either at a resource owner (phase
///     one) or at an imported frontier (frontier rounds), returning per
///     walk acceptance plus every configuration that escaped into nodes
///     this shard does not own;
///   * Mutate / SubmitMutate — the mutation entry points, delegating to
///     the wrapped engine's MPSC MutationQueue (engine/write_queue.h):
///     SubmitMutate enqueues and returns the WriteTicket, Mutate is the
///     Submit+Wait composition. Safe from any number of threads; the
///     per-shard writer thread group-commits concurrent mutations. A
///     mutation names its label by id only; the router interns names
///     into every shard first (InternLabel), so ids stay aligned.
///
/// A ShardEngine owns its extracted graph copy and shares the router's
/// one immutable copy of the master policy store, so rule ids in wire
/// messages mean the same everywhere by construction. At every shard
/// count the caller's graph and store are never written.

#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "engine/access_engine.h"
#include "shard/topology.h"
#include "shard/wire.h"

namespace sargus {

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
  /// Takes ownership of the extracted shard graph and a share of the
  /// router's policy store, which nothing writes after Build.
  ShardEngine(uint32_t id, std::unique_ptr<SocialGraph> graph,
              std::shared_ptr<const PolicyStore> store,
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

 private:
  uint32_t id_;
  std::unique_ptr<SocialGraph> graph_;
  std::shared_ptr<const PolicyStore> store_;
  AccessControlEngine engine_;  // after the owned pieces: ctor order

  mutable std::mutex topo_mu_;
  std::shared_ptr<const ShardTopology> topology_;
};

/// The handler for each request message as one overload set, so the
/// transports dispatch every request kind through one code path.
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
