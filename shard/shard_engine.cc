#include "shard/shard_engine.h"

#include <string>
#include <utility>
#include <vector>

#include "query/eval_context.h"
#include "query/product_walker.h"

namespace sargus {

wire::CheckRequest ToWire(const AccessRequest& request) {
  wire::CheckRequest w;
  w.requester = request.requester;
  w.resource = request.resource;
  w.want_witness = request.want_witness ? 1 : 0;
  return w;
}

AccessRequest FromWire(const wire::CheckRequest& request) {
  AccessRequest r;
  r.requester = request.requester;
  r.resource = request.resource;
  r.want_witness = request.want_witness != 0;
  return r;
}

wire::CheckReply ToWire(const Result<AccessDecision>& decision) {
  wire::CheckReply w;
  if (!decision.ok()) {
    w.status_code = wire::PackStatus(decision.status());
    w.error = std::string(decision.status().message());
    return w;
  }
  const AccessDecision& d = *decision;
  w.granted = d.granted ? 1 : 0;
  w.owner_access = d.owner_access ? 1 : 0;
  if (d.matched_rule.has_value()) {
    w.has_matched_rule = 1;
    w.matched_rule = *d.matched_rule;
  }
  w.pairs_visited = d.stats.pairs_visited;
  w.stamp = {d.snapshot_generation, d.overlay_version};
  w.witness = d.witness;
  return w;
}

Result<AccessDecision> FromWire(const wire::CheckReply& reply,
                                NodeId requester, ResourceId resource) {
  if (reply.status_code != 0) {
    return wire::UnpackStatus(reply.status_code, reply.error);
  }
  AccessDecision d;
  d.granted = reply.granted != 0;
  d.requester = requester;
  d.resource = resource;
  if (reply.has_matched_rule != 0) d.matched_rule = reply.matched_rule;
  d.owner_access = reply.owner_access != 0;
  d.stats.pairs_visited = reply.pairs_visited;
  d.witness = reply.witness;
  d.evaluator_name = "shard-local";
  d.snapshot_generation = reply.stamp.snapshot_generation;
  d.overlay_version = reply.stamp.overlay_version;
  return d;
}

ShardEngine::ShardEngine(uint32_t id, std::unique_ptr<SocialGraph> graph,
                         std::shared_ptr<const PolicyStore> store,
                         const EngineOptions& options)
    : id_(id),
      graph_(std::move(graph)),
      store_(std::move(store)),
      engine_(*graph_, *store_, options) {}

void ShardEngine::SetTopology(std::shared_ptr<const ShardTopology> topology) {
  std::lock_guard<std::mutex> lock(topo_mu_);
  topology_ = std::move(topology);
}

std::shared_ptr<const ShardTopology> ShardEngine::topology() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  return topology_;
}

wire::Stamp ShardEngine::ViewStamp() const {
  const auto view = engine_.AcquireReadView();
  if (view == nullptr) return {};
  return {view->snapshot_generation(), view->overlay_version()};
}

wire::BatchCheckReply ShardEngine::CheckBatch(
    const wire::BatchCheckRequest& request) const {
  std::vector<AccessRequest> requests;
  requests.reserve(request.requests.size());
  for (const wire::CheckRequest& r : request.requests) {
    requests.push_back(FromWire(r));
  }
  wire::BatchCheckReply reply;
  for (const Result<AccessDecision>& d : engine_.CheckAccessBatch(requests)) {
    reply.replies.push_back(ToWire(d));
  }
  return reply;
}

namespace {

wire::WalkResult WalkError(const Status& status) {
  wire::WalkResult result;
  result.status_code = wire::PackStatus(status);
  result.error = std::string(status.message());
  return result;
}

/// Runs one walk against `view`, exporting every fresh configuration at
/// a node `topo` assigns to a shard other than `shard`.
wire::WalkResult RunWalk(const AccessReadView& view, const ShardTopology* topo,
                         uint32_t shard, const wire::Walk& walk) {
  const PolicySnapshot& policy = view.policy();
  if (walk.rule >= policy.rules.size() ||
      walk.path >= policy.rules[walk.rule].paths.size()) {
    return WalkError(
        Status::InvalidArgument("ExpandFrontier: rule/path out of range"));
  }
  const PolicySnapshot::CompiledPath& cp =
      policy.rules[walk.rule].paths[walk.path];
  if (!cp.bind_status.ok() || cp.bound == nullptr) {
    return WalkError(cp.bind_status.ok()
                         ? Status::FailedPrecondition(
                               "ExpandFrontier: path not compiled")
                         : cp.bind_status);
  }
  const HopAutomaton& nfa = cp.bound->automaton();
  const uint32_t num_states = nfa.NumStates();
  const size_t logical = view.logical_num_nodes();
  if (walk.requester >= logical) {
    return WalkError(
        Status::InvalidArgument("ExpandFrontier: requester out of range"));
  }
  const std::vector<uint32_t> residual = wire::ResidualHopBudgets(nfa);
  if (walk.seed == wire::WalkSeed::kOwnerStarts) {
    if (walk.owner >= logical) {
      return WalkError(
          Status::InvalidArgument("ExpandFrontier: owner out of range"));
    }
  } else {
    for (const wire::FrontierEntry& e : walk.frontier) {
      if (e.node >= logical || e.state >= num_states) {
        return WalkError(Status::InvalidArgument(
            "ExpandFrontier: frontier entry out of range"));
      }
      if (e.residual_hops != residual[e.state]) {
        // A residual the receiver derives differently means the two
        // sides compiled different automata — diverged policy or label
        // dictionaries, never safe to walk through.
        return WalkError(Status::InvalidArgument(
            "ExpandFrontier: residual-hop mismatch (diverged automata?)"));
      }
    }
  }

  QueryScratch& scratch = ThreadLocalEvalContext().scratch;
  ProductWalker walker(view.graph(), view.csr(), nfa, scratch,
                       /*track_parents=*/false, &view.overlay());
  if (walk.seed == wire::WalkSeed::kOwnerStarts) {
    walker.SeedStarts(walk.owner);
  } else {
    for (const wire::FrontierEntry& e : walk.frontier) {
      walker.Push(e.node, e.state);
    }
  }

  wire::WalkResult result;
  bool accepted = false;
  auto on_accept = [&](NodeId entered, NodeId, uint32_t) {
    if (entered != walk.requester) return false;
    accepted = true;
    return true;
  };
  // Fresh configurations at nodes another shard owns are exported as
  // entry points; the walk still continues THROUGH them over this
  // shard's local edges (sound — local edges are a subset of global
  // edges — and it cuts the rounds the exchange needs).
  auto on_push = [&](NodeId node, uint32_t state) {
    if (topo != nullptr && node < topo->shard_of.size() &&
        topo->shard_of[node] != shard) {
      result.exports.push_back({node, state, residual[state]});
    }
    return false;
  };
  while (walker.Remaining() > 0 && !accepted) {
    walker.Step(on_accept, on_push);
  }

  result.accepted = accepted ? 1 : 0;
  result.pairs_visited = walker.pairs_visited();
  return result;
}

}  // namespace

wire::WalkReply ShardEngine::ExpandFrontier(
    const wire::WalkRequest& request) const {
  // One view and one topology for the whole frame: every walk in it
  // sees the same published state, and the reply carries its stamp.
  const auto view = engine_.AcquireReadView();
  wire::WalkReply reply;
  reply.results.reserve(request.walks.size());
  if (view == nullptr) {
    const wire::WalkResult unbuilt = WalkError(
        Status::FailedPrecondition("ExpandFrontier: indexes not built"));
    reply.results.assign(request.walks.size(), unbuilt);
    return reply;
  }
  const auto topo = topology();
  for (const wire::Walk& walk : request.walks) {
    reply.results.push_back(RunWalk(*view, topo.get(), id_, walk));
  }
  reply.stamp = {view->snapshot_generation(), view->overlay_version()};
  return reply;
}

WriteTicket ShardEngine::SubmitMutate(const wire::MutateRequest& request) {
  switch (request.op) {
    case wire::MutateOp::kAddEdge:
      return engine_.SubmitAddEdge(request.src, request.dst, request.label);
    case wire::MutateOp::kRemoveEdge:
      return engine_.SubmitRemoveEdge(request.src, request.dst, request.label);
    case wire::MutateOp::kAddNode:
      return engine_.SubmitAddNode();
  }
  return WriteTicket();  // unknown op: invalid ticket (Wait fails)
}

wire::MutateReply ShardEngine::ReplyFromOutcome(
    const wire::MutateRequest& request, const WriteOutcome& outcome) {
  wire::MutateReply reply;
  reply.status_code = wire::PackStatus(outcome.status);
  if (!outcome.status.ok()) {
    reply.error = std::string(outcome.status.message());
  } else if (request.op == wire::MutateOp::kAddNode) {
    reply.new_node = outcome.node;
  }
  // The ticket's stamp, not a racy re-read of the engine counters: the
  // exact (generation, overlay_version) the mutation landed in even
  // when other producers committed in the same or a later batch.
  reply.stamp = {outcome.generation, outcome.overlay_version};
  return reply;
}

wire::MutateReply ShardEngine::Mutate(const wire::MutateRequest& request) {
  return ReplyFromOutcome(request, SubmitMutate(request).Wait());
}

}  // namespace sargus
