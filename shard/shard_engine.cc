#include "shard/shard_engine.h"

#include <string>
#include <utility>
#include <vector>

#include "query/eval_context.h"
#include "query/product_walker.h"

namespace sargus {

Result<PolicyStore> ClonePolicyStore(const PolicyStore& store) {
  PolicyStore copy;
  for (ResourceId r = 0; r < store.NumResources(); ++r) {
    const PolicyStore::Resource& res = store.resource(r);
    const ResourceId assigned = copy.RegisterResource(res.owner, res.name);
    if (assigned != r) {
      return Status::Internal("ClonePolicyStore: resource id drifted");
    }
  }
  for (RuleId id = 0; id < store.NumRules(); ++id) {
    const PolicyStore::Rule& rule = store.rule(id);
    std::vector<std::string> paths;
    paths.reserve(rule.paths.size());
    for (const PathExpression& p : rule.paths) paths.push_back(p.ToString());
    SARGUS_ASSIGN_OR_RETURN(const RuleId assigned,
                            copy.AddRuleFromPaths(rule.resource, paths));
    if (assigned != id) {
      return Status::Internal("ClonePolicyStore: rule id drifted");
    }
  }
  return copy;
}

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
                         std::unique_ptr<PolicyStore> store,
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

wire::CheckReply ShardEngine::Check(const wire::CheckRequest& request) const {
  return ToWire(engine_.CheckAccess(FromWire(request)));
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

wire::WalkReply WalkError(const Status& status) {
  wire::WalkReply reply;
  reply.status_code = wire::PackStatus(status);
  reply.error = std::string(status.message());
  return reply;
}

}  // namespace

wire::WalkReply ShardEngine::ExpandFrontier(
    const wire::WalkRequest& request) const {
  const auto view = engine_.AcquireReadView();
  if (view == nullptr) {
    return WalkError(
        Status::FailedPrecondition("ExpandFrontier: indexes not built"));
  }
  const PolicySnapshot& policy = view->policy();
  if (request.rule >= policy.rules.size() ||
      request.path >= policy.rules[request.rule].paths.size()) {
    return WalkError(Status::InvalidArgument(
        "ExpandFrontier: rule/path out of range"));
  }
  const PolicySnapshot::CompiledPath& cp =
      policy.rules[request.rule].paths[request.path];
  if (!cp.bind_status.ok() || cp.bound == nullptr) {
    return WalkError(cp.bind_status.ok()
                         ? Status::FailedPrecondition(
                               "ExpandFrontier: path not compiled")
                         : cp.bind_status);
  }
  const HopAutomaton& nfa = cp.bound->automaton();
  const uint32_t num_states = nfa.NumStates();
  const size_t logical = view->logical_num_nodes();
  if (request.requester >= logical) {
    return WalkError(
        Status::InvalidArgument("ExpandFrontier: requester out of range"));
  }
  const std::vector<uint32_t> residual = wire::ResidualHopBudgets(nfa);
  if (request.seed == wire::WalkSeed::kOwnerStarts) {
    if (request.owner >= logical) {
      return WalkError(
          Status::InvalidArgument("ExpandFrontier: owner out of range"));
    }
  } else {
    for (const wire::FrontierEntry& e : request.frontier) {
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

  const auto topo = topology();
  QueryScratch& scratch = ThreadLocalEvalContext().scratch;
  ProductWalker walker(view->graph(), view->csr(), nfa, scratch,
                       /*track_parents=*/false, &view->overlay());
  if (request.seed == wire::WalkSeed::kOwnerStarts) {
    walker.SeedStarts(request.owner);
  } else {
    for (const wire::FrontierEntry& e : request.frontier) {
      walker.Push(e.node, e.state, kInvalidNode, 0);
    }
  }

  wire::WalkReply reply;
  bool accepted = false;
  auto on_accept = [&](NodeId entered, NodeId, uint32_t) {
    if (entered != request.requester) return false;
    accepted = true;
    return true;
  };
  // Fresh configurations at nodes another shard owns are exported as
  // entry points; the walk still continues THROUGH them over this
  // shard's local edges (sound — local edges are a subset of global
  // edges — and it shortens the composition fixpoint).
  auto on_push = [&](NodeId node, uint32_t state) {
    if (topo != nullptr && node < topo->shard_of.size() &&
        topo->shard_of[node] != id_) {
      reply.exports.push_back({node, state, residual[state]});
    }
    return false;
  };
  while (walker.Remaining() > 0 && !accepted) {
    walker.Step(on_accept, on_push);
  }

  reply.accepted = accepted ? 1 : 0;
  reply.pairs_visited = walker.pairs_visited();
  reply.stamp = {view->snapshot_generation(), view->overlay_version()};
  return reply;
}

WriteTicket ShardEngine::SubmitMutate(const wire::MutateRequest& request) {
  switch (request.op) {
    case wire::MutateOp::kAddEdge:
      return request.label != kInvalidLabel
                 ? engine_.SubmitAddEdge(request.src, request.dst,
                                         request.label)
                 : engine_.SubmitAddEdge(request.src, request.dst,
                                         request.label_name);
    case wire::MutateOp::kRemoveEdge:
      return request.label != kInvalidLabel
                 ? engine_.SubmitRemoveEdge(request.src, request.dst,
                                            request.label)
                 : engine_.SubmitRemoveEdge(request.src, request.dst,
                                            request.label_name);
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

Status ShardEngine::RefreshSummary(const ShardTopology& topology) {
  const auto view = engine_.AcquireReadView();
  if (view == nullptr) {
    return Status::FailedPrecondition("RefreshSummary: indexes not built");
  }
  if (id_ >= topology.boundary.size()) {
    return Status::InvalidArgument("RefreshSummary: shard id not in topology");
  }
  SARGUS_ASSIGN_OR_RETURN(
      BoundarySummary built,
      BoundarySummary::Build(
          view->graph(), view->csr(), view->overlay(),
          topology.boundary[id_], view->policy(),
          {view->snapshot_generation(), view->overlay_version()}));
  auto shared = std::make_shared<const BoundarySummary>(std::move(built));
  std::lock_guard<std::mutex> lock(summary_mu_);
  summary_ = std::move(shared);
  return OkStatus();
}

std::shared_ptr<const BoundarySummary> ShardEngine::summary() const {
  std::lock_guard<std::mutex> lock(summary_mu_);
  return summary_;
}

std::vector<uint8_t> ShardEngine::HandleFrame(std::span<const uint8_t> frame) {
  Result<wire::Message> parsed = wire::ParseMessage(frame);
  if (!parsed.ok()) {
    wire::ErrorFrame err;
    err.status_code = wire::PackStatus(parsed.status());
    err.message = parsed.status().message();
    return wire::Encode(err);
  }
  wire::Message& msg = *parsed;
  if (auto* check = std::get_if<wire::CheckRequest>(&msg)) {
    return wire::Encode(Check(*check));
  }
  if (auto* batch = std::get_if<wire::BatchCheckRequest>(&msg)) {
    return wire::Encode(CheckBatch(*batch));
  }
  if (auto* walk = std::get_if<wire::WalkRequest>(&msg)) {
    return wire::Encode(ExpandFrontier(*walk));
  }
  if (auto* mutate = std::get_if<wire::MutateRequest>(&msg)) {
    return wire::Encode(Mutate(*mutate));
  }
  // A syntactically valid frame that is not a request (a reply or an
  // error frame): refuse it explicitly.
  wire::ErrorFrame err;
  err.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  err.message = "shard: frame is not a request message";
  return wire::Encode(err);
}

}  // namespace sargus
