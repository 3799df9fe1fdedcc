#include "engine/read_view.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "query/audience.h"
#include "query/eval_context.h"

namespace sargus {

namespace {

/// Same-resource batch groups at least this large are answered with one
/// shared audience walk per rule path instead of one product search per
/// request (see CheckAccessBatch).
constexpr size_t kBatchAudienceCutoff = 4;

}  // namespace

std::shared_ptr<const PolicySnapshot> PolicySnapshot::Build(
    const PolicyStore& store, const SocialGraph& graph) {
  auto policy = std::make_shared<PolicySnapshot>();
  policy->source_num_resources = store.NumResources();
  policy->source_num_rules = store.NumRules();

  policy->resources.reserve(store.NumResources());
  for (ResourceId id = 0; id < store.NumResources(); ++id) {
    const PolicyStore::Resource& res = store.resource(id);
    policy->resources.push_back({res.owner, res.rules});
  }

  // Rule sets repeat a few expressions across many resources, so each
  // distinct expression is bound and compiled once and shared. The store
  // holds parsed expressions, and ToString() round-trips through the
  // parser, so equal text means an equal expression.
  std::unordered_map<std::string, CompiledPath> compiled;
  policy->rules.resize(store.NumRules());
  for (RuleId id = 0; id < store.NumRules(); ++id) {
    CompiledRule& rule = policy->rules[id];
    for (const PathExpression& path : store.rule(id).paths) {
      auto [it, fresh] = compiled.try_emplace(path.ToString());
      CompiledPath& cp = it->second;
      if (fresh) {
        auto bound = BoundPathExpression::Bind(path, graph);
        if (!bound.ok()) {
          cp.bind_status = bound.status();
        } else {
          cp.bound =
              std::make_shared<const BoundPathExpression>(std::move(*bound));
          policy->has_backward_step_ |= cp.bound->HasBackwardStep();
        }
      }
      rule.paths.push_back(cp);
    }
  }
  return policy;
}

AccessReadView::AccessReadView(const SocialGraph& graph,
                               std::shared_ptr<const CsrSnapshot> csr,
                               std::shared_ptr<const PolicySnapshot> policy,
                               const DeltaOverlay& overlay,
                               uint64_t snapshot_generation)
    : graph_(&graph),
      csr_(std::move(csr)),
      policy_(std::move(policy)),
      overlay_(overlay),
      logical_num_nodes_(LogicalNumNodes(*csr_, &overlay_)),
      snapshot_generation_(snapshot_generation) {}

std::shared_ptr<const AccessReadView> AccessReadView::Create(
    const SocialGraph& graph, std::shared_ptr<const CsrSnapshot> csr,
    std::shared_ptr<const PolicySnapshot> policy, const DeltaOverlay& overlay,
    uint64_t snapshot_generation) {
  return std::shared_ptr<const AccessReadView>(new AccessReadView(
      graph, std::move(csr), std::move(policy), overlay, snapshot_generation));
}

Result<AccessDecision> AccessReadView::CheckAccess(
    const AccessRequest& request, EvalContext& ctx) const {
  if (request.resource >= policy_->resources.size()) {
    return Status::NotFound("CheckAccess: unknown resource id " +
                            std::to_string(request.resource));
  }
  if (request.requester >= logical_num_nodes_) {
    return Status::InvalidArgument(
        "CheckAccess: requester outside this view's snapshot");
  }
  return CheckResolved(policy_->resources[request.resource], request, ctx);
}

Result<AccessDecision> AccessReadView::CheckAccess(
    const AccessRequest& request) const {
  return CheckAccess(request, ThreadLocalEvalContext());
}

Result<AccessDecision> AccessReadView::CheckResolved(
    const PolicySnapshot::ResourceEntry& res, const AccessRequest& request,
    EvalContext& ctx) const {
  // The policy store accepts any owner id, and a resource owned by a
  // node added after this view was published is not decidable against
  // its frozen snapshot: every rule walk would seed at the owner, past
  // the scratch arrays sized at snapshot time. Fail loudly instead.
  if (res.owner >= logical_num_nodes_) {
    return Status::InvalidArgument(
        "CheckAccess: resource owner outside this view's snapshot");
  }
  AccessDecision decision;
  decision.requester = request.requester;
  decision.resource = request.resource;
  decision.snapshot_generation = snapshot_generation_;
  decision.overlay_version = overlay_.version();

  if (res.owner == request.requester) {
    decision.granted = true;
    decision.owner_access = true;
    decision.evaluator_name = "owner";
    return decision;
  }

  // A rule set is a disjunction: one expression failing to bind must
  // not mask a grant another expression would produce. Bind errors are
  // remembered and only surface when nothing grants. A bound path walks
  // without further checks: both endpoints are range-checked above,
  // Bind rejects empty expressions, and the policy was bound against
  // this view's graph.
  std::optional<Status> first_error;
  for (const RuleId rule_id : res.rules) {
    for (const PolicySnapshot::CompiledPath& path :
         policy_->rules[rule_id].paths) {
      if (!path.bind_status.ok()) {
        if (!first_error) first_error = path.bind_status;
        continue;
      }
      Evaluation r = ForwardProductSearch(
          *graph_, *csr_, path.bound->automaton(), res.owner,
          request.requester, request.want_witness, ctx.scratch, &overlay_);
      decision.stats.pairs_visited += r.stats.pairs_visited;
      decision.evaluator_name = "online-bfs";
      if (r.granted) {
        decision.granted = true;
        decision.matched_rule = rule_id;
        decision.witness = std::move(r.witness);
        break;
      }
    }
    if (decision.granted) break;
  }
  // Nothing granted and at least one expression could not be bound:
  // stay loud about the misconfiguration rather than reporting a
  // confident deny.
  if (!decision.granted && first_error.has_value()) {
    return *first_error;
  }
  return decision;
}

bool AccessReadView::AllPathsBindable(
    const PolicySnapshot::ResourceEntry& res) const {
  for (const RuleId rule_id : res.rules) {
    for (const PolicySnapshot::CompiledPath& path :
         policy_->rules[rule_id].paths) {
      if (!path.bind_status.ok()) return false;
    }
  }
  return true;
}

void AccessReadView::CheckGroupByAudience(
    const PolicySnapshot::ResourceEntry& res,
    std::span<const AccessRequest> requests,
    std::span<const uint32_t> group,
    std::vector<std::optional<Result<AccessDecision>>>& slots,
    EvalContext& ctx) const {
  // One decision per request, deny until some rule's audience admits it.
  std::vector<uint32_t> remaining(group.begin(), group.end());
  for (const uint32_t slot : group) {
    AccessDecision d;
    d.requester = requests[slot].requester;
    d.resource = requests[slot].resource;
    d.snapshot_generation = snapshot_generation_;
    d.overlay_version = overlay_.version();
    d.evaluator_name = "batch-audience";
    slots[slot].emplace(std::move(d));
  }
  for (const RuleId rule_id : res.rules) {
    if (remaining.empty()) break;
    for (const PolicySnapshot::CompiledPath& path :
         policy_->rules[rule_id].paths) {
      if (remaining.empty()) break;
      // One product walk from the owner answers the whole group: the
      // audience is exactly the set of requesters this path grants
      // (sorted, so membership is a binary search).
      std::vector<NodeId> audience = CollectMatchingAudience(
          *graph_, *csr_, *path.bound, res.owner, &ctx, &overlay_);
      std::erase_if(remaining, [&](uint32_t slot) {
        if (!std::binary_search(audience.begin(), audience.end(),
                                requests[slot].requester)) {
          return false;
        }
        AccessDecision& d = **slots[slot];
        d.granted = true;
        d.matched_rule = rule_id;
        return true;
      });
    }
  }
}

std::vector<Result<AccessDecision>> AccessReadView::CheckAccessBatch(
    std::span<const AccessRequest> requests, EvalContext& ctx) const {
  // Group by resource: requests for one resource resolve its entry and
  // compiled rules together, share one scratch context — and, when the
  // group is large enough, share the traversal itself (one audience
  // walk per rule path instead of one product search per request).
  std::vector<uint32_t> order(requests.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return requests[a].resource < requests[b].resource;
  });

  std::vector<std::optional<Result<AccessDecision>>> slots(requests.size());
  std::vector<uint32_t> audience_eligible;
  size_t i = 0;
  while (i < order.size()) {
    const ResourceId resource = requests[order[i]].resource;
    size_t end = i;
    while (end < order.size() && requests[order[end]].resource == resource) {
      ++end;
    }
    if (resource >= policy_->resources.size()) {
      for (; i < end; ++i) {
        slots[order[i]].emplace(
            Status::NotFound("CheckAccess: unknown resource id " +
                             std::to_string(resource)));
      }
      continue;
    }
    const PolicySnapshot::ResourceEntry& res = policy_->resources[resource];
    // First pass: requests that need the per-request path — malformed
    // ones, owner short-circuits (no traversal at all), and requests
    // asking for a witness, which the shared walk cannot extract.
    audience_eligible.clear();
    for (size_t k = i; k < end; ++k) {
      const uint32_t slot = order[k];
      const AccessRequest& request = requests[slot];
      if (request.requester >= logical_num_nodes_) {
        slots[slot].emplace(Status::InvalidArgument(
            "CheckAccess: requester outside this view's snapshot"));
      } else if (res.owner >= logical_num_nodes_ ||
                 res.owner == request.requester || request.want_witness) {
        slots[slot].emplace(CheckResolved(res, request, ctx));
      } else {
        audience_eligible.push_back(slot);
      }
    }
    // Second pass: the shared audience walk needs every path bindable
    // (a failed bind must surface per request under disjunction
    // semantics); below the cutoff the per-request path is cheaper.
    if (audience_eligible.size() >= kBatchAudienceCutoff &&
        AllPathsBindable(res)) {
      CheckGroupByAudience(res, requests, audience_eligible, slots, ctx);
    } else {
      for (const uint32_t slot : audience_eligible) {
        slots[slot].emplace(CheckResolved(res, requests[slot], ctx));
      }
    }
    i = end;
  }

  std::vector<Result<AccessDecision>> out;
  out.reserve(requests.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

std::vector<Result<AccessDecision>> AccessReadView::CheckAccessBatch(
    std::span<const AccessRequest> requests) const {
  return CheckAccessBatch(requests, ThreadLocalEvalContext());
}

}  // namespace sargus
