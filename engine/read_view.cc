#include "engine/read_view.h"

#include <algorithm>
#include <numeric>

#include "query/closure_prefilter.h"
#include "query/eval_context.h"
#include "query/online_evaluator.h"
#include "synth/workload.h"

namespace sargus {

namespace {

/// Same-resource batch groups at least this large are answered with one
/// shared audience walk per rule path instead of one product search per
/// request (see CheckAccessBatch).
constexpr size_t kBatchAudienceCutoff = 4;

/// kAuto sends expressions expanding beyond this many line queries to
/// online search instead of the join index.
constexpr uint64_t kAutoMaxExpansions = 64;

/// Maps a request-level choice onto a concrete kind, using the path's
/// precomputed automatic pick for kAuto.
EvaluatorKind KindForChoice(EvaluatorChoice choice, EvaluatorKind auto_pick) {
  switch (choice) {
    case EvaluatorChoice::kAuto:
      return auto_pick;
    case EvaluatorChoice::kOnlineBfs:
      return EvaluatorKind::kOnlineBfs;
    case EvaluatorChoice::kJoinIndex:
      return EvaluatorKind::kJoinIndex;
  }
  return EvaluatorKind::kOnlineBfs;
}

/// The kAuto policy from the paper's deployment advice: the join index
/// wins on point queries unless it was never built, the expression needs
/// an orientation the line graph lacks, or it expands combinatorially.
EvaluatorKind AutoPick(const BoundPathExpression& expr,
                       const SnapshotIndexes& idx) {
  if (!idx.join_built) return EvaluatorKind::kOnlineBfs;
  if (expr.HasBackwardStep() && !idx.lg.includes_backward()) {
    return EvaluatorKind::kOnlineBfs;
  }
  if (expr.ExpansionCount() > kAutoMaxExpansions) {
    return EvaluatorKind::kOnlineBfs;
  }
  return EvaluatorKind::kJoinIndex;
}

}  // namespace

namespace {

/// The join-index stack (line graph, oracle, cluster index) is
/// by far the heaviest build; skip it entirely for online-only
/// configurations, which only need the CSR.
bool NeedJoinStack(const EngineOptions& options) {
  return options.evaluator == EvaluatorChoice::kAuto ||
         options.evaluator == EvaluatorChoice::kJoinIndex;
}

/// Finishes a bundle whose csr (and, when `lg_built`, line graph +
/// oracle) are already in place: the cluster index and closure are
/// always derived fresh — they are linear-ish in the line
/// graph, unlike the SCC/sweep work the incremental path avoids.
Status FinishBundle(SnapshotIndexes& idx, bool lg_built,
                    const EngineOptions& options) {
  if (NeedJoinStack(options)) {
    if (!lg_built) {
      idx.lg = LineGraph::Build(
          idx.csr, {.include_backward = options.line_graph_backward});
      auto oracle = LineReachabilityOracle::Build(idx.lg);
      if (!oracle.ok()) return oracle.status();
      idx.oracle = std::make_unique<LineReachabilityOracle>(std::move(*oracle));
    }
    auto cluster = ClusterJoinIndex::Build(idx.lg, *idx.oracle);
    if (!cluster.ok()) return cluster.status();
    idx.cluster = std::make_unique<ClusterJoinIndex>(std::move(*cluster));
    idx.join_built = true;
  }
  if (options.use_closure_prefilter) {
    // Undirected: sound for backward steps too (see closure_prefilter.h).
    idx.closure = std::make_unique<TransitiveClosure>(
        TransitiveClosure::Build(idx.csr, /*as_undirected=*/true));
  }
  return OkStatus();
}

}  // namespace

Result<std::shared_ptr<const SnapshotIndexes>> SnapshotIndexes::Build(
    const SocialGraph& graph, const EngineOptions& options) {
  auto idx = std::make_shared<SnapshotIndexes>();
  idx->csr = CsrSnapshot::Build(graph);
  SARGUS_RETURN_IF_ERROR(FinishBundle(*idx, /*lg_built=*/false, options));
  return std::shared_ptr<const SnapshotIndexes>(std::move(idx));
}

Result<std::shared_ptr<const SnapshotIndexes>> SnapshotIndexes::BuildMerged(
    const SocialGraph& graph, const DeltaOverlay& overlay,
    EdgeId first_new_edge, const EngineOptions& options) {
  auto idx = std::make_shared<SnapshotIndexes>();
  idx->csr = CsrSnapshot::Build(graph, overlay, first_new_edge);
  SARGUS_RETURN_IF_ERROR(FinishBundle(*idx, /*lg_built=*/false, options));
  return std::shared_ptr<const SnapshotIndexes>(std::move(idx));
}

Result<std::shared_ptr<const SnapshotIndexes>>
SnapshotIndexes::BuildIncremental(const SnapshotIndexes& prev,
                                  const SocialGraph& graph,
                                  const DeltaOverlay& overlay,
                                  EdgeId first_new_edge,
                                  const EngineOptions& options) {
  // Gate: insertion-only (deleted reachability cannot be patched out of
  // the labels) and small relative to the snapshot — past the fraction
  // the resumed sweeps stop beating the batch build.
  if (options.incremental_max_fraction <= 0.0 || overlay.has_deletions()) {
    return std::shared_ptr<const SnapshotIndexes>(nullptr);
  }
  const double cap =
      options.incremental_max_fraction * static_cast<double>(
                                             prev.csr.NumEdges());
  if (static_cast<double>(overlay.NumAdded()) > cap) {
    return std::shared_ptr<const SnapshotIndexes>(nullptr);
  }

  auto idx = std::make_shared<SnapshotIndexes>();
  idx->csr = CsrSnapshot::Build(graph, overlay, first_new_edge);
  bool lg_built = false;
  if (NeedJoinStack(options)) {
    if (!prev.join_built || prev.oracle == nullptr) {
      return std::shared_ptr<const SnapshotIndexes>(nullptr);
    }
    idx->lg = LineGraph::BuildIncremental(prev.lg, idx->csr, first_new_edge);
    auto oracle = LineReachabilityOracle::BuildIncremental(
        *prev.oracle, idx->lg,
        static_cast<LineVertexId>(prev.lg.NumVertices()));
    if (!oracle.has_value()) {
      // An insertion closed a line-graph cycle: components must merge,
      // which only the full Tarjan pass can do.
      return std::shared_ptr<const SnapshotIndexes>(nullptr);
    }
    idx->oracle = std::make_unique<LineReachabilityOracle>(std::move(*oracle));
    lg_built = true;
  }
  SARGUS_RETURN_IF_ERROR(FinishBundle(*idx, lg_built, options));
  return std::shared_ptr<const SnapshotIndexes>(std::move(idx));
}

std::shared_ptr<const PolicySnapshot> PolicySnapshot::Build(
    const PolicyStore& store, const SocialGraph& graph,
    const SnapshotIndexes& idx) {
  auto policy = std::make_shared<PolicySnapshot>();
  policy->source_num_resources = store.NumResources();
  policy->source_num_rules = store.NumRules();

  policy->resources.reserve(store.NumResources());
  for (ResourceId id = 0; id < store.NumResources(); ++id) {
    const PolicyStore::Resource& res = store.resource(id);
    policy->resources.push_back({res.owner, res.rules});
  }

  policy->rules.resize(store.NumRules());
  for (RuleId id = 0; id < store.NumRules(); ++id) {
    CompiledRule& rule = policy->rules[id];
    for (const PathExpression& path : store.rule(id).paths) {
      CompiledPath cp;
      auto bound = BoundPathExpression::Bind(path, graph);
      if (!bound.ok()) {
        cp.bind_status = bound.status();
      } else {
        cp.bound =
            std::make_shared<const BoundPathExpression>(std::move(*bound));
        cp.auto_pick = AutoPick(*cp.bound, idx);
      }
      rule.paths.push_back(std::move(cp));
    }
  }
  return policy;
}

std::shared_ptr<const PolicySnapshot> PolicySnapshot::WithAutoPicks(
    const PolicySnapshot& prev, const SnapshotIndexes& idx) {
  auto policy = std::make_shared<PolicySnapshot>();
  policy->source_num_resources = prev.source_num_resources;
  policy->source_num_rules = prev.source_num_rules;
  policy->resources = prev.resources;
  policy->rules = prev.rules;  // shares the bound expressions
  for (CompiledRule& rule : policy->rules) {
    for (CompiledPath& path : rule.paths) {
      if (path.bound != nullptr) {
        path.auto_pick = AutoPick(*path.bound, idx);
      }
    }
  }
  return policy;
}

AccessReadView::AccessReadView(const SocialGraph& graph,
                               std::shared_ptr<const SnapshotIndexes> idx,
                               std::shared_ptr<const PolicySnapshot> policy,
                               const DeltaOverlay& overlay,
                               const EngineOptions& options,
                               uint64_t snapshot_generation)
    : graph_(&graph),
      options_(options),
      idx_(std::move(idx)),
      policy_(std::move(policy)),
      overlay_(overlay),
      overlay_empty_(overlay.empty()),
      logical_num_nodes_(LogicalNumNodes(idx_->csr, &overlay_)),
      snapshot_generation_(snapshot_generation) {
  // Per-view evaluator instances are pointer bundles over the shared
  // immutable structures plus this view's frozen overlay; building them
  // per publication is a handful of small allocations.
  auto& bfs = base_[static_cast<size_t>(EvaluatorKind::kOnlineBfs)];
  auto& join = base_[static_cast<size_t>(EvaluatorKind::kJoinIndex)];
  bfs = std::make_unique<OnlineEvaluator>(*graph_, idx_->csr, &overlay_);
  if (idx_->join_built) {
    join = std::make_unique<JoinIndexEvaluator>(*graph_, idx_->lg,
                                                *idx_->cluster);
  }
  if (idx_->closure != nullptr) {
    for (size_t i = 0; i < kNumEvaluatorKinds; ++i) {
      if (base_[i] == nullptr) continue;
      // Overlay-aware wrapper: the prefilter self-suspends its fast-deny
      // while pending insertions make closure pruning unsound.
      prefiltered_[i] = std::make_unique<ClosurePrefilterEvaluator>(
          *idx_->closure, *base_[i], &overlay_, graph_);
    }
  }
}

std::shared_ptr<const AccessReadView> AccessReadView::Create(
    const SocialGraph& graph, std::shared_ptr<const SnapshotIndexes> idx,
    std::shared_ptr<const PolicySnapshot> policy, const DeltaOverlay& overlay,
    const EngineOptions& options, uint64_t snapshot_generation) {
  return std::shared_ptr<const AccessReadView>(
      new AccessReadView(graph, std::move(idx), std::move(policy), overlay,
                         options, snapshot_generation));
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

  const EvaluatorChoice choice =
      request.evaluator_override.value_or(options_.evaluator);

  // A rule set is a disjunction: one expression failing to evaluate
  // (unsupported orientation, work cap) must not mask a grant another
  // expression would produce. Errors are remembered and only surface
  // when nothing grants.
  std::optional<Status> first_error;
  for (const RuleId rule_id : res.rules) {
    for (const PolicySnapshot::CompiledPath& path :
         policy_->rules[rule_id].paths) {
      if (!path.bind_status.ok()) {
        if (!first_error) first_error = path.bind_status;
        continue;
      }
      EvaluatorKind kind = KindForChoice(choice, path.auto_pick);
      // The join index answers over the snapshot alone; while the
      // overlay is non-empty those answers are stale, so join picks
      // fall through to overlay-aware online search until Compact().
      if (!overlay_empty_ && kind == EvaluatorKind::kJoinIndex) {
        kind = EvaluatorKind::kOnlineBfs;
      }
      const Evaluator* chosen = Serving(kind);
      if (chosen == nullptr) {
        if (!first_error) {
          first_error = Status::FailedPrecondition(
              "CheckAccess: the join index was not built under this "
              "configuration (EngineOptions::evaluator skipped it)");
        }
        continue;
      }

      ReachQuery q{res.owner, request.requester, path.bound.get(),
                   request.want_witness};
      auto r = chosen->Evaluate(q, ctx);
      if (!r.ok()) {
        if (!first_error) first_error = r.status();
        continue;
      }
      decision.stats.pairs_visited += r->stats.pairs_visited;
      decision.stats.tuples_generated += r->stats.tuples_generated;
      decision.stats.tuples_post_filtered += r->stats.tuples_post_filtered;
      decision.stats.line_queries += r->stats.line_queries;
      decision.stats.prefilter_rejections += r->stats.prefilter_rejections;
      decision.evaluator_name = chosen->name();
      if (r->granted) {
        decision.granted = true;
        decision.matched_rule = rule_id;
        decision.witness = std::move(r->witness);
        break;
      }
    }
    if (decision.granted) break;
  }
  // Nothing granted and at least one expression could not be evaluated:
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
          *graph_, idx_->csr, *path.bound, res.owner, &ctx, &overlay_);
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
    // carrying per-request options the shared walk cannot honor
    // (witness extraction, evaluator override).
    audience_eligible.clear();
    for (size_t k = i; k < end; ++k) {
      const uint32_t slot = order[k];
      const AccessRequest& request = requests[slot];
      if (request.requester >= logical_num_nodes_) {
        slots[slot].emplace(Status::InvalidArgument(
            "CheckAccess: requester outside this view's snapshot"));
      } else if (res.owner >= logical_num_nodes_ ||
                 res.owner == request.requester || request.want_witness ||
                 request.evaluator_override.has_value()) {
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
