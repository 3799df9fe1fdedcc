#include "shard/router.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/subgraph.h"

namespace sargus {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Seed for the deterministic backoff jitter.
constexpr uint64_t kJitterSeed = 0x5eedULL;

uint64_t ConfigKey(const wire::FrontierEntry& e) {
  return (static_cast<uint64_t>(e.node) << 32) | e.state;
}

/// splitmix64 finalizer: the deterministic hash behind backoff jitter.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool IsTransportError(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Inserts `node` into a sorted-unique vector.
void SortedInsert(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::lower_bound(v.begin(), v.end(), node);
  if (it == v.end() || *it != node) v.insert(it, node);
}

void SortedErase(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::lower_bound(v.begin(), v.end(), node);
  if (it != v.end() && *it == node) v.erase(it);
}

bool HasCutArc(const ShardTopology& topo, NodeId src, NodeId dst,
               LabelId label) {
  for (const CutArc& a : topo.CutOut(src)) {
    if (a.other == dst && a.label == label) return true;
  }
  return false;
}

void EraseCutArc(std::unordered_map<NodeId, std::vector<CutArc>>& map,
                 NodeId key, NodeId other, LabelId label) {
  const auto it = map.find(key);
  if (it == map.end()) return;
  auto& arcs = it->second;
  for (auto a = arcs.begin(); a != arcs.end(); ++a) {
    if (a->other == other && a->label == label) {
      arcs.erase(a);
      break;
    }
  }
  if (arcs.empty()) map.erase(it);
}

bool TouchesCut(const ShardTopology& topo, NodeId node) {
  return !topo.CutOut(node).empty() || !topo.CutIn(node).empty();
}

}  // namespace

ShardRouter::ShardRouter(SocialGraph& graph, const PolicyStore& store,
                         RouterOptions options)
    : master_graph_(&graph),
      master_store_(&store),
      options_(std::move(options)) {}

Status ShardRouter::Build() {
  SARGUS_ASSIGN_OR_RETURN(
      partition_, GraphPartitioner::Partition(*master_graph_, options_.partition));

  shards_.clear();
  if (partition_.num_shards == 1) {
    // Zero-copy passthrough: one engine over the caller's graph + store.
    shards_.push_back(std::make_unique<ShardEngine>(
        0, *master_graph_, *master_store_, options_.engine));
  } else {
    for (uint32_t s = 0; s < partition_.num_shards; ++s) {
      SARGUS_ASSIGN_OR_RETURN(
          SocialGraph sub,
          ExtractShardGraph(*master_graph_, partition_.shard_of, s));
      SARGUS_ASSIGN_OR_RETURN(PolicyStore cloned,
                              ClonePolicyStore(*master_store_));
      shards_.push_back(std::make_unique<ShardEngine>(
          s, std::make_unique<SocialGraph>(std::move(sub)),
          std::make_unique<PolicyStore>(std::move(cloned)), options_.engine));
    }
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->Build());
  }

  // Stand up the data-plane transport (decorated when the caller
  // installed a fault seam) and the per-shard circuit breaker.
  std::vector<ShardEngine*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) raw.push_back(shard.get());
  std::unique_ptr<ShardTransport> base;
  if (options_.threaded_transport) {
    base = std::make_unique<ThreadedTransport>(std::move(raw),
                                               options_.executor);
  } else {
    base = std::make_unique<InProcessTransport>(std::move(raw));
  }
  transport_ = options_.transport_decorator
                   ? options_.transport_decorator(std::move(base))
                   : std::move(base);
  if (transport_ == nullptr) {
    return Status::InvalidArgument(
        "ShardRouter: transport_decorator returned null");
  }
  health_ = std::make_unique<ShardHealthTracker>(
      partition_.num_shards, kBreakerFailureThreshold, kBreakerOpenMs);

  resources_.clear();
  resources_.reserve(master_store_->NumResources());
  for (ResourceId r = 0; r < master_store_->NumResources(); ++r) {
    const PolicyStore::Resource& res = master_store_->resource(r);
    resources_.push_back(RouterResource{res.owner, res.rules});
  }
  paths_.assign(master_store_->NumRules(), {});
  for (RuleId id = 0; id < master_store_->NumRules(); ++id) {
    for (const PathExpression& expr : master_store_->rule(id).paths) {
      RouterPath rp;
      Result<BoundPathExpression> bound =
          BoundPathExpression::Bind(expr, *master_graph_);
      if (bound.ok()) {
        rp.bound =
            std::make_shared<const BoundPathExpression>(std::move(*bound));
      } else {
        rp.bind_status = bound.status();
      }
      paths_[id].push_back(std::move(rp));
    }
  }

  auto topo = std::make_shared<ShardTopology>();
  topo->num_shards = partition_.num_shards;
  topo->shard_of = partition_.shard_of;
  topo->boundary.resize(partition_.num_shards);
  for (const Edge& e : partition_.cut_edges) {
    topo->cut_out[e.src].push_back({e.dst, e.label});
    topo->cut_in[e.dst].push_back({e.src, e.label});
  }
  for (const Edge& e : partition_.cut_edges) {
    SortedInsert(topo->boundary[topo->shard_of[e.src]], e.src);
    SortedInsert(topo->boundary[topo->shard_of[e.dst]], e.dst);
  }
  topo->epoch = 1;
  PublishTopology(std::move(topo));

  loads_.assign(partition_.num_shards, 0);
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    loads_[s] = partition_.members[s].size();
  }

  built_ = true;
  if (options_.build_summaries && shards_.size() > 1) {
    return RefreshSummaries();
  }
  return OkStatus();
}

void ShardRouter::PublishTopology(std::shared_ptr<const ShardTopology> topo) {
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    topo_ = topo;
  }
  for (auto& shard : shards_) shard->SetTopology(topo);
}

std::shared_ptr<const ShardTopology> ShardRouter::topology() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  return topo_;
}

wire::Stamp ShardRouter::Stamp() const {
  wire::Stamp total;
  for (const auto& shard : shards_) {
    const wire::Stamp s = shard->ViewStamp();
    total.snapshot_generation += s.snapshot_generation;
    total.overlay_version += s.overlay_version;
  }
  return total;
}

RouterCounters ShardRouter::counters() const {
  RouterCounters c;
  c.checks = counters_.checks.load(kRelaxed);
  c.cross_shard_checks = counters_.cross_shard_checks.load(kRelaxed);
  c.local_conclusive = counters_.local_conclusive.load(kRelaxed);
  c.summary_resolved = counters_.summary_resolved.load(kRelaxed);
  c.fallback_walks = counters_.fallback_walks.load(kRelaxed);
  c.cross_fallback_walks = counters_.cross_fallback_walks.load(kRelaxed);
  c.fallback_rounds = counters_.fallback_rounds.load(kRelaxed);
  c.stale_summary_fallbacks = counters_.stale_summary_fallbacks.load(kRelaxed);
  c.capped_compositions = counters_.capped_compositions.load(kRelaxed);
  c.retries = counters_.retries.load(kRelaxed);
  c.timeouts = counters_.timeouts.load(kRelaxed);
  c.breaker_opens = health_ == nullptr ? 0 : health_->opens();
  c.degraded_answers = counters_.degraded_answers.load(kRelaxed);
  c.unavailable_errors = counters_.unavailable_errors.load(kRelaxed);
  return c;
}

uint64_t ShardRouter::AttemptDeadline(uint64_t now,
                                      uint64_t budget_deadline) const {
  const uint32_t per_call = options_.robustness.call_deadline_ms;
  if (per_call == 0) return budget_deadline;
  const uint64_t deadline = now + per_call;
  return budget_deadline != 0 && deadline > budget_deadline ? budget_deadline
                                                            : deadline;
}

template <typename Request>
ShardRouter::PendingCall<Request> ShardRouter::BeginCall(
    uint32_t shard, uint64_t salt, const Request& request) const {
  const RouterRobustnessOptions& rb = options_.robustness;
  PendingCall<Request> pc;
  pc.shard = shard;
  pc.salt = salt;
  pc.request = &request;
  const uint64_t now = transport_->NowMs();
  pc.budget_deadline = rb.op_budget_ms == 0 ? 0 : now + rb.op_budget_ms;
  if (!health_->AllowCall(shard, now)) {
    pc.early = Status::Unavailable("shard " + std::to_string(shard) +
                                   ": circuit breaker open");
    return pc;
  }
  pc.ticket = transport_->Submit(
      shard, request, {.deadline_ms = AttemptDeadline(now, pc.budget_deadline)});
  return pc;
}

template <typename Request>
Result<ReplyFor<Request>> ShardRouter::FinishCall(
    PendingCall<Request>& pending) const {
  const RouterRobustnessOptions& rb = options_.robustness;
  if (pending.early.has_value()) return *pending.early;
  const uint32_t shard = pending.shard;
  const uint32_t attempts = std::max<uint32_t>(1, rb.max_attempts);
  Status last = OkStatus();
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Retries run synchronously on the gathering thread: by the time
      // a retry is warranted the scatter is already collapsing, and a
      // serial retry keeps the attempt ordering the breaker sees
      // identical to the pre-scatter router's.
      const uint64_t now = transport_->NowMs();
      if (pending.budget_deadline != 0 && now > pending.budget_deadline) {
        counters_.timeouts.fetch_add(1, kRelaxed);
        return Status::DeadlineExceeded(
            "shard " + std::to_string(shard) + ": operation budget exhausted" +
            (last.ok() ? "" : " (last attempt: " + last.ToString() + ")"));
      }
      if (!health_->AllowCall(shard, now)) {
        return Status::Unavailable(
            "shard " + std::to_string(shard) + ": circuit breaker open" +
            (last.ok() ? "" : " (last attempt: " + last.ToString() + ")"));
      }
      counters_.retries.fetch_add(1, kRelaxed);
      pending.ticket = transport_->Submit(
          shard, *pending.request,
          {.deadline_ms = AttemptDeadline(now, pending.budget_deadline)});
    }
    Result<ReplyFor<Request>> r = pending.ticket.Wait();
    if (r.ok()) {
      // The transport worked; an in-band reply status is an answer,
      // not an infrastructure failure.
      health_->RecordSuccess(shard);
      return r;
    }
    health_->RecordFailure(shard, transport_->NowMs());
    if (r.status().code() == StatusCode::kDeadlineExceeded) {
      counters_.timeouts.fetch_add(1, kRelaxed);
    }
    last = r.status();
    if (attempt + 1 < attempts) {
      uint64_t backoff = std::min<uint64_t>(
          uint64_t{rb.backoff_base_ms} << attempt, rb.backoff_max_ms);
      if (backoff > 0 && rb.backoff_jitter > 0) {
        // Deterministic jitter: a hash of (seed, shard, attempt, call
        // salt). The salt is content-derived, so concurrent retry
        // storms jitter identically no matter how they interleave —
        // yet distinct calls never lockstep.
        const uint64_t h = Mix64(kJitterSeed ^ (uint64_t{shard} << 40) ^
                                 (uint64_t{attempt} << 32) ^
                                 Mix64(pending.salt));
        const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
        backoff += static_cast<uint64_t>(static_cast<double>(backoff) *
                                         rb.backoff_jitter * frac);
      }
      if (backoff > 0) transport_->SleepMs(static_cast<uint32_t>(backoff));
    }
  }
  return last;
}

template <typename Request>
Result<ReplyFor<Request>> ShardRouter::CallShard(uint32_t shard, uint64_t salt,
                                                 const Request& request) const {
  PendingCall<Request> pc = BeginCall(shard, salt, request);
  return FinishCall(pc);
}

Result<wire::MutateReply> ShardRouter::CallMutate(
    uint32_t shard, const wire::MutateRequest& req) {
  const uint64_t salt = (uint64_t{static_cast<uint8_t>(req.op)} << 56) ^
                        (uint64_t{req.src} << 28) ^ (uint64_t{req.dst} << 8) ^
                        req.label;
  return CallShard(shard, salt, req);
}

Result<AccessDecision> ShardRouter::CheckAccess(
    const AccessRequest& request) const {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  counters_.checks.fetch_add(1, kRelaxed);
  if (DirectSingleShard()) {
    // Passthrough: the decision carries the engine's own stamps. A
    // decorated (fault-injectable) transport disables the shortcut so
    // single-shard configurations exercise the full robust path.
    return shards_[0]->engine().CheckAccess(request);
  }
  return DecideMulti(request);
}

Result<AccessDecision> ShardRouter::DecideMulti(
    const AccessRequest& request) const {
  Result<AccessDecision> d = DecideMultiImpl(request);
  if (!d.ok()) {
    if (IsTransportError(d.status())) {
      counters_.unavailable_errors.fetch_add(1, kRelaxed);
    }
  } else if (!d->degraded_reason.empty()) {
    counters_.degraded_answers.fetch_add(1, kRelaxed);
  }
  return d;
}

Result<AccessDecision> ShardRouter::DecideMultiImpl(
    const AccessRequest& request) const {
  const auto topo = topology();
  if (request.resource >= resources_.size()) {
    return Status::NotFound("ShardRouter: unknown resource " +
                            std::to_string(request.resource));
  }
  if (request.requester >= topo->shard_of.size()) {
    return Status::InvalidArgument("ShardRouter: requester " +
                                   std::to_string(request.requester) +
                                   " out of range");
  }
  const RouterResource& res = resources_[request.resource];
  const wire::Stamp stamp = Stamp();

  if (request.requester == res.owner) {
    AccessDecision d;
    d.granted = true;
    d.owner_access = true;
    d.requester = request.requester;
    d.resource = request.resource;
    d.evaluator_name = "shard-owner";
    d.snapshot_generation = stamp.snapshot_generation;
    d.overlay_version = stamp.overlay_version;
    return d;
  }

  // Step 1 (local phase): the owner shard decides over its local edges.
  // A grant is authoritative — local edges are a subset of global edges
  // — and carries the witness when one was requested.
  const uint32_t owner_shard = topo->shard_of[res.owner];
  const uint64_t check_salt =
      (uint64_t{request.requester} << 32) ^ request.resource;
  const wire::CheckRequest local_req = ToWire(request);
  const Result<wire::CheckReply> local_r =
      CallShard(owner_shard, check_salt, local_req);
  if (!local_r.ok()) {
    // The owner's shard is unreachable (retries and breaker already
    // consulted). Degrade when allowed: conclude exactly from fresh
    // boundary summaries, or fail explicitly — never guess.
    if (options_.robustness.allow_degraded && shards_.size() > 1 &&
        IsTransportError(local_r.status())) {
      return DecideDegraded(*topo, request, res.owner, local_r.status());
    }
    return local_r.status();
  }
  const wire::CheckReply& local = *local_r;
  if (local.status_code == 0 && local.granted != 0) {
    counters_.local_conclusive.fetch_add(1, kRelaxed);
    Result<AccessDecision> d =
        FromWire(local, request.requester, request.resource);
    d->snapshot_generation = stamp.snapshot_generation;
    d->overlay_version = stamp.overlay_version;
    return d;
  }
  if (request.evaluator_override.has_value() && local.status_code != 0) {
    // Evaluator overrides are a shard-local concern (the cross-shard
    // procedure has its own fixed strategy); surface the shard's error
    // the way a single engine would.
    return wire::UnpackStatus(local.status_code, local.error);
  }

  // Steps 2-3: per rule path, exact global reachability. Disjunction
  // semantics mirror the engine: first error is remembered and surfaced
  // only when nothing grants.
  counters_.cross_shard_checks.fetch_add(1, kRelaxed);
  CrossStats cross;
  cross.pairs_visited = local.pairs_visited;
  std::optional<Status> first_error;
  std::optional<RuleId> matched;
  for (const RuleId rule : res.rules) {
    for (uint32_t p = 0; p < paths_[rule].size() && !matched; ++p) {
      const RouterPath& rp = paths_[rule][p];
      if (!rp.bind_status.ok()) {
        if (!first_error.has_value()) first_error = rp.bind_status;
        continue;
      }
      Result<bool> reached =
          PathReaches(*topo, rule, p, res.owner, request.requester, cross);
      if (!reached.ok()) {
        if (!first_error.has_value()) first_error = reached.status();
        continue;
      }
      if (*reached) matched = rule;
    }
    if (matched.has_value()) break;
  }
  if (cross.used_fallback) {
    counters_.cross_fallback_walks.fetch_add(1, kRelaxed);
  } else {
    counters_.summary_resolved.fetch_add(1, kRelaxed);
  }
  if (!matched.has_value() && first_error.has_value()) return *first_error;

  AccessDecision d;
  d.granted = matched.has_value();
  d.requester = request.requester;
  d.resource = request.resource;
  d.matched_rule = matched;
  d.stats.pairs_visited = cross.pairs_visited;
  d.evaluator_name = cross.used_fallback  ? "shard-frontier"
                     : cross.used_summary ? "shard-summary"
                                          : "shard-local";
  d.snapshot_generation = stamp.snapshot_generation;
  d.overlay_version = stamp.overlay_version;
  return d;
}

Result<AccessDecision> ShardRouter::DecideDegraded(
    const ShardTopology& topo, const AccessRequest& request, NodeId owner,
    const Status& owner_error) const {
  const auto unavailable = [&](const std::string& why) {
    return Status::Unavailable("ShardRouter: owner shard unreachable (" +
                               owner_error.ToString() + ") and " + why);
  };
  if (!options_.build_summaries) {
    return unavailable("boundary summaries are disabled");
  }
  counters_.cross_shard_checks.fetch_add(1, kRelaxed);
  const RouterResource& res = resources_[request.resource];
  CrossStats cross;
  std::optional<Status> first_error;
  std::optional<RuleId> matched;
  for (const RuleId rule : res.rules) {
    for (uint32_t p = 0; p < paths_[rule].size() && !matched; ++p) {
      const RouterPath& rp = paths_[rule][p];
      if (!rp.bind_status.ok()) {
        if (!first_error.has_value()) first_error = rp.bind_status;
        continue;
      }
      // Seed the composition at the owner's automaton start closure.
      // The owner is a boundary vertex of the down shard whenever that
      // shard participates in cross-shard paths for it; its FRESH
      // summary (stamps cannot move while the shard is unreachable —
      // mutations fail stop) then carries the walk across the down
      // shard without one data-plane call into it. Any obstruction
      // (non-boundary owner, stale summary, work cap) aborts to an
      // explicit error: degraded mode has no fallback walk to hide in.
      const HopAutomaton& nfa = rp.bound->automaton();
      const std::vector<uint32_t> residual = wire::ResidualHopBudgets(nfa);
      std::vector<wire::FrontierEntry> seeds;
      seeds.reserve(nfa.StartStates().size());
      for (uint32_t s0 : nfa.StartStates()) {
        seeds.push_back({owner, s0, residual[s0]});
      }
      Result<ComposeOutcome> out = ComposeSummaries(
          topo, rule, p, owner, request.requester, seeds, cross);
      if (!out.ok()) {
        if (!first_error.has_value()) first_error = out.status();
        continue;
      }
      switch (*out) {
        case ComposeOutcome::kGranted:
          matched = rule;
          break;
        case ComposeOutcome::kDenied:
          break;
        case ComposeOutcome::kStale:
          if (!first_error.has_value()) {
            first_error = unavailable(
                "a needed boundary summary is stale, unbuilt, or does not "
                "cover the owner");
          }
          break;
        case ComposeOutcome::kCapped:
          if (!first_error.has_value()) {
            first_error = unavailable("summary composition hit its work cap");
          }
          break;
      }
    }
    if (matched.has_value()) break;
  }
  // A deny is exact only if EVERY rule path concluded; a grant is exact
  // on its own (summaries never over-approximate).
  if (!matched.has_value() && first_error.has_value()) return *first_error;

  const wire::Stamp stamp = Stamp();
  AccessDecision d;
  d.granted = matched.has_value();
  d.requester = request.requester;
  d.resource = request.resource;
  d.matched_rule = matched;
  d.stats.pairs_visited = cross.pairs_visited;
  d.evaluator_name = "shard-degraded";
  d.snapshot_generation = stamp.snapshot_generation;
  d.overlay_version = stamp.overlay_version;
  d.degraded_reason = "owner shard unreachable (" + owner_error.ToString() +
                      "); concluded exactly from fresh boundary summaries";
  return d;
}

Result<bool> ShardRouter::PathReaches(const ShardTopology& topo, RuleId rule,
                                      uint32_t path, NodeId owner,
                                      NodeId requester,
                                      CrossStats& stats) const {
  // Phase one: walk the owner's shard from the automaton start closure.
  wire::WalkRequest phase1;
  phase1.rule = rule;
  phase1.path = path;
  phase1.requester = requester;
  phase1.seed = wire::WalkSeed::kOwnerStarts;
  phase1.owner = owner;
  const uint32_t owner_shard = topo.shard_of[owner];
  const uint64_t walk_salt = (uint64_t{rule} << 48) ^ (uint64_t{path} << 40) ^
                             (uint64_t{owner} << 20) ^ requester;
  const Result<wire::WalkReply> r1r = CallShard(owner_shard, walk_salt, phase1);
  if (!r1r.ok()) return r1r.status();
  const wire::WalkReply& r1 = *r1r;
  if (r1.status_code != 0) {
    return wire::UnpackStatus(r1.status_code, r1.error);
  }
  stats.pairs_visited += r1.pairs_visited;
  if (r1.accepted != 0) return true;
  // Nothing escaped the shard: the deny is global, no summary needed.
  if (r1.exports.empty()) return false;

  if (!options_.build_summaries) {
    return FallbackWalk(topo, rule, path, owner, requester, r1.exports, stats);
  }

  SARGUS_ASSIGN_OR_RETURN(
      const ComposeOutcome out,
      ComposeSummaries(topo, rule, path, owner, requester, r1.exports, stats));
  switch (out) {
    case ComposeOutcome::kGranted:
      return true;
    case ComposeOutcome::kDenied:
      return false;
    case ComposeOutcome::kStale:
      counters_.stale_summary_fallbacks.fetch_add(1, kRelaxed);
      return FallbackWalk(topo, rule, path, owner, requester, r1.exports,
                          stats);
    case ComposeOutcome::kCapped:
      counters_.capped_compositions.fetch_add(1, kRelaxed);
      return FallbackWalk(topo, rule, path, owner, requester, r1.exports,
                          stats);
  }
  return Status::Internal("ShardRouter: unreachable compose outcome");
}

Result<ShardRouter::ComposeOutcome> ShardRouter::ComposeSummaries(
    const ShardTopology& topo, RuleId rule, uint32_t path, NodeId owner,
    NodeId requester, std::span<const wire::FrontierEntry> seeds,
    CrossStats& stats) const {
  // Step 2: router-local summary composition. A worklist of boundary
  // configurations; each is pushed through its shard's summary (exact
  // boundary-to-boundary product reachability), then expanded across
  // cut edges, until acceptance, a fixpoint, or a reason to bail
  // (kStale / kCapped — the caller decides between frontier-exchange
  // fallback and an explicit degraded-mode error).
  const RouterPath& rp = paths_[rule][path];
  const HopAutomaton& nfa = rp.bound->automaton();
  const uint32_t num_states = nfa.NumStates();
  const std::vector<uint32_t> residual = wire::ResidualHopBudgets(nfa);
  const uint32_t req_shard = topo.shard_of[requester];

  std::unordered_set<uint64_t> processed;
  std::vector<wire::FrontierEntry> queue;
  std::vector<wire::FrontierEntry> final_seeds;
  auto enqueue = [&](const wire::FrontierEntry& e) {
    if (!processed.insert(ConfigKey(e)).second) return;
    queue.push_back(e);
    // Entry configurations in the requester's shard also seed the final
    // local walk (interior acceptance is invisible to summaries, which
    // only speak boundary-to-boundary).
    if (topo.shard_of[e.node] == req_shard) final_seeds.push_back(e);
  };
  for (const wire::FrontierEntry& e : seeds) enqueue(e);

  // Summaries pinned and freshness-checked once per shard per call.
  std::vector<std::shared_ptr<const BoundarySummary>> pinned(shards_.size());
  std::vector<uint8_t> pin_checked(shards_.size(), 0);
  auto summary_for = [&](uint32_t s) -> const BoundarySummary* {
    if (pin_checked[s] == 0) {
      pin_checked[s] = 1;
      auto sum = shards_[s]->summary();
      if (sum != nullptr && sum->stamp() == shards_[s]->ViewStamp() &&
          sum->PathBuilt(rule, path)) {
        pinned[s] = std::move(sum);
      }
    }
    return pinned[s].get();
  };

  size_t tests = 0;
  while (!queue.empty()) {
    const wire::FrontierEntry entry = queue.back();
    queue.pop_back();
    const uint32_t c = topo.shard_of[entry.node];
    const BoundarySummary* sum = summary_for(c);
    const int64_t from_idx =
        sum == nullptr ? -1 : sum->BoundaryIndexOf(entry.node);
    if (from_idx < 0) return ComposeOutcome::kStale;
    for (size_t j = 0; j < sum->num_boundary(); ++j) {
      for (uint32_t t2 = 0; t2 < num_states; ++t2) {
        if (++tests > kMaxCompositionTests) {
          return ComposeOutcome::kCapped;
        }
        if (!sum->Reaches(rule, path, static_cast<size_t>(from_idx),
                          entry.state, j, t2)) {
          continue;
        }
        // The walk can sit at boundary vertex bv in state t2; expand the
        // crossing over every matching cut edge, checking the far node
        // against the step filter and the accept-after-edge test exactly
        // as a live walker would.
        const NodeId bv = sum->boundary_nodes()[j];
        const BoundStep& step = nfa.StepSpec(t2);
        const bool accepts = nfa.AcceptsAfterEdge(t2);
        const std::vector<uint32_t>& targets = nfa.TargetsAfterEdge(t2);
        const std::span<const CutArc> arcs =
            step.backward ? topo.CutIn(bv) : topo.CutOut(bv);
        for (const CutArc& arc : arcs) {
          if (arc.label != step.label) continue;
          if (!BoundPathExpression::NodePasses(*master_graph_, arc.other,
                                               step)) {
            continue;
          }
          if (accepts && arc.other == requester) {
            stats.used_summary = true;
            return ComposeOutcome::kGranted;
          }
          for (uint32_t t3 : targets) {
            enqueue({arc.other, t3, residual[t3]});
          }
        }
      }
    }
  }
  stats.used_summary = true;
  if (final_seeds.empty()) return ComposeOutcome::kDenied;

  // Final local walk in the requester's shard (summaries only speak
  // boundary-to-boundary; interior acceptance needs a live walk). In
  // degraded mode, if the requester sits INSIDE the unreachable shard
  // this call fails and the whole decision surfaces kUnavailable —
  // exactly right, because no fresh summary can see that acceptance.
  wire::WalkRequest fin;
  fin.rule = rule;
  fin.path = path;
  fin.requester = requester;
  fin.seed = wire::WalkSeed::kFrontier;
  fin.owner = owner;
  fin.frontier = std::move(final_seeds);
  const uint64_t fin_salt = 0xF1A7ULL ^ (uint64_t{rule} << 48) ^
                            (uint64_t{path} << 40) ^ (uint64_t{owner} << 20) ^
                            requester;
  const Result<wire::WalkReply> rfr = CallShard(req_shard, fin_salt, fin);
  if (!rfr.ok()) return rfr.status();
  const wire::WalkReply& rf = *rfr;
  if (rf.status_code != 0) {
    return wire::UnpackStatus(rf.status_code, rf.error);
  }
  stats.pairs_visited += rf.pairs_visited;
  return rf.accepted != 0 ? ComposeOutcome::kGranted : ComposeOutcome::kDenied;
}

Result<bool> ShardRouter::FallbackWalk(
    const ShardTopology& topo, RuleId rule, uint32_t path, NodeId owner,
    NodeId requester, std::span<const wire::FrontierEntry> seeds,
    CrossStats& stats) const {
  stats.used_fallback = true;
  counters_.fallback_walks.fetch_add(1, kRelaxed);
  const uint64_t base_salt = 0xFA11ULL ^ (uint64_t{rule} << 48) ^
                             (uint64_t{path} << 40) ^ (uint64_t{owner} << 20) ^
                             requester;

  // Two-phase rounds: every shard with pending entries walks once per
  // round; fresh exports only enter the NEXT round's pending sets, so a
  // round's walks are independent of each other's results — which is
  // exactly what lets one round SCATTER all its per-shard walks through
  // the async transport surface and gather them at a barrier. The
  // global processed set makes each (node, state) configuration cross a
  // shard boundary at most once, which bounds the rounds.
  std::unordered_set<uint64_t> processed;
  std::vector<std::vector<wire::FrontierEntry>> pending(shards_.size());
  auto enqueue = [&](const wire::FrontierEntry& e,
                     std::vector<std::vector<wire::FrontierEntry>>& dest) {
    if (processed.insert(ConfigKey(e)).second) {
      dest[topo.shard_of[e.node]].push_back(e);
    }
  };
  for (const wire::FrontierEntry& e : seeds) enqueue(e, pending);

  uint64_t rounds = 0;
  bool accepted = false;
  std::optional<Status> failure;
  while (!accepted && !failure.has_value()) {
    std::vector<wire::WalkRequest> reqs(shards_.size());
    std::vector<uint32_t> active;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (pending[s].empty()) continue;
      wire::WalkRequest& wr = reqs[s];
      wr.rule = rule;
      wr.path = path;
      wr.requester = requester;
      wr.seed = wire::WalkSeed::kFrontier;
      wr.owner = owner;
      wr.frontier = std::move(pending[s]);
      active.push_back(s);
    }
    if (active.empty()) break;
    ++rounds;
    // Scatter: submit every active shard's walk before gathering any.
    std::vector<PendingCall<wire::WalkRequest>> calls(active.size());
    for (size_t k = 0; k < active.size(); ++k) {
      const uint32_t s = active[k];
      calls[k] = BeginCall(s, base_salt ^ (rounds << 8), reqs[s]);
    }
    // Barrier gather, ascending shard order: every ticket is resolved —
    // even after an acceptance or failure — so no walk is abandoned
    // mid-round, and the export merge order matches a serial transport
    // exactly (the agreement wall relies on this).
    std::vector<std::vector<wire::FrontierEntry>> next(shards_.size());
    for (size_t k = 0; k < active.size(); ++k) {
      Result<wire::WalkReply> rr = FinishCall(calls[k]);
      const Status st = rr.ok()
                            ? wire::UnpackStatus(rr->status_code, rr->error)
                            : rr.status();
      if (!st.ok()) {
        if (!failure.has_value()) failure = st;
        continue;
      }
      stats.pairs_visited += rr->pairs_visited;
      if (rr->accepted != 0) {
        accepted = true;
      } else {
        for (const wire::FrontierEntry& e : rr->exports) enqueue(e, next);
      }
    }
    pending = std::move(next);
  }
  counters_.fallback_rounds.fetch_add(rounds, kRelaxed);
  if (accepted) return true;  // a live walk's accept is exact even if a
                              // sibling shard faulted this round
  if (failure.has_value()) return *failure;
  return false;
}

std::vector<Result<AccessDecision>> ShardRouter::CheckAccessBatch(
    std::span<const AccessRequest> requests) const {
  if (!built_) {
    std::vector<Result<AccessDecision>> out;
    out.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      out.emplace_back(
          Status::FailedPrecondition("ShardRouter: Build() not called"));
    }
    return out;
  }
  counters_.checks.fetch_add(requests.size(), kRelaxed);
  if (DirectSingleShard()) {
    return shards_[0]->engine().CheckAccessBatch(requests);
  }

  const auto topo = topology();
  const wire::Stamp stamp = Stamp();
  std::vector<std::optional<Result<AccessDecision>>> slots(requests.size());

  // Group by resource-owner shard; one shard-local batch per group.
  // Shard-local grants are authoritative; everything else escalates.
  std::vector<std::vector<uint32_t>> groups(shards_.size());
  for (uint32_t i = 0; i < requests.size(); ++i) {
    const AccessRequest& r = requests[i];
    if (r.resource >= resources_.size()) {
      slots[i] = Status::NotFound("ShardRouter: unknown resource " +
                                  std::to_string(r.resource));
      continue;
    }
    if (r.requester >= topo->shard_of.size()) {
      slots[i] = Status::InvalidArgument("ShardRouter: requester " +
                                         std::to_string(r.requester) +
                                         " out of range");
      continue;
    }
    groups[topo->shard_of[resources_[r.resource].owner]].push_back(i);
  }
  // Scatter: build every group's sub-batch, submit them all through the
  // async transport surface, THEN gather in shard order. On the
  // threaded transport the sub-batches execute concurrently, one worker
  // per owner shard; on a serial transport the submits run inline and
  // this is exactly the old one-group-at-a-time loop.
  struct GroupCall {
    uint32_t shard = 0;
    wire::BatchCheckRequest batch;
    PendingCall<wire::BatchCheckRequest> pending;
  };
  std::vector<GroupCall> group_calls;
  for (uint32_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    GroupCall gc;
    gc.shard = s;
    gc.batch.requests.reserve(groups[s].size());
    for (uint32_t i : groups[s]) {
      gc.batch.requests.push_back(ToWire(requests[i]));
    }
    group_calls.push_back(std::move(gc));
  }
  for (GroupCall& gc : group_calls) {
    const wire::CheckRequest& head = gc.batch.requests.front();
    const uint64_t salt = 0xBA7CULL ^ (uint64_t{gc.shard} << 48) ^
                          (gc.batch.requests.size() << 36) ^
                          (uint64_t{head.requester} << 18) ^ head.resource;
    gc.pending = BeginCall(gc.shard, salt, gc.batch);
  }
  for (GroupCall& gc : group_calls) {
    const uint32_t s = gc.shard;
    const Result<wire::BatchCheckReply> replies_r = FinishCall(gc.pending);
    // A transport failure (or short reply) escalates every slot of the
    // group to the per-request procedure, which carries its own retry /
    // degraded handling.
    if (!replies_r.ok()) continue;
    const wire::BatchCheckReply& replies = *replies_r;
    if (replies.replies.size() != groups[s].size()) continue;  // escalate all
    for (size_t k = 0; k < groups[s].size(); ++k) {
      const uint32_t i = groups[s][k];
      const wire::CheckReply& reply = replies.replies[k];
      if (reply.status_code != 0 || reply.granted == 0) continue;
      counters_.local_conclusive.fetch_add(1, kRelaxed);
      Result<AccessDecision> d =
          FromWire(reply, requests[i].requester, requests[i].resource);
      d->snapshot_generation = stamp.snapshot_generation;
      d->overlay_version = stamp.overlay_version;
      slots[i] = std::move(d);
    }
  }

  std::vector<Result<AccessDecision>> out;
  out.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (slots[i].has_value()) {
      out.push_back(std::move(*slots[i]));
    } else {
      out.push_back(DecideMulti(requests[i]));
    }
  }
  return out;
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  if (DirectSingleShard()) {
    return shards_[0]->engine().AddEdge(src, dst, label);
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  // Pre-intern the name everywhere (master first) so the id every shard
  // resolves is identical — the invariant wire frontiers rely on.
  const LabelId id = master_graph_->labels().Intern(label);
  for (auto& shard : shards_) {
    if (shard->InternLabel(label) != id) {
      return Status::Internal("AddEdge: label dictionaries diverged");
    }
  }
  return AddEdgeImpl(src, dst, id);
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return AddEdgeImpl(src, dst, label);
}

Status ShardRouter::AddEdgeImpl(NodeId src, NodeId dst, LabelId label) {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  if (DirectSingleShard()) {
    return shards_[0]->engine().AddEdge(src, dst, label);
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  const uint32_t s1 = topo->shard_of[src];
  const uint32_t s2 = topo->shard_of[dst];

  wire::MutateRequest req;
  req.op = wire::MutateOp::kAddEdge;
  req.src = src;
  req.dst = dst;
  req.label = label;
  // Transport mutations are fail-stop-before-apply (shard/transport.h):
  // a transport error here means shard s1 never saw the edge.
  const Result<wire::MutateReply> r1 = CallMutate(s1, req);
  if (!r1.ok()) return r1.status();
  Status st = wire::UnpackStatus(r1->status_code, r1->error);
  if (s2 != s1) {
    const Result<wire::MutateReply> r2 = CallMutate(s2, req);
    if (!r2.ok()) {
      // s1 already applied its half of the cut edge. Compensate with a
      // direct engine rollback — the in-process control plane stays
      // reliable even when the data-plane transport is faulting — so a
      // torn cut edge is never observable.
      if (st.ok()) {
        const Status undo = shards_[s1]->engine().RemoveEdge(src, dst, label);
        if (!undo.ok()) {
          return Status::Internal(
              "AddEdge: rollback after partial apply failed: " +
              undo.ToString() + " (original: " + r2.status().ToString() + ")");
        }
      }
      return r2.status();
    }
    const Status st2 = wire::UnpackStatus(r2->status_code, r2->error);
    if (st.ok() != st2.ok()) {
      return Status::Internal("AddEdge: shards disagree (" + st.ToString() +
                              " vs " + st2.ToString() + ")");
    }
  }
  if (!st.ok()) return st;
  if (s1 != s2 && !HasCutArc(*topo, src, dst, label)) {
    auto next = std::make_shared<ShardTopology>(*topo);
    next->cut_out[src].push_back({dst, label});
    next->cut_in[dst].push_back({src, label});
    SortedInsert(next->boundary[s1], src);
    SortedInsert(next->boundary[s2], dst);
    ++next->epoch;
    PublishTopology(std::move(next));
  }
  return OkStatus();
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst,
                               const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  if (DirectSingleShard()) {
    return shards_[0]->engine().RemoveEdge(src, dst, label);
  }
  const LabelId id = master_graph_->labels().Lookup(label);
  if (id == kInvalidLabel) {
    return Status::NotFound("RemoveEdge: unknown label '" + label + "'");
  }
  return RemoveEdgeImpl(src, dst, id);
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return RemoveEdgeImpl(src, dst, label);
}

Status ShardRouter::RemoveEdgeImpl(NodeId src, NodeId dst, LabelId label) {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  if (DirectSingleShard()) {
    return shards_[0]->engine().RemoveEdge(src, dst, label);
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("RemoveEdge: endpoint out of range");
  }
  const uint32_t s1 = topo->shard_of[src];
  const uint32_t s2 = topo->shard_of[dst];

  wire::MutateRequest req;
  req.op = wire::MutateOp::kRemoveEdge;
  req.src = src;
  req.dst = dst;
  req.label = label;
  const Result<wire::MutateReply> r1 = CallMutate(s1, req);
  if (!r1.ok()) return r1.status();
  Status st = wire::UnpackStatus(r1->status_code, r1->error);
  if (s2 != s1) {
    const Result<wire::MutateReply> r2 = CallMutate(s2, req);
    if (!r2.ok()) {
      // Mirror of the AddEdge compensation: restore s1's half so the
      // cut edge is not half-removed.
      if (st.ok()) {
        const Status undo = shards_[s1]->engine().AddEdge(src, dst, label);
        if (!undo.ok()) {
          return Status::Internal(
              "RemoveEdge: rollback after partial apply failed: " +
              undo.ToString() + " (original: " + r2.status().ToString() + ")");
        }
      }
      return r2.status();
    }
    const Status st2 = wire::UnpackStatus(r2->status_code, r2->error);
    if (st.ok() != st2.ok()) {
      return Status::Internal("RemoveEdge: shards disagree (" + st.ToString() +
                              " vs " + st2.ToString() + ")");
    }
  }
  if (!st.ok()) return st;
  if (s1 != s2 && HasCutArc(*topo, src, dst, label)) {
    auto next = std::make_shared<ShardTopology>(*topo);
    EraseCutArc(next->cut_out, src, dst, label);
    EraseCutArc(next->cut_in, dst, src, label);
    if (!TouchesCut(*next, src)) SortedErase(next->boundary[s1], src);
    if (!TouchesCut(*next, dst)) SortedErase(next->boundary[s2], dst);
    ++next->epoch;
    PublishTopology(std::move(next));
  }
  return OkStatus();
}

Result<NodeId> ShardRouter::AddNode() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (shards_.size() == 1) {
    SARGUS_ASSIGN_OR_RETURN(const NodeId id,
                            shards_[0]->engine().AddNode());
    auto next = std::make_shared<ShardTopology>(*topo);
    next->shard_of.push_back(0);
    ++next->epoch;
    PublishTopology(std::move(next));
    return id;
  }

  // Every shard keeps the full node id space, so the node is added to
  // ALL shards (the ids must come back aligned); the topology then
  // assigns ownership to the least-loaded shard. This is a cluster-
  // membership operation, so it goes over the direct control plane, not
  // the faultable transport: a partial AddNode would misalign node ids
  // across shards permanently, which no retry could repair.
  const NodeId expected = static_cast<NodeId>(topo->shard_of.size());
  wire::MutateRequest req;
  req.op = wire::MutateOp::kAddNode;
  // Fan the round out through the per-shard mutation queues and gather
  // the tickets: N shards assign the id concurrently. write_mu_ keeps
  // any other router AddNode from interleaving its submissions, so each
  // shard sees exactly one AddNode and alignment still holds.
  std::vector<WriteTicket> tickets;
  tickets.reserve(shards_.size());
  for (auto& shard : shards_) tickets.push_back(shard->SubmitMutate(req));
  Status failed = OkStatus();
  for (const WriteTicket& ticket : tickets) {
    const wire::MutateReply reply =
        ShardEngine::ReplyFromOutcome(req, ticket.Wait());
    const Status st = wire::UnpackStatus(reply.status_code, reply.error);
    if (!st.ok()) {
      // Drain every ticket before failing — no abandoned futures.
      if (failed.ok()) failed = st;
      continue;
    }
    if (failed.ok() && reply.new_node != expected) {
      failed = Status::Internal(
          "AddNode: shard node ids diverged (got " +
          std::to_string(reply.new_node) + ", expected " +
          std::to_string(expected) + ")");
    }
  }
  SARGUS_RETURN_IF_ERROR(failed);
  uint32_t target = 0;
  for (uint32_t s = 1; s < loads_.size(); ++s) {
    if (loads_[s] < loads_[target]) target = s;
  }
  ++loads_[target];
  auto next = std::make_shared<ShardTopology>(*topo);
  next->shard_of.push_back(target);
  ++next->epoch;
  PublishTopology(std::move(next));
  return expected;
}

Status ShardRouter::RefreshSummaries() {
  if (!options_.build_summaries || shards_.size() <= 1) return OkStatus();
  const auto topo = topology();
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->RefreshSummary(*topo));
  }
  return OkStatus();
}

Status ShardRouter::CompactAll() {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->engine().Compact());
    shard->engine().WaitForCompaction();
  }
  return RefreshSummaries();
}

}  // namespace sargus
