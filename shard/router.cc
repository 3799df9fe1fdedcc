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

// Per frame kind: the empty test ScatterGather skips on, and the frame
// content the retry salt is derived from.
bool FrameEmpty(const wire::BatchCheckRequest& f) { return f.requests.empty(); }
bool FrameEmpty(const wire::WalkRequest& f) { return f.walks.empty(); }

uint64_t FrameSalt(uint32_t shard, const wire::BatchCheckRequest& f) {
  const wire::CheckRequest& head = f.requests.front();
  return (uint64_t{shard} << 48) ^ (uint64_t{f.requests.size()} << 36) ^
         (uint64_t{head.requester} << 18) ^ head.resource;
}

uint64_t FrameSalt(uint32_t shard, const wire::WalkRequest& f) {
  const wire::Walk& head = f.walks.front();
  return (uint64_t{shard} << 48) ^ (uint64_t{f.walks.size()} << 36) ^
         (uint64_t{head.rule} << 28) ^ (uint64_t{head.path} << 24) ^
         (uint64_t{head.owner} << 12) ^ head.requester;
}

constexpr size_t kNoRule = ~size_t{0};

/// One batch slot's progress through the decision procedure.
struct BatchSlot {
  /// Set when the slot is settled before any walk: a validation error,
  /// owner access, or a failed owner sub-batch.
  std::optional<Result<AccessDecision>> settled;
  /// The owner phase's grant; dropped when an earlier rule grants.
  std::optional<AccessDecision> owner_grant;
  /// Position, in the resource's rule order, of the earliest rule known
  /// to grant.
  size_t grant_pos = kNoRule;
  uint64_t pairs_visited = 0;
  bool frontier = false;
  /// This slot's walks, [first_walk, end_walk) of the batch's walks.
  size_t first_walk = 0;
  size_t end_walk = 0;
  /// The first failing walk in (rule, path) order, and its status.
  size_t error_walk = ~size_t{0};
  std::optional<Status> error;

  void RecordError(size_t walk, const Status& status) {
    if (walk < error_walk) {
      error_walk = walk;
      error = status;
    }
  }
};

/// One (slot, rule path) walk and its frontier-exchange state. A
/// batch's walks are created in (slot, rule, path) order, so each
/// slot's walks are one contiguous block and their index orders the
/// slot's errors.
struct BatchWalk {
  uint32_t slot = 0;
  size_t rule_pos = 0;
  /// The phase-one walk; frontier rounds resend it with entries.
  wire::Walk spec;
  bool live = true;
  uint64_t rounds = 0;
  /// Configurations already shipped; each enters a shard once.
  std::unordered_set<uint64_t> processed;
  /// Entries for the next round, by owning shard.
  std::vector<std::vector<wire::FrontierEntry>> pending;
  /// This round's outcome.
  bool accepted = false;
  std::optional<Status> failure;
};

}  // namespace

ShardRouter::ShardRouter(const SocialGraph& graph, const PolicyStore& store,
                         RouterOptions options)
    : master_graph_(&graph),
      master_store_(&store),
      options_(std::move(options)) {}

Status ShardRouter::Build() {
  SARGUS_ASSIGN_OR_RETURN(
      partition_, GraphPartitioner::Partition(*master_graph_, options_.partition));

  // One immutable copy of the store, shared by every shard.
  const auto store = std::make_shared<const PolicyStore>(*master_store_);
  shards_.clear();
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    SARGUS_ASSIGN_OR_RETURN(
        SocialGraph sub,
        ExtractShardGraph(*master_graph_, partition_.shard_of, s));
    shards_.push_back(std::make_unique<ShardEngine>(
        s, std::make_unique<SocialGraph>(std::move(sub)), store,
        options_.engine));
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->Build());
  }

  // Stand up the data-plane executor (decorated when the caller
  // installed a fault seam) and the per-shard circuit breaker.
  std::vector<ShardEngine*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) raw.push_back(shard.get());
  auto base = std::make_unique<ThreadedTransport>(std::move(raw),
                                                  options_.executor);
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
  resources_.reserve(store->NumResources());
  for (ResourceId r = 0; r < store->NumResources(); ++r) {
    const PolicyStore::Resource& res = store->resource(r);
    resources_.push_back(RouterResource{res.owner, res.rules});
  }
  num_paths_.clear();
  num_paths_.reserve(store->NumRules());
  for (RuleId id = 0; id < store->NumRules(); ++id) {
    num_paths_.push_back(static_cast<uint32_t>(store->rule(id).paths.size()));
  }

  auto topo = std::make_shared<ShardTopology>();
  topo->num_shards = partition_.num_shards;
  topo->shard_of = partition_.shard_of;
  topo->epoch = 1;
  PublishTopology(std::move(topo));

  loads_.assign(partition_.num_shards, 0);
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    loads_[s] = partition_.members[s].size();
  }

  built_ = true;
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
  c.fallback_walks = counters_.fallback_walks.load(kRelaxed);
  c.cross_fallback_walks = counters_.cross_fallback_walks.load(kRelaxed);
  c.fallback_rounds = counters_.fallback_rounds.load(kRelaxed);
  c.retries = counters_.retries.load(kRelaxed);
  c.timeouts = counters_.timeouts.load(kRelaxed);
  c.breaker_opens = health_ == nullptr ? 0 : health_->opens();
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

Result<wire::MutateReply> ShardRouter::CallMutate(
    uint32_t shard, const wire::MutateRequest& req) const {
  const uint64_t salt = (uint64_t{static_cast<uint8_t>(req.op)} << 56) ^
                        (uint64_t{req.src} << 28) ^ (uint64_t{req.dst} << 8) ^
                        req.label;
  PendingCall<wire::MutateRequest> pc = BeginCall(shard, salt, req);
  return FinishCall(pc);
}

template <typename Request>
std::vector<std::pair<uint32_t, Result<ReplyFor<Request>>>>
ShardRouter::ScatterGather(const std::vector<Request>& frames,
                           uint64_t salt_base) const {
  std::vector<PendingCall<Request>> calls;
  for (uint32_t s = 0; s < frames.size(); ++s) {
    if (FrameEmpty(frames[s])) continue;
    calls.push_back(
        BeginCall(s, salt_base ^ FrameSalt(s, frames[s]), frames[s]));
  }
  // Every ticket is resolved, even after a failure, so no frame is
  // abandoned mid-round.
  std::vector<std::pair<uint32_t, Result<ReplyFor<Request>>>> replies;
  replies.reserve(calls.size());
  for (PendingCall<Request>& call : calls) {
    replies.emplace_back(call.shard, FinishCall(call));
  }
  return replies;
}

Result<AccessDecision> ShardRouter::CheckAccess(
    const AccessRequest& request) const {
  return std::move(
      CheckAccessBatch(std::span<const AccessRequest>(&request, 1)).front());
}

std::vector<Result<AccessDecision>> ShardRouter::CheckAccessBatch(
    std::span<const AccessRequest> requests) const {
  std::vector<Result<AccessDecision>> out;
  out.reserve(requests.size());
  if (!built_) {
    for (size_t i = 0; i < requests.size(); ++i) {
      out.emplace_back(
          Status::FailedPrecondition("ShardRouter: Build() not called"));
    }
    return out;
  }
  counters_.checks.fetch_add(requests.size(), kRelaxed);

  const auto topo = topology();
  const wire::Stamp stamp = Stamp();
  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());
  const auto owner_shard = [&](uint32_t i) {
    return topo->shard_of[resources_[requests[i].resource].owner];
  };
  const auto decision = [&](uint32_t i) {
    AccessDecision d;
    d.requester = requests[i].requester;
    d.resource = requests[i].resource;
    d.snapshot_generation = stamp.snapshot_generation;
    d.overlay_version = stamp.overlay_version;
    return d;
  };

  // Validate; the owner's own access needs no shard at all.
  std::vector<BatchSlot> slots(requests.size());
  std::vector<wire::BatchCheckRequest> owner_frames(num_shards);
  std::vector<std::vector<uint32_t>> owner_slots(num_shards);
  for (uint32_t i = 0; i < requests.size(); ++i) {
    const AccessRequest& r = requests[i];
    if (r.resource >= resources_.size()) {
      slots[i].settled = Status::NotFound("ShardRouter: unknown resource " +
                                          std::to_string(r.resource));
    } else if (r.requester >= topo->shard_of.size() ||
               resources_[r.resource].owner >= topo->shard_of.size()) {
      slots[i].settled = Status::InvalidArgument(
          "ShardRouter: requester or owner out of range for request " +
          std::to_string(r.requester) + " -> " + std::to_string(r.resource));
    } else if (r.requester == resources_[r.resource].owner) {
      AccessDecision d = decision(i);
      d.granted = true;
      d.owner_access = true;
      d.evaluator_name = "shard-owner";
      slots[i].settled = std::move(d);
    } else {
      owner_frames[owner_shard(i)].requests.push_back(ToWire(r));
      owner_slots[owner_shard(i)].push_back(i);
    }
  }

  // Step 1: the owner sub-batches. A grant is authoritative; a failed
  // sub-batch settles its slots with the transport error.
  for (auto& [s, reply] : ScatterGather(owner_frames, 0xBA7CULL)) {
    const std::vector<uint32_t>& group = owner_slots[s];
    if (reply.ok() && reply->replies.size() != group.size()) {
      reply = Status::Unavailable("shard " + std::to_string(s) +
                                  ": short batch reply");
    }
    for (size_t k = 0; k < group.size(); ++k) {
      BatchSlot& slot = slots[group[k]];
      if (!reply.ok()) {
        slot.settled = reply.status();
        continue;
      }
      const wire::CheckReply& check = reply->replies[k];
      slot.pairs_visited = check.pairs_visited;
      if (check.status_code != 0 || check.granted == 0) continue;
      counters_.local_conclusive.fetch_add(1, kRelaxed);
      const std::vector<RuleId>& rules =
          resources_[requests[group[k]].resource].rules;
      const auto it =
          std::find(rules.begin(), rules.end(), check.matched_rule);
      slot.grant_pos = check.has_matched_rule != 0 && it != rules.end()
                           ? static_cast<size_t>(it - rules.begin())
                           : 0;
      slot.owner_grant = *FromWire(check, requests[group[k]].requester,
                                   requests[group[k]].resource);
      slot.owner_grant->snapshot_generation = stamp.snapshot_generation;
      slot.owner_grant->overlay_version = stamp.overlay_version;
    }
  }

  // Step 2: one walk per (open slot, rule path) ahead of the slot's
  // earliest known grant, all seeded at the owner in one frame per
  // owner shard (phase one).
  std::vector<BatchWalk> walks;
  std::vector<wire::WalkRequest> frames(num_shards);
  std::vector<std::vector<size_t>> carried(num_shards);
  uint64_t cross = 0;
  for (uint32_t i = 0; i < requests.size(); ++i) {
    BatchSlot& slot = slots[i];
    if (slot.settled.has_value() || slot.grant_pos == 0) continue;
    ++cross;
    slot.first_walk = walks.size();
    const RouterResource& res = resources_[requests[i].resource];
    for (size_t pos = 0; pos < res.rules.size() && pos < slot.grant_pos;
         ++pos) {
      const RuleId rule = res.rules[pos];
      // A path that failed to bind comes back as that walk's error.
      for (uint32_t p = 0; p < num_paths_[rule]; ++p) {
        BatchWalk& walk = walks.emplace_back();
        walk.slot = i;
        walk.rule_pos = pos;
        walk.spec = {.rule = rule,
                     .path = p,
                     .requester = requests[i].requester,
                     .seed = wire::WalkSeed::kOwnerStarts,
                     .owner = res.owner,
                     .frontier = {}};
        walk.pending.resize(num_shards);
        frames[owner_shard(i)].walks.push_back(walk.spec);
        carried[owner_shard(i)].push_back(walks.size() - 1);
      }
    }
    slot.end_walk = walks.size();
  }
  counters_.cross_shard_checks.fetch_add(cross, kRelaxed);

  // Gather phase one (round 0), then run frontier rounds for every walk
  // together. Each round gathers in ascending shard order, then settles
  // the walks in batch order: an accept wins even if a sibling frame of
  // the same walk faulted, and a grant drops the slot's walks for its
  // own and later rules.
  uint64_t round = 0;
  while (true) {
    for (auto& [s, reply] : ScatterGather(frames, 0xFA11ULL ^ (round << 8))) {
      if (reply.ok() && reply->results.size() != carried[s].size()) {
        reply = Status::Unavailable("shard " + std::to_string(s) +
                                    ": short walk reply");
      }
      for (size_t k = 0; k < carried[s].size(); ++k) {
        BatchWalk& walk = walks[carried[s][k]];
        const Status st =
            reply.ok() ? wire::UnpackStatus(reply->results[k].status_code,
                                            reply->results[k].error)
                       : reply.status();
        if (!st.ok()) {
          if (!walk.failure.has_value()) walk.failure = st;
          continue;
        }
        const wire::WalkResult& result = reply->results[k];
        slots[walk.slot].pairs_visited += result.pairs_visited;
        if (result.accepted != 0) walk.accepted = true;
        for (const wire::FrontierEntry& e : result.exports) {
          if (e.node >= topo->shard_of.size()) {
            // The shard routed by a newer topology than this batch pinned.
            if (!walk.failure.has_value()) {
              walk.failure = Status::Unavailable(
                  "ShardRouter: topology changed during the check");
            }
            continue;
          }
          if (walk.processed.insert(ConfigKey(e)).second) {
            walk.pending[topo->shard_of[e.node]].push_back(e);
          }
        }
      }
    }
    for (size_t w = 0; w < walks.size(); ++w) {
      BatchWalk& walk = walks[w];
      if (!walk.live) continue;
      BatchSlot& slot = slots[walk.slot];
      const bool has_pending =
          std::any_of(walk.pending.begin(), walk.pending.end(),
                      [](const auto& p) { return !p.empty(); });
      if (walk.accepted) {
        slot.grant_pos = walk.rule_pos;
        slot.owner_grant.reset();  // an earlier rule than the owner's
        for (size_t k = slot.first_walk; k < slot.end_walk; ++k) {
          if (walks[k].rule_pos >= walk.rule_pos) walks[k].live = false;
        }
      } else if (walk.failure.has_value()) {
        slot.RecordError(w, *walk.failure);
        walk.live = false;
      } else if (!has_pending) {
        walk.live = false;  // fixpoint: this path does not reach
      } else if (round == 0) {
        counters_.fallback_walks.fetch_add(1, kRelaxed);
        slot.frontier = true;
      }
    }
    ++round;
    frames.assign(num_shards, {});
    carried.assign(num_shards, {});
    bool any = false;
    for (size_t w = 0; w < walks.size(); ++w) {
      BatchWalk& walk = walks[w];
      if (!walk.live) continue;
      ++walk.rounds;
      any = true;
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (walk.pending[s].empty()) continue;
        wire::Walk& item = frames[s].walks.emplace_back(walk.spec);
        item.seed = wire::WalkSeed::kFrontier;
        item.frontier = std::move(walk.pending[s]);
        walk.pending[s].clear();
        carried[s].push_back(w);
      }
    }
    if (!any) break;
  }

  uint64_t rounds = 0;
  for (const BatchWalk& walk : walks) rounds += walk.rounds;
  counters_.fallback_rounds.fetch_add(rounds, kRelaxed);

  const auto finish = [&](uint32_t i) -> Result<AccessDecision> {
    BatchSlot& slot = slots[i];
    if (slot.settled.has_value()) return std::move(*slot.settled);
    if (slot.owner_grant.has_value()) {
      slot.owner_grant->stats.pairs_visited = slot.pairs_visited;
      return std::move(*slot.owner_grant);
    }
    if (slot.grant_pos == kNoRule && slot.error.has_value()) {
      return *slot.error;
    }
    AccessDecision d = decision(i);
    d.granted = slot.grant_pos != kNoRule;
    if (d.granted) {
      d.matched_rule = resources_[requests[i].resource].rules[slot.grant_pos];
    }
    d.stats.pairs_visited = slot.pairs_visited;
    d.evaluator_name = slot.frontier ? "shard-frontier" : "shard-local";
    return d;
  };
  for (uint32_t i = 0; i < requests.size(); ++i) {
    if (slots[i].frontier) {
      counters_.cross_fallback_walks.fetch_add(1, kRelaxed);
    }
    Result<AccessDecision> d = finish(i);
    if (!d.ok() && IsTransportError(d.status())) {
      counters_.unavailable_errors.fetch_add(1, kRelaxed);
    }
    out.push_back(std::move(d));
  }
  return out;
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  // Pre-intern the name into every shard (shard 0 first) so the id every
  // shard resolves is identical — the invariant wire frontiers rely on.
  // The caller's graph is never written, so its dictionary stays as
  // Build() found it.
  const LabelId id = shards_[0]->InternLabel(label);
  if (id == kInvalidLabel) {
    return Status::ResourceExhausted("AddEdge: label dictionary full");
  }
  for (auto& shard : shards_) {
    if (shard->InternLabel(label) != id) {
      return Status::Internal("AddEdge: label dictionaries diverged");
    }
  }
  return MutateEdge(wire::MutateOp::kAddEdge, src, dst, id);
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return MutateEdge(wire::MutateOp::kAddEdge, src, dst, label);
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst,
                               const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  // Shard dictionaries are aligned (see AddEdge) and, unlike the
  // caller's, know labels interned since Build().
  const LabelId id = shards_[0]->LookupLabel(label);
  if (id == kInvalidLabel) {
    return Status::NotFound("RemoveEdge: unknown label '" + label + "'");
  }
  return MutateEdge(wire::MutateOp::kRemoveEdge, src, dst, id);
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return MutateEdge(wire::MutateOp::kRemoveEdge, src, dst, label);
}

Status ShardRouter::MutateEdge(wire::MutateOp op, NodeId src, NodeId dst,
                               LabelId label) {
  const std::string what =
      op == wire::MutateOp::kAddEdge ? "AddEdge" : "RemoveEdge";
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument(what + ": endpoint out of range");
  }
  const uint32_t s1 = topo->shard_of[src];
  const uint32_t s2 = topo->shard_of[dst];

  const wire::MutateRequest req{
      .op = op, .src = src, .dst = dst, .label = label};
  // Transport mutations are fail-stop-before-apply (shard/transport.h):
  // a transport error here means shard s1 never saw the mutation.
  const Result<wire::MutateReply> r1 = CallMutate(s1, req);
  if (!r1.ok()) return r1.status();
  const Status st = wire::UnpackStatus(r1->status_code, r1->error);
  if (s2 == s1) return st;
  const Result<wire::MutateReply> r2 = CallMutate(s2, req);
  if (!r2.ok()) {
    // s1 already applied its half of the cut edge. Compensate with the
    // inverse op over the direct control plane — it stays reliable even
    // when the data-plane transport is faulting — so a torn cut edge is
    // never observable.
    if (st.ok()) {
      wire::MutateRequest inverse = req;
      inverse.op = op == wire::MutateOp::kAddEdge ? wire::MutateOp::kRemoveEdge
                                                  : wire::MutateOp::kAddEdge;
      const wire::MutateReply undo = shards_[s1]->Mutate(inverse);
      if (undo.status_code != 0) {
        return Status::Internal(
            what + ": rollback after partial apply failed: " +
            wire::UnpackStatus(undo.status_code, undo.error).ToString() +
            " (original: " + r2.status().ToString() + ")");
      }
    }
    return r2.status();
  }
  const Status st2 = wire::UnpackStatus(r2->status_code, r2->error);
  if (st.ok() != st2.ok()) {
    return Status::Internal(what + ": shards disagree (" + st.ToString() +
                            " vs " + st2.ToString() + ")");
  }
  return st;
}

Result<NodeId> ShardRouter::AddNode() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
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

Status ShardRouter::CompactAll() {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->engine().Compact());
    shard->engine().WaitForCompaction();
  }
  return OkStatus();
}

}  // namespace sargus
