#include "shard/transport.h"

#include <string>
#include <utility>

namespace sargus {
namespace {

/// Uniform double in [0, 1) from one 64-bit draw (top 53 bits), so the
/// sampling sequence is bit-identical across platforms — unlike the
/// standard distributions, which the standard leaves unspecified.
double UnitDraw(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Deadlines are absolute times on a specific transport's clock. The
/// fault decorator enforces them against its own virtual clock and must
/// therefore NOT forward them to the wrapped transport, whose clock is
/// unrelated (steady_clock for ThreadedTransport).
constexpr TransportCallOptions kNoInnerDeadline{};

}  // namespace

// ---- FaultInjectionTransport ------------------------------------------------

FaultInjectionTransport::FaultInjectionTransport(
    std::unique_ptr<ShardTransport> inner, uint64_t seed)
    : inner_(std::move(inner)),
      // A virtual epoch well above zero so an absolute deadline of 0
      // stays an unambiguous "no deadline" sentinel.
      clock_ms_(uint64_t{1} << 20) {
  const uint32_t n = inner_->num_shards();
  states_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    auto st = std::make_unique<ShardState>();
    // Distinct, seed-derived stream per shard: faults on one shard do
    // not shift another shard's sequence.
    st->rng.seed(seed * 0x9e3779b97f4a7c15ULL + s + 1);
    states_.push_back(std::move(st));
  }
}

void FaultInjectionTransport::SetProfile(uint32_t shard,
                                         const ShardFaultProfile& profile) {
  ShardState& st = *states_[shard];
  std::lock_guard<std::mutex> lock(st.mu);
  st.profile = profile;
}

void FaultInjectionTransport::AddSchedule(const FaultScheduleEntry& entry) {
  schedule_.push_back(entry);
}

void FaultInjectionTransport::Blackout(uint32_t shard, bool black) {
  states_[shard]->blackout.store(black, std::memory_order_relaxed);
}

bool FaultInjectionTransport::blacked_out(uint32_t shard) const {
  return states_[shard]->blackout.load(std::memory_order_relaxed);
}

FaultCounters FaultInjectionTransport::counters(uint32_t shard) const {
  ShardState& st = *states_[shard];
  std::lock_guard<std::mutex> lock(st.mu);
  return st.counters;
}

FaultKind FaultInjectionTransport::DrawFault(uint32_t shard) {
  ShardState& st = *states_[shard];
  std::lock_guard<std::mutex> lock(st.mu);
  const uint64_t idx = st.call_index++;
  ++st.counters.calls;
  if (st.blackout.load(std::memory_order_relaxed)) {
    ++st.counters.drops;
    return FaultKind::kDrop;
  }
  FaultKind kind = FaultKind::kNone;
  for (const FaultScheduleEntry& e : schedule_) {
    if (e.shard == shard && idx >= e.first_call && idx <= e.last_call) {
      kind = e.kind;
      break;
    }
  }
  if (kind == FaultKind::kNone) {
    const ShardFaultProfile& p = st.profile;
    if (p.delay_probability > 0 && UnitDraw(st.rng) < p.delay_probability) {
      kind = FaultKind::kDelay;
    } else if (p.drop_probability > 0 &&
               UnitDraw(st.rng) < p.drop_probability) {
      kind = FaultKind::kDrop;
    }
  }
  switch (kind) {
    case FaultKind::kDelay: {
      ++st.counters.delays;
      const uint32_t lo = st.profile.delay_min_ms;
      const uint32_t hi =
          st.profile.delay_max_ms > lo ? st.profile.delay_max_ms : lo;
      const uint32_t ms =
          lo + static_cast<uint32_t>(st.rng() % (uint64_t{hi} - lo + 1));
      clock_ms_.fetch_add(ms, std::memory_order_relaxed);
      break;
    }
    case FaultKind::kDrop:
      ++st.counters.drops;
      break;
    case FaultKind::kNone:
      break;
  }
  return kind;
}

Status FaultInjectionTransport::DropStatus(uint32_t shard) {
  return Status::Unavailable("injected: shard " + std::to_string(shard) +
                             " unreachable");
}

Status FaultInjectionTransport::DeadlineStatus(
    uint32_t shard, const TransportCallOptions& opts) {
  if (opts.deadline_ms != 0 && NowMs() > opts.deadline_ms) {
    ShardState& st = *states_[shard];
    std::lock_guard<std::mutex> lock(st.mu);
    ++st.counters.deadline_hits;
    return Status::DeadlineExceeded("transport: call deadline passed (shard " +
                                    std::to_string(shard) + ")");
  }
  return OkStatus();
}

template <typename Request>
TransportTicket<ReplyFor<Request>> FaultInjectionTransport::Inject(
    uint32_t shard, const Request& request, const TransportCallOptions& opts) {
  using Reply = ReplyFor<Request>;
  using Ticket = TransportTicket<Reply>;
  // Every fault fires before the request is delivered, so a faulted
  // mutation was never applied (fail-stop-before-apply; transport.h).
  if (DrawFault(shard) == FaultKind::kDrop) {
    return Ticket::Ready(DropStatus(shard));
  }
  if (Status s = DeadlineStatus(shard, opts); !s.ok()) {
    return Ticket::Ready(std::move(s));
  }
  // The deadline was already enforced against THIS transport's (virtual)
  // clock; the inner transport runs a different clock, so the deadline
  // must not leak through.
  return inner_->Submit(shard, request, kNoInnerDeadline);
}

TransportTicket<wire::BatchCheckReply> FaultInjectionTransport::Submit(
    uint32_t shard, const wire::BatchCheckRequest& request,
    const TransportCallOptions& opts) {
  return Inject(shard, request, opts);
}

TransportTicket<wire::WalkReply> FaultInjectionTransport::Submit(
    uint32_t shard, const wire::WalkRequest& request,
    const TransportCallOptions& opts) {
  return Inject(shard, request, opts);
}

TransportTicket<wire::MutateReply> FaultInjectionTransport::Submit(
    uint32_t shard, const wire::MutateRequest& request,
    const TransportCallOptions& opts) {
  return Inject(shard, request, opts);
}

// ---- ShardHealthTracker -----------------------------------------------------

ShardHealthTracker::ShardHealthTracker(uint32_t num_shards,
                                       uint32_t failure_threshold,
                                       uint32_t open_ms)
    : failure_threshold_(failure_threshold), open_ms_(open_ms) {
  entries_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    entries_.push_back(std::make_unique<Entry>());
  }
}

bool ShardHealthTracker::AllowCall(uint32_t shard, uint64_t now_ms) {
  Entry& e = *entries_[shard];
  uint8_t state = e.state.load(std::memory_order_acquire);
  if (state == static_cast<uint8_t>(BreakerState::kClosed)) return true;
  if (state == static_cast<uint8_t>(BreakerState::kOpen)) {
    if (now_ms < e.open_until_ms.load(std::memory_order_acquire)) {
      return false;
    }
    // Window elapsed: move to half-open (any one racer may do it).
    uint8_t expected = static_cast<uint8_t>(BreakerState::kOpen);
    e.state.compare_exchange_strong(
        expected, static_cast<uint8_t>(BreakerState::kHalfOpen),
        std::memory_order_acq_rel);
  }
  // Half-open: exactly one probe at a time.
  bool expected_probe = false;
  return e.probe_in_flight.compare_exchange_strong(
      expected_probe, true, std::memory_order_acq_rel);
}

void ShardHealthTracker::RecordSuccess(uint32_t shard) {
  Entry& e = *entries_[shard];
  e.consecutive_failures.store(0, std::memory_order_relaxed);
  e.state.store(static_cast<uint8_t>(BreakerState::kClosed),
                std::memory_order_release);
  e.probe_in_flight.store(false, std::memory_order_release);
}

void ShardHealthTracker::RecordFailure(uint32_t shard, uint64_t now_ms) {
  Entry& e = *entries_[shard];
  const uint8_t state = e.state.load(std::memory_order_acquire);
  if (state == static_cast<uint8_t>(BreakerState::kHalfOpen)) {
    // The probe failed: re-open a full window.
    e.open_until_ms.store(now_ms + open_ms_, std::memory_order_release);
    e.state.store(static_cast<uint8_t>(BreakerState::kOpen),
                  std::memory_order_release);
    e.probe_in_flight.store(false, std::memory_order_release);
    opens_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t failures =
      e.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (failures >= failure_threshold_ &&
      state == static_cast<uint8_t>(BreakerState::kClosed)) {
    uint8_t expected = static_cast<uint8_t>(BreakerState::kClosed);
    if (e.state.compare_exchange_strong(
            expected, static_cast<uint8_t>(BreakerState::kOpen),
            std::memory_order_acq_rel)) {
      e.open_until_ms.store(now_ms + open_ms_, std::memory_order_release);
      opens_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

BreakerState ShardHealthTracker::state(uint32_t shard) const {
  return static_cast<BreakerState>(
      entries_[shard]->state.load(std::memory_order_acquire));
}

uint32_t ShardHealthTracker::consecutive_failures(uint32_t shard) const {
  return entries_[shard]->consecutive_failures.load(
      std::memory_order_relaxed);
}

}  // namespace sargus
