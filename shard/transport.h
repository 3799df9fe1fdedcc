#ifndef SARGUS_SHARD_TRANSPORT_H_
#define SARGUS_SHARD_TRANSPORT_H_

/// \file transport.h
/// \brief The router <-> shard call seam, and everything that can go
/// wrong across it.
///
/// ShardTransport is the one interface the ShardRouter uses to reach a
/// ShardEngine's data plane, and it has one call surface: Submit(shard,
/// request, opts), overloaded on the four request messages (check, batch
/// check, frontier walk, mutation), returns a TransportTicket whose
/// Wait() yields the typed reply. Call() is Submit + Wait. The router
/// builds one base transport and may wrap it:
///
///   * ThreadedTransport (shard/executor_transport.h) — the base: one
///     worker thread and one bounded job queue per shard, typed structs
///     passed through untouched. Every ShardRouter runs it, N = 1
///     included.
///   * FaultInjectionTransport — a decorator that wraps any transport
///     and injects faults per shard: dropped calls (kUnavailable),
///     injected delays against a virtual clock (driving deadlines to
///     kDeadlineExceeded), in-band error frames, and corrupted reply
///     frames (the reply is really encoded, seeded bytes are flipped,
///     and the decode is attempted — the wire checksum turns almost
///     every corruption into a clean error; the rare frame that still
///     decodes is byte-identical, so it is safe to accept).
///     Deterministic: same seed + same call sequence = same faults.
///
/// The transport error contract: a transport call returns non-OK ONLY
/// with kUnavailable (the shard could not be reached / gave garbage) or
/// kDeadlineExceeded (the per-call deadline passed). Every other
/// failure — evaluation errors, unknown resources, bad arguments — is a
/// shard-side result and travels in-band in the typed reply's
/// status_code. The router's retry / circuit-breaker policy keys off
/// exactly this split: transport errors are retryable infrastructure
/// faults; in-band errors are answers.
///
/// Mutations are fail-stop-before-apply: a transport error on a
/// mutation means the shard never applied it. FaultInjectionTransport
/// faults a mutation BEFORE delivering it (modelling a connection that
/// died before the request hit the wire), and no transport gives up on
/// a mutation ticket once the mutation may have been delivered. The
/// retransmit-after-apply duplicate problem is real for sockets and is
/// explicitly out of scope until a real socket transport exists
/// (exactly-once needs request ids and reply caching — a protocol
/// change, not a policy change).
///
/// The transport also owns time: NowMs() / SleepMs() route through the
/// same interface so the fault decorator can run a virtual clock —
/// chaos tests inject multi-second delay storms and breaker-open
/// windows without ever really sleeping.
///
/// ShardHealthTracker is the router's per-shard circuit breaker
/// (consecutive-failure threshold -> open window -> single half-open
/// probe). It lives here rather than in the router so transport-level
/// tests can drive the state machine directly. All state is atomic;
/// concurrent readers never block.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <utility>
#include <vector>

#include "common/result.h"
#include "shard/wire.h"

namespace sargus {

/// The reply message each request message is answered with.
template <typename Request>
struct ReplyOf;
template <>
struct ReplyOf<wire::CheckRequest> {
  using type = wire::CheckReply;
};
template <>
struct ReplyOf<wire::BatchCheckRequest> {
  using type = wire::BatchCheckReply;
};
template <>
struct ReplyOf<wire::WalkRequest> {
  using type = wire::WalkReply;
};
template <>
struct ReplyOf<wire::MutateRequest> {
  using type = wire::MutateReply;
};
template <typename Request>
using ReplyFor = typename ReplyOf<Request>::type;

/// Per-call knobs. `deadline_ms` is an ABSOLUTE transport-clock time
/// (NowMs() scale); 0 means no deadline. The transport checks it before
/// dispatch and after any injected delay.
struct TransportCallOptions {
  uint64_t deadline_ms = 0;
};

/// Handle to one in-flight transport call. Wait() is single-shot and
/// yields the reply or the transport error (including kDeadlineExceeded
/// when a read's deadline passes while waiting). A ticket whose outcome
/// is decided at Submit (a refused submit, an injected drop) is born
/// ready, so router scatter-gather code never special-cases it: it
/// always submits everything, then waits in a fixed order.
template <typename Reply>
class TransportTicket {
 public:
  /// An invalid ticket; Wait() on it is a programming error.
  TransportTicket() = default;

  /// A ticket whose result is already known (refused submits, faults
  /// decided at submit time).
  static TransportTicket Ready(Result<Reply> result) {
    auto held = std::make_shared<Result<Reply>>(std::move(result));
    TransportTicket t;
    t.wait_ = [held]() { return std::move(*held); };
    return t;
  }

  /// A ticket that blocks in `wait` (e.g. on a future) when collected.
  static TransportTicket Deferred(std::function<Result<Reply>()> wait) {
    TransportTicket t;
    t.wait_ = std::move(wait);
    return t;
  }

  /// Chains a post-processing step onto the gathered result (the fault
  /// decorator corrupts replies here, after the inner transport
  /// delivers them).
  TransportTicket Then(
      std::function<Result<Reply>(Result<Reply>)> post) && {
    return Deferred(
        [prev = std::move(wait_), post = std::move(post)]() {
          return post(prev());
        });
  }

  bool valid() const { return static_cast<bool>(wait_); }

  /// Blocks until the reply (or transport error) is available.
  /// Single-shot: the ticket is invalid afterwards.
  Result<Reply> Wait() {
    auto f = std::move(wait_);
    wait_ = nullptr;
    return f();
  }

 private:
  std::function<Result<Reply>()> wait_;
};

/// The router's only road to a shard's data plane.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual uint32_t num_shards() const = 0;

  /// The call surface. Submits one request to `shard` and returns its
  /// ticket; the transport copies the request if it needs it past
  /// return, so the caller's buffer only has to outlive the Submit call
  /// itself. A ticket's error is only ever kUnavailable /
  /// kDeadlineExceeded (see file comment); shard-side errors ride in the
  /// reply's status_code. Read tickets may give up at the deadline;
  /// mutation tickets never do once the mutation may have reached the
  /// shard, so a failed mutation was never applied.
  virtual TransportTicket<wire::CheckReply> Submit(
      uint32_t shard, const wire::CheckRequest& request,
      const TransportCallOptions& opts) = 0;
  virtual TransportTicket<wire::BatchCheckReply> Submit(
      uint32_t shard, const wire::BatchCheckRequest& request,
      const TransportCallOptions& opts) = 0;
  virtual TransportTicket<wire::WalkReply> Submit(
      uint32_t shard, const wire::WalkRequest& request,
      const TransportCallOptions& opts) = 0;
  virtual TransportTicket<wire::MutateReply> Submit(
      uint32_t shard, const wire::MutateRequest& request,
      const TransportCallOptions& opts) = 0;

  /// Submit + Wait.
  template <typename Request>
  Result<ReplyFor<Request>> Call(uint32_t shard, const Request& request,
                                 const TransportCallOptions& opts = {}) {
    return Submit(shard, request, opts).Wait();
  }

  /// Transport clock, milliseconds. Monotonic; origin unspecified.
  virtual uint64_t NowMs() = 0;
  /// Backoff sleep. Real time on the executor; virtual-clock advance on
  /// the fault decorator (tests never really wait).
  virtual void SleepMs(uint32_t ms) = 0;
};

// ---- Fault injection --------------------------------------------------------

enum class FaultKind : uint8_t {
  kNone = 0,
  /// The call never reaches the shard: kUnavailable.
  kDrop = 1,
  /// The shard answers with a wire ErrorFrame instead of a typed reply.
  kErrorReply = 2,
  /// The typed reply is encoded, mutated, and re-decoded; the checksum
  /// almost always turns this into kUnavailable ("corrupt reply frame").
  /// On a mutation it degrades to kDrop (fail-stop-before-apply).
  kCorrupt = 3,
  /// The virtual clock advances by a seeded amount in
  /// [delay_min_ms, delay_max_ms] before delivery; a passed deadline
  /// becomes kDeadlineExceeded.
  kDelay = 4,
};

/// Independent per-call fault probabilities for one shard. Sampled in
/// the order delay, drop, error, corrupt; at most one fires per call.
struct ShardFaultProfile {
  double delay_probability = 0.0;
  double drop_probability = 0.0;
  double error_probability = 0.0;
  double corrupt_probability = 0.0;
  uint32_t delay_min_ms = 1;
  uint32_t delay_max_ms = 10;
};

/// One scripted fault: calls [first_call, last_call] (0-based per-shard
/// call indices, inclusive) against `shard` suffer `kind`. Scripted
/// entries take precedence over the probabilistic profile, so tests can
/// stage exact storms ("shard 2's calls 5..9 all time out").
struct FaultScheduleEntry {
  uint32_t shard = 0;
  uint64_t first_call = 0;
  uint64_t last_call = 0;
  FaultKind kind = FaultKind::kDrop;
};

/// What the decorator actually did, per shard (diagnostics + test
/// assertions).
struct FaultCounters {
  uint64_t calls = 0;
  uint64_t drops = 0;
  uint64_t error_replies = 0;
  uint64_t corrupts = 0;
  uint64_t corrupt_survived = 0;  // mutated frame still decoded (accepted)
  uint64_t delays = 0;
  uint64_t deadline_hits = 0;
};

/// Deterministic fault-injecting decorator. Wraps any transport; every
/// knob is per shard. Thread-safe: probabilistic sampling runs under a
/// per-shard mutex (chaos tests hammer it from many reader threads),
/// blackout flags and the virtual clock are atomics.
///
/// The fault (and its per-shard call index / rng draw) is decided at
/// SUBMIT time on the submitting thread, so a single-threaded caller
/// sees the same deterministic fault sequence however the inner
/// transport schedules its jobs. Corrupt faults chain onto the inner
/// ticket and mangle the reply at gather time.
class FaultInjectionTransport final : public ShardTransport {
 public:
  FaultInjectionTransport(std::unique_ptr<ShardTransport> inner,
                          uint64_t seed);

  /// Installs the probabilistic profile for one shard.
  void SetProfile(uint32_t shard, const ShardFaultProfile& profile);
  /// Appends a scripted fault window.
  void AddSchedule(const FaultScheduleEntry& entry);
  /// Hard on/off switch: while black, every call to `shard` drops
  /// (mutations fault before delivery — nothing is applied).
  void Blackout(uint32_t shard, bool black);
  bool blacked_out(uint32_t shard) const;

  FaultCounters counters(uint32_t shard) const;

  uint32_t num_shards() const override { return inner_->num_shards(); }

  TransportTicket<wire::CheckReply> Submit(
      uint32_t shard, const wire::CheckRequest& request,
      const TransportCallOptions& opts) override;
  TransportTicket<wire::BatchCheckReply> Submit(
      uint32_t shard, const wire::BatchCheckRequest& request,
      const TransportCallOptions& opts) override;
  TransportTicket<wire::WalkReply> Submit(
      uint32_t shard, const wire::WalkRequest& request,
      const TransportCallOptions& opts) override;
  TransportTicket<wire::MutateReply> Submit(
      uint32_t shard, const wire::MutateRequest& request,
      const TransportCallOptions& opts) override;

  /// Virtual clock: starts at a fixed epoch, advances only through
  /// SleepMs and injected delays. Chaos runs are time-deterministic.
  uint64_t NowMs() override {
    return clock_ms_.load(std::memory_order_relaxed);
  }
  void SleepMs(uint32_t ms) override {
    clock_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    std::mutex mu;
    ShardFaultProfile profile;
    std::mt19937_64 rng;
    uint64_t call_index = 0;
    FaultCounters counters;
    std::atomic<bool> blackout{false};
  };

  /// Shared body of the four Submit overloads: draw the fault, apply
  /// it, and forward to the inner transport when the call survives.
  template <typename Request>
  TransportTicket<ReplyFor<Request>> Inject(uint32_t shard,
                                            const Request& request,
                                            const TransportCallOptions& opts);

  /// Decides this call's fate (advancing the per-shard call index and
  /// rng) and applies any delay to the clock. Returns the fault to
  /// apply; a non-OK deadline turns into kDeadlineExceeded upstream.
  FaultKind DrawFault(uint32_t shard);

  /// Per-fault-kind outcomes shared by the four call shapes.
  Status DropStatus(uint32_t shard);
  Status ErrorReplyStatus(uint32_t shard);
  Status DeadlineStatus(uint32_t shard, const TransportCallOptions& opts);

  /// Encode -> flip seeded bytes -> decode. Returns the surviving reply
  /// (byte-identical or it would not have decoded) or kUnavailable.
  template <typename Reply>
  Result<Reply> CorruptReply(uint32_t shard, const Reply& reply);

  /// Seeded byte mutation used by CorruptReply (under the shard mutex).
  void MutateBytes(ShardState& st, std::vector<uint8_t>& bytes);

  std::unique_ptr<ShardTransport> inner_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::vector<FaultScheduleEntry> schedule_;  // immutable after setup
  std::atomic<uint64_t> clock_ms_;
};

// ---- Circuit breaker --------------------------------------------------------

enum class BreakerState : uint8_t {
  /// Healthy: calls flow.
  kClosed = 0,
  /// Tripped: calls fail fast until the open window elapses.
  kOpen = 1,
  /// Window elapsed: exactly one probe call is allowed through; its
  /// outcome closes (success) or re-opens (failure) the breaker.
  kHalfOpen = 2,
};

/// Per-shard consecutive-failure circuit breaker. Lock-free; every
/// method is safe from any thread. The router consults AllowCall before
/// each transport attempt and reports outcomes back.
class ShardHealthTracker {
 public:
  ShardHealthTracker(uint32_t num_shards, uint32_t failure_threshold,
                     uint32_t open_ms);

  /// May a call to `shard` proceed at `now_ms`? In half-open, only the
  /// single probe winner gets true; everyone else fails fast.
  bool AllowCall(uint32_t shard, uint64_t now_ms);

  void RecordSuccess(uint32_t shard);
  void RecordFailure(uint32_t shard, uint64_t now_ms);

  BreakerState state(uint32_t shard) const;
  uint32_t consecutive_failures(uint32_t shard) const;
  /// Total closed->open (and half-open->open) transitions, all shards.
  uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::atomic<uint8_t> state{0};
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<uint64_t> open_until_ms{0};
    std::atomic<bool> probe_in_flight{false};
  };

  uint32_t failure_threshold_;
  uint32_t open_ms_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<uint64_t> opens_{0};
};

}  // namespace sargus

#endif  // SARGUS_SHARD_TRANSPORT_H_
