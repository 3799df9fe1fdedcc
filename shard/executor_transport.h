#ifndef SARGUS_SHARD_EXECUTOR_TRANSPORT_H_
#define SARGUS_SHARD_EXECUTOR_TRANSPORT_H_

/// \file executor_transport.h
/// \brief ThreadedTransport: the thread-per-shard executor, and the
/// router's only base transport.
///
/// Each shard gets one dedicated worker thread draining a bounded MPSC
/// job queue (kQueueCapacity jobs), so one shard's calls execute in
/// FIFO order. A call is a job: Submit copies the request, enqueues a
/// closure, and returns a TransportTicket backed by a future. With that
/// the router can scatter one sub-batch (or one frontier walk) per shard
/// and gather them in a fixed order — shard count becomes a throughput
/// multiplier instead of pure overhead. Every ShardRouter builds one at
/// Build(), N = 1 included; the fault decorator wraps it, never
/// replaces it.
///
/// Deadline / cancellation semantics (all times on NowMs(), the
/// steady clock in milliseconds):
///
///   * Submit-side: while the queue is full, Submit blocks for
///     backpressure; if the call's deadline passes first, the job is
///     never enqueued and the ticket is born kDeadlineExceeded.
///   * Worker-side: a job whose deadline has already passed at dequeue
///     (or whose caller gave up — see next point) is dropped without
///     executing, completing as kDeadlineExceeded.
///   * Caller-side: Wait() on a read ticket waits at most until the
///     deadline, then sets the job's cancellation flag and returns
///     kDeadlineExceeded. The worker sees the flag at dequeue and skips
///     the work; a job already mid-execution runs to completion into an
///     abandoned future (reads are side-effect free, so this is safe).
///
/// Mutations are the exception: a mutation ticket's Wait() blocks
/// unconditionally and the deadline is enforced ONLY worker-side, before
/// the engine call. A caller abandoning a mutation mid-apply could
/// otherwise observe a transport error for a mutation that DID apply,
/// breaking the fail-stop-before-apply contract every rollback path
/// relies on. So a mutation error still means "never applied".
///
/// Shutdown protocol: the destructor flips each worker's shutdown flag,
/// wakes everyone, and joins. Jobs still queued at shutdown complete as
/// kUnavailable ("transport shut down") without executing — no promise
/// is ever abandoned, so any straggling Wait() returns an explicit
/// error instead of throwing. New Submits after shutdown are refused
/// the same way. The router destroys its transport before its engines,
/// so workers never touch a dead engine.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {

class ShardEngine;

struct ThreadedTransportOptions {
  /// Test seam: runs on the worker thread immediately before the
  /// engine call (the slow-shard tests sleep here to simulate a
  /// struggling shard). Never set in production.
  std::function<void(uint32_t shard)> pre_dispatch_hook;
};

/// Thread-per-shard executor over in-process ShardEngines. Safe from any
/// number of threads.
class ThreadedTransport final : public ShardTransport {
 public:
  /// Jobs one shard's queue holds before Submit blocks (backpressure).
  static constexpr size_t kQueueCapacity = 1024;

  /// `engines` must outlive the transport.
  explicit ThreadedTransport(std::vector<ShardEngine*> engines,
                             ThreadedTransportOptions options = {});
  ~ThreadedTransport() override;

  /// Per-shard queue observability (tests assert on these).
  struct QueueStats {
    /// Jobs accepted into the queue.
    uint64_t submitted = 0;
    /// Jobs that reached their engine call.
    uint64_t executed = 0;
    /// Jobs dropped at dequeue: deadline passed or caller gave up.
    uint64_t cancelled = 0;
    /// Jobs refused or drained un-executed due to shutdown.
    uint64_t rejected = 0;
  };
  QueueStats queue_stats(uint32_t shard) const;

  uint32_t num_shards() const override {
    return static_cast<uint32_t>(engines_.size());
  }

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

  uint64_t NowMs() override;
  void SleepMs(uint32_t ms) override;

 private:
  struct Job {
    /// Runs exactly once, on a worker (normal or shutdown drain). It
    /// owns the promise; `aborted` fulfills it with kUnavailable.
    std::function<void(bool aborted)> run;
  };
  struct Worker {
    std::mutex mu;
    std::condition_variable nonempty;
    std::condition_variable nonfull;
    std::deque<Job> queue;
    bool shutdown = false;
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> cancelled{0};
    std::atomic<uint64_t> rejected{0};
    std::thread thread;
  };

  void WorkerLoop(uint32_t shard);
  /// Blocks while the queue is full (bounded by the deadline when one
  /// is set). False = not enqueued; `why` says kDeadlineExceeded or
  /// kUnavailable (shutdown).
  bool Enqueue(uint32_t shard, Job job, uint64_t deadline_ms, Status* why);

  /// Shared body of the four Submit overloads: package a copy of
  /// `request` as a job, enqueue it, hand back a future-backed ticket.
  /// Read tickets give up at the deadline; mutation tickets do not (see
  /// file comment).
  template <typename Request>
  TransportTicket<ReplyFor<Request>> SubmitJob(
      uint32_t shard, const Request& request,
      const TransportCallOptions& opts);

  std::vector<ShardEngine*> engines_;
  ThreadedTransportOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_EXECUTOR_TRANSPORT_H_
