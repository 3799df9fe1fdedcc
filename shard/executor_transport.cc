#include "shard/executor_transport.h"

#include <chrono>
#include <future>
#include <string>
#include <type_traits>
#include <utility>

#include "shard/shard_engine.h"

namespace sargus {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

uint64_t SteadyNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The steady-clock time_point for an absolute NowMs()-scale deadline.
/// +1ms because NowMs truncates: the worker-side check is
/// `NowMs() > deadline`, which first holds one full millisecond after
/// the deadline tick began.
std::chrono::steady_clock::time_point DeadlinePoint(uint64_t deadline_ms) {
  return std::chrono::steady_clock::time_point(
      std::chrono::milliseconds(deadline_ms + 1));
}

}  // namespace

ThreadedTransport::ThreadedTransport(std::vector<ShardEngine*> engines,
                                     ThreadedTransportOptions options)
    : engines_(std::move(engines)), options_(std::move(options)) {
  workers_.reserve(engines_.size());
  for (size_t s = 0; s < engines_.size(); ++s) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after every Worker exists: WorkerLoop indexes workers_.
  for (uint32_t s = 0; s < engines_.size(); ++s) {
    workers_[s]->thread = std::thread([this, s] { WorkerLoop(s); });
  }
}

ThreadedTransport::~ThreadedTransport() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->shutdown = true;
    }
    w->nonempty.notify_all();
    w->nonfull.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
}

ThreadedTransport::QueueStats ThreadedTransport::queue_stats(
    uint32_t shard) const {
  const Worker& w = *workers_[shard];
  QueueStats s;
  s.submitted = w.submitted.load(kRelaxed);
  s.executed = w.executed.load(kRelaxed);
  s.cancelled = w.cancelled.load(kRelaxed);
  s.rejected = w.rejected.load(kRelaxed);
  return s;
}

void ThreadedTransport::WorkerLoop(uint32_t shard) {
  Worker& w = *workers_[shard];
  for (;;) {
    Job job;
    bool aborted = false;
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.nonempty.wait(lock, [&] { return w.shutdown || !w.queue.empty(); });
      if (w.queue.empty()) return;  // shutdown with nothing to drain
      aborted = w.shutdown;
      job = std::move(w.queue.front());
      w.queue.pop_front();
      w.nonfull.notify_one();
    }
    if (aborted) w.rejected.fetch_add(1, kRelaxed);
    job.run(aborted);
  }
}

bool ThreadedTransport::Enqueue(uint32_t shard, Job job, uint64_t deadline_ms,
                                Status* why) {
  Worker& w = *workers_[shard];
  std::unique_lock<std::mutex> lock(w.mu);
  while (!w.shutdown && w.queue.size() >= kQueueCapacity) {
    if (deadline_ms != 0) {
      w.nonfull.wait_until(lock, DeadlinePoint(deadline_ms));
      if (!w.shutdown && w.queue.size() >= kQueueCapacity &&
          SteadyNowMs() > deadline_ms) {
        w.cancelled.fetch_add(1, kRelaxed);
        *why = Status::DeadlineExceeded(
            "transport: shard " + std::to_string(shard) +
            " send queue full past deadline");
        return false;
      }
    } else {
      w.nonfull.wait(lock);
    }
  }
  if (w.shutdown) {
    w.rejected.fetch_add(1, kRelaxed);
    *why = Status::Unavailable("transport shut down (shard " +
                               std::to_string(shard) + ")");
    return false;
  }
  w.queue.push_back(std::move(job));
  w.submitted.fetch_add(1, kRelaxed);
  w.nonempty.notify_one();
  return true;
}

template <typename Request>
TransportTicket<ReplyFor<Request>> ThreadedTransport::SubmitJob(
    uint32_t shard, const Request& request, const TransportCallOptions& opts) {
  using Reply = ReplyFor<Request>;
  auto promise = std::make_shared<std::promise<Result<Reply>>>();
  auto future =
      std::make_shared<std::future<Result<Reply>>>(promise->get_future());
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  Worker* w = workers_[shard].get();
  Job job;
  job.run = [this, shard, w, promise, cancelled, deadline = opts.deadline_ms,
             engine = engines_[shard], req = request](bool aborted) {
    if (aborted) {
      promise->set_value(Status::Unavailable(
          "transport shut down before dispatch (shard " +
          std::to_string(shard) + ")"));
      return;
    }
    if (cancelled->load(std::memory_order_acquire) ||
        (deadline != 0 && SteadyNowMs() > deadline)) {
      w->cancelled.fetch_add(1, kRelaxed);
      promise->set_value(Status::DeadlineExceeded(
          "transport: call deadline passed before dispatch (shard " +
          std::to_string(shard) + ")"));
      return;
    }
    w->executed.fetch_add(1, kRelaxed);
    if (options_.pre_dispatch_hook) options_.pre_dispatch_hook(shard);
    promise->set_value(Serve(*engine, req));
  };
  Status why = OkStatus();
  if (!Enqueue(shard, std::move(job), opts.deadline_ms, &why)) {
    return TransportTicket<Reply>::Ready(std::move(why));
  }
  // The deadline is enforced only worker-side, BEFORE the engine call,
  // for mutations: an error reply must always mean the mutation was
  // never applied (fail-stop-before-apply; see file comment).
  const uint64_t wait_deadline =
      std::is_same_v<Request, wire::MutateRequest> ? 0 : opts.deadline_ms;
  return TransportTicket<Reply>::Deferred(
      [shard, future, cancelled, wait_deadline]() -> Result<Reply> {
        if (wait_deadline != 0 &&
            future->wait_until(DeadlinePoint(wait_deadline)) ==
                std::future_status::timeout) {
          // Tell the worker not to bother; a job already mid-execution
          // finishes into this (now abandoned) future.
          cancelled->store(true, std::memory_order_release);
          return Status::DeadlineExceeded(
              "transport: call deadline passed awaiting shard " +
              std::to_string(shard));
        }
        return future->get();
      });
}

TransportTicket<wire::BatchCheckReply> ThreadedTransport::Submit(
    uint32_t shard, const wire::BatchCheckRequest& request,
    const TransportCallOptions& opts) {
  return SubmitJob(shard, request, opts);
}

TransportTicket<wire::WalkReply> ThreadedTransport::Submit(
    uint32_t shard, const wire::WalkRequest& request,
    const TransportCallOptions& opts) {
  return SubmitJob(shard, request, opts);
}

TransportTicket<wire::MutateReply> ThreadedTransport::Submit(
    uint32_t shard, const wire::MutateRequest& request,
    const TransportCallOptions& opts) {
  return SubmitJob(shard, request, opts);
}

uint64_t ThreadedTransport::NowMs() { return SteadyNowMs(); }

void ThreadedTransport::SleepMs(uint32_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace sargus
