#include "engine/write_queue.h"

#include <utility>
#include <vector>

#include "engine/access_engine.h"

namespace sargus {

WriteOutcome WriteTicket::Wait() const {
  if (state_ == nullptr) {
    WriteOutcome out;
    out.status = Status::FailedPrecondition("Wait on an invalid WriteTicket");
    return out;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->outcome;
}

bool WriteTicket::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

MutationQueue::MutationQueue(AccessControlEngine* engine, size_t capacity)
    : engine_(engine), capacity_(capacity == 0 ? 1 : capacity) {}

MutationQueue::~MutationQueue() { Shutdown(); }

void MutationQueue::Complete(const std::shared_ptr<WriteTicket::State>& state,
                             WriteOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->outcome = std::move(outcome);
    state->done = true;
  }
  state->cv.notify_all();
}

WriteTicket MutationQueue::Submit(WriteOp op) {
  WriteTicket ticket;
  ticket.state_ = std::make_shared<WriteTicket::State>();
  {
    std::unique_lock<std::mutex> lock(mu_);
    nonfull_.wait(lock, [&] {
      return shutdown_ || queue_.size() < capacity_;
    });
    if (shutdown_) {
      stats_.rejected += 1;
      lock.unlock();
      WriteOutcome out;
      out.status = Status::Unavailable("mutation queue shut down");
      Complete(ticket.state_, std::move(out));
      return ticket;
    }
    if (!writer_.joinable()) {
      writer_ = std::thread(&MutationQueue::WriterLoop, this);
    }
    queue_.push_back(Pending{std::move(op), ticket.state_});
    stats_.submitted += 1;
  }
  nonempty_.notify_one();
  return ticket;
}

void MutationQueue::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [&] {
    return shutdown_ || (queue_.empty() && !applying_);
  });
}

void MutationQueue::Shutdown() {
  std::thread writer;
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    writer = std::move(writer_);
  }
  nonempty_.notify_all();
  nonfull_.notify_all();
  if (writer.joinable()) writer.join();
  {
    // The writer exited without draining (it stops as soon as it
    // observes shutdown); whatever is still queued was never applied.
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    stats_.rejected += leftover.size();
  }
  for (Pending& p : leftover) {
    WriteOutcome out;
    out.status = Status::Unavailable("mutation queue shut down");
    Complete(p.state, std::move(out));
  }
  drained_.notify_all();
}

WriteQueueStats MutationQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MutationQueue::PauseForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  nonempty_.notify_all();
}

void MutationQueue::WriterLoop() {
  std::vector<WriteOp> ops;
  std::vector<std::shared_ptr<WriteTicket::State>> states;
  std::vector<WriteOutcome> outcomes;
  for (;;) {
    ops.clear();
    states.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      nonempty_.wait(lock, [&] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (shutdown_) return;  // Shutdown() drains the leftovers
      const size_t take = std::min(queue_.size(), kMaxBatch);
      for (size_t i = 0; i < take; ++i) {
        ops.push_back(std::move(queue_.front().op));
        states.push_back(std::move(queue_.front().state));
        queue_.pop_front();
      }
      applying_ = true;
      stats_.applied += take;
      stats_.batches += 1;
      stats_.max_batch_seen = std::max<uint64_t>(stats_.max_batch_seen, take);
    }
    nonfull_.notify_all();

    // The group commit: one mutation_mu_ acquisition, one WAL batch
    // append (one fsync), one published view for the whole batch.
    outcomes.assign(ops.size(), WriteOutcome{});
    engine_->ApplyWriteBatch(ops, outcomes.data());
    for (size_t i = 0; i < states.size(); ++i) {
      Complete(states[i], std::move(outcomes[i]));
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      applying_ = false;
    }
    drained_.notify_all();
  }
}

}  // namespace sargus
