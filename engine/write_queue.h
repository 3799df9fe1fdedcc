#ifndef SARGUS_ENGINE_WRITE_QUEUE_H_
#define SARGUS_ENGINE_WRITE_QUEUE_H_

/// \file write_queue.h
/// \brief MutationQueue: the engine's MPSC write front end — any thread
/// submits mutations, one dedicated writer thread group-commits them.
///
/// The queue is the engine's only mutation path. Without it N producers
/// would have to serialize AddEdge / RemoveEdge / AddNode /
/// RefreshPolicies behind an external mutex, and every mutation would
/// pay its own WAL fsync and its own O(overlay) view republication. The
/// queue turns that into a batching problem:
///
///   * **Submission** — SubmitX() from any thread copies the operation
///     into a bounded MPSC queue and returns a WriteTicket immediately.
///     While the queue is full, Submit blocks (backpressure) until the
///     writer drains room. Submission order is the commit order: the
///     queue is FIFO, so one producer's ops apply in the order it
///     submitted them.
///   * **Group commit** — a dedicated writer thread drains the queue in
///     bounded batches (MutationQueue::kMaxBatch), stages every
///     op of a batch into the engine's DeltaOverlay, appends all WAL
///     records with ONE WalWriter::AppendBatch (one fsync under the
///     default WalSyncPolicy::kEveryRecord), and publishes ONE read view
///     for the whole batch — amortizing both the fsync and the
///     O(overlay) republication over every op in it. A batch whose WAL
///     commit fails fails every op in it and leaves no trace: the torn
///     bytes are cut off the log and the staged ops are rolled back.
///   * **Ticketed completion** — each WriteTicket resolves to a
///     WriteOutcome: the per-op Status (errors are isolated — one bad
///     op fails only its own ticket, the rest of the batch commits) and
///     the (generation, overlay_version) stamp the mutation landed in,
///     exactly the stamp its WAL record carries and the stamp
///     AccessDecision reports. Wait() blocks until the batch containing
///     the op has been staged, WAL-committed, and published.
///
/// Shutdown: tickets are never abandoned. Ops still queued when the
/// queue shuts down complete with kUnavailable without being applied,
/// and Submit after shutdown returns a ticket born kUnavailable.
///
/// The engine owns one MutationQueue, and its synchronous mutation calls
/// are SubmitX().Wait() over it, so mutations are safe to call from any
/// number of threads concurrently. The writer thread is started lazily
/// on the first submission, so read-only engines never pay for it.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/types.h"

namespace sargus {

class AccessControlEngine;

/// One queued writer operation. AddEdge/RemoveEdge carry either a
/// resolved LabelId or (by_name) a label name — names are resolved on
/// the writer thread under the same rules as the synchronous calls
/// (AddEdge interns unknown names, RemoveEdge fails kNotFound).
struct WriteOp {
  enum class Kind : uint8_t {
    kAddEdge,
    kRemoveEdge,
    kAddNode,
    kRefreshPolicies,
  };
  Kind kind = Kind::kAddNode;
  NodeId src = 0;
  NodeId dst = 0;
  LabelId label = kInvalidLabel;
  /// Resolve `label_name` instead of using `label`.
  bool by_name = false;
  std::string label_name;
};

/// What a WriteTicket resolves to.
struct WriteOutcome {
  /// The per-op status — exactly what the synchronous call would have
  /// returned. kUnavailable when the queue shut down before the op was
  /// applied (the op was NOT applied).
  Status status = OkStatus();
  /// The (snapshot_generation, overlay_version) stamp the mutation
  /// landed in: the same pair its WAL record carries and the same pair
  /// decisions made against the publishing view report. For failed ops,
  /// the stamp of the state that rejected them.
  uint64_t generation = 0;
  uint64_t overlay_version = 0;
  /// SubmitAddNode only: the id assigned to the new node.
  NodeId node = 0;
};

/// Future-backed handle to one submitted mutation (the write-side
/// sibling of shard/transport.h's TransportTicket). Copyable; Wait() may
/// be called from any thread and any number of times — the outcome is
/// latched on first completion.
class WriteTicket {
 public:
  WriteTicket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the writer thread commits (or refuses) the mutation,
  /// then returns the outcome. An OK outcome means the op is staged,
  /// WAL-durable (per the engine's sync policy), and visible on the
  /// currently published view.
  WriteOutcome Wait() const;

  /// Non-blocking: true when the outcome is already available.
  bool done() const;

 private:
  friend class MutationQueue;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    WriteOutcome outcome;
  };
  std::shared_ptr<State> state_;
};

/// Relaxed counters for tests and the bench (read with stats()).
struct WriteQueueStats {
  /// Ops accepted into the queue.
  uint64_t submitted = 0;
  /// Ops handed to the engine (their tickets carry the engine status).
  uint64_t applied = 0;
  /// Ops refused at submit or drained unapplied at shutdown
  /// (tickets completed kUnavailable).
  uint64_t rejected = 0;
  /// Group-commit batches executed.
  uint64_t batches = 0;
  /// Largest batch drained so far.
  uint64_t max_batch_seen = 0;
};

/// The MPSC queue + writer thread. Owned by AccessControlEngine; the
/// engine's SubmitX() methods are thin wrappers over Submit(). All
/// methods are thread-safe.
class MutationQueue {
 public:
  /// Max ops the writer drains into one group-commit batch (WAL replay
  /// batches the same way).
  static constexpr size_t kMaxBatch = 512;

  /// `engine` must outlive the queue. `capacity` is the number of ops
  /// the queue holds before Submit blocks (backpressure bound). The
  /// writer thread starts lazily on the first Submit.
  MutationQueue(AccessControlEngine* engine, size_t capacity);
  ~MutationQueue();

  MutationQueue(const MutationQueue&) = delete;
  MutationQueue& operator=(const MutationQueue&) = delete;

  /// Enqueues `op`, blocking while the queue is at capacity. Returns a
  /// ticket the caller may Wait() on (or drop — the op still applies).
  WriteTicket Submit(WriteOp op);

  /// Blocks until every op submitted before the call has been applied
  /// (or the queue shut down). No-op on an idle queue.
  void Flush();

  /// Stops the writer thread. Ops still queued complete kUnavailable
  /// without being applied; later Submits return kUnavailable tickets.
  /// Idempotent. Called by the engine destructor before it tears down
  /// the compaction pipeline.
  void Shutdown();

  WriteQueueStats stats() const;

  /// Test hook: while paused the writer thread drains nothing, so a
  /// test can pile submissions into one deterministic batch (or fill
  /// the queue to probe backpressure). Shutdown overrides pause.
  void PauseForTesting(bool paused);

 private:
  struct Pending {
    WriteOp op;
    std::shared_ptr<WriteTicket::State> state;
  };

  void WriterLoop();
  static void Complete(const std::shared_ptr<WriteTicket::State>& state,
                       WriteOutcome outcome);

  AccessControlEngine* engine_;
  size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable nonempty_;
  std::condition_variable nonfull_;
  std::condition_variable drained_;
  std::deque<Pending> queue_;
  bool applying_ = false;  // writer is mid-batch (for Flush)
  bool paused_ = false;
  bool shutdown_ = false;
  std::thread writer_;  // started lazily; guarded by mu_

  WriteQueueStats stats_;  // guarded by mu_
};

}  // namespace sargus

#endif  // SARGUS_ENGINE_WRITE_QUEUE_H_
