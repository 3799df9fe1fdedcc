/// churn_write: two closed-loop facade readers under open-loop durable
/// writes at a fixed rate, then a fold, a brute-force check of fresh
/// requests, and recovery from a bundle plus a WAL tail.
///
/// The op.* timings are the readers' checks. Write latency is reported
/// apart (write.p50_us, write.p99_us): each write crosses four threads
/// (generator, writer, compaction, collector), and on a shared 4-vCPU
/// host its p99 moved 3x between identical runs.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include <sys/prctl.h>

#include "common/rng.h"
#include "workloads.h"

namespace sargus::e2e {

namespace {

constexpr size_t kReaders = 2;
/// Offered write rate. Each batch republishes a view that copies the
/// overlay, so a batch costs more as the overlay grows toward the
/// compaction threshold. On this 2,048-node graph the auto threshold is
/// its floor, 1,024 staged ops: the writer stays below saturation (1-2
/// ops per batch) and compacts about every 3 seconds. At 8,192 nodes the
/// threshold is ~3,000 and 500/s sits on the knee of the queueing curve,
/// where p99 moved 3x between identical runs.
constexpr double kWritesPerSecond = 500.0;
/// The readers serve millions of cheap checks; keep one in 64.
constexpr uint64_t kReadRecordStride = 64;
/// The WAL sits in the benchmark's work directory on a real disk. fsync
/// there is host noise, not engine work, so the log is appended (one
/// batch per group commit) but never synced: the cost a tmpfs WAL has.
constexpr storage::WalSyncPolicy kWalSync = storage::WalSyncPolicy::kNever;
/// Adds left uncompacted at the end, for OpenFromDir to replay.
constexpr size_t kTailWrites = 200;
/// Fresh requests checked against brute force after the final fold.
constexpr size_t kFreshChecks = 2000;

struct Mutation {
  WriteOp::Kind kind = WriteOp::Kind::kAddNode;
  NodeId src = 0;
  NodeId dst = 0;
  LabelId label = kInvalidLabel;
};

/// `mixed` ops (80% AddEdge of a triple the graph lacks, 15% RemoveEdge
/// of an earlier add still live, 5% AddNode) followed by `adds` AddEdges.
/// None of them can fail.
std::vector<Mutation> MakeMutations(const SocialGraph& graph, size_t mixed,
                                    size_t adds, uint64_t seed) {
  const size_t n = graph.NumNodes();
  const LabelId labels[3] = {graph.labels().Lookup("friend"),
                             graph.labels().Lookup("colleague"),
                             graph.labels().Lookup("family")};
  const auto key = [n](const Mutation& m) {
    return (uint64_t{m.src} * n + m.dst) * 4 + m.label;
  };
  Rng rng(seed);
  std::vector<Mutation> live;
  std::unordered_set<uint64_t> live_keys;
  std::vector<Mutation> out;
  out.reserve(mixed + adds);
  for (size_t i = 0; i < mixed + adds; ++i) {
    const double r = i < mixed ? rng.NextDouble() : 1.0;
    if (r < 0.05) {
      out.push_back({WriteOp::Kind::kAddNode});
    } else if (r < 0.20 && !live.empty()) {
      const size_t j = rng.NextBounded(live.size());
      Mutation m = live[j];
      live[j] = live.back();
      live.pop_back();
      live_keys.erase(key(m));
      m.kind = WriteOp::Kind::kRemoveEdge;
      out.push_back(m);
    } else {
      for (;;) {
        const Mutation m{WriteOp::Kind::kAddEdge,
                         static_cast<NodeId>(rng.NextBounded(n)),
                         static_cast<NodeId>(rng.NextBounded(n)),
                         labels[rng.NextBounded(3)]};
        if (m.src == m.dst || graph.FindEdge(m.src, m.dst, m.label) ||
            !live_keys.insert(key(m)).second) {
          continue;
        }
        live.push_back(m);
        out.push_back(m);
        break;
      }
    }
  }
  return out;
}

WriteTicket Submit(AccessControlEngine& engine, const Mutation& m) {
  switch (m.kind) {
    case WriteOp::Kind::kAddEdge:
      return engine.SubmitAddEdge(m.src, m.dst, m.label);
    case WriteOp::Kind::kRemoveEdge:
      return engine.SubmitRemoveEdge(m.src, m.dst, m.label);
    default:
      return engine.SubmitAddNode();
  }
}

/// Sleeps rather than spins until `due_ns`: next to two spinning readers
/// a spinning generator lost whole scheduler slices (15 ms late), while
/// a sleeper is woken promptly. The caller shrinks its timer slack.
void SleepUntil(int64_t due_ns) {
  const int64_t ahead = due_ns - NowNs();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

struct InFlight {
  WriteTicket ticket;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t submitted_ns = 0;
  bool measured = false;
};

/// Generator -> collector hand-off, in submission order.
class Channel {
 public:
  void Push(InFlight f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(f));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// False once closed and drained.
  bool Pop(InFlight* f) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    *f = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool closed_ = false;
};

/// Waits on tickets in submission order (the queue commits FIFO, so an
/// earlier ticket never hides a later completion) and times each write
/// from its scheduled send time. Writes are few, so with tracing every
/// other one records spans.
struct Collector {
  bool trace = false;
  std::vector<Op> ops;
  std::vector<double> submit_us;
  std::vector<double> ack_us;
  uint64_t measured = 0;
  uint64_t failed = 0;
  uint64_t warm_failed = 0;
  TraceBuffer spans;

  void Run(Channel* channel) {
    InFlight f;
    while (channel->Pop(&f)) {
      const WriteOutcome out = f.ticket.Wait();
      const int64_t ack = NowNs();
      if (!f.measured) {
        if (!out.status.ok()) ++warm_failed;
        continue;
      }
      if (!out.status.ok()) ++failed;
      const double us = 1e-3 * double(ack - f.due_ns);
      ops.push_back({ack, us});
      submit_us.push_back(1e-3 * double(f.submitted_ns - f.submit_ns));
      ack_us.push_back(1e-3 * double(ack - f.submit_ns));
      if (trace && measured % 2 == 0) {
        // The root's self time is the generator's lateness: its
        // children cover submit start -> Wait return.
        const uint64_t id = (uint64_t{3} << 40) + measured;
        const int32_t root = spans.Open("write", id, -1, f.due_ns);
        spans.Add("write_queue.submit", id, root, f.submit_ns,
                  f.submitted_ns);
        SpanTags stamp;
        stamp.generation = out.generation;
        stamp.overlay_version = out.overlay_version;
        spans.Add("write_queue.commit", id, root, f.submitted_ns, ack, stamp);
        spans.Close(root, ack);
      }
      ++measured;
    }
  }
};

/// Trace mode: samples the published view's overlay and the compaction
/// pipeline every millisecond of the measure phase.
struct Sampler {
  const AccessControlEngine* engine = nullptr;
  uint64_t samples = 0;
  uint64_t busy = 0;
  double overlay_sum = 0.0;
  double overlay_kb_sum = 0.0;
  size_t overlay_max = 0;

  void Run(const std::atomic<int>& phase) {
    for (int p; (p = phase.load()) != kStop;) {
      if (p == kMeasure) {
        const auto view = engine->AcquireReadView();
        const size_t size = view->overlay().size();
        overlay_sum += static_cast<double>(size);
        overlay_kb_sum += static_cast<double>(view->overlay().MemoryBytes()) /
                          1024.0;
        overlay_max = std::max(overlay_max, size);
        busy += engine->compaction_in_flight() ? 1 : 0;
        ++samples;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

}  // namespace

void RunChurnWrite(const Options& options, Report* report) {
  const size_t nodes = options.Scaled(2048, 300);
  const size_t resources = options.Scaled(1024, 32);
  const double warm_s = options.smoke ? 0.1 : 1.0;
  const auto warm_writes = static_cast<size_t>(kWritesPerSecond * warm_s);
  const auto measured_writes =
      static_cast<size_t>(kWritesPerSecond * options.seconds);
  SocialGraph graph = MakeGraph(nodes);
  PolicyStore store;
  RegisterPolicies(&store, nodes, resources);
  const std::vector<Pair> stream =
      MakePairs(nodes, resources, size_t{1} << 18, options.seed + 2);
  const std::vector<Mutation> mutations =
      MakeMutations(graph, warm_writes + measured_writes, kTailWrites,
                    options.seed + 3);
  const DurabilityOptions durability{.wal_sync = kWalSync};

  // Set-up: build the indexes and attach the durability directory.
  std::unique_ptr<AccessControlEngine> engine;
  std::string dir;
  if (!TimeSetups(
          [&] {
            engine.reset();
            dir = FreshDir(options, "churn_write");
          },
          [&] {
            engine = std::make_unique<AccessControlEngine>(graph, store);
            Status s = engine->RebuildIndexes();
            if (s.ok()) s = engine->EnableDurability(dir, durability);
            return s;
          },
          report)) {
    return;
  }

  std::atomic<int> phase{kWarmUp};
  std::vector<FacadeReader> readers(kReaders);
  std::vector<std::thread> threads = StartReaders(
      readers, *engine, stream, options, kReadRecordStride, phase);
  Sampler sampler;
  sampler.engine = engine.get();
  if (options.trace) threads.emplace_back([&] { sampler.Run(phase); });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.smoke ? 0.05 : 0.5));

  Channel channel;
  Collector collector;
  collector.trace = options.trace;
  std::thread collector_thread([&] { collector.Run(&channel); });
  const auto period_ns = static_cast<int64_t>(1e9 / kWritesPerSecond);
  prctl(PR_SET_TIMERSLACK, 1UL);  // this thread's sleeps end on time
  const int64_t start_ns = NowNs() + 1000000;
  WriteQueueStats queue0;
  uint64_t appends0 = 0;
  CpuTimes cpu0;
  int64_t measure_ns = 0;
  for (size_t k = 0; k < warm_writes + measured_writes; ++k) {
    InFlight f;
    f.due_ns = start_ns + static_cast<int64_t>(k) * period_ns;
    f.measured = k >= warm_writes;
    SleepUntil(f.due_ns);
    if (k == warm_writes) {
      queue0 = engine->write_queue().stats();
      appends0 = engine->wal_append_count();
      cpu0 = ReadCpuTimes();
      measure_ns = NowNs();
      phase.store(kMeasure);
    }
    f.submit_ns = NowNs();
    f.ticket = Submit(*engine, mutations[k]);
    f.submitted_ns = NowNs();
    channel.Push(std::move(f));
  }
  channel.Close();
  collector_thread.join();
  const double measure_s = SecondsSince(measure_ns);
  phase.store(kStop);
  for (std::thread& t : threads) t.join();
  report->Set("host.steal_share", StealShare(cpu0, ReadCpuTimes()));
  const WriteQueueStats queue1 = engine->write_queue().stats();
  const uint64_t appends = engine->wal_append_count() - appends0;

  std::vector<TraceBuffer> buffers;
  ReadTotals reads = MergeReaders(readers, &buffers, report);
  buffers.push_back(std::move(collector.spans));
  report->attempted = collector.measured + reads.checks;
  report->failed = collector.failed + reads.failed;
  if (collector.warm_failed > 0) {
    report->Mismatch(std::to_string(collector.warm_failed) +
                     " warm-up writes failed");
  }
  ReportOps(std::move(reads.ops), kReadRecordStride, report);
  std::vector<double> write_us = Latencies(collector.ops);
  report->Set("write.p50_us", Percentile(write_us, 0.50));
  report->Set("write.p99_us", Percentile(write_us, 0.99));
  report->samples.emplace_back("write_latency", write_us.size());

  const double batches = static_cast<double>(queue1.batches - queue0.batches);
  report->Set("write_queue.submit_us_p99",
              Percentile(collector.submit_us, 0.99));
  report->Set("write_queue.ack_us_p50", Percentile(collector.ack_us, 0.50));
  report->Set("write_queue.ack_us_p99", Percentile(collector.ack_us, 0.99));
  report->Set("write_queue.ops_per_batch",
              batches > 0 ? double(queue1.applied - queue0.applied) / batches
                          : 0.0);
  report->Set("write_queue.batches_per_s", batches / measure_s);
  report->Set("write_queue.max_batch", double(queue1.max_batch_seen));
  report->Set("write_queue.rejected", double(queue1.rejected - queue0.rejected));
  report->Set("wal.records_per_s", double(appends) / measure_s);

  engine->FlushWrites();
  engine->WaitForCompaction();
  const uint64_t compactions =
      engine->full_compactions() + engine->incremental_compactions();
  report->Set("compaction.full", double(engine->full_compactions()));
  report->Set("compaction.incremental",
              double(engine->incremental_compactions()));
  report->Set("view.publishes_per_s", (batches + double(compactions)) /
                                          measure_s);
  if (sampler.samples > 0) {
    const double n = static_cast<double>(sampler.samples);
    report->Set("view.overlay_size_mean", sampler.overlay_sum / n);
    report->Set("view.overlay_size_max", double(sampler.overlay_max));
    report->Set("view.overlay_kb_mean", sampler.overlay_kb_sum / n);
    report->Set("compaction.busy_share", double(sampler.busy) / n);
  }

  // Fold everything and check fresh requests against brute force over
  // the folded graph.
  Status s = engine->Compact();
  engine->WaitForCompaction();
  if (s.ok()) s = engine->last_compaction_status();
  if (!s.ok() || !engine->overlay().empty()) {
    report->Mismatch("final compaction: " + s.ToString());
    return;
  }
  {
    const Oracle oracle(graph, store);
    std::vector<Sample> fresh;
    for (const Pair& p :
         MakePairs(nodes, resources, kFreshChecks, options.seed + 4)) {
      const auto d = engine->CheckAccess(ToRequest(p));
      if (!d.ok()) {
        report->Mismatch("fresh check failed: " + d.status().ToString());
        return;
      }
      fresh.push_back({p.requester, p.resource, d->granted});
    }
    report->samples.emplace_back(
        "verified", oracle.Verify(fresh, "churn_write after fold", report));
  }

  // Leave a WAL tail, then recover from bundle + tail.
  std::vector<WriteTicket> tail;
  for (size_t k = warm_writes + measured_writes; k < mutations.size(); ++k) {
    tail.push_back(Submit(*engine, mutations[k]));
  }
  for (const WriteTicket& t : tail) {
    const WriteOutcome out = t.Wait();
    if (!out.status.ok()) report->Mismatch("tail write: " + out.status.ToString());
  }
  const auto before = Decide(*engine, stream, kRecoverySample);
  engine.reset();
  SocialGraph reopened_graph;
  const int64_t t0 = NowNs();
  auto reopened = AccessControlEngine::OpenFromDir(dir, &reopened_graph, store,
                                                   EngineOptions{}, durability);
  report->Set("storage.recover_s", SecondsSince(t0));
  if (!reopened.ok()) {
    report->Mismatch("OpenFromDir: " + reopened.status().ToString());
    return;
  }
  CompareDecisions(before, Decide(**reopened, stream, kRecoverySample),
                   "churn_write recovery", report);
  reopened->reset();
  std::filesystem::remove_all(dir);

  if (options.trace) {
    std::vector<double> late = SelfTimesUs(buffers, "write");
    report->Set("write.gen_late_us_p99", Percentile(late, 0.99));
    FinishTrace(options, "churn_write", buffers, std::move(reads.traced_us),
                std::move(reads.untraced_us), report);
  }
}

}  // namespace sargus::e2e
