/// sharded_read: CheckAccessBatch through a 4-shard ShardRouter on the
/// thread-per-shard transport, one closed-loop thread.

#include <algorithm>
#include <memory>

#include "shard/router.h"
#include "workloads.h"

namespace sargus::e2e {

namespace {

constexpr size_t kBatch = 16;
constexpr uint32_t kShards = 4;

RouterOptions MakeRouterOptions() {
  RouterOptions o;
  o.partition.num_shards = kShards;
  // Contiguous ranges cut through the BA core, so most checks cross
  // shards and the summaries and frontier exchange carry traffic.
  o.partition.strategy = PartitionStrategy::kContiguous;
  o.threaded_transport = true;
  // No deadlines: on a loaded host a queued sub-batch would otherwise
  // time out and turn into a failed operation.
  o.robustness.call_deadline_ms = 0;
  o.robustness.op_budget_ms = 0;
  return o;
}

std::vector<ThreadedTransport::QueueStats> QueueStats(
    const ShardRouter& router) {
  std::vector<ThreadedTransport::QueueStats> out;
  const auto* t = dynamic_cast<const ThreadedTransport*>(&router.transport());
  for (uint32_t s = 0; t != nullptr && s < router.num_shards(); ++s) {
    out.push_back(t->queue_stats(s));
  }
  return out;
}

}  // namespace

void RunShardedRead(const Options& options, Report* report) {
  const size_t nodes = options.Scaled(1000, 400);
  const size_t resources = options.Scaled(64, 16);
  SocialGraph graph = MakeGraph(nodes);
  PolicyStore store;
  RegisterPolicies(&store, nodes, resources);
  const std::vector<Pair> stream =
      MakePairs(nodes, resources, size_t{1} << 17, options.seed + 2);

  // Set-up: partition, build every shard engine and boundary summary.
  std::unique_ptr<ShardRouter> router;
  if (!TimeSetups([&] { router.reset(); },
                  [&] {
                    router = std::make_unique<ShardRouter>(graph, store,
                                                           MakeRouterOptions());
                    return router->Build();
                  },
                  report)) {
    return;
  }

  std::vector<AccessRequest> batch(kBatch);
  size_t next = 0;
  const auto fill = [&] {
    for (AccessRequest& r : batch) r = ToRequest(stream[next++ % stream.size()]);
  };
  for (int i = 0; i < (options.smoke ? 5 : 50); ++i) {
    fill();
    (void)router->CheckAccessBatch(batch);
  }

  const auto topology = router->topology();
  std::vector<Op> ops;
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  std::vector<Sample> samples;
  DecisionStats decisions;
  TraceBuffer spans;
  uint64_t failed = 0;
  uint64_t k = 0;
  uint64_t decided = 0;
  const RouterCounters counters0 = router->counters();
  const auto queues0 = QueueStats(*router);
  const CpuTimes cpu0 = ReadCpuTimes();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t t1 = start;
  while (t1 < end) {
    fill();
    const int64_t t0 = NowNs();
    const auto results = router->CheckAccessBatch(batch);
    t1 = NowNs();
    const double us = 1e-3 * double(t1 - t0);
    ops.push_back({t1, us});
    for (size_t i = 0; i < results.size(); ++i, ++decided) {
      if (!results[i].ok()) {
        ++failed;
        continue;
      }
      if (options.trace) decisions.Add(*results[i], us / kBatch);
      if (decided % kSampleStride == 0) {
        samples.push_back(
            {batch[i].requester, batch[i].resource, results[i]->granted});
      }
    }
    const uint64_t slot = k % kTraceStride;
    if (options.trace && spans.spans().size() < kMaxSpans) {
      if (slot == 0 || slot == kTraceStride / 2) {
        const int32_t root = spans.Open("batch", k, -1, t0);
        spans.Add("router.check_batch", k, root, t0, t1);
        if (slot == 0) {
          // Shadow: the owner shards' local sub-batches, called directly,
          // price the shard layer without the router around it.
          std::vector<wire::BatchCheckRequest> by_shard(kShards);
          for (const AccessRequest& r : batch) {
            const NodeId owner = store.resource(r.resource).owner;
            by_shard[topology->shard_of[owner]].requests.push_back(ToWire(r));
          }
          for (uint32_t s = 0; s < kShards; ++s) {
            if (by_shard[s].requests.empty()) continue;
            const int64_t s0 = NowNs();
            (void)router->shard(s).CheckBatch(by_shard[s]);
            spans.Add("shard.check_batch", k, root, s0, NowNs());
          }
        }
        const int64_t t2 = NowNs();
        spans.Close(root, t2);
        if (slot != 0) traced_us.push_back(1e-3 * double(t2 - t0));
      } else {
        untraced_us.push_back(us);
      }
    }
    ++k;
  }
  report->Set("host.steal_share", StealShare(cpu0, ReadCpuTimes()));
  report->attempted = decided;
  report->failed = failed;
  decisions.Report(report);
  ReportOps(std::move(ops), kBatch, report);

  const RouterCounters c = router->counters();
  const double checks = double(c.checks - counters0.checks);
  const double cross = double(c.cross_shard_checks - counters0.cross_shard_checks);
  const double walks = double(c.fallback_walks - counters0.fallback_walks);
  report->Set("router.cross_share", checks > 0 ? cross / checks : 0.0);
  report->Set("router.summary_hit_rate",
              cross > 0 ? 1.0 - double(c.cross_fallback_walks -
                                       counters0.cross_fallback_walks) /
                                    cross
                        : 1.0);
  report->Set("router.fallback_rounds_per_walk",
              walks > 0 ? double(c.fallback_rounds - counters0.fallback_rounds) /
                              walks
                        : 0.0);
  report->Set("router.retries", double(c.retries - counters0.retries));
  report->Set("router.timeouts", double(c.timeouts - counters0.timeouts));

  const auto queues1 = QueueStats(*router);
  double jobs = 0.0;
  double busiest = 0.0;
  double cancelled = 0.0;
  for (size_t s = 0; s < queues1.size(); ++s) {
    const double executed = double(queues1[s].executed - queues0[s].executed);
    jobs += executed;
    busiest = std::max(busiest, executed);
    cancelled += double(queues1[s].cancelled - queues0[s].cancelled);
  }
  report->Set("transport.jobs_per_batch", k > 0 ? jobs / double(k) : 0.0);
  report->Set("transport.shard_imbalance",
              jobs > 0 ? busiest * double(queues1.size()) / jobs : 0.0);
  report->Set("transport.cancelled", cancelled);

  const Oracle oracle(graph, store);
  report->samples.emplace_back("verified",
                               oracle.Verify(samples, "sharded_read", report));

  if (options.trace) {
    std::vector<TraceBuffer> buffers;
    buffers.push_back(std::move(spans));
    report->Set("shard.check_batch_us_p50",
                Median(DurationsUs(buffers, "shard.check_batch")));
    FinishTrace(options, "sharded_read", buffers, std::move(traced_us),
                std::move(untraced_us), report);
  }
}

}  // namespace sargus::e2e
