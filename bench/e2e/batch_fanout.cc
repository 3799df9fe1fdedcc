/// batch_fanout: batches of one Zipf resource x 64 Zipf requesters
/// through a pinned read view with a caller EvalContext, one thread.

#include <memory>

#include "query/eval_context.h"
#include "workloads.h"

namespace sargus::e2e {

namespace {

constexpr size_t kBatch = 64;

}  // namespace

void RunBatchFanout(const Options& options, Report* report) {
  const size_t nodes = options.Scaled(65536, 1500);
  const size_t resources = options.Scaled(4096, 64);
  const size_t num_batches = options.smoke ? 1024 : size_t{1} << 16;
  SocialGraph graph = MakeGraph(nodes);
  PolicyStore store;
  RegisterPolicies(&store, nodes, resources);
  // Batch b asks the resource of pair b*64 for the 64 requesters of
  // pairs b*64 .. b*64+63.
  const std::vector<Pair> pairs =
      MakePairs(nodes, resources, num_batches * kBatch, options.seed + 2);

  std::unique_ptr<AccessControlEngine> engine;
  if (!TimeSetups([&] { engine.reset(); },
                  [&] {
                    engine = std::make_unique<AccessControlEngine>(graph, store);
                    return engine->RebuildIndexes();
                  },
                  report)) {
    return;
  }

  EvalContext ctx;
  std::vector<AccessRequest> batch(kBatch);
  size_t next = 0;
  const auto fill = [&] {
    const Pair* p = &pairs[(next++ % num_batches) * kBatch];
    for (size_t i = 0; i < kBatch; ++i) {
      batch[i] = ToRequest({p[i].requester, p[0].resource});
    }
  };
  const int64_t warm_end =
      NowNs() + static_cast<int64_t>((options.smoke ? 0.1 : 1.0) * 1e9);
  while (NowNs() < warm_end) {
    fill();
    (void)engine->AcquireReadView()->CheckAccessBatch(batch, ctx);
  }

  std::vector<Op> ops;
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  ops.reserve(size_t{1} << 20);
  std::vector<Sample> samples;
  DecisionStats decisions;
  TraceBuffer spans;
  uint64_t failed = 0;
  uint64_t k = 0;
  const CpuTimes cpu0 = ReadCpuTimes();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  int64_t t2 = start;
  while (t2 < end) {
    fill();
    const int64_t t0 = NowNs();
    const auto view = engine->AcquireReadView();
    const int64_t t1 = NowNs();
    const auto results = view->CheckAccessBatch(batch, ctx);
    t2 = NowNs();
    const double us = 1e-3 * double(t2 - t0);
    ops.push_back({t2, us});
    for (const auto& r : results) {
      if (!r.ok()) {
        ++failed;
      } else if (options.trace) {
        decisions.Add(*r, us / kBatch);
      }
    }
    // One decision per batch is every 64th; the slot rotates so every
    // requester position is checked.
    const size_t slot = k % kBatch;
    if (results[slot].ok()) {
      samples.push_back({batch[slot].requester, batch[slot].resource,
                         results[slot]->granted});
    }
    if (options.trace && spans.spans().size() < kMaxSpans) {
      if (k % kTraceStride == 0 || k % kTraceStride == kTraceStride / 2) {
        const int32_t root = spans.Open("batch", k, -1, t0);
        spans.Add("engine.acquire_view", k, root, t0, t1);
        spans.Add("read_view.check_batch", k, root, t1, t2,
                  results[0].ok() ? TagsOf(*results[0]) : SpanTags{});
        const int64_t t3 = NowNs();
        spans.Close(root, t3);
        traced_us.push_back(1e-3 * double(t3 - t0));
      } else {
        untraced_us.push_back(us);
      }
    }
    ++k;
  }
  report->Set("host.steal_share", StealShare(cpu0, ReadCpuTimes()));
  report->attempted = k * kBatch;
  report->failed = failed;
  decisions.Report(report);
  ReportOps(std::move(ops), kBatch, report);

  const Oracle oracle(graph, store);
  report->samples.emplace_back("verified",
                               oracle.Verify(samples, "batch_fanout", report));

  if (options.trace) {
    std::vector<TraceBuffer> buffers;
    buffers.push_back(std::move(spans));
    report->Set("engine.acquire_view_us_p50",
                Median(DurationsUs(buffers, "engine.acquire_view")));
    std::vector<double> view = DurationsUs(buffers, "read_view.check_batch");
    report->Set("read_view.check_us_p50", Percentile(view, 0.50));
    report->Set("read_view.check_us_p99", Percentile(view, 0.99));
    FinishTrace(options, "batch_fanout", buffers, std::move(traced_us),
                std::move(untraced_us), report);
  }
}

}  // namespace sargus::e2e
