#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "synth/generators.h"
#include "tests/test_util.h"
#include "trace.h"

namespace sargus::e2e {

size_t Options::Scaled(size_t full, size_t floor) const {
  return smoke ? std::max(full / 50, floor) : full;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"op.ops_per_s", "1/s"},
      {"op.p50_us", "us"},
      {"op.p99_us", "us"},
      {"op.p999_us", "us"},
      {"engine.facade_self_us_p50", "us"},
      {"engine.acquire_view_us_p50", "us"},
      {"read_view.check_us_p50", "us"},
      {"read_view.check_us_p99", "us"},
      {"view.overlay_size_mean", "count"},
      {"view.overlay_size_max", "count"},
      {"view.overlay_kb_mean", "KiB"},
      {"view.publishes_per_s", "1/s"},
      {"query.owner.share", "ratio"},
      {"query.owner.time_share", "ratio"},
      {"query.join-index.share", "ratio"},
      {"query.join-index.time_share", "ratio"},
      {"query.online-bfs.share", "ratio"},
      {"query.online-bfs.time_share", "ratio"},
      {"query.batch-audience.share", "ratio"},
      {"query.batch-audience.time_share", "ratio"},
      {"query.pairs_per_check", "count"},
      {"query.tuples_per_check", "count"},
      {"query.line_queries_per_check", "count"},
      {"query.grant_rate", "ratio"},
      {"write.p50_us", "us"},
      {"write.p99_us", "us"},
      {"write.gen_late_us_p99", "us"},
      {"write_queue.submit_us_p99", "us"},
      {"write_queue.ack_us_p50", "us"},
      {"write_queue.ack_us_p99", "us"},
      {"write_queue.ops_per_batch", "count"},
      {"write_queue.batches_per_s", "1/s"},
      {"write_queue.max_batch", "count"},
      {"write_queue.rejected", "count"},
      {"wal.records_per_s", "1/s"},
      {"storage.save_s", "s"},
      {"storage.recover_s", "s"},
      {"storage.bundle_mb", "MiB"},
      {"compaction.full", "count"},
      {"compaction.incremental", "count"},
      {"compaction.busy_share", "ratio"},
      {"router.cross_share", "ratio"},
      {"router.summary_hit_rate", "ratio"},
      {"router.fallback_rounds_per_walk", "count"},
      {"router.retries", "count"},
      {"router.timeouts", "count"},
      {"router.shard-owner.share", "ratio"},
      {"router.shard-local.share", "ratio"},
      {"router.shard-summary.share", "ratio"},
      {"router.shard-frontier.share", "ratio"},
      {"shard.check_batch_us_p50", "us"},
      {"transport.jobs_per_batch", "count"},
      {"transport.shard_imbalance", "ratio"},
      {"transport.cancelled", "count"},
      {"host.steal_share", "ratio"},
      {"trace.overhead_p50_us", "us"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *table) {
      if (name == m.name) return &m;
    }
  }
  return nullptr;
}

void Report::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "bench_e2e: metric %s is not declared\n",
                 name.c_str());
    std::abort();
  }
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "bench_e2e: MISMATCH %s\n", what.c_str());
}

SocialGraph MakeGraph(size_t nodes) {
  BarabasiAlbertSpec spec;
  spec.base.num_nodes = nodes;
  spec.base.seed = kDatasetSeed;
  spec.edges_per_node = 4;
  auto g = GenerateBarabasiAlbert(spec);
  if (!g.ok()) {
    std::fprintf(stderr, "bench_e2e: graph generation failed: %s\n",
                 g.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(g).ValueOrDie();
}

void RegisterPolicies(PolicyStore* store, size_t nodes, size_t resources) {
  ZipfSampler owners(nodes, kZipfTheta, kDatasetSeed + 1);
  for (size_t i = 0; i < resources; ++i) {
    const ResourceId r = store->RegisterResource(
        static_cast<NodeId>(owners.Next()), "res" + std::to_string(i));
    if (!store->AddRuleFromPaths(r, {kRuleMix[i % 6]}).ok()) {
      std::fprintf(stderr, "bench_e2e: rule %s rejected\n", kRuleMix[i % 6]);
      std::exit(2);
    }
  }
}

std::vector<Pair> MakePairs(size_t nodes, size_t resources, size_t count,
                            uint64_t seed) {
  ZipfSampler requesters(nodes, kZipfTheta, seed);
  ZipfSampler targets(resources, kZipfTheta, seed ^ 0x5bd1e995ULL);
  std::vector<Pair> pairs(count);
  for (Pair& p : pairs) {
    p.requester = static_cast<NodeId>(requesters.Next());
    p.resource = static_cast<ResourceId>(targets.Next());
  }
  return pairs;
}

Oracle::Oracle(const SocialGraph& graph, const PolicyStore& store)
    : graph_(&graph), store_(&store), csr_(CsrSnapshot::Build(graph)) {
  rules_.resize(store.NumRules());
  for (RuleId id = 0; id < store.NumRules(); ++id) {
    for (const PathExpression& path : store.rule(id).paths) {
      auto bound = BoundPathExpression::Bind(path, graph);
      if (!bound.ok()) {
        std::fprintf(stderr, "bench_e2e: oracle cannot bind rule %u\n", id);
        std::exit(2);
      }
      rules_[id].push_back(std::move(bound).ValueOrDie());
    }
  }
}

bool Oracle::Granted(NodeId requester, ResourceId resource) const {
  const NodeId owner = store_->resource(resource).owner;
  if (owner == requester) return true;
  for (const RuleId id : store_->resource(resource).rules) {
    for (const BoundPathExpression& path : rules_[id]) {
      if (testing_util::BruteForceMatch(*graph_, csr_, path, owner,
                                        requester)) {
        return true;
      }
    }
  }
  return false;
}

size_t Oracle::Verify(const std::vector<Sample>& samples, const char* what,
                      Report* report) const {
  for (const Sample& s : samples) {
    const bool want = Granted(s.requester, s.resource);
    if (want != s.granted) {
      report->Mismatch(std::string(what) + ": requester " +
                       std::to_string(s.requester) + " resource " +
                       std::to_string(s.resource) + " decided " +
                       (s.granted ? "grant" : "deny") + ", brute force says " +
                       (want ? "grant" : "deny"));
    }
  }
  return samples.size();
}

std::vector<Result<AccessDecision>> Decide(const AccessControlEngine& engine,
                                           const std::vector<Pair>& stream,
                                           size_t count) {
  std::vector<Result<AccessDecision>> out;
  for (size_t i = 0; i < count && i < stream.size(); ++i) {
    out.push_back(engine.CheckAccess(ToRequest(stream[i])));
  }
  return out;
}

void CompareDecisions(const std::vector<Result<AccessDecision>>& before,
                      const std::vector<Result<AccessDecision>>& after,
                      const char* what, Report* report) {
  for (size_t i = 0; i < before.size(); ++i) {
    const bool same = i < after.size() && before[i].ok() && after[i].ok() &&
                      before[i]->granted == after[i]->granted &&
                      before[i]->owner_access == after[i]->owner_access &&
                      before[i]->matched_rule == after[i]->matched_rule;
    if (!same) {
      report->Mismatch(std::string(what) + ": request " + std::to_string(i) +
                       " decided differently after OpenFromDir");
    }
  }
}

void DecisionStats::Add(const AccessDecision& d, double time_us) {
  ++decisions_;
  granted_ += d.granted ? 1 : 0;
  pairs_ += d.stats.pairs_visited;
  tuples_ += d.stats.tuples_generated;
  line_queries_ += d.stats.line_queries;
  time_us_ += time_us;
  for (ByEvaluator& e : by_evaluator_) {
    if (e.name == d.evaluator_name) {
      ++e.count;
      e.time_us += time_us;
      return;
    }
  }
  by_evaluator_.push_back({d.evaluator_name, 1, time_us});
}

void DecisionStats::Merge(const DecisionStats& other) {
  decisions_ += other.decisions_;
  granted_ += other.granted_;
  pairs_ += other.pairs_;
  tuples_ += other.tuples_;
  line_queries_ += other.line_queries_;
  time_us_ += other.time_us_;
  for (const ByEvaluator& o : other.by_evaluator_) {
    auto it = std::find_if(by_evaluator_.begin(), by_evaluator_.end(),
                           [&](const ByEvaluator& e) { return e.name == o.name; });
    if (it == by_evaluator_.end()) {
      by_evaluator_.push_back(o);
    } else {
      it->count += o.count;
      it->time_us += o.time_us;
    }
  }
}

void DecisionStats::Report(e2e::Report* report) const {
  if (decisions_ == 0) return;
  const double n = static_cast<double>(decisions_);
  for (const ByEvaluator& e : by_evaluator_) {
    const std::string name(e.name);
    const bool shard = name.rfind("shard-", 0) == 0;
    const std::string key = (shard ? "router." : "query.") + name;
    if (FindMetric(key + ".share") == nullptr) continue;
    report->Set(key + ".share", static_cast<double>(e.count) / n);
    if (!shard) {
      report->Set(key + ".time_share",
                  time_us_ > 0.0 ? e.time_us / time_us_ : 0.0);
    }
  }
  report->Set("query.pairs_per_check", static_cast<double>(pairs_) / n);
  report->Set("query.tuples_per_check", static_cast<double>(tuples_) / n);
  report->Set("query.line_queries_per_check",
              static_cast<double>(line_queries_) / n);
  report->Set("query.grant_rate", static_cast<double>(granted_) / n);
}

void FacadeReader::Run(const std::atomic<int>& phase) {
  const size_t n = stream->size();
  size_t i = offset;
  ops.reserve(size_t{1} << 20);
  if (trace) spans.Reserve(kMaxSpans);
  while (phase.load(std::memory_order_relaxed) == kWarmUp) {
    (void)engine->CheckAccess(ToRequest((*stream)[i++ % n]));
  }
  uint64_t k = 0;
  while (phase.load(std::memory_order_relaxed) == kMeasure) {
    const AccessRequest req = ToRequest((*stream)[i++ % n]);
    const int64_t t0 = NowNs();
    const Result<AccessDecision> d = engine->CheckAccess(req);
    const int64_t t1 = NowNs();
    const double us = 1e-3 * double(t1 - t0);
    const bool kept = k % record_stride == 0;
    if (kept) ops.push_back({t1, us});
    if (!d.ok()) {
      ++failed;
    } else if (kept && (k / record_stride) % kSampleStride == 0) {
      samples.push_back({req.requester, req.resource, d->granted});
    }
    if (trace && d.ok()) decisions.Add(*d, us);
    if (trace && spans.spans().size() < kMaxSpans) {
      const uint64_t slot = k % kTraceStride;
      if (slot == 0 || slot == kTraceStride / 2) {
        const uint64_t id = request_base + k;
        const int32_t root = spans.Open("request", id, -1, t0);
        spans.Add("engine.check", id, root, t0, t1,
                  d.ok() ? TagsOf(*d) : SpanTags{});
        if (slot == 0) {
          const int64_t a0 = NowNs();
          const auto view = engine->AcquireReadView();
          const int64_t a1 = NowNs();
          const Result<AccessDecision> shadow = view->CheckAccess(req);
          const int64_t a2 = NowNs();
          spans.Add("engine.acquire_view", id, root, a0, a1);
          spans.Add("read_view.check", id, root, a1, a2,
                    shadow.ok() ? TagsOf(*shadow) : SpanTags{});
          facade_self_us.push_back(us - 1e-3 * double(a2 - a0));
          spans.Close(root, NowNs());
        } else {
          const int64_t t2 = NowNs();
          spans.Close(root, t2);
          traced_us.push_back(1e-3 * double(t2 - t0));
        }
      } else {
        untraced_us.push_back(us);
      }
    }
    ++k;
  }
  checks = k;
}

std::vector<std::thread> StartReaders(std::vector<FacadeReader>& readers,
                                      const AccessControlEngine& engine,
                                      const std::vector<Pair>& stream,
                                      const Options& options,
                                      uint64_t record_stride,
                                      const std::atomic<int>& phase) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers.size(); ++t) {
    FacadeReader& r = readers[t];
    r.engine = &engine;
    r.stream = &stream;
    r.offset = t * stream.size() / readers.size();
    r.request_base = uint64_t{t} << 40;
    r.trace = options.trace;
    r.record_stride = record_stride;
    threads.emplace_back([&r, &phase] { r.Run(phase); });
  }
  return threads;
}

ReadTotals MergeReaders(std::vector<FacadeReader>& readers,
                        std::vector<TraceBuffer>* buffers, Report* report) {
  ReadTotals t;
  DecisionStats decisions;
  std::vector<double> facade_self;
  for (FacadeReader& r : readers) {
    t.ops.insert(t.ops.end(), r.ops.begin(), r.ops.end());
    t.traced_us.insert(t.traced_us.end(), r.traced_us.begin(),
                       r.traced_us.end());
    t.untraced_us.insert(t.untraced_us.end(), r.untraced_us.begin(),
                         r.untraced_us.end());
    t.samples.insert(t.samples.end(), r.samples.begin(), r.samples.end());
    facade_self.insert(facade_self.end(), r.facade_self_us.begin(),
                       r.facade_self_us.end());
    t.checks += r.checks;
    t.failed += r.failed;
    decisions.Merge(r.decisions);
    buffers->push_back(std::move(r.spans));
  }
  decisions.Report(report);
  if (!facade_self.empty()) {
    report->Set("engine.facade_self_us_p50", Median(facade_self));
    report->Set("engine.acquire_view_us_p50",
                Median(DurationsUs(*buffers, "engine.acquire_view")));
    std::vector<double> view = DurationsUs(*buffers, "read_view.check");
    report->Set("read_view.check_us_p50", Percentile(view, 0.50));
    report->Set("read_view.check_us_p99", Percentile(view, 0.99));
    report->samples.emplace_back("shadow_pairs", facade_self.size());
  }
  return t;
}

void FinishTrace(const Options& options, const char* workload,
                 const std::vector<TraceBuffer>& buffers,
                 std::vector<double> traced_us,
                 std::vector<double> untraced_us, Report* report) {
  size_t spans = 0;
  for (const TraceBuffer& b : buffers) spans += b.spans().size();
  report->Set("trace.spans", static_cast<double>(spans));
  report->Set("trace.overhead_p50_us",
              Median(std::move(traced_us)) - Median(std::move(untraced_us)));
  const std::string path = (std::filesystem::path(options.work_dir) /
                            (std::string("trace-") + workload + ".jsonl"))
                               .string();
  if (!WriteJsonl(buffers, path.c_str())) {
    report->Mismatch("cannot write span file " + path);
    return;
  }
  std::fprintf(stderr, "bench_e2e: %zu spans written to %s\n", spans,
               path.c_str());
}

std::vector<double> Latencies(const std::vector<Op>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const Op& op : ops) out.push_back(op.latency_us);
  return out;
}

void ReportOps(std::vector<Op> ops, double per_op, Report* report) {
  if (ops.empty()) {
    report->Mismatch("no operation completed in the measure phase");
    return;
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.end_ns < b.end_ns; });
  const size_t n = ops.size();
  const size_t windows = std::clamp<size_t>(n / kWindowOps, 1, kWindows);
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = n * w / windows;
    const size_t hi = n * (w + 1) / windows;
    // The window spans from the previous op's completion (or, for the
    // first, this op's start) to its last op's completion.
    const double from = lo > 0 ? double(ops[lo - 1].end_ns)
                               : double(ops[0].end_ns) - 1e3 * ops[0].latency_us;
    const double span_s = 1e-9 * (double(ops[hi - 1].end_ns) - from);
    rate.push_back(span_s > 0 ? double(hi - lo) * per_op / span_s : 0.0);
    std::vector<double> lat;
    for (size_t i = lo; i < hi; ++i) lat.push_back(ops[i].latency_us);
    p50.push_back(Percentile(lat, 0.50));
    p99.push_back(Percentile(lat, 0.99));
  }
  report->Set("op.ops_per_s", Median(rate));
  report->Set("op.p50_us", Median(p50));
  report->Set("op.p99_us", Median(p99));
  std::vector<double> all = Latencies(ops);
  report->Set("op.p999_us", n >= 10000 ? Percentile(all, 0.999) : 0.0);
  report->samples.emplace_back("op_latency", n);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  const uint64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

double SecondsSince(int64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

std::string FreshDir(const Options& options, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
  return dir.string();
}

double FileMiB(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

}  // namespace sargus::e2e
