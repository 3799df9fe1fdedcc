#ifndef SARGUS_BENCH_E2E_HARNESS_H_
#define SARGUS_BENCH_E2E_HARNESS_H_

/// \file harness.h
/// \brief What the bench_e2e workloads share: run options, seeded
/// inputs, the brute-force oracle that checks sampled decisions, the
/// per-decision accounting behind the query.* layer metrics, and the
/// report every workload fills.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/path_expression.h"
#include "engine/access_engine.h"
#include "engine/policy.h"
#include "graph/csr.h"
#include "graph/social_graph.h"
#include "trace.h"

namespace sargus::e2e {

struct Options {
  uint64_t seed = 1;
  /// Length of the measure phase.
  double seconds = 10.0;
  /// Record spans and report the per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Every workload at ~1/50 size (the ctest smoke run).
  bool smoke = false;
  /// Where durability directories and span files go.
  std::string work_dir;

  /// `full` nodes/resources/threads..., divided by 50 under --smoke but
  /// never below `floor`.
  size_t Scaled(size_t full, size_t floor) const;
};

/// One metric a workload can report.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metrics in the result line with --trace 0 (every workload reports
/// all of them) and with --trace 1 (absent ones print as 0).
/// BENCHMARK.json lists the same names; run.py checks that the two agree.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();
/// The metric of either table named `name`, or null.
const MetricDef* FindMetric(const std::string& name);

struct Report {
  bool correct = true;
  /// Operations in the measure phase, and how many returned an error.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;
  /// Sample counts behind the timings (printed, not part of the JSON).
  std::vector<std::pair<std::string, uint64_t>> samples;

  /// Records metric `name`, which must be in one of the two tables.
  void Set(const std::string& name, double value);
  /// Marks the run incorrect and says why on stderr.
  void Mismatch(const std::string& what);
};

/// The six rules every workload serves, one per resource in turn.
inline constexpr const char* kRuleMix[6] = {
    "friend[1]",          "friend[1,2]",    "friend[1,2]/colleague[1]",
    "friend[1]{age>=18}", "colleague[1,3]", "friend[1,3]/family[1]",
};
/// Zipf skew of owners, requesters and resources.
inline constexpr double kZipfTheta = 0.9;

/// The graph and the policies are a fixed dataset, generated from this
/// seed; --seed draws the request and mutation streams. Under Zipf
/// traffic a few hot resources carry most of the cost, so regenerating
/// the graph per seed moved throughput 2x between seeds (it depended on
/// which hub came to own the hottest resources), hiding any change to
/// the code.
inline constexpr uint64_t kDatasetSeed = 2012;

/// Barabási–Albert graph (4 edges per node, labels friend / colleague /
/// family, age and trust attributes) from kDatasetSeed.
SocialGraph MakeGraph(size_t nodes);

/// Registers `resources` resources with Zipf-skewed owners (from
/// kDatasetSeed); resource i gets rule kRuleMix[i % 6].
void RegisterPolicies(PolicyStore* store, size_t nodes, size_t resources);

struct Pair {
  NodeId requester = 0;
  ResourceId resource = 0;
};
/// `count` (requester, resource) pairs, both Zipf-skewed by rank (rank 0
/// is node 0, the oldest and best-connected BA node).
std::vector<Pair> MakePairs(size_t nodes, size_t resources, size_t count,
                            uint64_t seed);

inline AccessRequest ToRequest(const Pair& p) {
  AccessRequest r;
  r.requester = p.requester;
  r.resource = p.resource;
  return r;
}

/// A decision kept for checking after the measure phase.
struct Sample {
  NodeId requester = 0;
  ResourceId resource = 0;
  bool granted = false;
};

/// Ground truth for sampled decisions: testing_util::BruteForceMatch
/// over a CSR of `graph` built here, for every path of every rule of the
/// resource. Shares nothing with the evaluators under test.
class Oracle {
 public:
  Oracle(const SocialGraph& graph, const PolicyStore& store);
  bool Granted(NodeId requester, ResourceId resource) const;
  /// Checks every sample; records a mismatch in `report` for each wrong
  /// one. Returns how many were checked.
  size_t Verify(const std::vector<Sample>& samples, const char* what,
                Report* report) const;

 private:
  const SocialGraph* graph_;
  const PolicyStore* store_;
  CsrSnapshot csr_;
  /// Bound paths of each rule, by RuleId.
  std::vector<std::vector<BoundPathExpression>> rules_;
};

/// Requests decided before an engine is destroyed and again after
/// OpenFromDir.
inline constexpr size_t kRecoverySample = 1000;

/// Decides the first `count` requests of `stream` through the facade.
std::vector<Result<AccessDecision>> Decide(const AccessControlEngine& engine,
                                           const std::vector<Pair>& stream,
                                           size_t count);
/// Records a mismatch for every request decided differently (grant,
/// owner access, matched rule) in `after` than in `before`.
void CompareDecisions(const std::vector<Result<AccessDecision>>& before,
                      const std::vector<Result<AccessDecision>>& after,
                      const char* what, Report* report);

/// Per-decision counts behind the query.* (and router.*) layer metrics.
class DecisionStats {
 public:
  /// Accounts one decision that took `time_us` of its call's latency.
  void Add(const AccessDecision& d, double time_us);
  void Merge(const DecisionStats& other);
  /// Sets the share of decisions (query.<evaluator>.share, or
  /// router.<evaluator>.share for the shard tier's names) and of their
  /// time (.time_share) each evaluator concluded, plus the work
  /// counters and the grant rate.
  void Report(e2e::Report* report) const;

 private:
  struct ByEvaluator {
    std::string_view name;
    uint64_t count = 0;
    double time_us = 0.0;
  };
  uint64_t decisions_ = 0;
  uint64_t granted_ = 0;
  uint64_t pairs_ = 0;
  uint64_t tuples_ = 0;
  uint64_t line_queries_ = 0;
  double time_us_ = 0.0;
  std::vector<ByEvaluator> by_evaluator_;
};

inline SpanTags TagsOf(const AccessDecision& d) {
  SpanTags t;
  t.evaluator = d.evaluator_name;
  t.generation = d.snapshot_generation;
  t.overlay_version = d.overlay_version;
  t.pairs = d.stats.pairs_visited;
  t.tuples = d.stats.tuples_generated;
  t.line_queries = d.stats.line_queries;
  return t;
}

/// Set-ups per run: at least kMinSetups, and more while their total is
/// under kMinSetupSeconds, so that a set-up of a few milliseconds, which
/// one slow fsync or wake-up can double, is repeated over a hundred
/// times. setup_s is the median of their durations.
inline constexpr size_t kMinSetups = 5;
inline constexpr double kMinSetupSeconds = 1.0;

/// Calls `reset` (untimed, tears down the previous set-up) and then
/// `setup` (timed; returns the Status of making the system ready to
/// serve) as above, and sets setup_s. False when a set-up failed.
template <typename Reset, typename Setup>
bool TimeSetups(Reset reset, Setup setup, Report* report) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kMinSetups || total < kMinSetupSeconds) {
    reset();
    const int64_t t0 = NowNs();
    const Status s = setup();
    seconds.push_back(1e-9 * double(NowNs() - t0));
    total += seconds.back();
    if (!s.ok()) {
      report->Mismatch("set-up: " + s.ToString());
      return false;
    }
  }
  report->Set("setup_s", Percentile(seconds, 0.5));
  report->samples.emplace_back("setup", seconds.size());
  return true;
}

/// Phases of a measured run, flipped by the workload's main thread.
enum Phase : int { kWarmUp = 0, kMeasure = 1, kStop = 2 };

/// One measured operation: when it completed and how long it took.
struct Op {
  int64_t end_ns = 0;
  double latency_us = 0.0;
};

/// Decisions kept for checking: every kSampleStride-th one.
inline constexpr uint64_t kSampleStride = 64;

/// Trace mode: of every kTraceStride operations, the first records its
/// spans (with the shadow calls, where a workload has them) and the
/// middle one records spans only. Tracing stops when a thread's buffer
/// holds kMaxSpans spans, which bounds memory and the span file.
inline constexpr uint64_t kTraceStride = 16;
inline constexpr size_t kMaxSpans = size_t{1} << 17;

/// One closed-loop client of the engine facade: it calls
/// AccessControlEngine::CheckAccess over `stream` (from `offset`,
/// wrapping) until the phase reaches kStop, and records only while it
/// is kMeasure. With tracing, requests record spans as kTraceStride
/// says; the shadowed ones are followed by an AcquireReadView +
/// AccessReadView::CheckAccess of the same request, the pair the
/// engine.* and read_view.* layer metrics come from.
struct FacadeReader {
  const AccessControlEngine* engine = nullptr;
  const std::vector<Pair>* stream = nullptr;
  size_t offset = 0;
  /// First request id (ids are unique across threads).
  uint64_t request_base = 0;
  bool trace = false;
  /// Keep one request in this many (its latency, and every
  /// kSampleStride-th kept one as a sample), so that memory, and with it
  /// peak RSS, does not grow with throughput on cheap checks.
  uint64_t record_stride = 1;

  std::vector<Op> ops;
  /// Trace mode: latency of traced requests including span recording,
  /// and of the untraced ones in the same window.
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  /// Trace mode, shadowed requests: facade minus (acquire + view check).
  std::vector<double> facade_self_us;
  std::vector<Sample> samples;
  /// Trace mode only: untraced runs time nothing but the call and the
  /// sampling the output checks need.
  DecisionStats decisions;
  uint64_t checks = 0;
  uint64_t failed = 0;
  TraceBuffer spans;

  void Run(const std::atomic<int>& phase);
};

/// Starts one thread per reader, each on its own slice of `stream`.
std::vector<std::thread> StartReaders(std::vector<FacadeReader>& readers,
                                      const AccessControlEngine& engine,
                                      const std::vector<Pair>& stream,
                                      const Options& options,
                                      uint64_t record_stride,
                                      const std::atomic<int>& phase);

/// What a set of FacadeReaders did, merged.
struct ReadTotals {
  std::vector<Op> ops;
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  std::vector<Sample> samples;
  uint64_t checks = 0;
  uint64_t failed = 0;
};
/// Merges `readers` (moving their spans into `buffers`) and sets the
/// query.* and, in trace mode, the engine.* and read_view.* metrics.
ReadTotals MergeReaders(std::vector<FacadeReader>& readers,
                        std::vector<TraceBuffer>* buffers, Report* report);

/// Trace mode: sets trace.overhead_p50_us (traced minus untraced median
/// op latency) and trace.spans, and writes `buffers` to
/// <work dir>/trace-<workload>.jsonl.
void FinishTrace(const Options& options, const char* workload,
                 const std::vector<TraceBuffer>& buffers,
                 std::vector<double> traced_us,
                 std::vector<double> untraced_us, Report* report);

/// Latencies (µs) of `ops`.
std::vector<double> Latencies(const std::vector<Op>& ops);

/// Sets op.ops_per_s, op.p50_us and op.p99_us from `ops`. The measure
/// phase is cut into consecutive windows of at least kWindowOps ops (so
/// each window's p99 has ten samples beyond it), at most kWindows of
/// them, and each metric is the median of its per-window values: a host
/// hiccup spoils one window rather than the run. One op stands for
/// `per_op` decisions (a batch, or a reader's kept call). Also sets
/// op.p999_us over all ops (0 below 10,000, where fewer than ten lie
/// beyond it) and the sample count.
inline constexpr size_t kWindows = 9;
inline constexpr size_t kWindowOps = 1000;
void ReportOps(std::vector<Op> ops, double per_op, Report* report);

/// Cumulative CPU jiffies from /proc/stat (zeros when unreadable).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time the hypervisor stole between `a` and `b`.
double StealShare(const CpuTimes& a, const CpuTimes& b);

/// Median of a copy of `v`.
double Median(std::vector<double> v);
double SecondsSince(int64_t start_ns);

/// Directory `name` under the work dir, emptied and created.
std::string FreshDir(const Options& options, const std::string& name);
/// Size of `path` in MiB (0 when missing).
double FileMiB(const std::string& path);

}  // namespace sargus::e2e

#endif  // SARGUS_BENCH_E2E_HARNESS_H_
