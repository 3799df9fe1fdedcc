/// B9 -- Concurrent serving throughput on the immutable read-view API.
///
/// The engine publishes immutable AccessReadViews; CheckAccess on a view
/// is const and lock-free, so decision throughput should scale with
/// reader threads (the acceptance criterion for the view subsystem: 8
/// threads on one shared view ≥ 4x a single thread, given ≥ 8 cores).
/// Four series:
///
///  * BM_ViewCheckAccess/threads:N — N threads hammering one shared
///    view, each with its own scratch context (the intended serving
///    configuration; no lock anywhere on the path);
///  * BM_EngineCheckAccess/threads:N — the engine facade, which
///    re-acquires the view per call (per-thread acquire cache, no lock
///    in steady state) and feeds the mutex-guarded audit ring: what the
///    convenience surface costs under contention;
///  * BM_EngineCheckAccessNoAudit/threads:N — the facade with
///    audit_capacity = 0 (cached view acquire, no mutex anywhere);
///  * BM_BatchCheckAccess vs BM_LoopCheckAccess — one
///    CheckAccessBatch over a fixed request mix vs the same requests
///    looped one by one (per-decision latency, single thread);
///  * BM_MutationThroughputQueued/threads:N vs
///    BM_MutationThroughputMutex/threads:N — N producers pushing
///    durable mutations into one engine: pipelined submission through
///    the MPSC MutationQueue (one fsync + one published view per
///    group-commit batch) vs the retired single-writer contract
///    (producers serialize behind an external mutex and call the
///    synchronous AddEdge/RemoveEdge, so every batch holds one op: one
///    fsync + one publish per op). The write-pipeline acceptance
///    criterion reads these two series: queued ≥ 3x mutex at 8
///    producers, no regression at 1;
///  * BM_ReadWriteInterferenceZipf/threads:N — thread 0 streams
///    queued mutations while N-1 readers draw Zipf-skewed (theta 0.99)
///    requester/resource mixes; items counts reader decisions only.
///    BM_ReadOnlyZipf is the no-writer baseline the interference is
///    measured against.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/access_engine.h"
#include "query/eval_context.h"
#include "synth/generators.h"

namespace sargus {
namespace bench {
namespace {

constexpr size_t kNodes = 4000;
constexpr size_t kNumResources = 40;
constexpr size_t kNumRequests = 256;

struct ConcurrencyFixture {
  std::unique_ptr<SocialGraph> g;
  PolicyStore store;
  std::unique_ptr<AccessControlEngine> engine;
  std::unique_ptr<AccessControlEngine> engine_no_audit;
  std::vector<AccessRequest> requests;
};

ConcurrencyFixture& GetFixture() {
  static ConcurrencyFixture* f = []() {
    auto* fx = new ConcurrencyFixture();
    fx->g = std::make_unique<SocialGraph>(
        MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, 42));
    static const char* kPolicyMix[] = {
        "friend[1]",
        "friend[1,2]",
        "friend[1,2]/colleague[1]",
        "friend[1]{age>=18}",
    };
    Rng rng(99);
    std::vector<ResourceId> resources;
    for (size_t i = 0; i < kNumResources; ++i) {
      NodeId owner = static_cast<NodeId>(rng.NextBounded(kNodes));
      ResourceId res =
          fx->store.RegisterResource(owner, "res" + std::to_string(i));
      if (!fx->store.AddRuleFromPaths(res, {kPolicyMix[i % 4]}).ok()) {
        std::abort();
      }
      resources.push_back(res);
    }
    for (size_t i = 0; i < kNumRequests; ++i) {
      fx->requests.push_back(
          {.requester = static_cast<NodeId>(rng.NextBounded(kNodes)),
           .resource = resources[rng.NextBounded(resources.size())]});
    }
    fx->engine = std::make_unique<AccessControlEngine>(*fx->g, fx->store,
                                                       EngineOptions{});
    if (!fx->engine->RebuildIndexes().ok()) std::abort();
    EngineOptions no_audit;
    no_audit.audit_capacity = 0;
    fx->engine_no_audit = std::make_unique<AccessControlEngine>(
        *fx->g, fx->store, no_audit);
    if (!fx->engine_no_audit->RebuildIndexes().ok()) std::abort();
    return fx;
  }();
  return *f;
}

/// N threads, one shared immutable view, per-thread scratch. This is
/// the lock-free serving path the acceptance criterion measures.
void BM_ViewCheckAccess(benchmark::State& state) {
  ConcurrencyFixture& f = GetFixture();
  // All threads share one pinned view; the shared_ptr is acquired once
  // per thread, not per decision.
  std::shared_ptr<const AccessReadView> view = f.engine->AcquireReadView();
  EvalContext ctx;
  size_t i = state.thread_index() * 17;  // decorrelate thread request mixes
  for (auto _ : state) {
    const AccessRequest& req = f.requests[i % f.requests.size()];
    ++i;
    auto d = view->CheckAccess(req, ctx);
    if (!d.ok()) {
      state.SkipWithError(d.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(d->granted);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViewCheckAccess)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void RunFacadeBench(benchmark::State& state, AccessControlEngine& engine) {
  ConcurrencyFixture& f = GetFixture();
  size_t i = state.thread_index() * 17;
  for (auto _ : state) {
    const AccessRequest& req = f.requests[i % f.requests.size()];
    ++i;
    auto d = engine.CheckAccess(req);
    if (!d.ok()) {
      state.SkipWithError(d.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(d->granted);
  }
  state.SetItemsProcessed(state.iterations());
}

/// The convenience facade: per-call atomic view acquisition + the
/// audit-ring mutex.
void BM_EngineCheckAccess(benchmark::State& state) {
  RunFacadeBench(state, *GetFixture().engine);
}
BENCHMARK(BM_EngineCheckAccess)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// The facade with auditing off: the only remaining shared write is the
/// view shared_ptr refcount.
void BM_EngineCheckAccessNoAudit(benchmark::State& state) {
  RunFacadeBench(state, *GetFixture().engine_no_audit);
}
BENCHMARK(BM_EngineCheckAccessNoAudit)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// One CheckAccessBatch over the fixed request mix: shared view
/// acquisition, one scratch context, requests grouped by resource.
void BM_BatchCheckAccess(benchmark::State& state) {
  ConcurrencyFixture& f = GetFixture();
  auto view = f.engine->AcquireReadView();
  EvalContext ctx;
  for (auto _ : state) {
    auto out = view->CheckAccessBatch(f.requests, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.requests.size());
}
BENCHMARK(BM_BatchCheckAccess);

/// The same requests, one CheckAccess at a time on the same view and
/// context — the baseline the batch API amortizes against.
void BM_LoopCheckAccess(benchmark::State& state) {
  ConcurrencyFixture& f = GetFixture();
  auto view = f.engine->AcquireReadView();
  EvalContext ctx;
  for (auto _ : state) {
    for (const AccessRequest& req : f.requests) {
      auto d = view->CheckAccess(req, ctx);
      benchmark::DoNotOptimize(d.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * f.requests.size());
}
BENCHMARK(BM_LoopCheckAccess);

// ---- Mutation throughput: queued vs mutex-serialized ------------------------

// Each producer toggles its own private logical edge (add, remove, add,
// ...): every op succeeds, the overlay stays bounded, and no two
// threads ever contend on the same logical edge — so the series
// measures pipeline overhead, not conflict semantics.
constexpr size_t kWriterNodes = 2000;
// In-flight tickets a queued producer keeps before waiting one out.
// Durability lives on tmpfs in CI, so the fsync is cheap; the batching
// win comes from amortizing the O(overlay) view republication.
constexpr size_t kPipelineWindow = 64;

struct MutationFixture {
  std::unique_ptr<SocialGraph> g;
  PolicyStore store;
  std::string dir;
  std::unique_ptr<AccessControlEngine> engine;
  std::mutex legacy_mu;  // the retired external single-writer contract
};

/// Both producer series share one durable engine.
MutationFixture& GetMutationFixture() {
  static MutationFixture* fx = [] {
    auto* fx = new MutationFixture();
    fx->g = std::make_unique<SocialGraph>(
        MakeGraph(GraphKind::kBarabasiAlbert, kWriterNodes, 3, 42));
    const ResourceId res = fx->store.RegisterResource(0, "res");
    if (!fx->store.AddRuleFromPaths(res, {"friend[1,2]"}).ok()) std::abort();

    EngineOptions options;
    // Keep fold/snapshot work out of the measured loop; the overlay stays
    // bounded anyway because every producer toggles its edge.
    options.compact_threshold = 1u << 30;
    options.audit_capacity = 0;
    fx->engine = std::make_unique<AccessControlEngine>(*fx->g, fx->store,
                                                       options);
    if (!fx->engine->RebuildIndexes().ok()) std::abort();

    char tmpl[] = "/tmp/sargus_bench_concurrency_XXXXXX";
    fx->dir = mkdtemp(tmpl);
    DurabilityOptions durability;
    durability.snapshot_on_compaction = false;
    if (!fx->engine->EnableDurability(fx->dir, durability).ok()) std::abort();
    return fx;
  }();
  return *fx;
}

/// N producers over the MPSC queue: pipelined submission with a bounded
/// ticket window, group-commit batches behind the scenes.
void BM_MutationThroughputQueued(benchmark::State& state) {
  MutationFixture& f = GetMutationFixture();
  AccessControlEngine& engine = *f.engine;
  const auto src = static_cast<NodeId>(2 * state.thread_index());
  const auto dst = static_cast<NodeId>(2 * state.thread_index() + 1);
  bool add = true;
  std::deque<WriteTicket> window;
  for (auto _ : state) {
    WriteTicket ticket = add ? engine.SubmitAddEdge(src, dst, "friend")
                             : engine.SubmitRemoveEdge(src, dst, "friend");
    add = !add;
    window.push_back(std::move(ticket));
    if (window.size() >= kPipelineWindow) {
      const WriteOutcome out = window.front().Wait();
      window.pop_front();
      if (!out.status.ok()) {
        state.SkipWithError(out.status.ToString().c_str());
        break;
      }
    }
  }
  for (const WriteTicket& t : window) (void)t.Wait();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutationThroughputQueued)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// The same op stream under the retired contract: producers serialize
/// behind an external mutex and wait out each synchronous call, so
/// every op is its own batch — its own WAL fsync and its own view
/// republication.
void BM_MutationThroughputMutex(benchmark::State& state) {
  MutationFixture& f = GetMutationFixture();
  AccessControlEngine& engine = *f.engine;
  const auto src = static_cast<NodeId>(2 * state.thread_index());
  const auto dst = static_cast<NodeId>(2 * state.thread_index() + 1);
  bool add = true;
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(f.legacy_mu);
    const Status s = add ? engine.AddEdge(src, dst, "friend")
                         : engine.RemoveEdge(src, dst, "friend");
    add = !add;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutationThroughputMutex)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ---- Read-vs-write interference under Zipf-skewed readers -------------------

constexpr double kZipfTheta = 0.99;

struct InterferenceFixture {
  std::unique_ptr<SocialGraph> g;
  PolicyStore store;
  std::vector<ResourceId> resources;
  std::unique_ptr<AccessControlEngine> engine;
};

InterferenceFixture& GetInterferenceFixture() {
  static InterferenceFixture* f = []() {
    auto* fx = new InterferenceFixture();
    fx->g = std::make_unique<SocialGraph>(
        MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, 43));
    static const char* kPolicyMix[] = {
        "friend[1]",
        "friend[1,2]",
        "friend[1,2]/colleague[1]",
        "friend[1]{age>=18}",
    };
    Rng rng(7);
    for (size_t i = 0; i < kNumResources; ++i) {
      const NodeId owner = static_cast<NodeId>(rng.NextBounded(kNodes));
      const ResourceId res =
          fx->store.RegisterResource(owner, "zres" + std::to_string(i));
      if (!fx->store.AddRuleFromPaths(res, {kPolicyMix[i % 4]}).ok()) {
        std::abort();
      }
      fx->resources.push_back(res);
    }
    EngineOptions options;
    options.compact_threshold = 1u << 30;
    options.audit_capacity = 0;
    fx->engine = std::make_unique<AccessControlEngine>(*fx->g, fx->store,
                                                       options);
    if (!fx->engine->RebuildIndexes().ok()) std::abort();
    return fx;
  }();
  return *f;
}

void RunZipfReader(benchmark::State& state, AccessControlEngine& engine,
                   const std::vector<ResourceId>& resources) {
  ZipfSampler requesters(kNodes, kZipfTheta,
                         1000 + static_cast<uint64_t>(state.thread_index()));
  ZipfSampler picks(resources.size(), kZipfTheta,
                    2000 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const AccessRequest req{
        .requester = static_cast<NodeId>(requesters.Next()),
        .resource = resources[picks.Next()]};
    auto d = engine.CheckAccess(req);
    if (!d.ok()) {
      state.SkipWithError(d.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(d->granted);
  }
  state.SetItemsProcessed(state.iterations());
}

/// Thread 0 streams pipelined mutations through the queue; the rest are
/// Zipf-skewed readers. Reported items are reader decisions only — the
/// series quantifies how much decision throughput the write pipeline's
/// batched publishes steal from readers.
void BM_ReadWriteInterferenceZipf(benchmark::State& state) {
  InterferenceFixture& f = GetInterferenceFixture();
  if (state.thread_index() == 0) {
    AccessControlEngine& engine = *f.engine;
    const auto src = static_cast<NodeId>(kNodes - 2);
    const auto dst = static_cast<NodeId>(kNodes - 1);
    bool add = true;
    std::deque<WriteTicket> window;
    for (auto _ : state) {
      WriteTicket ticket = add ? engine.SubmitAddEdge(src, dst, "friend")
                               : engine.SubmitRemoveEdge(src, dst, "friend");
      add = !add;
      window.push_back(std::move(ticket));
      if (window.size() >= kPipelineWindow) {
        (void)window.front().Wait();
        window.pop_front();
      }
    }
    for (const WriteTicket& t : window) (void)t.Wait();
    state.SetItemsProcessed(0);  // writer ops are not decisions
    return;
  }
  RunZipfReader(state, *f.engine, f.resources);
}
BENCHMARK(BM_ReadWriteInterferenceZipf)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// The no-writer baseline for the series above: the same Zipf reader
/// mix with the write pipeline idle.
void BM_ReadOnlyZipf(benchmark::State& state) {
  InterferenceFixture& f = GetInterferenceFixture();
  RunZipfReader(state, *f.engine, f.resources);
}
BENCHMARK(BM_ReadOnlyZipf)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
