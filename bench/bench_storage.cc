/// B12 -- Durability: cold start, save latency, bundle size.
///
/// The storage/ subsystem's pitch is that a restart is an mmap + verify
/// + adopt, never an index computation. This bench pins that:
///
///  * BM_ColdStartRebuild: the baseline — construct an engine over the
///    already-loaded graph and RebuildIndexes() (the CSR);
///  * BM_ColdStartOpenFromDir: the durable path — OpenFromDir() over a
///    saved bundle plus a WAL tail of kTailMutations records (load,
///    checksum-verify every section, adopt, replay). The
///    `speedup_vs_rebuild` counter at 256k nodes is the subsystem's
///    headline series (~3x on 4 vCPUs against a CSR-only rebuild);
///    `bundle_bytes` tracks on-disk size;
///  * BM_SaveSnapshot: writer-observed SaveSnapshot() latency (the
///    serialize + atomic-publish cost compaction pays off the serving
///    path).
///
/// Sizes: 64k and 256k nodes always; the 1M-node series only when
/// SARGUS_BENCH_LARGE is set (CI smoke stays fast).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "bench_common.h"
#include "engine/access_engine.h"
#include "storage/snapshot_format.h"

namespace sargus {
namespace bench {
namespace {

constexpr size_t kTailMutations = 256;

/// One durability directory per size, prepared once per process: graph,
/// policies, a published bundle, and a WAL tail of kTailMutations
/// uncovered records for OpenFromDir to replay.
struct DurableSetup {
  std::unique_ptr<SocialGraph> graph;  // master copy; engines get copies
  PolicyStore store;
  std::string dir;
  uint64_t bundle_bytes = 0;
  double rebuild_seconds = 0;  // one-shot baseline for the speedup counter

  ~DurableSetup() {
    const std::string cmd = "rm -rf '" + dir + "'";
    (void)system(cmd.c_str());
  }
};

DurableSetup& GetSetup(size_t nodes) {
  static std::map<size_t, std::unique_ptr<DurableSetup>> cache;
  auto it = cache.find(nodes);
  if (it != cache.end()) return *it->second;

  auto s = std::make_unique<DurableSetup>();
  s->graph = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kErdosRenyi, nodes, 3, 42));
  const ResourceId res = s->store.RegisterResource(0, "res");
  if (!s->store.AddRuleFromPaths(res, {"friend[1,2]/colleague[1]"}).ok()) {
    std::abort();
  }

  char tmpl[] = "/tmp/sargus_bench_storage_XXXXXX";
  s->dir = mkdtemp(tmpl);

  // Build once (timing the same call as the rebuild baseline), publish
  // the bundle, then stage a WAL tail the open path must replay.
  SocialGraph working = *s->graph;
  AccessControlEngine engine(working, s->store);
  const auto t0 = std::chrono::steady_clock::now();
  if (!engine.RebuildIndexes().ok()) std::abort();
  s->rebuild_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!engine.EnableDurability(s->dir).ok()) std::abort();
  Rng rng(nodes);
  for (size_t i = 0; i < kTailMutations; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(nodes));
    const NodeId dst = static_cast<NodeId>(rng.NextBounded(nodes));
    if (!engine.AddEdge(src, dst, "friend").ok()) std::abort();
  }
  engine.WaitForCompaction();

  auto info = storage::ReadBundleInfo(s->dir + "/" +
                                      storage::kSnapshotFileName);
  if (!info.ok()) std::abort();
  s->bundle_bytes = info->file_size;
  return *cache.emplace(nodes, std::move(s)).first->second;
}

void ColdStartArgs(benchmark::internal::Benchmark* b) {
  b->Arg(64 << 10)->Arg(256 << 10);
  if (std::getenv("SARGUS_BENCH_LARGE") != nullptr) b->Arg(1 << 20);
  b->Unit(benchmark::kMillisecond);
}

void BM_ColdStartRebuild(benchmark::State& state) {
  auto& setup = GetSetup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    SocialGraph g = *setup.graph;  // the rebuild must not mutate the master
    AccessControlEngine engine(g, setup.store);
    state.ResumeTiming();
    if (!engine.RebuildIndexes().ok()) std::abort();
    benchmark::DoNotOptimize(engine.AcquireReadView());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ColdStartRebuild)->Apply(ColdStartArgs);

void BM_ColdStartOpenFromDir(benchmark::State& state) {
  auto& setup = GetSetup(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SocialGraph g;
    auto engine = AccessControlEngine::OpenFromDir(setup.dir, &g,
                                                   setup.store);
    if (!engine.ok()) std::abort();
    benchmark::DoNotOptimize((*engine)->AcquireReadView());
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["bundle_bytes"] = static_cast<double>(setup.bundle_bytes);
  state.counters["wal_tail_records"] = static_cast<double>(kTailMutations);
  // One extra untimed cold start against the one-shot rebuild measured
  // at setup: the speedup_vs_rebuild counter.
  const auto t0 = std::chrono::steady_clock::now();
  {
    SocialGraph g;
    auto engine = AccessControlEngine::OpenFromDir(setup.dir, &g,
                                                   setup.store);
    if (!engine.ok()) std::abort();
  }
  const double open_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.counters["rebuild_seconds_oneshot"] = setup.rebuild_seconds;
  state.counters["speedup_vs_rebuild"] =
      open_seconds > 0 ? setup.rebuild_seconds / open_seconds : 0;
}
BENCHMARK(BM_ColdStartOpenFromDir)->Apply(ColdStartArgs);

void BM_SaveSnapshot(benchmark::State& state) {
  auto& setup = GetSetup(static_cast<size_t>(state.range(0)));
  // A dedicated directory so the benchmark never disturbs the shared
  // bundle the cold-start series opens.
  char tmpl[] = "/tmp/sargus_bench_save_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  SocialGraph g = *setup.graph;
  AccessControlEngine engine(g, setup.store);
  if (!engine.RebuildIndexes().ok()) std::abort();
  if (!engine.EnableDurability(dir).ok()) std::abort();
  for (auto _ : state) {
    if (!engine.SaveSnapshot().ok()) std::abort();
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)system(cmd.c_str());
}
BENCHMARK(BM_SaveSnapshot)->Apply(ColdStartArgs);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
