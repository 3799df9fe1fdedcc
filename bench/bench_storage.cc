/// B12 -- Durability: cold start, save latency, bundle size.
///
/// The storage/ subsystem's pitch is that a restart is a read + verify
/// + adopt, never an index computation. Both directions stream each
/// section through one bounded buffer (pread on load, pwrite on save),
/// so neither holds the file in memory. This bench pins that:
///
///  * BM_ColdStartRebuild: the baseline — construct an engine over the
///    already-loaded graph and RebuildIndexes() (the CSR);
///  * BM_ColdStartOpenFromDir: the durable path — OpenFromDir() over a
///    saved bundle plus a WAL tail of kTailMutations records (load,
///    checksum-verify every section, adopt, freeze the graph over the
///    loaded CSR, replay; the rule walks forward, so neither side derives
///    the CSR's in-side). The `speedup_vs_rebuild` counter at 256k nodes is
///    the subsystem's headline series: the median of kSpeedupSamples
///    one-shot rebuilds over the median of as many one-shot opens. On 4
///    cores it reads ~2.0 in a short run (min_time 0.01: ~31–36 ms
///    opens against ~61–75 ms rebuilds) and ~0.7 in a long one (min_time
///    0.3: ~24–26 ms rebuilds), because a process's first ~20 chunked
///    CSR builds each run ~3x slower than later ones. A single sample
///    of each read anywhere from 0.85 to 3.4. `bundle_bytes` tracks
///    on-disk size: 14.7 MB at 256k nodes (55.1 MB with the v5 bundle).
///    `graph_bytes` is the reopened graph's MemoryBytes(): it is frozen
///    over the loaded CSR, so that snapshot (shared with the engine)
///    plus the attribute columns, 14.7 MB at 256k nodes (19.9 MB when
///    the loader refilled 10-byte edge slots, 24.6 MB when a slot was a
///    padded 12-byte Edge plus a 1-byte live flag), and
///    `csr_bytes` the loaded CSR's MemoryBytes(): its out-side's
///    offsets and two columns, read straight from the bundle, 4 B per
///    node and 6 B per entry;
///  * BM_SaveSnapshot: writer-observed SaveSnapshot() latency (the
///    streamed serialize + atomic-publish cost compaction pays off the
///    serving path).
///
/// Sizes: 64k and 256k nodes always; the 1M-node series only when
/// SARGUS_BENCH_LARGE is set (CI smoke stays fast).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/access_engine.h"
#include "storage/snapshot_format.h"

namespace sargus {
namespace bench {
namespace {

constexpr size_t kTailMutations = 256;
/// One-shot rebuilds and opens timed, each, for speedup_vs_rebuild.
constexpr int kSpeedupSamples = 5;

/// One durability directory per size, prepared once per process: graph,
/// policies, a published bundle, and a WAL tail of kTailMutations
/// uncovered records for OpenFromDir to replay.
struct DurableSetup {
  std::unique_ptr<SocialGraph> graph;  // master copy; engines get copies
  PolicyStore store;
  std::string dir;
  uint64_t bundle_bytes = 0;

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
  // Thawed, so the rebuild series (BM_ColdStartRebuild and
  // speedup_vs_rebuild) time a CSR build from slots; an engine over a
  // frozen graph would adopt its snapshot instead.
  s->graph->Thaw();
  const ResourceId res = s->store.RegisterResource(0, "res");
  if (!s->store.AddRuleFromPaths(res, {"friend[1,2]/colleague[1]"}).ok()) {
    std::abort();
  }

  char tmpl[] = "/tmp/sargus_bench_storage_XXXXXX";
  s->dir = mkdtemp(tmpl);

  // Build once, publish the bundle, then stage a WAL tail the open
  // path must replay.
  SocialGraph working = *s->graph;
  AccessControlEngine engine(working, s->store);
  if (!engine.RebuildIndexes().ok()) std::abort();
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
  size_t graph_bytes = 0;
  size_t csr_bytes = 0;
  for (auto _ : state) {
    SocialGraph g;
    {
      auto engine = AccessControlEngine::OpenFromDir(setup.dir, &g,
                                                     setup.store);
      if (!engine.ok()) std::abort();
      const auto view = (*engine)->AcquireReadView();
      benchmark::DoNotOptimize(view);
      csr_bytes = view->csr().MemoryBytes();
    }
    graph_bytes = g.MemoryBytes();  // read once the engine has stopped
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
  state.counters["graph_bytes"] = static_cast<double>(graph_bytes);
  state.counters["csr_bytes"] = static_cast<double>(csr_bytes);
  state.counters["bundle_bytes"] = static_cast<double>(setup.bundle_bytes);
  state.counters["wal_tail_records"] = static_cast<double>(kTailMutations);
  // speedup_vs_rebuild: median one-shot rebuild over median one-shot
  // open, kSpeedupSamples of each, interleaved so drift hits both alike.
  // Each sample times the call alone, not the graph copy or teardown,
  // and frees its engine before the next one starts.
  const auto seconds_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<double> rebuilds;
  std::vector<double> opens;
  for (int i = 0; i < kSpeedupSamples; ++i) {
    {
      SocialGraph copy = *setup.graph;
      AccessControlEngine rebuilt(copy, setup.store);
      const auto t0 = std::chrono::steady_clock::now();
      if (!rebuilt.RebuildIndexes().ok()) std::abort();
      rebuilds.push_back(seconds_since(t0));
    }
    SocialGraph g;
    const auto t0 = std::chrono::steady_clock::now();
    auto opened = AccessControlEngine::OpenFromDir(setup.dir, &g, setup.store);
    if (!opened.ok()) std::abort();
    opens.push_back(seconds_since(t0));
  }
  const auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double rebuild_seconds = median(rebuilds);
  const double open_seconds = median(opens);
  state.counters["rebuild_seconds_median"] = rebuild_seconds;
  state.counters["open_seconds_median"] = open_seconds;
  state.counters["speedup_vs_rebuild"] =
      open_seconds > 0 ? rebuild_seconds / open_seconds : 0;
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
