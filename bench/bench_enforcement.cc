/// B4 -- End-to-end access-control throughput.
///
/// Full engine path: resource lookup, rule iteration, condition binding
/// (cached), online search, audit logging. The policy mix mirrors the
/// paper's motivating examples (friends-only, friends-of-friends,
/// colleague-of-friend, attribute-filtered, incoming-friend). Reported as
/// decisions/second, with and without witnesses; the per-evaluator
/// comparison (join, closure prefilter, BFS) is bench_query_latency's.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/access_engine.h"

namespace sargus {
namespace bench {
namespace {

struct EngineFixture {
  std::unique_ptr<SocialGraph> g;
  PolicyStore store;
  std::vector<ResourceId> resources;
  std::vector<NodeId> requesters;
};

EngineFixture& GetFixture(size_t nodes) {
  static std::map<size_t, std::unique_ptr<EngineFixture>> cache;
  auto it = cache.find(nodes);
  if (it != cache.end()) return *it->second;

  auto f = std::make_unique<EngineFixture>();
  f->g = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kBarabasiAlbert, nodes, 3, 42));
  static const char* kPolicyMix[] = {
      "friend[1]",
      "friend[1,2]",
      "friend[1,2]/colleague[1]",
      "friend[1]{age>=18}",
      "friend-[1,2]",
  };
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    NodeId owner = static_cast<NodeId>(rng.NextBounded(nodes));
    ResourceId res =
        f->store.RegisterResource(owner, "res" + std::to_string(i));
    auto rule = f->store.AddRuleFromPaths(res, {kPolicyMix[i % 5]});
    if (!rule.ok()) std::abort();
    f->resources.push_back(res);
  }
  for (int i = 0; i < 256; ++i) {
    f->requesters.push_back(static_cast<NodeId>(rng.NextBounded(nodes)));
  }
  return *cache.emplace(nodes, std::move(f)).first->second;
}

void RunEngineBench(benchmark::State& state, bool want_witness) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  EngineFixture& f = GetFixture(nodes);
  AccessControlEngine engine(*f.g, f.store);
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  size_t i = 0;
  uint64_t grants = 0;
  for (auto _ : state) {
    NodeId requester = f.requesters[i % f.requesters.size()];
    ResourceId resource = f.resources[i % f.resources.size()];
    ++i;
    auto d = engine.CheckAccess({.requester = requester,
                                 .resource = resource,
                                 .want_witness = want_witness});
    if (!d.ok()) {
      state.SkipWithError(d.status().ToString().c_str());
      break;
    }
    grants += d->granted;
    benchmark::DoNotOptimize(d->granted);
  }
  state.counters["decisions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["grant_rate"] = benchmark::Counter(
      static_cast<double>(grants), benchmark::Counter::kAvgIterations);
}

void BM_Engine(benchmark::State& state) {
  RunEngineBench(state, /*want_witness=*/false);
}
BENCHMARK(BM_Engine)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_EngineWithWitness(benchmark::State& state) {
  RunEngineBench(state, /*want_witness=*/true);
}
BENCHMARK(BM_EngineWithWitness)->Arg(4000);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
