/// B7 -- The transitive-closure blow-up the paper cites in §1.
///
/// "the computation of the transitive closure has a complexity of
/// O(|V| * |E|) and the storage cost is O(|E|^2). Both approaches are
/// unacceptable for large graphs." This bench regenerates the build-time
/// and storage series against graph size, next to the O(1) lookup it buys,
/// and contrasts it with the join-index footprint on the same graphs.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/base_tables.h"

namespace sargus {
namespace bench {
namespace {

void BM_ClosureBuild(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kErdosRenyi, nodes, 3, 42, 6.0);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  for (auto _ : state) {
    TransitiveClosure tc = TransitiveClosure::Build(csr, false);
    benchmark::DoNotOptimize(tc.NumComponents());
    state.counters["closure_bytes"] = static_cast<double>(tc.MemoryBytes());
    state.counters["reachable_pairs"] =
        static_cast<double>(tc.NumReachablePairs());
    state.counters["components"] = static_cast<double>(tc.NumComponents());
  }
  state.SetLabel("|V|=" + std::to_string(nodes) +
                 " |E|=" + std::to_string(g.NumEdges()));
}
BENCHMARK(BM_ClosureBuild)
    ->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

/// Our closure is SCC-compressed, so dense reciprocal graphs collapse into
/// a handful of components and look cheap. The paper's O(|E|^2) storage
/// story shows on low-reciprocity (DAG-like) graphs, where |components|
/// stays near |V| and the bitset matrix grows quadratically.
void BM_ClosureBuildDagLike(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  ErdosRenyiSpec spec;
  spec.base.num_nodes = nodes;
  spec.base.seed = 42;
  spec.base.reciprocity = 0.0;
  spec.base.assign_attributes = false;
  spec.avg_out_degree = 2.0;
  auto g = GenerateErdosRenyi(spec);
  if (!g.ok()) {
    state.SkipWithError(g.status().ToString().c_str());
    return;
  }
  CsrSnapshot csr = CsrSnapshot::Build(*g);
  for (auto _ : state) {
    TransitiveClosure tc = TransitiveClosure::Build(csr, false);
    benchmark::DoNotOptimize(tc.NumComponents());
    state.counters["closure_bytes"] = static_cast<double>(tc.MemoryBytes());
    state.counters["components"] = static_cast<double>(tc.NumComponents());
    state.counters["bytes_per_node"] =
        static_cast<double>(tc.MemoryBytes()) / static_cast<double>(nodes);
  }
  state.SetLabel("DAG-like |V|=" + std::to_string(nodes));
}
BENCHMARK(BM_ClosureBuildDagLike)
    ->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000)->Arg(16000)->Arg(32000)
    ->Unit(benchmark::kMillisecond);

void BM_ClosureLookup(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kErdosRenyi, nodes, 3, 42, 6.0);
  Rng rng(3);
  for (auto _ : state) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(nodes));
    NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
    benchmark::DoNotOptimize(p.closure->Reachable(u, v));
  }
}
BENCHMARK(BM_ClosureLookup)->Arg(1000)->Arg(16000);

/// Storage comparison: closure vs the paper's index stack on one graph.
void BM_StorageComparison(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kErdosRenyi, nodes, 3, 42, 6.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.closure->MemoryBytes());
  }
  state.counters["closure_bytes"] =
      static_cast<double>(p.closure->MemoryBytes());
  state.counters["join_index_bytes"] = static_cast<double>(
      p.oracle->MemoryBytes() + p.cluster_index->MemoryBytes() +
      BaseTables::Build(p.lg).MemoryBytes() + p.lg.MemoryBytes());
  state.counters["graph_bytes"] = static_cast<double>(p.csr.MemoryBytes());
}
BENCHMARK(BM_StorageComparison)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
