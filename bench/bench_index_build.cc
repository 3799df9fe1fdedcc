/// B1 -- Index construction cost (the evaluation the paper promises in §5).
///
/// Reports, per graph family and size: time to build each stage of the
/// paper's pipeline (line graph -> SCC/DAG -> interval labels -> 2-hop ->
/// cluster join index) and the resulting index sizes. The headline shape:
/// construction is super-linear in |E| (the line graph has
/// sum(in*out) arcs), which is exactly the precomputation-vs-query-time
/// trade-off the paper positions itself around. The engine serves none
/// of it (its bundle is the CSR plus an optional closure); the library
/// join index needs only the line graph and the cluster index, and
/// BM_Stage_LabelPairs times the node-level label-pair matrix the
/// cluster index derives in place of the line-graph SCC/DAG/2-hop
/// stages.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/base_tables.h"
#include "index/intervals.h"

namespace sargus {
namespace bench {
namespace {

void BM_FullPipeline(benchmark::State& state) {
  const GraphKind kind = static_cast<GraphKind>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  SocialGraph g = MakeGraph(kind, nodes, 3, 42);
  for (auto _ : state) {
    CsrSnapshot csr = CsrSnapshot::Build(g);
    LineGraph lg = LineGraph::Build(csr);
    auto oracle = LineReachabilityOracle::Build(lg);
    // The paper's interval labels are not part of the serving oracle;
    // build them from its DAG so the series keeps the whole pipeline.
    IntervalIndex intervals = IntervalIndex::Build(oracle->dag());
    auto cidx = ClusterJoinIndex::Build(lg, csr);
    BaseTables tables = BaseTables::Build(lg);
    benchmark::DoNotOptimize(cidx->NumCenters());

    state.counters["line_vertices"] =
        static_cast<double>(lg.NumVertices());
    state.counters["line_arcs"] = static_cast<double>(lg.NumArcs());
    state.counters["dag_vertices"] =
        static_cast<double>(oracle->dag().NumVertices());
    state.counters["twohop_size"] =
        static_cast<double>(oracle->two_hop()->LabelingSize());
    state.counters["interval_count"] =
        static_cast<double>(intervals.forward.TotalIntervals() +
                            intervals.backward.TotalIntervals());
    state.counters["index_bytes"] = static_cast<double>(
        oracle->MemoryBytes() + intervals.MemoryBytes() +
        cidx->MemoryBytes() + tables.MemoryBytes() + lg.MemoryBytes());
    state.counters["centers"] = static_cast<double>(cidx->NumCenters());
  }
  state.SetLabel(std::string(GraphKindName(kind)) + " |V|=" +
                 std::to_string(nodes) + " |E|=" +
                 std::to_string(g.NumEdges()));
}
BENCHMARK(BM_FullPipeline)
    ->ArgsProduct({{static_cast<long>(GraphKind::kErdosRenyi),
                    static_cast<long>(GraphKind::kBarabasiAlbert),
                    static_cast<long>(GraphKind::kWattsStrogatz)},
                   {1000, 2000, 4000, 8000}})
    ->Unit(benchmark::kMillisecond);

// ---- Per-stage breakdown on a fixed mid-size graph -------------------------

void BM_Stage_LineGraph(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, nodes, 3, 42);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  for (auto _ : state) {
    LineGraph lg = LineGraph::Build(csr);
    benchmark::DoNotOptimize(lg.NumVertices());
  }
}
BENCHMARK(BM_Stage_LineGraph)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_Stage_SccCondense(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, nodes, 3, 42);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  for (auto _ : state) {
    SccResult scc = ComputeScc(lg);
    Dag dag = BuildCondensation(scc, lg);
    benchmark::DoNotOptimize(dag.NumVertices());
  }
}
BENCHMARK(BM_Stage_SccCondense)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_Stage_IntervalLabels(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, nodes, 3, 42);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  SccResult scc = ComputeScc(lg);
  Dag dag = BuildCondensation(scc, lg);
  for (auto _ : state) {
    IntervalIndex idx = IntervalIndex::Build(dag);
    benchmark::DoNotOptimize(idx.forward.TotalIntervals());
  }
}
BENCHMARK(BM_Stage_IntervalLabels)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_Stage_TwoHop(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, nodes, 3, 42);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  SccResult scc = ComputeScc(lg);
  Dag dag = BuildCondensation(scc, lg);
  for (auto _ : state) {
    auto lab = TwoHopLabeling::Build(dag);
    benchmark::DoNotOptimize(lab->LabelingSize());
    state.counters["twohop_size"] =
        static_cast<double>(lab->LabelingSize());
  }
}
BENCHMARK(BM_Stage_TwoHop)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

// The join index's label-pair matrix: node-graph SCC, condensation and
// one DAG search per oriented label. It replaces the three line-graph
// stages above (SCC, condensation, 2-hop) for the join index.
void BM_Stage_LabelPairs(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  for (auto _ : state) {
    auto matrix = p.cluster_index->LabelPairMatrix(p.lg, p.csr);
    benchmark::DoNotOptimize(matrix.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Stage_LabelPairs)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_Stage_ClusterIndex(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  for (auto _ : state) {
    auto cidx = ClusterJoinIndex::Build(p.lg, p.csr);
    benchmark::DoNotOptimize(cidx->NumCenters());
  }
}
BENCHMARK(BM_Stage_ClusterIndex)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
