/// B1 -- Index construction cost (the evaluation the paper promises in §5).
///
/// Reports, per graph family and size: time to build each stage of the
/// paper's pipeline (line graph -> SCC/DAG -> interval labels -> 2-hop ->
/// cluster join index) and the resulting index sizes. The headline shape:
/// construction is super-linear in |E| (the line graph has
/// sum(in*out) arcs), which is exactly the precomputation-vs-query-time
/// trade-off the paper positions itself around. The engine serves none
/// of it (it serves the CSR alone); the library
/// join index needs only the line graph and the cluster index, and
/// BM_Stage_LabelPairs times the node-level label-pair matrix the
/// cluster index derives in place of the line-graph SCC/DAG/2-hop
/// stages.
///
/// BM_CsrBuild times the one build the engine does serve: the CSR
/// snapshot from a thawed graph's slots (what Freeze, a compaction and a
/// rebuild over a mutated graph run), over BA graphs at 3 and 64 labels
/// (its cost must not grow
/// with the label count), plus the merged build a background compaction
/// runs over graph ⊕ overlay, and the build followed by the first In(),
/// which derives the in-side: the full cost for a rule set with a
/// backward step. `csr_bytes` is the snapshot's MemoryBytes(), 4 B per
/// node and 6 B per entry a side: 10.5 MB for the out-side at 262,144
/// nodes (13.6 MB when an entry was a padded 8-byte struct).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/delta_overlay.h"
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

// ---- The serving build: the CSR snapshot -----------------------------------

// Args: nodes, labels, mode. Mode 0 is the plain build. Mode 1 runs the
// build over MakeChurnOverlay's overlay, 1/16 of the edge count. Mode 2
// is the plain build plus the in-side derivation.
void BM_CsrBuild(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const size_t num_labels = static_cast<size_t>(state.range(1));
  const bool merged = state.range(2) == 1;
  const bool in_side = state.range(2) == 2;
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, nodes, num_labels, 42);
  // Thawed, so every arm scatters edge slots: over a frozen graph Build
  // would only copy the snapshot the graph already holds.
  g.Thaw();
  const DeltaOverlay overlay = merged ? MakeChurnOverlay(g) : DeltaOverlay();
  // The input graph as the build reads it: slots plus triple index.
  state.counters["graph_bytes"] = static_cast<double>(g.MemoryBytes());
  size_t edges = 0;
  size_t csr_bytes = 0;
  for (auto _ : state) {
    CsrSnapshot csr =
        merged ? CsrSnapshot::Build(g, overlay) : CsrSnapshot::Build(g);
    edges = csr.NumEdges();
    benchmark::DoNotOptimize(csr.Out(0).data());
    if (in_side) benchmark::DoNotOptimize(csr.In(0).data());
    benchmark::ClobberMemory();
    csr_bytes = csr.MemoryBytes();
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["csr_bytes"] = static_cast<double>(csr_bytes);
  state.counters["overlay"] = static_cast<double>(overlay.size());
  state.counters["s_per_edge"] = benchmark::Counter(
      static_cast<double>(edges) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CsrBuild)
    ->ArgsProduct({{16384, 65536, 262144}, {3, 64}, {0}})
    ->Args({262144, 3, 1})
    ->Args({65536, 3, 2})
    ->Args({262144, 3, 2})
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
