/// B6 -- Ablations of the design choices DESIGN.md calls out.
///
///  * faithful post-filter joins (paper §3.3/§3.4, reachability joins +
///    post-processing) vs the optimized adjacency joins;
///  * early endpoint anchoring vs the paper's post-processing-only
///    endpoint check;
///  * 2-hop construction strategy: pruned landmark vs greedy max-cover
///    (Cheng-style) -- build time and labeling size;
///  * DAG oracle: interval labels vs 2-hop labels at query time;
///  * transitive-closure prefilter on unreachable (fast-deny) workloads.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/intervals.h"
#include "query/closure_prefilter.h"
#include "query/faithful_join_evaluator.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

constexpr const char* kQ1 = "friend[1,2]/colleague[1]";

void RunJoinMode(benchmark::State& state, bool faithful, bool anchor_early,
                 size_t nodes) {
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  const BoundPathExpression& expr = GetExpr(p, kQ1);
  const auto& pairs = GetPairs(p, expr);
  FaithfulJoinOptions opts;
  opts.anchor_endpoints_early = anchor_early;
  opts.max_intermediate_tuples = size_t{1} << 24;
  const std::unique_ptr<const JoinIndexEvaluator> eval =
      faithful ? std::make_unique<FaithfulJoinEvaluator>(
                     *p.g, p.lg, *p.oracle, *p.cluster_index, opts)
               : std::make_unique<JoinIndexEvaluator>(*p.g, p.lg,
                                                      *p.cluster_index, opts);
  size_t i = 0;
  uint64_t tuples = 0, filtered = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    ReachQuery q{src, dst, &expr, false};
    auto r = eval->Evaluate(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    tuples += r->stats.tuples_generated;
    filtered += r->stats.tuples_post_filtered;
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["tuples"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kAvgIterations);
  state.counters["post_filtered"] = benchmark::Counter(
      static_cast<double>(filtered), benchmark::Counter::kAvgIterations);
}

void BM_JoinAdjacency(benchmark::State& state) {
  RunJoinMode(state, false, true, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_JoinAdjacency)->Arg(2000)->Arg(8000);

void BM_JoinFaithfulAnchored(benchmark::State& state) {
  RunJoinMode(state, true, true, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_JoinFaithfulAnchored)->Arg(2000)->Arg(8000);

/// The paper defers the owner/requester check to post-processing; on
/// anything beyond toy graphs the unanchored join materializes the whole
/// label-pair join per query. Kept at small sizes deliberately.
void BM_JoinFaithfulUnanchored(benchmark::State& state) {
  RunJoinMode(state, true, false, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_JoinFaithfulUnanchored)->Arg(50)->Arg(100)->Arg(200);

// ---- 2-hop construction strategies -----------------------------------------

void BM_TwoHopPrunedLandmark(benchmark::State& state) {
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert,
                                  static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TwoHopOptions opts;
    opts.strategy = TwoHopStrategy::kPrunedLandmark;
    auto lab = TwoHopLabeling::Build(p.oracle->dag(), opts);
    if (!lab.ok()) {
      state.SkipWithError(lab.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(lab->LabelingSize());
    state.counters["labeling_size"] =
        static_cast<double>(lab->LabelingSize());
  }
}
BENCHMARK(BM_TwoHopPrunedLandmark)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_TwoHopGreedyMaxCover(benchmark::State& state) {
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert,
                                  static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TwoHopOptions opts;
    opts.strategy = TwoHopStrategy::kGreedyMaxCover;
    opts.max_vertices_for_greedy = 1 << 20;
    auto lab = TwoHopLabeling::Build(p.oracle->dag(), opts);
    if (!lab.ok()) {
      state.SkipWithError(lab.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(lab->LabelingSize());
    state.counters["labeling_size"] =
        static_cast<double>(lab->LabelingSize());
  }
}
BENCHMARK(BM_TwoHopGreedyMaxCover)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---- Oracle mode at query time ----------------------------------------------

void BM_OracleMode(benchmark::State& state) {
  const bool use_two_hop = state.range(0) == 1;
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, 8000);
  Rng rng(5);
  const size_t n = p.lg.NumVertices();
  std::vector<std::pair<LineVertexId, LineVertexId>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(static_cast<LineVertexId>(rng.NextBounded(n)),
                       static_cast<LineVertexId>(rng.NextBounded(n)));
  }
  // The oracle serves 2-hop labels only; the interval labels are built
  // here from its DAG, outside the timed loop.
  const Dag& dag = p.oracle->dag();
  const IntervalIndex intervals = IntervalIndex::Build(dag);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(
        use_two_hop
            ? p.oracle->Reachable(u, v)
            : IntervalFilteredReachable(dag, intervals.forward,
                                        p.oracle->ComponentOf(u),
                                        p.oracle->ComponentOf(v)));
  }
  state.SetLabel(use_two_hop ? "2-hop labels" : "interval labels");
}
BENCHMARK(BM_OracleMode)->Arg(0)->Arg(1);

// ---- Closure prefilter on guaranteed-unreachable workloads -------------------

void BM_UnreachableDeny(benchmark::State& state) {
  const bool prefilter = state.range(0) == 1;
  // Two disconnected communities: requesters from the other side.
  static std::unique_ptr<SocialGraph> g;
  static std::unique_ptr<Pipeline> pipe;
  if (g == nullptr) {
    g = std::make_unique<SocialGraph>(
        MakeGraph(GraphKind::kBarabasiAlbert, 8000, 3, 42));
    size_t offset = g->NumNodes();
    SocialGraph other = MakeGraph(GraphKind::kBarabasiAlbert, 8000, 3, 43);
    for (NodeId v = 0; v < other.NumNodes(); ++v) g->AddNode();
    for (EdgeId e = 0; e < other.EdgeSlotCount(); ++e) {
      if (!other.IsLiveEdge(e)) continue;
      const Edge& rec = other.edge(e);
      (void)g->AddEdge(static_cast<NodeId>(rec.src + offset),
                       static_cast<NodeId>(rec.dst + offset),
                       other.labels().ToString(rec.label));
    }
    pipe = std::make_unique<Pipeline>();
    pipe->g = std::move(g);
    g = nullptr;
    pipe->csr = CsrSnapshot::Build(*pipe->g);
    pipe->lg = LineGraph::Build(pipe->csr);
    auto cidx = ClusterJoinIndex::Build(pipe->lg, pipe->csr);
    pipe->cluster_index =
        std::make_unique<ClusterJoinIndex>(std::move(cidx).ValueOrDie());
    pipe->closure = std::make_unique<TransitiveClosure>(
        TransitiveClosure::Build(pipe->csr, true));
  }
  const Pipeline& p = *pipe;
  const BoundPathExpression& expr = GetExpr(p, kQ1);
  OnlineEvaluator bfs(*p.g, p.csr);
  ClosurePrefilterEvaluator filtered(*p.closure, bfs);
  const Evaluator& eval = prefilter
                              ? static_cast<const Evaluator&>(filtered)
                              : static_cast<const Evaluator&>(bfs);
  Rng rng(17);
  size_t half = p.g->NumNodes() / 2;
  for (auto _ : state) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(half));
    NodeId dst = static_cast<NodeId>(half + rng.NextBounded(half));
    ReachQuery q{src, dst, &expr, false};
    auto r = eval.Evaluate(q);
    benchmark::DoNotOptimize(r->granted);
  }
  state.SetLabel(prefilter ? "with tc-prefilter" : "no prefilter");
}
BENCHMARK(BM_UnreachableDeny)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
