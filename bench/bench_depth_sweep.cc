/// B3 -- Latency vs path length and depth bound.
///
/// Longer path expressions mean more automaton states (online) and more /
/// longer line queries (join index). Depth ranges widen the line-query
/// expansion multiplicatively (Figure 4), which is the join pipeline's weak
/// spot; the automaton absorbs them linearly. Expected shape: join-index
/// wins at small depth products, online search degrades gracefully.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

std::string ChainTemplate(int steps) {
  // friend[1]/friend[1]/.../colleague[1]
  std::string out;
  for (int i = 0; i + 1 < steps; ++i) {
    out += i ? "/friend[1]" : "friend[1]";
  }
  out += steps > 1 ? "/colleague[1]" : "colleague[1]";
  return out;
}

std::string DepthTemplate(int max_depth) {
  return "friend[1," + std::to_string(max_depth) + "]/colleague[1]";
}

void RunSweep(benchmark::State& state, const std::string& tmpl, bool join) {
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, 8000);
  const BoundPathExpression& expr = GetExpr(p, tmpl);
  const auto& pairs = GetPairs(p, expr);
  OnlineEvaluator bfs(*p.g, p.csr);
  JoinIndexEvaluator jidx(*p.g, p.lg, *p.cluster_index);
  const Evaluator& eval = join ? static_cast<const Evaluator&>(jidx)
                               : static_cast<const Evaluator&>(bfs);
  size_t i = 0;
  uint64_t line_queries = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    ReachQuery q{src, dst, &expr, false};
    auto r = eval.Evaluate(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    line_queries += r->stats.line_queries;
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["line_queries"] = benchmark::Counter(
      static_cast<double>(line_queries), benchmark::Counter::kAvgIterations);
  state.SetLabel(tmpl + (join ? " [join]" : " [bfs]"));
}

void BM_PathLength(benchmark::State& state) {
  RunSweep(state, ChainTemplate(static_cast<int>(state.range(0))),
           state.range(1) == 1);
}
BENCHMARK(BM_PathLength)->ArgsProduct({{1, 2, 3, 4, 5}, {0, 1}});

void BM_DepthBound(benchmark::State& state) {
  RunSweep(state, DepthTemplate(static_cast<int>(state.range(0))),
           state.range(1) == 1);
}
BENCHMARK(BM_DepthBound)->ArgsProduct({{1, 2, 3, 4}, {0, 1}});

/// Two wide ranges multiply: friend[1,k]/friend[1,k]/colleague[1].
void BM_ExpansionProduct(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  std::string tmpl = "friend[1," + std::to_string(k) + "]/friend[1," +
                     std::to_string(k) + "]/colleague[1]";
  RunSweep(state, tmpl, state.range(1) == 1);
}
BENCHMARK(BM_ExpansionProduct)->ArgsProduct({{1, 2, 3}, {0, 1}});

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
