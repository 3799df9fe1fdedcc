/// B5 -- Label-alphabet selectivity sweep.
///
/// With a fixed edge budget, a larger relationship alphabet makes each
/// label rarer: online search prunes harder (fewer matching arcs per node)
/// and the join index's base tables shrink. Expected shape: both evaluators
/// speed up as |Sigma| grows; the join index additionally benefits from
/// smaller W-table cluster unions.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "index/base_tables.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

void RunSelectivity(benchmark::State& state, bool join) {
  const size_t num_labels = static_cast<size_t>(state.range(0));
  const Pipeline& p =
      GetPipeline(GraphKind::kErdosRenyi, 8000, num_labels, 42, 6.0);
  // Query always over the first two labels (present for every alphabet).
  const BoundPathExpression& expr =
      GetExpr(p, "friend[1,2]/colleague[1]");
  const auto& pairs = GetPairs(p, expr);
  OnlineEvaluator bfs(*p.g, p.csr);
  JoinIndexEvaluator jidx(*p.g, p.lg, *p.cluster_index);
  const Evaluator& eval = join ? static_cast<const Evaluator&>(jidx)
                               : static_cast<const Evaluator&>(bfs);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    ReachQuery q{src, dst, &expr, false};
    auto r = eval.Evaluate(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["friend_rows"] = static_cast<double>(
      BaseTables::Build(p.lg).Rows(p.g->labels().Lookup("friend")).size());
  state.SetLabel("|Sigma|=" + std::to_string(num_labels) +
                 (join ? " [join]" : " [bfs]"));
}

void BM_SelectivityOnline(benchmark::State& state) {
  RunSelectivity(state, false);
}
BENCHMARK(BM_SelectivityOnline)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16);

void BM_SelectivityJoin(benchmark::State& state) {
  RunSelectivity(state, true);
}
BENCHMARK(BM_SelectivityJoin)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
