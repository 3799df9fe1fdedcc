/// B2 -- Query latency across evaluators and graph sizes.
///
/// The paper's central claim: online search costs O(|V|+|E|) per request,
/// the transitive closure answers in O(1) but cannot handle ordered label
/// constraints, and the join index sits in between -- millisecond-free
/// lookups after a one-off precomputation. This bench regenerates that
/// series: per graph size, the latency of each evaluator on a 50/50
/// grant/deny mix of the paper's Q1 (friend[1,2]/colleague[1]).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "query/bidirectional.h"
#include "query/closure_prefilter.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

constexpr const char* kQ1 = "friend[1,2]/colleague[1]";

template <typename MakeEval>
void RunQueryBench(benchmark::State& state, size_t nodes,
                   MakeEval&& make_eval, const char* expr_text = kQ1) {
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  const BoundPathExpression& expr = GetExpr(p, expr_text);
  const auto& pairs = GetPairs(p, expr);
  auto eval = make_eval(p);
  size_t i = 0;
  uint64_t grants = 0, work = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    ReachQuery q{src, dst, &expr, /*want_witness=*/false};
    auto r = eval->Evaluate(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    grants += r->granted;
    work += r->stats.pairs_visited + r->stats.tuples_generated;
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["grant_rate"] =
      benchmark::Counter(static_cast<double>(grants),
                         benchmark::Counter::kAvgIterations);
  state.counters["work_items"] = benchmark::Counter(
      static_cast<double>(work), benchmark::Counter::kAvgIterations);
  state.SetLabel("|V|=" + std::to_string(nodes) +
                 " |E|=" + std::to_string(p.g->NumEdges()));
}

void BM_OnlineBfs(benchmark::State& state) {
  RunQueryBench(state, static_cast<size_t>(state.range(0)),
                [](const Pipeline& p) {
                  return std::make_unique<OnlineEvaluator>(*p.g, p.csr);
                });
}
BENCHMARK(BM_OnlineBfs)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);

// BM_OnlineBfs's requests through a churned overlay (MakeChurnOverlay:
// every 32nd edge removed, as many absent triples added): the
// overlay-aware walk the engine serves between compactions.
void BM_OnlineBfsWithOverlay(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  const DeltaOverlay overlay = MakeChurnOverlay(*p.g);
  RunQueryBench(state, nodes, [&overlay](const Pipeline& q) {
    return std::make_unique<OnlineEvaluator>(*q.g, q.csr, &overlay);
  });
  state.counters["overlay"] = static_cast<double>(overlay.size());
}
BENCHMARK(BM_OnlineBfsWithOverlay)->Arg(1000)->Arg(16000);

void BM_OnlineBidirectional(benchmark::State& state) {
  RunQueryBench(state, static_cast<size_t>(state.range(0)),
                [](const Pipeline& p) {
                  return std::make_unique<BidirectionalEvaluator>(*p.g,
                                                                  p.csr);
                });
}
BENCHMARK(BM_OnlineBidirectional)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Arg(64000);

void BM_JoinIndex(benchmark::State& state) {
  RunQueryBench(state, static_cast<size_t>(state.range(0)),
                [](const Pipeline& p) {
                  return std::make_unique<JoinIndexEvaluator>(
                      *p.g, p.lg, *p.cluster_index);
                });
}
BENCHMARK(BM_JoinIndex)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000);

void BM_JoinIndexWithPrefilter(benchmark::State& state) {
  RunQueryBench(
      state, static_cast<size_t>(state.range(0)), [](const Pipeline& p) {
        struct Combo : Evaluator {
          Combo(const Pipeline& p)
              : join(*p.g, p.lg, *p.cluster_index),
                filtered(*p.closure, join) {}
          Result<Evaluation> EvaluateWith(const ReachQuery& q,
                                          EvalContext& ctx) const override {
            return filtered.Evaluate(q, ctx);
          }
          std::string_view name() const override { return "combo"; }
          JoinIndexEvaluator join;
          ClosurePrefilterEvaluator filtered;
        };
        return std::make_unique<Combo>(p);
      });
}
BENCHMARK(BM_JoinIndexWithPrefilter)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Arg(64000);

/// The O(1)-but-label-blind baseline: plain closure lookup. Not a correct
/// OLCR answer (it ignores labels/order); included to reproduce the paper's
/// complexity table, not to compete on semantics.
void BM_ClosureLookupLabelBlind(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, nodes);
  const BoundPathExpression& expr = GetExpr(p, kQ1);
  const auto& pairs = GetPairs(p, expr);
  size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(p.closure->Reachable(src, dst));
  }
  state.SetLabel("|V|=" + std::to_string(nodes) + " (label-blind!)");
}
BENCHMARK(BM_ClosureLookupLabelBlind)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Arg(64000);

/// Grant vs deny latency split: early exit helps grants, denies pay full
/// exploration cost under online search but not under the join index.
void BM_GrantVsDeny(benchmark::State& state) {
  const bool positive = state.range(0) == 1;
  const bool join = state.range(1) == 1;
  const Pipeline& p = GetPipeline(GraphKind::kBarabasiAlbert, 16000);
  const BoundPathExpression& expr = GetExpr(p, kQ1);
  const auto& all = GetPairs(p, expr, 128);

  OnlineEvaluator bfs(*p.g, p.csr);
  JoinIndexEvaluator jidx(*p.g, p.lg, *p.cluster_index);
  const Evaluator& eval = join ? static_cast<const Evaluator&>(jidx)
                               : static_cast<const Evaluator&>(bfs);
  // Partition pairs by actual outcome.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const auto& pr : all) {
    ReachQuery q{pr.first, pr.second, &expr, false};
    auto r = bfs.Evaluate(q);
    if (r.ok() && r->granted == positive) pairs.push_back(pr);
  }
  if (pairs.empty()) {
    state.SkipWithError("no pairs with requested outcome");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    ReachQuery q{src, dst, &expr, false};
    auto r = eval.Evaluate(q);
    benchmark::DoNotOptimize(r->granted);
  }
  state.SetLabel(std::string(join ? "join-index" : "online-bfs") +
                 (positive ? " grant" : " deny"));
}
BENCHMARK(BM_GrantVsDeny)
    ->ArgsProduct({{0, 1}, {0, 1}});

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
