/// B9 -- The zero-allocation hot path: short-witness grant latency vs
/// graph size.
///
/// Before the scratch pool, every Evaluate allocated and zeroed an
/// O(|V| x automaton states) visited array (two for bidirectional), so
/// even a grant whose witness is one hop long paid a cost linear in the
/// graph. With the pooled one-bit-per-slot sets, which each walk clears
/// from its own frontier, the steady-state cost is O(work touched):
/// latency for a short-witness grant should stay roughly flat as |V|
/// grows. The *_ColdScratch variant re-creates the scratch pool every
/// query -- reintroducing the O(|V|) floor on purpose -- so the
/// flat-vs-linear split is visible inside one run. The warm variants
/// report `scratch_bytes`, the pooled context's footprint
/// (QueryScratch::MemoryBytes) at each graph size.
///
/// CI runs this binary with --benchmark_out to keep a machine-readable
/// BENCH_hotpath.json trajectory across PRs.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "query/bidirectional.h"
#include "query/eval_context.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

constexpr const char* kShortExpr = "friend[1,2]";

/// Graph + CSR only (no join stack): hotpath cases only need traversal.
struct LightPipeline {
  std::unique_ptr<SocialGraph> g;
  CsrSnapshot csr;
  std::unique_ptr<BoundPathExpression> expr;  // kShortExpr, bound to g
};

const LightPipeline& GetLightPipeline(size_t nodes) {
  static std::map<size_t, std::unique_ptr<LightPipeline>> cache;
  auto it = cache.find(nodes);
  if (it != cache.end()) return *it->second;
  auto p = std::make_unique<LightPipeline>();
  p->g = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kBarabasiAlbert, nodes, /*num_labels=*/3,
                /*seed=*/42));
  p->csr = CsrSnapshot::Build(*p->g);
  // The bidirectional walk's backward seeds read the in-side; derive it
  // here, as the engine does before publishing a view, so no timed
  // iteration pays the one-time derivation.
  (void)p->csr.In(0);
  auto parsed = ParsePathExpression(kShortExpr);
  if (!parsed.ok()) std::abort();
  auto bound = BoundPathExpression::Bind(*parsed, *p->g);
  if (!bound.ok()) std::abort();
  p->expr = std::make_unique<BoundPathExpression>(
      std::move(bound).ValueOrDie());
  return *cache.emplace(nodes, std::move(p)).first->second;
}

/// A (src, dst) pair one friend-hop apart: the shortest possible witness,
/// found in the very first frontier expansion.
std::pair<NodeId, NodeId> ShortGrantPair(const LightPipeline& p) {
  const LabelId friend_label = p.g->labels().Lookup("friend");
  for (NodeId src = 0; src < p.csr.NumNodes(); ++src) {
    const auto friends = p.csr.OutWithLabel(src, friend_label);
    if (!friends.empty()) return {src, friends.front()};
  }
  std::abort();  // generators always emit friend edges
}

void RunShortGrant(benchmark::State& state, const Evaluator& eval,
                   const LightPipeline& p, bool cold_scratch,
                   bool want_witness = false) {
  const auto [src, dst] = ShortGrantPair(p);
  ReachQuery q{src, dst, p.expr.get(), want_witness};
  EvalContext warm;
  for (auto _ : state) {
    Result<Evaluation> r = [&] {
      if (cold_scratch) {
        EvalContext fresh;  // pays the O(|V|·states) first-touch growth
        return eval.Evaluate(q, fresh);
      }
      return eval.Evaluate(q, warm);
    }();
    if (!r.ok() || !r->granted) {
      state.SkipWithError("short grant did not grant");
      break;
    }
    benchmark::DoNotOptimize(r->granted);
  }
  if (!cold_scratch) {
    state.counters["scratch_bytes"] =
        static_cast<double>(warm.scratch.MemoryBytes());
  }
  state.SetLabel("|V|=" + std::to_string(p.csr.NumNodes()) +
                 " |E|=" + std::to_string(p.g->NumEdges()) +
                 (cold_scratch ? " cold" : " warm"));
}

void BM_ShortGrant_OnlineBfs_WarmScratch(benchmark::State& state) {
  const LightPipeline& p = GetLightPipeline(state.range(0));
  OnlineEvaluator eval(*p.g, p.csr);
  RunShortGrant(state, eval, p, /*cold_scratch=*/false);
}
BENCHMARK(BM_ShortGrant_OnlineBfs_WarmScratch)
    ->Arg(1000)->Arg(8000)->Arg(64000)->Arg(256000);

void BM_ShortGrant_OnlineBfs_ColdScratch(benchmark::State& state) {
  const LightPipeline& p = GetLightPipeline(state.range(0));
  OnlineEvaluator eval(*p.g, p.csr);
  RunShortGrant(state, eval, p, /*cold_scratch=*/true);
}
BENCHMARK(BM_ShortGrant_OnlineBfs_ColdScratch)
    ->Arg(1000)->Arg(8000)->Arg(64000)->Arg(256000);

void BM_ShortGrant_Bidirectional_WarmScratch(benchmark::State& state) {
  const LightPipeline& p = GetLightPipeline(state.range(0));
  BidirectionalEvaluator eval(*p.g, p.csr);
  RunShortGrant(state, eval, p, /*cold_scratch=*/false);
}
BENCHMARK(BM_ShortGrant_Bidirectional_WarmScratch)
    ->Arg(1000)->Arg(8000)->Arg(64000)->Arg(256000);

/// Witness reconstruction on the warm pool: grants with the path asked
/// for stay O(work) too (bidirectional reruns the shared forward walker
/// instead of constructing a throwaway evaluator).
void BM_ShortGrantWitness_Bidirectional_WarmScratch(benchmark::State& state) {
  const LightPipeline& p = GetLightPipeline(state.range(0));
  BidirectionalEvaluator eval(*p.g, p.csr);
  RunShortGrant(state, eval, p, /*cold_scratch=*/false,
                /*want_witness=*/true);
}
BENCHMARK(BM_ShortGrantWitness_Bidirectional_WarmScratch)
    ->Arg(1000)->Arg(8000)->Arg(64000)->Arg(256000);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
