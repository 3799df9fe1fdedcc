/// B8 -- Index maintenance under graph churn.
///
/// The paper motivates itself with social graphs "in constant evolution",
/// but its index is a batch-built snapshot. This bench quantifies the
/// resulting trade-off three ways:
///
///  * the legacy cost models (BM_Churn{JoinIndex,Online}): a mutation
///    every k queries forces a full pipeline / CSR rebuild;
///  * the delta-overlay model (BM_ChurnEngineOverlay): mutations are
///    O(1) staged writes consulted by the walker, rebuilds happen only
///    at compaction — the crossover disappears;
///  * the per-mutation scaling check (BM_OverlayMutation*): staged
///    mutation cost must be flat in |V| (the acceptance criterion for
///    the overlay subsystem), with compaction as a bounded amortized
///    add-on, while the rebuild-per-mutation baseline grows linearly;
///  * the compaction-latency series (BM_CompactStall*): the whole
///    synchronous compaction (Compact() + WaitForCompaction(): fold +
///    rebuild, linear in |V|) vs the writer-observed Compact() stall
///    (an O(overlay) freeze — flat in |V|, the ≥10x-at-64k acceptance
///    series), plus incremental-vs-full index maintenance on small
///    insertion-only overlays (BM_CompactIncrementalVsFull).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/access_engine.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"

namespace sargus {
namespace bench {
namespace {

constexpr const char* kQ1 = "friend[1,2]/colleague[1]";
constexpr size_t kNodes = 4000;

/// Removes and re-adds one existing edge: a minimal structural mutation
/// that invalidates every snapshot index.
void MutateOneEdge(SocialGraph& g, Rng& rng) {
  for (int attempts = 0; attempts < 64; ++attempts) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.EdgeSlotCount()));
    if (!g.IsLiveEdge(e)) continue;
    Edge rec = g.edge(e);
    if (!g.RemoveEdge(e).ok()) continue;
    (void)g.AddEdge(rec.src, rec.dst, rec.label);
    return;
  }
}

void BM_ChurnJoinIndex(benchmark::State& state) {
  const size_t queries_per_mutation = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, 42);
  auto parsed = ParsePathExpression(kQ1);
  auto expr = BoundPathExpression::Bind(*parsed, g);
  Rng rng(7);

  // Full pipeline, rebuilt on every mutation.
  auto rebuild = [&g]() {
    struct Stack {
      CsrSnapshot csr;
      LineGraph lg;
      std::unique_ptr<LineReachabilityOracle> oracle;
      std::unique_ptr<ClusterJoinIndex> cidx;
    };
    auto s = std::make_unique<Stack>();
    s->csr = CsrSnapshot::Build(g);
    s->lg = LineGraph::Build(s->csr);
    auto oracle = LineReachabilityOracle::Build(s->lg);
    s->oracle = std::make_unique<LineReachabilityOracle>(
        std::move(oracle).ValueOrDie());
    auto cidx = ClusterJoinIndex::Build(s->lg, *s->oracle);
    s->cidx = std::make_unique<ClusterJoinIndex>(std::move(cidx).ValueOrDie());
    return s;
  };
  auto stack = rebuild();
  size_t i = 0;
  size_t rebuilds = 0;
  for (auto _ : state) {
    if (i % queries_per_mutation == 0 && i > 0) {
      MutateOneEdge(g, rng);
      stack = rebuild();
      ++rebuilds;
    }
    ++i;
    JoinIndexEvaluator eval(g, stack->lg, *stack->cidx);
    NodeId src = static_cast<NodeId>(rng.NextBounded(kNodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(kNodes));
    ReachQuery q{src, dst, &*expr, false};
    auto r = eval.Evaluate(q);
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["rebuilds"] = static_cast<double>(rebuilds);
  state.SetLabel("1 mutation per " + std::to_string(queries_per_mutation) +
                 " queries [join]");
}
BENCHMARK(BM_ChurnJoinIndex)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_ChurnOnline(benchmark::State& state) {
  const size_t queries_per_mutation = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, 42);
  auto parsed = ParsePathExpression(kQ1);
  auto expr = BoundPathExpression::Bind(*parsed, g);
  Rng rng(7);
  auto csr = std::make_unique<CsrSnapshot>(CsrSnapshot::Build(g));
  size_t i = 0;
  for (auto _ : state) {
    if (i % queries_per_mutation == 0 && i > 0) {
      MutateOneEdge(g, rng);
      csr = std::make_unique<CsrSnapshot>(CsrSnapshot::Build(g));
    }
    ++i;
    OnlineEvaluator eval(g, *csr);
    NodeId src = static_cast<NodeId>(rng.NextBounded(kNodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(kNodes));
    ReachQuery q{src, dst, &*expr, false};
    auto r = eval.Evaluate(q);
    benchmark::DoNotOptimize(r->granted);
  }
  state.SetLabel("1 mutation per " + std::to_string(queries_per_mutation) +
                 " queries [online]");
}
BENCHMARK(BM_ChurnOnline)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

/// Engine with the delta overlay: one mutation (retire a live edge,
/// introduce a fresh one — both staged in the overlay) every k queries,
/// with queries running against the non-empty overlay and rebuilds only
/// at threshold-triggered compactions. Compare against
/// BM_ChurnJoinIndex/BM_ChurnOnline at the same k: the per-mutation
/// rebuild term is gone, so latency is flat in k.
void BM_ChurnEngineOverlay(benchmark::State& state) {
  const size_t queries_per_mutation = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(g, store,
                             {.evaluator = EvaluatorChoice::kOnlineBfs});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(7);
  size_t i = 0;
  for (auto _ : state) {
    if (i % queries_per_mutation == 0 && i > 0) {
      // One structural mutation that *stays* in the overlay: retire a
      // random live edge and introduce a fresh one (two O(1) staged
      // writes). The overlay is therefore non-empty for the queries
      // below — they exercise the overlay-merged neighbor iteration,
      // not the empty-overlay fast path — and auto-compaction folds it
      // in at the default threshold (see the compactions counter).
      for (int attempts = 0; attempts < 64; ++attempts) {
        EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.EdgeSlotCount()));
        if (!g.IsLiveEdge(e)) continue;
        Edge rec = g.edge(e);
        // kNotFound when this slot's edge is already staged-removed.
        if (!engine.RemoveEdge(rec.src, rec.dst, rec.label).ok()) continue;
        break;
      }
      const NodeId s = static_cast<NodeId>(rng.NextBounded(kNodes));
      const NodeId d = static_cast<NodeId>(rng.NextBounded(kNodes));
      (void)engine.AddEdge(s, d, friend_label);
    }
    ++i;
    NodeId requester = static_cast<NodeId>(rng.NextBounded(kNodes));
    auto r = engine.CheckAccess({.requester = requester, .resource = res});
    benchmark::DoNotOptimize(r->granted);
  }
  state.counters["compactions"] =
      static_cast<double>(engine.snapshot_generation() - 1);
  state.SetLabel("1 overlay mutation per " +
                 std::to_string(queries_per_mutation) + " queries [engine]");
}
BENCHMARK(BM_ChurnEngineOverlay)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

/// Pure staged-mutation cost vs |V|: each iteration stages an AddEdge
/// of an edge *not* in the base graph and withdraws it with a
/// RemoveEdge, so the two always cancel in the overlay (a pair that hit
/// a base edge would stage a persistent removal instead).
/// Auto-compaction is disabled, so no rebuild is ever triggered and
/// per-mutation time must be independent of graph size — the O(1)
/// claim, measured.
void BM_OverlayMutationOnly(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(g, store,
                             {.evaluator = EvaluatorChoice::kOnlineBfs,
                              .compact_threshold = 0});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(9);
  for (auto _ : state) {
    NodeId s, d;
    do {
      s = static_cast<NodeId>(rng.NextBounded(n));
      d = static_cast<NodeId>(rng.NextBounded(n));
    } while (g.FindEdge(s, d, friend_label).has_value());
    benchmark::DoNotOptimize(engine.AddEdge(s, d, friend_label).ok());
    benchmark::DoNotOptimize(engine.RemoveEdge(s, d, friend_label).ok());
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations() * 2);  // two mutations/iter
}
BENCHMARK(BM_OverlayMutationOnly)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

/// Sustained distinct insertions vs |V| with auto-compaction on: the
/// amortized cost is the O(1) staging write plus (CSR rebuild /
/// compact_threshold). Counters expose how many compactions ran.
void BM_OverlayMutationWithCompaction(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(
      g, store,
      {.evaluator = EvaluatorChoice::kOnlineBfs, .compact_threshold = 1024});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(11);
  for (auto _ : state) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId d = static_cast<NodeId>(rng.NextBounded(n));
    benchmark::DoNotOptimize(engine.AddEdge(s, d, friend_label).ok());
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["compactions"] =
      static_cast<double>(engine.snapshot_generation() - 1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OverlayMutationWithCompaction)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

/// The old cost model at the same sizes, for the scaling contrast: one
/// mutation = one full CSR rebuild (online-only configuration, i.e. the
/// *cheapest* legacy rebuild). Grows linearly with |V|+|E| where the
/// overlay benches stay flat.
void BM_RebuildMutationBaseline(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  Rng rng(13);
  for (auto _ : state) {
    MutateOneEdge(g, rng);
    CsrSnapshot csr = CsrSnapshot::Build(g);
    benchmark::DoNotOptimize(csr.NumEdges());
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RebuildMutationBaseline)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

/// Stages `count` distinct not-in-base insertions (threshold off, so
/// nothing compacts mid-staging).
void StageFreshInsertions(AccessControlEngine& engine, const SocialGraph& g,
                          LabelId label, size_t n, size_t count, Rng& rng) {
  for (size_t i = 0; i < count; ++i) {
    NodeId s, d;
    do {
      s = static_cast<NodeId>(rng.NextBounded(n));
      d = static_cast<NodeId>(rng.NextBounded(n));
    } while (g.FindEdge(s, d, label).has_value() ||
             engine.overlay().IsStagedAdd(s, d, label));
    (void)engine.AddEdge(s, d, label);
  }
}

/// Synchronous compaction: the timed region is Compact() +
/// WaitForCompaction(), the full fold + index rebuild — linear in |V|
/// (what a writer would stall for without the compaction thread, and
/// the baseline for the background series below).
void BM_CompactStallBlocking(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(g, store,
                             {.evaluator = EvaluatorChoice::kOnlineBfs,
                              .compact_threshold = 0});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(21);
  for (auto _ : state) {
    state.PauseTiming();
    StageFreshInsertions(engine, g, friend_label, n, 64, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Compact().ok());
    engine.WaitForCompaction();
  }
  state.counters["nodes"] = static_cast<double>(n);
}
BENCHMARK(BM_CompactStallBlocking)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// Writer-observed Compact() stall, background mode: the timed region
/// is only the freeze (an O(overlay) copy + thread kick) — the build,
/// fold and publish happen on the compaction thread (drained outside
/// the timer). Must be flat in |V| and ≥10x below the blocking series
/// at 64k nodes — the tentpole acceptance criterion.
void BM_CompactStallBackground(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(g, store,
                             {.evaluator = EvaluatorChoice::kOnlineBfs,
                              .compact_threshold = 0});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(23);
  for (auto _ : state) {
    state.PauseTiming();
    StageFreshInsertions(engine, g, friend_label, n, 64, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Compact().ok());
    state.PauseTiming();
    engine.WaitForCompaction();  // drain off the writer's clock
    state.ResumeTiming();
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["incremental"] =
      static_cast<double>(engine.incremental_compactions());
}
BENCHMARK(BM_CompactStallBackground)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// Full compaction wall time (Compact() + WaitForCompaction(), so the
/// timer sees the whole build) with the incremental index patch on vs
/// off, on an insertion-only overlay well under the 5%-of-|E| gate. Run under
/// kAuto so the join stack — the part the patch actually skips
/// (Tarjan + condensation + label sweep) — is in play. The staged
/// insertions hang off a fresh node so the patch is always applicable
/// (no cycle fallback).
void BM_CompactIncrementalVsFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  SocialGraph g = MakeGraph(GraphKind::kBarabasiAlbert, n, 3, 42);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {kQ1}).ValueOrDie();
  AccessControlEngine engine(
      g, store,
      {.evaluator = EvaluatorChoice::kAuto,
       .compact_threshold = 0,
       .incremental_max_fraction = incremental ? 0.05 : 0.0});
  if (auto st = engine.RebuildIndexes(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  const LabelId friend_label = g.labels().Lookup("friend");
  Rng rng(29);
  for (auto _ : state) {
    state.PauseTiming();
    auto id = engine.AddNode();
    for (int i = 0; i < 32; ++i) {
      (void)engine.AddEdge(*id, static_cast<NodeId>(rng.NextBounded(n)),
                           friend_label);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.Compact().ok());
    engine.WaitForCompaction();
  }
  state.counters["nodes"] = static_cast<double>(n);
  state.counters["incremental_compactions"] =
      static_cast<double>(engine.incremental_compactions());
  state.counters["full_compactions"] =
      static_cast<double>(engine.full_compactions());
  state.SetLabel(incremental ? "incremental index maintenance"
                             : "full rebuild");
}
BENCHMARK(BM_CompactIncrementalVsFull)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
