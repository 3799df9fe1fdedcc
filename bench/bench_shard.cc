/// B11 -- Sharded serving tier.
///
/// Drives ShardRouter end to end over Zipf-skewed request mixes (hot
/// owners dominate, the way social traffic does) and reports, next to
/// the latency series, the router's own counters:
///
///  * summary_hit_rate — fraction of cross-shard checks the boundary
///    summaries resolved without any frontier exchange. The acceptance
///    criterion for the subsystem is >= 0.80 on the fresh-summary
///    series (BM_ShardCheckAccess / BM_ShardCheckBatch).
///  * fallback_rounds_per_walk — mean frontier-exchange rounds when the
///    fallback does run (the dirty-shard series BM_ShardDirtyChurn
///    forces it by mutating without RefreshSummaries()).
///  * cross_share — fraction of checks that needed the cross-shard
///    machinery at all (the rest were answered owner-locally).
///
/// BM_ShardSummaryRefresh prices the summaries themselves: the full
/// per-shard product-SCC + restricted 2-hop rebuild.
///
/// Robustness series (PR 7): BM_ShardDirectCall / BM_ShardTransportCall
/// price the fault-free executor hop (one job through the shard's worker
/// queue against a direct engine call), and BM_ShardFaultInjection runs
/// the full retry / breaker / degraded machinery under a seeded fault
/// storm, reporting the robustness counters next to the latency.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {
namespace bench {
namespace {

constexpr size_t kNodes = 2000;
constexpr size_t kResources = 64;
constexpr double kTheta = 0.8;

struct ShardedFixture {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::unique_ptr<ShardRouter> router;
  std::vector<ResourceId> resources;
};

std::unique_ptr<ShardedFixture> MakeFixture(
    uint32_t shards, FaultInjectionTransport** fault = nullptr) {
  auto f = std::make_unique<ShardedFixture>();
  f->graph = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, /*seed=*/17));
  f->store = std::make_unique<PolicyStore>();
  // Hot owners: resource ownership is itself Zipf-skewed over the node
  // space, so the request mix concentrates on a few popular owners.
  ZipfSampler owners(kNodes, kTheta, 99);
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,2]"},
      {"friend[1,2]/colleague[1]"},
      {"colleague[1,3]"},
  };
  for (size_t i = 0; i < kResources; ++i) {
    const ResourceId r = f->store->RegisterResource(
        static_cast<NodeId>(owners.Next()), "res" + std::to_string(i));
    if (!f->store->AddRuleFromPaths(r, rule_sets[i % rule_sets.size()]).ok()) {
      return nullptr;
    }
    f->resources.push_back(r);
  }
  RouterOptions opts;
  opts.partition.num_shards = shards;
  // Contiguous ranges ignore community structure on purpose: they cut
  // straight through the BA core, which is what makes the cross-shard
  // machinery (summaries, fallback) actually carry traffic here.
  opts.partition.strategy = PartitionStrategy::kContiguous;
  if (fault != nullptr) {
    opts.transport_decorator =
        [fault](std::unique_ptr<ShardTransport> inner)
        -> std::unique_ptr<ShardTransport> {
      auto t =
          std::make_unique<FaultInjectionTransport>(std::move(inner), 0xFA17);
      *fault = t.get();
      return t;
    };
  }
  f->router = std::make_unique<ShardRouter>(*f->graph, *f->store, opts);
  if (!f->router->Build().ok()) return nullptr;
  return f;
}

void ReportCounters(benchmark::State& state, const RouterCounters& before,
                    const RouterCounters& after) {
  const double cross =
      static_cast<double>(after.cross_shard_checks - before.cross_shard_checks);
  const double checks = static_cast<double>(after.checks - before.checks);
  const double fallback_checks = static_cast<double>(
      after.cross_fallback_walks - before.cross_fallback_walks);
  const double walks =
      static_cast<double>(after.fallback_walks - before.fallback_walks);
  const double rounds =
      static_cast<double>(after.fallback_rounds - before.fallback_rounds);
  state.counters["cross_share"] = checks > 0 ? cross / checks : 0.0;
  state.counters["summary_hit_rate"] =
      cross > 0 ? 1.0 - fallback_checks / cross : 1.0;
  state.counters["fallback_rounds_per_walk"] = walks > 0 ? rounds / walks : 0.0;
  // Robustness counters (all zero on a fault-free transport).
  state.counters["retries"] =
      static_cast<double>(after.retries - before.retries);
  state.counters["timeouts"] =
      static_cast<double>(after.timeouts - before.timeouts);
  state.counters["breaker_opens"] =
      static_cast<double>(after.breaker_opens - before.breaker_opens);
  state.counters["degraded_answers"] =
      static_cast<double>(after.degraded_answers - before.degraded_answers);
  state.counters["unavailable_errors"] =
      static_cast<double>(after.unavailable_errors - before.unavailable_errors);
}

void BM_ShardCheckAccess(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  auto f = MakeFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  const RouterCounters before = f->router->counters();
  for (auto _ : state) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardCheckAccess)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardCheckBatch(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  constexpr size_t kBatch = 64;
  auto f = MakeFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  std::vector<AccessRequest> batch(kBatch);
  const RouterCounters before = f->router->counters();
  for (auto _ : state) {
    for (auto& req : batch) {
      req.requester = static_cast<NodeId>(requesters.Next());
      req.resource = f->resources[targets.Next()];
    }
    auto decisions = f->router->CheckAccessBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ShardCheckBatch)->Arg(1)->Arg(4)->Arg(8);

/// Dirty-shard series: a mutation every k checks, never refreshing the
/// summaries — every cross-shard check after the first mutation takes
/// the frontier-exchange fallback. Prices the conservatism.
void BM_ShardDirtyChurn(benchmark::State& state) {
  const auto checks_per_mutation = static_cast<size_t>(state.range(0));
  auto f = MakeFixture(4);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  Rng rng(21);
  const RouterCounters before = f->router->counters();
  size_t since_mutation = 0;
  for (auto _ : state) {
    if (++since_mutation >= checks_per_mutation) {
      since_mutation = 0;
      const NodeId a = static_cast<NodeId>(rng.NextBounded(kNodes));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(kNodes));
      if (a != b) (void)f->router->AddEdge(a, b, "friend");
    }
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardDirtyChurn)->Arg(16)->Arg(256);

/// Full summary rebuild across all shards (product SCC + condensation +
/// restricted 2-hop per rule path per shard).
void BM_ShardSummaryRefresh(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  auto f = MakeFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  for (auto _ : state) {
    if (!f->router->RefreshSummaries().ok()) {
      state.SkipWithError("refresh failed");
      return;
    }
  }
}
BENCHMARK(BM_ShardSummaryRefresh)->Arg(2)->Arg(8);

/// Fault-free transport overhead pair. Both series drive the same
/// single-shard engine with the same Zipf request stream; the only
/// difference is whether the call goes straight into ShardEngine::Check
/// or through the router's ThreadedTransport (request copy, queue
/// handoff to the shard's worker, future wake-up; no framing). The gap
/// is the price of the executor hop every router call pays.
void BM_ShardDirectCall(benchmark::State& state) {
  auto f = MakeFixture(1);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  for (auto _ : state) {
    wire::CheckRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto reply = f->router->shard(0).Check(req);
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardDirectCall);

void BM_ShardTransportCall(benchmark::State& state) {
  auto f = MakeFixture(1);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ShardTransport& transport = f->router->transport();
  const TransportCallOptions no_deadline;
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  for (auto _ : state) {
    wire::CheckRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto reply = transport.Call(0, req, no_deadline);
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardTransportCall);

/// The robust path under a seeded probabilistic fault storm: every
/// shard's transport randomly delays, drops, errors, or corrupts.
/// Latency here includes retries, backoff, and degraded composition
/// (all sleeps and delays land on the decorator's virtual clock, so
/// wall time measures real work, not waiting). The robustness counters
/// from ReportCounters show what the storm cost; refused_share is the
/// fraction of checks that ended in an explicit transport error rather
/// than an exact answer.
void BM_ShardFaultInjection(benchmark::State& state) {
  FaultInjectionTransport* fault = nullptr;
  auto f = MakeFixture(4, &fault);
  if (f == nullptr || fault == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ShardFaultProfile storm;
  storm.delay_probability = 0.05;
  storm.drop_probability = 0.02;
  storm.error_probability = 0.01;
  storm.corrupt_probability = 0.01;
  storm.delay_min_ms = 1;
  storm.delay_max_ms = 10;
  for (uint32_t s = 0; s < 4; ++s) fault->SetProfile(s, storm);
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  const RouterCounters before = f->router->counters();
  uint64_t refused = 0;
  for (auto _ : state) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    if (!d.ok()) ++refused;
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.counters["refused_share"] =
      state.iterations() > 0
          ? static_cast<double>(refused) / static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardFaultInjection);

/// Scatter-gather fan-out series (PR 8): the same grant-heavy batch
/// through an S-shard router and a 1-shard router over the same graph.
/// The workload is deliberately settled entirely by the per-shard
/// sub-batches — every slot is an owner-shard-local grant — so the
/// measurement isolates what partitioning buys the executor: with S
/// shards the sub-batches run on S worker threads instead of all on the
/// one shard's worker.
///
/// The measured series (manual time) is the S-shard batch;
/// speedup_vs_one_shard is the 1-shard/S-shard wall ratio from the same
/// iterations. Acceptance: >= 2x at 4 shards on a multi-core runner
/// (the ratio degrades toward ~1x on a single hardware thread, where
/// concurrency cannot buy wall time — the CI runners are where this
/// counter is judged).
constexpr size_t kFanBatch = 1024;

struct FanOutFixture {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::unique_ptr<ShardRouter> sharded;
  std::unique_ptr<ShardRouter> one_shard;
  std::vector<AccessRequest> batch;
};

std::unique_ptr<FanOutFixture> MakeFanOutFixture(uint32_t shards) {
  auto f = std::make_unique<FanOutFixture>();
  f->graph = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, /*seed=*/29));
  f->store = std::make_unique<PolicyStore>();
  Rng rng(0xFA40);
  std::vector<ResourceId> res;
  for (size_t i = 0; i < kResources; ++i) {
    const ResourceId r = f->store->RegisterResource(
        static_cast<NodeId>(rng.NextBounded(kNodes)),
        "res" + std::to_string(i));
    if (!f->store->AddRuleFromPaths(r, {"friend[1,2]"}).ok()) return nullptr;
    res.push_back(r);
  }

  RouterOptions opts;
  opts.partition.num_shards = shards;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  // No per-attempt deadlines: a backed-up queue under full fan-out load
  // must not turn into spurious timeouts that change the work done.
  opts.robustness.call_deadline_ms = 0;
  opts.robustness.op_budget_ms = 0;
  RouterOptions one_opts = opts;
  one_opts.partition.num_shards = 1;
  // Both routers copy the graph at Build() and never write it, so they
  // can share it.
  f->sharded = std::make_unique<ShardRouter>(*f->graph, *f->store, opts);
  if (!f->sharded->Build().ok()) return nullptr;
  f->one_shard = std::make_unique<ShardRouter>(*f->graph, *f->store, one_opts);
  if (!f->one_shard->Build().ok()) return nullptr;

  // Plant same-shard friend edges from every owner (mirrored into both
  // routers) and draw requesters from those pools: every batch slot is
  // granted inside its owner's shard, so no slot escalates to the
  // per-request cross-shard machinery.
  const auto topo = f->sharded->topology();
  std::vector<std::vector<NodeId>> pools(res.size());
  for (size_t i = 0; i < res.size(); ++i) {
    const NodeId owner = f->store->resource(res[i]).owner;
    const uint32_t home = topo->shard_of[owner];
    for (int tries = 0; tries < 400 && pools[i].size() < 8; ++tries) {
      const NodeId cand = static_cast<NodeId>(rng.NextBounded(kNodes));
      if (cand == owner || topo->shard_of[cand] != home) continue;
      if (!f->sharded->AddEdge(owner, cand, "friend").ok()) return nullptr;
      if (!f->one_shard->AddEdge(owner, cand, "friend").ok()) return nullptr;
      pools[i].push_back(cand);
    }
    if (pools[i].empty()) return nullptr;
  }
  for (size_t i = 0; i < kFanBatch; ++i) {
    const size_t r = i % res.size();
    f->batch.push_back(
        {.requester = pools[r][i % pools[r].size()], .resource = res[r]});
  }
  return f;
}

void BM_ShardBatchFanOut(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  auto f = MakeFanOutFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  using Clock = std::chrono::steady_clock;
  double one_sec = 0.0;
  double sharded_sec = 0.0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    auto od = f->one_shard->CheckAccessBatch(f->batch);
    const auto t1 = Clock::now();
    auto sd = f->sharded->CheckAccessBatch(f->batch);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(od);
    benchmark::DoNotOptimize(sd);
    const double o = std::chrono::duration<double>(t1 - t0).count();
    const double t = std::chrono::duration<double>(t2 - t1).count();
    one_sec += o;
    sharded_sec += t;
    state.SetIterationTime(t);
  }
  state.counters["speedup_vs_one_shard"] =
      sharded_sec > 0.0 ? one_sec / sharded_sec : 0.0;
  state.counters["one_shard_batch_ms"] =
      state.iterations() > 0
          ? 1e3 * one_sec / static_cast<double>(state.iterations())
          : 0.0;
  state.counters["sharded_batch_ms"] =
      state.iterations() > 0
          ? 1e3 * sharded_sec / static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations() * kFanBatch);
}
BENCHMARK(BM_ShardBatchFanOut)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime();

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
