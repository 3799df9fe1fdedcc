// Chaos suite for the sharded serving tier (PR 7): every completed
// decision must agree exactly with a single-engine oracle over the
// unpartitioned graph, and every non-answer must be an explicit
// kUnavailable / kDeadlineExceeded — across random fault storms,
// shard blackouts, mid-mutation failures, and recovery. A silently
// wrong grant or deny is the one bug this file exists to catch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/access_engine.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "synth/generators.h"
#include "tests/shard_test_util.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::ChainFixture;
using testing_util::MakeChain;
using testing_util::MakeWorkload;
using testing_util::SmallBa;
using testing_util::Workload;

bool IsTransportCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

/// Installs a FaultInjectionTransport at Build() and hands back the raw
/// pointer (owned by the router) so the test can drive the knobs.
void InstallFaultSeam(RouterOptions& opts, uint64_t seed,
                      FaultInjectionTransport** out) {
  opts.transport_decorator =
      [out, seed](std::unique_ptr<ShardTransport> inner)
      -> std::unique_ptr<ShardTransport> {
    auto t = std::make_unique<FaultInjectionTransport>(std::move(inner), seed);
    *out = t.get();
    return t;
  };
}

// ---- Randomized fault storms vs the oracle ---------------------------------

// The fault decorator wraps the router's thread-per-shard executor, so
// the storm lands on genuinely concurrent scatter-gather sub-batches and
// parallel frontier rounds, and every invariant must hold regardless.
void RunChaosOracle(uint32_t num_shards) {
  auto g = SmallBa(1000 + num_shards);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  SocialGraph oracle_graph = w.graph;

  RouterOptions opts;
  opts.partition.num_shards = num_shards;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  FaultInjectionTransport* fault = nullptr;
  InstallFaultSeam(opts, 0xC4A05 + num_shards, &fault);
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_NE(fault, nullptr);

  ShardFaultProfile p;
  p.delay_probability = 0.10;
  p.drop_probability = 0.11;
  p.delay_min_ms = 1;
  p.delay_max_ms = 60;  // sometimes past the 50ms per-attempt deadline
  for (uint32_t s = 0; s < num_shards; ++s) fault->SetProfile(s, p);

  AccessControlEngine oracle(oracle_graph, w.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  const std::string tag = "chaos/" + std::to_string(num_shards);
  const size_t n = oracle_graph.NumNodes();
  Rng rng(0xD15EA5E + num_shards);
  uint64_t completed = 0;
  uint64_t refused = 0;
  // Mutations the router really applied (mirrored into the oracle);
  // removals draw from this list so an in-band NotFound never muddies
  // the fail-stop bookkeeping.
  std::vector<std::pair<NodeId, NodeId>> applied;

  auto check_one = [&](const AccessRequest& req, const std::string& where) {
    const auto got = router.CheckAccess(req);
    const auto want = oracle.CheckAccess(req);
    ASSERT_TRUE(want.ok()) << tag << "/" << where;
    if (got.ok()) {
      ++completed;
      EXPECT_EQ(got->granted, want->granted)
          << tag << "/" << where << " requester=" << req.requester
          << " resource=" << req.resource;
      EXPECT_EQ(got->owner_access, want->owner_access)
          << tag << "/" << where;
    } else {
      ++refused;
      EXPECT_TRUE(IsTransportCode(got.status().code()))
          << tag << "/" << where << " " << got.status().ToString();
    }
  };

  for (int i = 0; i < 400; ++i) {
    if (rng.NextBool(0.08)) {
      const bool remove = !applied.empty() && rng.NextBool(0.3);
      NodeId a, b;
      if (remove) {
        const size_t k = rng.NextBounded(applied.size());
        a = applied[k].first;
        b = applied[k].second;
        const Status st = router.RemoveEdge(a, b, "friend");
        EXPECT_NE(st.code(), StatusCode::kInternal) << tag;
        if (st.ok()) {
          ASSERT_TRUE(oracle.RemoveEdge(a, b, "friend").ok());
          applied.erase(applied.begin() + static_cast<ptrdiff_t>(k));
        } else {
          // Fail-stop: a refused mutation was never applied anywhere.
          EXPECT_TRUE(IsTransportCode(st.code())) << tag << " "
                                                  << st.ToString();
        }
      } else {
        a = static_cast<NodeId>(rng.NextBounded(n));
        b = static_cast<NodeId>(rng.NextBounded(n));
        if (a == b) continue;
        const Status st = router.AddEdge(a, b, "friend");
        EXPECT_NE(st.code(), StatusCode::kInternal) << tag;
        if (st.ok()) {
          ASSERT_TRUE(oracle.AddEdge(a, b, "friend").ok());
          applied.push_back({a, b});
        } else {
          EXPECT_TRUE(IsTransportCode(st.code())) << tag << " "
                                                  << st.ToString();
        }
      }
    } else {
      AccessRequest req;
      req.requester = static_cast<NodeId>(rng.NextBounded(n));
      req.resource = w.resources[rng.NextBounded(w.resources.size())];
      check_one(req, "single " + std::to_string(i));
    }
  }

  // The batch path honors the same contract, slot by slot.
  std::vector<AccessRequest> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back({.requester = static_cast<NodeId>(rng.NextBounded(n)),
                     .resource =
                         w.resources[rng.NextBounded(w.resources.size())]});
  }
  const auto routed = router.CheckAccessBatch(batch);
  ASSERT_EQ(routed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto want = oracle.CheckAccess(batch[i]);
    ASSERT_TRUE(want.ok());
    if (routed[i].ok()) {
      ++completed;
      EXPECT_EQ(routed[i]->granted, want->granted)
          << tag << "/batch slot " << i;
    } else {
      ++refused;
      EXPECT_TRUE(IsTransportCode(routed[i].status().code()))
          << tag << "/batch slot " << i << " "
          << routed[i].status().ToString();
    }
  }

  EXPECT_GT(completed, 0u) << tag;
  const RouterCounters c = router.counters();
  // Every refused check was counted, and nothing else was.
  EXPECT_EQ(c.unavailable_errors, refused) << tag;
  // The storm really forced the retry machinery to work.
  EXPECT_GT(c.retries, 0u) << tag;
}

TEST(ChaosOracle, RandomFaultSchedulesOneShard) { RunChaosOracle(1); }
TEST(ChaosOracle, RandomFaultSchedulesTwoShards) { RunChaosOracle(2); }
TEST(ChaosOracle, RandomFaultSchedulesFourShards) { RunChaosOracle(4); }
TEST(ChaosOracle, RandomFaultSchedulesSevenShards) { RunChaosOracle(7); }

// ---- One slow shard must not stall the rest of a batch ---------------------

TEST(ShardParallelChaos, SlowShardDoesNotStallOtherSubBatches) {
  // Four shards with no cross-shard edges: every check is concluded
  // entirely on its owner's shard, so the shards' sub-batches are
  // independent. Shard 0's worker sleeps far past the per-attempt
  // deadline on every dispatch; the other shards' slots must still
  // complete exactly, and the whole batch must return well within ONE
  // slow-shard sleep — proof the sub-batches really ran concurrently
  // and the router abandoned the stuck shard at its deadline instead
  // of serializing behind it.
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kSleepMs = 600;
  SocialGraph g;
  g.AddNodes(40);  // contiguous: nodes [10s, 10s+9] land on shard s
  PolicyStore store;
  std::vector<ResourceId> res;
  for (uint32_t s = 0; s < kShards; ++s) {
    const NodeId owner = static_cast<NodeId>(10 * s);
    ASSERT_TRUE(g.AddEdge(owner, owner + 1, "friend").ok());
    const ResourceId r =
        store.RegisterResource(owner, "res" + std::to_string(s));
    ASSERT_TRUE(store.AddRuleFromPaths(r, {"friend[1,2]"}).ok());
    res.push_back(r);
  }

  RouterOptions opts;
  opts.partition.num_shards = kShards;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  opts.robustness.call_deadline_ms = 40;
  opts.robustness.op_budget_ms = 120;
  opts.robustness.max_attempts = 1;  // a retry would just re-wait
  std::atomic<uint64_t> slow_dispatches{0};
  opts.executor.pre_dispatch_hook = [&](uint32_t shard) {
    if (shard == 0) {
      slow_dispatches.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(kSleepMs));
    }
  };
  ShardRouter router(g, store, opts);
  ASSERT_TRUE(router.Build().ok());

  std::vector<AccessRequest> batch;
  for (uint32_t s = 0; s < kShards; ++s) {
    const NodeId owner = static_cast<NodeId>(10 * s);
    batch.push_back({.requester = owner + 1, .resource = res[s]});  // grant
    batch.push_back({.requester = owner + 2, .resource = res[s]});  // deny
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto decisions = router.CheckAccessBatch(batch);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(decisions.size(), batch.size());

  // Shard 0's slots: explicit transport errors, never a guess.
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(decisions[i].ok()) << "slot " << i;
    EXPECT_TRUE(IsTransportCode(decisions[i].status().code()))
        << decisions[i].status().ToString();
  }
  // Every other shard's slots: exact answers.
  for (uint32_t s = 1; s < kShards; ++s) {
    const auto& grant = decisions[2 * s];
    const auto& deny = decisions[2 * s + 1];
    ASSERT_TRUE(grant.ok()) << grant.status().ToString();
    EXPECT_TRUE(grant->granted);
    ASSERT_TRUE(deny.ok()) << deny.status().ToString();
    EXPECT_FALSE(deny->granted);
  }
  // The wall: the batch returned while shard 0's worker was still
  // asleep — nothing waited the sleep out.
  EXPECT_LT(elapsed_ms, static_cast<int64_t>(kSleepMs));
  EXPECT_GE(slow_dispatches.load(), 1u);
  EXPECT_GT(router.counters().timeouts, 0u);
}

// ---- Multi-reader fan-out under faults (TSan target) -----------------------

TEST(ShardParallelStress, ReadersFanOutFaultsAndWriter) {
  // Reader threads drive scatter-gather batches through the threaded
  // executor (caller threads racing per-shard workers) while injected
  // faults flip outcomes and one writer mutates and blacks out shards.
  // The assertions are the chaos invariants; the
  // real assertion is TSan reporting zero races across the executor's
  // queues, tickets, and the router's scatter state.
  auto g = SmallBa(29);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 4;
  FaultInjectionTransport* fault = nullptr;
  InstallFaultSeam(opts, 77, &fault);
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  ShardFaultProfile p;
  p.delay_probability = 0.15;
  p.drop_probability = 0.15;
  for (uint32_t s = 0; s < 4; ++s) fault->SetProfile(s, p);

  const size_t n = router.topology()->shard_of.size();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(3000 + t);
      std::vector<AccessRequest> batch;
      while (!stop.load(std::memory_order_acquire)) {
        // Mostly batches: the point is concurrent fan-out, so several
        // caller threads should be scattering sub-batches at once.
        batch.clear();
        const size_t slots = 2 + rng.NextBounded(8);
        for (size_t i = 0; i < slots; ++i) {
          batch.push_back(
              {.requester = static_cast<NodeId>(rng.NextBounded(n)),
               .resource =
                   w.resources[rng.NextBounded(w.resources.size())]});
        }
        for (const auto& d : router.CheckAccessBatch(batch)) {
          EXPECT_TRUE(d.ok() || IsTransportCode(d.status().code()))
              << d.status().ToString();
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    Rng rng(42);
    for (int step = 0; step < 60; ++step) {
      const uint32_t dark = static_cast<uint32_t>(step % 4);
      if (step % 5 == 0) fault->Blackout(dark, true);
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a != b) {
        const Status st = (step % 3 == 2)
                              ? router.RemoveEdge(a, b, "friend")
                              : router.AddEdge(a, b, "friend");
        EXPECT_NE(st.code(), StatusCode::kInternal) << st.ToString();
      }
      if (step % 5 == 0) fault->Blackout(dark, false);
    }
  }
  while (reads.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(router.counters().checks, 0u);
}

// ---- Blackout: explicit refusals, recovery --------------------------------

TEST(ChaosOracle, ShardBlackoutAndRecovery) {
  ChainFixture f = MakeChain();
  SocialGraph oracle_graph = f.graph;
  RouterOptions opts;
  opts.partition.num_shards = 2;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  FaultInjectionTransport* fault = nullptr;
  InstallFaultSeam(opts, 7, &fault);
  ShardRouter router(f.graph, f.store, opts);
  ASSERT_TRUE(router.Build().ok());
  AccessControlEngine oracle(oracle_graph, f.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  // Healthy baseline: 1 granted through two cut crossings, 3 and 6
  // denied.
  for (const NodeId r : {NodeId{1}, NodeId{3}, NodeId{6}}) {
    const auto d = router.CheckAccess({.requester = r, .resource = f.res});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->granted, r == 1) << "requester " << r;
  }

  // Lights out on shard 0 — the shard holding the resource owner. Every
  // non-owner check needs the owner's shard first, so each is an
  // explicit kUnavailable: the grant, the deny on the healthy shard, and
  // the deny inside the dark one alike. Nothing is guessed.
  fault->Blackout(0, true);
  EXPECT_TRUE(fault->blacked_out(0));
  for (const NodeId r : {NodeId{1}, NodeId{6}, NodeId{3}}) {
    const auto d = router.CheckAccess({.requester = r, .resource = f.res});
    EXPECT_EQ(d.status().code(), StatusCode::kUnavailable)
        << "requester " << r;
  }

  // The owner's own access never needs the data plane.
  const auto d0 = router.CheckAccess({.requester = 0, .resource = f.res});
  ASSERT_TRUE(d0.ok());
  EXPECT_TRUE(d0->owner_access);

  // Mutations that must touch the dark shard fail stop before applying
  // anything...
  EXPECT_EQ(router.AddEdge(2, 3, "friend").code(), StatusCode::kUnavailable);
  // ...and checks keep failing explicitly afterwards.
  const auto again = router.CheckAccess({.requester = 1, .resource = f.res});
  EXPECT_EQ(again.status().code(), StatusCode::kUnavailable);

  RouterCounters c = router.counters();
  EXPECT_EQ(c.unavailable_errors, 4u);
  EXPECT_GE(c.breaker_opens, 1u);
  EXPECT_EQ(router.health().state(0), BreakerState::kOpen);

  // Recovery: lights back on, the open window elapses on the virtual
  // clock, the half-open probe succeeds, and service is ordinary again.
  fault->Blackout(0, false);
  fault->SleepMs(500);
  for (const NodeId r : {NodeId{1}, NodeId{3}, NodeId{6}}) {
    const AccessRequest req{.requester = r, .resource = f.res};
    const auto d = router.CheckAccess(req);
    const auto want = oracle.CheckAccess(req);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(d->granted, want->granted) << "requester " << r;
  }
  EXPECT_EQ(router.health().state(0), BreakerState::kClosed);
}

// ---- Mid-mutation blackout: no torn cut edges ------------------------------

TEST(ChaosOracle, MidMutationBlackout) {
  ChainFixture f = MakeChain();
  SocialGraph oracle_graph = f.graph;
  RouterOptions opts;
  opts.partition.num_shards = 2;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  FaultInjectionTransport* fault = nullptr;
  InstallFaultSeam(opts, 13, &fault);
  ShardRouter router(f.graph, f.store, opts);
  ASSERT_TRUE(router.Build().ok());
  AccessControlEngine oracle(oracle_graph, f.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  // Cut edge 5 -> 3: if it existed, requester 3 would be granted via
  // 0 -> 4 -> 5 -> 3. Its first half lands on healthy shard 1
  // (shard_of[5]), its second on blacked-out shard 0 (shard_of[3]) — so
  // shard 1 applies, shard 0 refuses, and the router must roll shard 1
  // back. A torn edge here would grant requester 3 through shard 1's
  // walk: silently wrong, exactly what must never happen.
  // Edge mutations never republish the topology: it is only the node
  // -> shard map.
  const uint64_t epoch_before = router.topology()->epoch;
  fault->Blackout(0, true);
  EXPECT_EQ(router.AddEdge(5, 3, "friend").code(), StatusCode::kUnavailable);
  fault->Blackout(0, false);
  EXPECT_EQ(router.topology()->epoch, epoch_before);

  // Heal fully: the breaker window elapses.
  fault->SleepMs(500);

  // The oracle never saw the edge, and the router agrees it is not
  // there: requester 3 is still denied.
  const AccessRequest req3{.requester = 3, .resource = f.res};
  auto d3 = router.CheckAccess(req3);
  auto want3 = oracle.CheckAccess(req3);
  ASSERT_TRUE(d3.ok()) << d3.status().ToString();
  ASSERT_TRUE(want3.ok());
  EXPECT_FALSE(d3->granted);
  EXPECT_EQ(d3->granted, want3->granted);

  // Retrying the same mutation with the lights on applies cleanly on
  // both shards and flips the answer everywhere at once.
  ASSERT_TRUE(router.AddEdge(5, 3, "friend").ok());
  ASSERT_TRUE(oracle.AddEdge(5, 3, "friend").ok());
  EXPECT_EQ(router.topology()->epoch, epoch_before);
  d3 = router.CheckAccess(req3);
  want3 = oracle.CheckAccess(req3);
  ASSERT_TRUE(d3.ok());
  ASSERT_TRUE(want3.ok());
  EXPECT_TRUE(d3->granted);
  EXPECT_TRUE(want3->granted);

  // The same cut-edge body removes: with shard 0 dark, shard 1 drops its
  // half, shard 0 refuses, and the router restores shard 1's half with
  // the inverse op — requester 3 stays granted, as on the oracle.
  fault->Blackout(0, true);
  EXPECT_EQ(router.RemoveEdge(5, 3, "friend").code(),
            StatusCode::kUnavailable);
  fault->Blackout(0, false);
  fault->SleepMs(500);
  d3 = router.CheckAccess(req3);
  ASSERT_TRUE(d3.ok()) << d3.status().ToString();
  EXPECT_TRUE(d3->granted);

  // With the lights on the removal applies on both shards.
  ASSERT_TRUE(router.RemoveEdge(5, 3, "friend").ok());
  ASSERT_TRUE(oracle.RemoveEdge(5, 3, "friend").ok());
  d3 = router.CheckAccess(req3);
  want3 = oracle.CheckAccess(req3);
  ASSERT_TRUE(d3.ok());
  ASSERT_TRUE(want3.ok());
  EXPECT_FALSE(d3->granted);
  EXPECT_FALSE(want3->granted);
}

// ---- Concurrency under faults (TSan target) --------------------------------

TEST(ShardTransportConcurrency, ReadersRaceFaultsAndWriter) {
  auto g = SmallBa(17);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 4;
  FaultInjectionTransport* fault = nullptr;
  InstallFaultSeam(opts, 99, &fault);
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  ShardFaultProfile p;
  p.delay_probability = 0.15;
  p.drop_probability = 0.15;
  for (uint32_t s = 0; s < 4; ++s) fault->SetProfile(s, p);

  const size_t n = router.topology()->shard_of.size();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(2000 + t);
      std::vector<AccessRequest> batch;
      while (!stop.load(std::memory_order_acquire)) {
        AccessRequest req;
        req.requester = static_cast<NodeId>(rng.NextBounded(n));
        req.resource = w.resources[rng.NextBounded(w.resources.size())];
        if (rng.NextBool(0.2)) {
          batch.assign(3, req);
          for (const auto& d : router.CheckAccessBatch(batch)) {
            EXPECT_TRUE(d.ok() || IsTransportCode(d.status().code()))
                << d.status().ToString();
          }
        } else {
          const auto d = router.CheckAccess(req);
          EXPECT_TRUE(d.ok() || IsTransportCode(d.status().code()))
              << d.status().ToString();
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    // One writer mutating through the faulty transport while shards
    // black out and recover underneath the readers.
    Rng rng(42);
    for (int step = 0; step < 60; ++step) {
      const uint32_t dark = static_cast<uint32_t>(step % 4);
      if (step % 5 == 0) fault->Blackout(dark, true);
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a != b) {
        const Status st = (step % 3 == 2)
                              ? router.RemoveEdge(a, b, "friend")
                              : router.AddEdge(a, b, "friend");
        EXPECT_NE(st.code(), StatusCode::kInternal) << st.ToString();
      }
      if (step % 5 == 0) fault->Blackout(dark, false);
    }
  }
  while (reads.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(router.counters().checks, 0u);
}

}  // namespace
}  // namespace sargus
