#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/access_engine.h"
#include "query/eval_context.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::MakeDiamond;
using testing_util::MirrorGraph;
using testing_util::MustBind;

// ---- Shared fixtures --------------------------------------------------------

struct EngineFixture {
  SocialGraph g;
  PolicyStore store;
  ResourceId res = 0;
  std::unique_ptr<AccessControlEngine> engine;

  EngineFixture(SocialGraph graph, const std::vector<std::string>& rule_paths,
                NodeId owner, EngineOptions options) : g(std::move(graph)) {
    res = store.RegisterResource(owner, "doc");
    (void)store.AddRuleFromPaths(res, rule_paths).ValueOrDie();
    engine = std::make_unique<AccessControlEngine>(g, store, options);
    auto st = engine->RebuildIndexes();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  bool Granted(NodeId requester) {
    auto r = engine->CheckAccess({.requester = requester, .resource = res});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->granted;
  }
};

// ---- Node growth ------------------------------------------------------------

TEST(CompactionNodeGrowth, AddNodeQueryableWithoutRebuild) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0, {});
  auto old_view = f.engine->AcquireReadView();
  const size_t base_nodes = f.g.NumNodes();
  const uint64_t gen = f.engine->snapshot_generation();

  auto id = f.engine->AddNode();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, base_nodes);          // dense, predictable id
  EXPECT_EQ(f.g.NumNodes(), base_nodes);  // staged, not yet folded

  // Queryable immediately: denied (no edges yet), then granted once a
  // staged edge admits it — all without any RebuildIndexes.
  EXPECT_FALSE(f.Granted(*id));
  ASSERT_TRUE(f.engine->AddEdge(0, *id, "colleague").ok());
  EXPECT_TRUE(f.Granted(*id));
  EXPECT_EQ(f.engine->snapshot_generation(), gen);

  // A second staged node chains onto the logical id range and can be an
  // edge endpoint too (relay through the first staged node).
  auto id2 = f.engine->AddNode();
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id + 1);
  ASSERT_TRUE(f.engine->AddEdge(*id, *id2, "colleague").ok());

  // The view published before the AddNode rejects the new id instead of
  // indexing past its snapshot-sized scratch (the regression this PR
  // guards): kInvalidArgument, not a crash or a bogus deny.
  auto stale = old_view->CheckAccess({.requester = *id, .resource = f.res});
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // Compaction folds the staged nodes into the SocialGraph under the
  // same ids; answers are unchanged, and attributes become settable.
  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();
  EXPECT_EQ(f.g.NumNodes(), base_nodes + 2);
  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_TRUE(f.Granted(*id));
  EXPECT_TRUE(f.g.SetAttribute(*id, "age", 30).ok());
  EXPECT_EQ(f.g.GetAttribute(*id, "age"), std::optional<int64_t>(30));

  // RebuildIndexes (not Compact) would have discarded staged nodes; the
  // folded node survives it.
  ASSERT_TRUE(f.engine->RebuildIndexes().ok());
  EXPECT_TRUE(f.Granted(*id));
}

TEST(CompactionNodeGrowth, BatchAndRequesterGuardsOnStaleViews) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0, {});
  auto old_view = f.engine->AcquireReadView();
  auto id = f.engine->AddNode();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.engine->AddEdge(0, *id, "colleague").ok());

  // Batch: the stale view fails the new-node slot alone; the fresh view
  // answers it.
  std::vector<AccessRequest> requests = {
      {.requester = 3, .resource = f.res},
      {.requester = *id, .resource = f.res},
  };
  auto stale = old_view->CheckAccessBatch(requests);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_TRUE(stale[0].ok());
  ASSERT_FALSE(stale[1].ok());
  EXPECT_EQ(stale[1].status().code(), StatusCode::kInvalidArgument);

  auto fresh = f.engine->CheckAccessBatch(requests);
  ASSERT_TRUE(fresh[1].ok());
  EXPECT_TRUE(fresh[1]->granted);
}

TEST(CompactionNodeGrowth, OutOfRangeResourceOwnerFailsLoudly) {
  // A resource registered to an owner the snapshot has never seen: every
  // rule walk would seed at the owner, past scratch arrays sized at
  // snapshot time. Must be kInvalidArgument — this indexed out of
  // bounds before the guard existed.
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId ghost = store.RegisterResource(/*owner=*/99, "ghost");
  (void)store.AddRuleFromPaths(ghost, {"friend[1]"}).ValueOrDie();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  auto r = engine.CheckAccess({.requester = 1, .resource = ghost});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Batch: the ghost-owner group fails per slot, sibling slots survive.
  const ResourceId ok_res = store.RegisterResource(/*owner=*/0, "ok");
  (void)store.AddRuleFromPaths(ok_res, {"friend[1]"}).ValueOrDie();
  ASSERT_TRUE(engine.RefreshPolicies().ok());
  std::vector<AccessRequest> requests;
  for (NodeId req = 0; req < 5; ++req) {
    requests.push_back({.requester = req, .resource = ghost});
    requests.push_back({.requester = req, .resource = ok_res});
  }
  auto out = engine.CheckAccessBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].resource == ghost) {
      ASSERT_FALSE(out[i].ok()) << i;
      EXPECT_EQ(out[i].status().code(), StatusCode::kInvalidArgument) << i;
    } else {
      EXPECT_TRUE(out[i].ok()) << i;
    }
  }
}

// ---- Background compaction: straddle semantics ------------------------------

TEST(CompactionStraddle, MutationsDuringBuildAreReplayedNotLost) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0,
                  {.compact_threshold = 0});
  const BoundPathExpression expr = MustBind(f.g, "colleague[1]");
  MirrorGraph mirror(f.g);
  const LabelId co = f.g.labels().Lookup("colleague");
  const LabelId fr = f.g.labels().Lookup("friend");

  auto agree = [&](const char* when) {
    for (NodeId req = 0; req < 6; ++req) {
      const bool expected = req == 0 || mirror.Match(expr, 0, req);
      EXPECT_EQ(f.Granted(req), expected) << when << " requester " << req;
    }
  };

  // Pre-compaction delta: one add, one base-edge removal.
  ASSERT_TRUE(f.engine->AddEdge(0, 5, co).ok());
  mirror.Add(0, 5, co);
  ASSERT_TRUE(f.engine->RemoveEdge(2, 3, co).ok());
  mirror.Remove(2, 3, co);
  agree("pre-compaction");

  // Hold the build open while the writer keeps mutating.
  std::atomic<bool> release{false};
  std::atomic<int> builds{0};
  f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    if (builds.fetch_add(1) == 0) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  });
  const uint64_t gen = f.engine->snapshot_generation();
  ASSERT_TRUE(f.engine->Compact().ok());

  // Straddling mutations: staged during the in-flight build. They must
  // be visible immediately (served off the old snapshot + overlay)...
  ASSERT_TRUE(f.engine->AddEdge(0, 1, co).ok());
  mirror.Add(0, 1, co);
  ASSERT_TRUE(f.engine->RemoveEdge(0, 5, co).ok());  // withdraw the add
  mirror.Remove(0, 5, co);
  ASSERT_TRUE(f.engine->RemoveEdge(4, 3, co).ok());  // mask a base edge
  mirror.Remove(4, 3, co);
  auto id = f.engine->AddNode();  // node growth straddles too
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.engine->AddEdge(0, *id, co).ok());
  mirror.Add(0, static_cast<NodeId>(mirror.g.AddNode()), co);
  EXPECT_EQ(f.engine->snapshot_generation(), gen);  // still building
  agree("during build");
  EXPECT_TRUE(f.Granted(*id));

  // ...and rebased onto the new snapshot at completion: same answers,
  // new generation, overlay reduced to exactly the straddling delta.
  release.store(true, std::memory_order_release);
  f.engine->WaitForCompaction();
  EXPECT_EQ(f.engine->snapshot_generation(), gen + 1);
  EXPECT_FALSE(f.engine->overlay().empty());
  agree("after completion");
  EXPECT_TRUE(f.Granted(*id));

  // The folded graph holds the pre-freeze delta only: the 0-c->5 add
  // (withdrawn later, so masked by the rebased overlay), not the
  // straddlers.
  EXPECT_TRUE(f.g.FindEdge(0, 5, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(2, 3, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(0, 1, co).has_value());  // still staged

  // A second compaction folds the leftovers; decisions never waver.
  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();
  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_TRUE(f.g.FindEdge(0, 1, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(0, 5, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(4, 3, co).has_value());
  agree("after second compaction");
  (void)fr;
}

TEST(CompactionStraddle, ExplicitCompactDuringBuildChainsAFollowUp) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0,
                  {.compact_threshold = 0});
  const LabelId co = f.g.labels().Lookup("colleague");

  std::atomic<bool> release{false};
  std::atomic<int> builds{0};
  f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    if (builds.fetch_add(1) == 0) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  });
  ASSERT_TRUE(f.engine->AddEdge(0, 5, co).ok());
  ASSERT_TRUE(f.engine->Compact().ok());
  // Mid-build mutation, then an explicit Compact: the completion must
  // chain a follow-up that folds it rather than dropping the request.
  ASSERT_TRUE(f.engine->AddEdge(1, 4, co).ok());
  ASSERT_TRUE(f.engine->Compact().ok());
  release.store(true, std::memory_order_release);
  f.engine->WaitForCompaction();

  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_TRUE(f.g.FindEdge(0, 5, co).has_value());
  EXPECT_TRUE(f.g.FindEdge(1, 4, co).has_value());
  EXPECT_GE(builds.load(), 2);
  EXPECT_TRUE(f.Granted(5));
}

TEST(CompactionStraddle, RandomizedStraddlersAgreeWithMirror) {
  auto gen = GenerateErdosRenyi(
      {.base = {.num_nodes = 16, .seed = 7}, .avg_out_degree = 2.0});
  ASSERT_TRUE(gen.ok());
  EngineFixture f(std::move(*gen), {"friend[1,2]"}, /*owner=*/0,
                  {.compact_threshold = 0});
  const BoundPathExpression expr = MustBind(f.g, "friend[1,2]");
  MirrorGraph mirror(f.g);
  const LabelId fr = f.g.labels().Lookup("friend");
  Rng rng(2027);

  auto agree = [&](const char* when) {
    for (NodeId req = 0; req < mirror.g.NumNodes(); ++req) {
      const bool expected = req == 0 || mirror.Match(expr, 0, req);
      EXPECT_EQ(f.Granted(req), expected) << when << " requester " << req;
    }
  };
  auto add = [&](NodeId s, NodeId d) {
    EXPECT_TRUE(f.engine->AddEdge(s, d, fr).ok());
    mirror.Add(s, d, fr);
  };
  auto remove = [&](NodeId s, NodeId d) {
    const bool present = mirror.g.FindEdge(s, d, fr).has_value();
    EXPECT_EQ(f.engine->RemoveEdge(s, d, fr).ok(), present);
    mirror.Remove(s, d, fr);
  };
  // One random op; a staged node always gets an edge on it.
  auto mutate = [&] {
    const NodeId n = static_cast<NodeId>(mirror.g.NumNodes());
    const uint64_t kind = rng.NextBounded(8);
    if (kind == 0) {
      auto id = f.engine->AddNode();
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, mirror.g.AddNode());
      add(static_cast<NodeId>(rng.NextBounded(n)), *id);
    } else if (kind < 5) {
      add(static_cast<NodeId>(rng.NextBounded(n)),
          static_cast<NodeId>(rng.NextBounded(n)));
    } else if (auto e = mirror.RandomLiveEdge(rng);
               e.has_value() && e->label == fr) {
      remove(e->src, e->dst);
    }
  };

  for (int i = 0; i < 25; ++i) mutate();
  agree("before the freeze");
  std::vector<DeltaOverlay::EdgeTriple> frozen_adds;
  std::vector<DeltaOverlay::EdgeTriple> frozen_removes;
  f.engine->overlay().ForEachAdded(
      [&](const DeltaOverlay::EdgeTriple& t) { frozen_adds.push_back(t); });
  f.engine->overlay().ForEachRemoved(
      [&](const DeltaOverlay::EdgeTriple& t) { frozen_removes.push_back(t); });
  ASSERT_FALSE(frozen_adds.empty());
  ASSERT_FALSE(frozen_removes.empty());

  // Build b is held until `released` passes b.
  std::atomic<int> builds{0};
  std::atomic<int> released{0};
  f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    const int b = builds.fetch_add(1);
    while (released.load(std::memory_order_acquire) <= b) {
      std::this_thread::yield();
    }
  });
  const uint64_t gen0 = f.engine->snapshot_generation();
  ASSERT_TRUE(f.engine->Compact().ok());

  // Straddlers: random ops, frozen adds withdrawn, frozen removes
  // restored, edges on staged nodes.
  for (int i = 0; i < 30; ++i) {
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {
      const auto& t = frozen_adds[rng.NextBounded(frozen_adds.size())];
      remove(t.src, t.dst);
    } else if (kind == 1) {
      const auto& t = frozen_removes[rng.NextBounded(frozen_removes.size())];
      add(t.src, t.dst);
    } else {
      mutate();
    }
  }
  EXPECT_EQ(f.engine->snapshot_generation(), gen0);
  agree("during the build");

  // An explicit Compact() mid-build: the completion chains a follow-up,
  // which the hook holds in turn.
  ASSERT_TRUE(f.engine->Compact().ok());
  released.store(1, std::memory_order_release);
  while (f.engine->snapshot_generation() == gen0) std::this_thread::yield();
  EXPECT_EQ(f.engine->snapshot_generation(), gen0 + 1);
  EXPECT_TRUE(f.engine->compaction_in_flight());
  agree("after the build");
  for (int i = 0; i < 10; ++i) mutate();
  agree("during the chained build");

  released.store(2, std::memory_order_release);
  f.engine->WaitForCompaction();
  EXPECT_EQ(f.engine->snapshot_generation(), gen0 + 2);
  EXPECT_EQ(builds.load(), 2);
  agree("after the chain");

  // Folding what the chain left leaves the graph equal to the mirror.
  released.store(1 << 20, std::memory_order_release);
  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();
  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_EQ(f.g.NumNodes(), mirror.g.NumNodes());
  EXPECT_EQ(f.g.NumEdges(), mirror.g.NumEdges());
  for (EdgeId e = 0; e < mirror.g.EdgeSlotCount(); ++e) {
    if (!mirror.g.IsLiveEdge(e)) continue;
    const Edge& edge = mirror.g.edge(e);
    EXPECT_TRUE(f.g.FindEdge(edge.src, edge.dst, edge.label).has_value());
  }
  agree("after the final fold");
}

TEST(CompactionStraddle, RebuildWaitsOutHeldBuild) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0,
                  {.compact_threshold = 0});
  const LabelId co = f.g.labels().Lookup("colleague");
  const size_t base_nodes = f.g.NumNodes();

  std::atomic<bool> release{false};
  f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(f.engine->AddEdge(0, 5, co).ok());     // frozen add
  ASSERT_TRUE(f.engine->RemoveEdge(1, 5, co).ok());  // frozen remove
  const uint64_t gen = f.engine->snapshot_generation();
  ASSERT_TRUE(f.engine->Compact().ok());
  ASSERT_TRUE(f.engine->AddEdge(0, 1, co).ok());  // straddlers
  ASSERT_TRUE(f.engine->AddNode().ok());
  EXPECT_TRUE(f.Granted(1));

  std::atomic<bool> rebuilt{false};
  Status rebuild_status = OkStatus();
  std::thread rebuild([&] {
    rebuild_status = f.engine->RebuildIndexes();
    rebuilt.store(true, std::memory_order_release);
  });
  // The rebuild cannot finish while the build is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rebuilt.load(std::memory_order_acquire));
  EXPECT_EQ(f.engine->snapshot_generation(), gen);
  release.store(true, std::memory_order_release);
  rebuild.join();
  ASSERT_TRUE(rebuild_status.ok()) << rebuild_status.ToString();

  // The completion folded the frozen edges and the rebuild then dropped
  // the straddlers: one generation each.
  EXPECT_EQ(f.engine->snapshot_generation(), gen + 2);
  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_TRUE(f.g.FindEdge(0, 5, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(1, 5, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(0, 1, co).has_value());
  EXPECT_EQ(f.g.NumNodes(), base_nodes);
  EXPECT_TRUE(f.Granted(5));
  EXPECT_FALSE(f.Granted(1));
}

// ---- A generated graph's first compaction ----------------------------------

// A generated graph is frozen and holds no triple index, and the engine
// serves its snapshot; staging leaves it frozen. The first compaction
// thaws it on the worker (slots and index, sized for the fold) before
// the merged build, so the fold writes through a built index that it
// never has to grow. Decisions after the compaction
// match a brute-force walk of a mirror that took every mutation eagerly,
// and the folded caller graph holds exactly the mirror's triples.
TEST(CompactionStaleIndex, FirstCompactionRebuildsGeneratedGraphIndex) {
  auto gen = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 1024, .seed = 13}, .edges_per_node = 3});
  ASSERT_TRUE(gen.ok());
  EngineFixture f(std::move(*gen), {"friend[1,2]"}, /*owner=*/0,
                  {.compact_threshold = 0});
  ASSERT_TRUE(f.g.frozen());
  ASSERT_EQ(f.g.edge_index_capacity(), 0u);
  EXPECT_EQ(&f.engine->AcquireReadView()->csr(), f.g.frozen_csr().get());
  const BoundPathExpression expr = MustBind(f.g, "friend[1,2]");
  MirrorGraph mirror(f.g);
  const LabelId fr = f.g.labels().Lookup("friend");

  for (EdgeId e = 0; e < f.g.EdgeSlotCount(); e += 16) {
    const Edge rec = f.g.edge(e);
    ASSERT_TRUE(f.engine->RemoveEdge(rec.src, rec.dst, rec.label).ok());
    mirror.Remove(rec.src, rec.dst, rec.label);
  }
  Rng rng(35);
  for (int added = 0; added < 200;) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(f.g.NumNodes()));
    const NodeId d = static_cast<NodeId>(rng.NextBounded(f.g.NumNodes()));
    if (s == d || mirror.g.FindEdge(s, d, fr).has_value()) continue;
    ASSERT_TRUE(f.engine->AddEdge(s, d, fr).ok());
    mirror.Add(s, d, fr);
    ++added;
  }
  EXPECT_TRUE(f.g.frozen());  // staging writes only the overlay
  EXPECT_EQ(f.g.edge_index_capacity(), 0u);

  size_t capacity_at_build = 0;
  bool frozen_at_build = true;
  f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    capacity_at_build = f.g.edge_index_capacity();
    frozen_at_build = f.g.frozen();
  });
  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();
  EXPECT_FALSE(frozen_at_build);
  EXPECT_GT(capacity_at_build, 0u);
  EXPECT_TRUE(f.engine->overlay().empty());

  const CsrSnapshot csr = CsrSnapshot::Build(mirror.g);
  for (NodeId req = 0; req < mirror.g.NumNodes(); ++req) {
    const bool expected =
        req == 0 || testing_util::BruteForceMatch(mirror.g, csr, expr, 0, req);
    ASSERT_EQ(f.Granted(req), expected) << "requester " << req;
  }
  ASSERT_EQ(f.g.NumEdges(), mirror.g.NumEdges());
  for (EdgeId e = 0; e < mirror.g.EdgeSlotCount(); ++e) {
    if (!mirror.g.IsLiveEdge(e)) continue;
    const Edge rec = mirror.g.edge(e);
    ASSERT_TRUE(f.g.FindEdge(rec.src, rec.dst, rec.label).has_value()) << e;
  }
  EXPECT_LE(f.g.NumEdges() * 4, f.g.edge_index_capacity() * 3);
  // The worker sized the index for the fold: it did not grow under the lock.
  EXPECT_EQ(f.g.edge_index_capacity(), capacity_at_build);
}

// ---- Background compaction: concurrent chaos (TSan target) ------------------

TEST(CompactionStress, ReadersRaceBackgroundCompactions) {
  auto gen = GenerateErdosRenyi(
      {.base = {.num_nodes = 24, .seed = 12}, .avg_out_degree = 2.0});
  ASSERT_TRUE(gen.ok());
  SocialGraph g = std::move(*gen);
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {"friend[1,2]"}).ValueOrDie();
  const size_t base_nodes = g.NumNodes();

  // Tiny threshold: compactions fire continuously in the background
  // while readers hammer and the writer keeps mutating — the pipeline
  // itself is the thing under (TSan) test here, correctness per state
  // is pinned by the straddle test above.
  AccessControlEngine engine(g, store, {.compact_threshold = 8});
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  const LabelId fr = g.labels().Lookup("friend");

  std::atomic<bool> done{false};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      EvalContext ctx;
      while (!done.load(std::memory_order_acquire)) {
        const NodeId req =
            static_cast<NodeId>(rng.NextBounded(base_nodes));
        auto view = engine.AcquireReadView();
        auto r = view->CheckAccess({.requester = req, .resource = res}, ctx);
        if (!r.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        auto facade = engine.CheckAccess({.requester = req, .resource = res});
        if (!facade.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(999);
  for (size_t op = 0; op < 400; ++op) {
    const uint64_t kind = rng.NextBounded(10);
    if (kind == 0) {
      auto id = engine.AddNode();
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(engine.AddEdge(0, *id, fr).ok());
    } else if (kind < 7) {
      const NodeId s = static_cast<NodeId>(rng.NextBounded(base_nodes));
      const NodeId d = static_cast<NodeId>(rng.NextBounded(base_nodes));
      ASSERT_TRUE(engine.AddEdge(s, d, fr).ok());
    } else {
      // Remove whatever logical edge the staging layer will accept.
      const NodeId s = static_cast<NodeId>(rng.NextBounded(base_nodes));
      const NodeId d = static_cast<NodeId>(rng.NextBounded(base_nodes));
      (void)engine.RemoveEdge(s, d, fr);  // kNotFound is fine
    }
    if (op % 16 == 15) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  engine.WaitForCompaction();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(engine.snapshot_generation(), 1u);
}

// The first compaction over a frozen (generated) graph thaws it on the
// worker, off the writer lock, while the engine keeps serving the
// snapshot the graph gives up. Readers (views and facade, with an
// attribute filter and a backward step, so they read attribute columns
// and the shared in-side) and two submitting writers run throughout;
// the build hook, which runs after the thaw and before the completion
// takes the lock, sees the graph thawed and commits a write of its own,
// which could not complete if the worker held the lock.
TEST(CompactionStress, FirstCompactionThawsWhileServing) {
  auto gen = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 4096, .seed = 17}, .edges_per_node = 3});
  ASSERT_TRUE(gen.ok());
  SocialGraph g = std::move(*gen);
  ASSERT_TRUE(g.frozen());
  PolicyStore store;
  const ResourceId res = store.RegisterResource(/*owner=*/0, "doc");
  (void)store.AddRuleFromPaths(res, {"friend[1,2]{age>=30}"}).ValueOrDie();
  (void)store.AddRuleFromPaths(res, {"friend-[1]/colleague[1]"}).ValueOrDie();
  const size_t base_nodes = g.NumNodes();
  AccessControlEngine engine(g, store, {.compact_threshold = 0});
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_EQ(&engine.AcquireReadView()->csr(), g.frozen_csr().get());
  const LabelId fr = g.labels().Lookup("friend");

  std::atomic<int> hook_calls{0};
  std::atomic<bool> hook_saw_thawed{false};
  std::atomic<bool> hook_write_ok{false};
  engine.SetCompactionBuildHookForTesting([&](const CsrSnapshot&) {
    if (hook_calls.fetch_add(1) > 0) return;  // the first build only
    hook_saw_thawed = !g.frozen();
    hook_write_ok = engine.AddEdge(1, 2, fr).ok();
  });

  std::atomic<bool> done{false};
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + t);
      EvalContext ctx;
      while (!done.load(std::memory_order_acquire)) {
        const NodeId req = static_cast<NodeId>(rng.NextBounded(base_nodes));
        auto view = engine.AcquireReadView();
        if (!view->CheckAccess({.requester = req, .resource = res}, ctx).ok() ||
            !engine.CheckAccess({.requester = req, .resource = res}).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::atomic<size_t> submitted{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      while (!done.load(std::memory_order_acquire)) {
        const NodeId s = static_cast<NodeId>(rng.NextBounded(base_nodes));
        const NodeId d = static_cast<NodeId>(rng.NextBounded(base_nodes));
        WriteTicket ticket = rng.NextBool(0.8) ? engine.SubmitAddEdge(s, d, fr)
                                               : engine.SubmitRemoveEdge(s, d, fr);
        const Status st = ticket.Wait().status;
        if (!st.ok() && st.code() != StatusCode::kNotFound) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (submitted.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(engine.Compact().ok());
  engine.WaitForCompaction();
  const size_t after_first = submitted.load(std::memory_order_relaxed);
  while (submitted.load(std::memory_order_relaxed) < after_first + 64) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_TRUE(hook_saw_thawed.load());
  EXPECT_TRUE(hook_write_ok.load());
  EXPECT_FALSE(g.frozen());
  // Fold what is left: the thawed caller graph then holds exactly the
  // served snapshot's edges.
  engine.FlushWrites();
  ASSERT_TRUE(engine.Compact().ok());
  engine.WaitForCompaction();
  EXPECT_GE(engine.full_compactions(), 1u);
  const auto view = engine.AcquireReadView();
  ASSERT_TRUE(view->overlay().empty());
  EXPECT_EQ(g.NumEdges(), view->csr().NumEdges());
  const CsrSnapshot rebuilt = CsrSnapshot::Build(g);
  for (NodeId v = 0; v < rebuilt.NumNodes(); ++v) {
    ASSERT_TRUE(std::ranges::equal(rebuilt.Out(v), view->csr().Out(v))) << v;
  }
}

// ---- Threshold scaling ------------------------------------------------------

TEST(CompactionThreshold, DefaultScalesWithEdgesAndOverrideWins) {
  // Small graph: the floor dominates.
  {
    EngineFixture f(MakeDiamond(), {"friend[1]"}, /*owner=*/0, {});
    EXPECT_EQ(f.engine->effective_compact_threshold(), 1024u);
  }
  // Large graph: |E|/16 dominates and tracks the snapshot.
  {
    auto gen = GenerateBarabasiAlbert(
        {.base = {.num_nodes = 9000, .seed = 3}, .edges_per_node = 3});
    ASSERT_TRUE(gen.ok());
    SocialGraph g = std::move(*gen);
    PolicyStore store;
    (void)store.RegisterResource(0, "doc");
    AccessControlEngine engine(g, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    const size_t edges = g.NumEdges();
    ASSERT_GT(edges / 16, 1024u);  // the sweep regime this test pins
    EXPECT_EQ(engine.effective_compact_threshold(), edges / 16);
  }
  // Explicit values — including 0 (off) — are used verbatim.
  {
    EngineFixture f(MakeDiamond(), {"friend[1]"}, /*owner=*/0,
                    {.compact_threshold = 7});
    EXPECT_EQ(f.engine->effective_compact_threshold(), 7u);
  }
  {
    EngineFixture f(MakeDiamond(), {"friend[1]"}, /*owner=*/0,
                    {.compact_threshold = 0});
    EXPECT_EQ(f.engine->effective_compact_threshold(), 0u);
  }
}

// ---- Reused scratch under a grown node space --------------------------------

TEST(CompactionNodeGrowth, ReusedScratchUnderGrownNodeSpace) {
  // Queries against a view whose logical node count grew (AddNode) walk
  // onto a staged node past the CSR: the deny walk visits it in the
  // second hop's state. They stay correct on one reused per-context
  // scratch, and each walk leaves its visited set empty.
  EngineFixture f(MakeDiamond(), {"colleague[1,2]"}, /*owner=*/0, {});
  auto id = f.engine->AddNode();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.engine->AddEdge(0, *id, "colleague").ok());
  auto view = f.engine->AcquireReadView();
  EvalContext ctx;
  for (int i = 0; i < 8; ++i) {
    auto yes = view->CheckAccess({.requester = *id, .resource = f.res}, ctx);
    auto no = view->CheckAccess({.requester = 1, .resource = f.res}, ctx);
    ASSERT_TRUE(yes.ok());
    ASSERT_TRUE(no.ok());
    EXPECT_TRUE(yes->granted) << i;
    EXPECT_FALSE(no->granted) << i;
    EXPECT_TRUE(ctx.scratch.visited().Empty()) << i;
  }
  // The set covers the staged node's slots.
  EXPECT_GT(ctx.scratch.visited().capacity(), size_t{*id});
}

// ---- The CSR in-side across compactions ------------------------------------

// When the rules walk the in-side, a compaction's CSR has it before the
// completion publishes: the worker derives it off-lock when a backward
// rule was there at the freeze (the hook sees it before the completion
// takes the writer lock), and the completion does when a refresh brought
// in the first one while the build ran.
TEST(CompactionInSide, BackwardRulesGetInSideBeforeCompletionPublishes) {
  const std::string backward = "friend-[1]/friend-[1]";
  for (const bool added_mid_build : {false, true}) {
    const std::vector<std::string> first_rule = {
        added_mid_build ? "colleague[1]" : backward};
    EngineFixture f(MakeDiamond(), first_rule, /*owner=*/0,
                    {.compact_threshold = 0});
    MirrorGraph mirror(f.g);
    const LabelId fr = f.g.labels().Lookup("friend");
    ASSERT_TRUE(f.engine->AddEdge(3, 0, fr).ok());  // 0 <-f- 3 <-f- 5
    mirror.Add(3, 0, fr);
    ASSERT_TRUE(f.engine->RemoveEdge(1, 2, fr).ok());  // cuts 0 <-f- 2 <-f- 1
    mirror.Remove(1, 2, fr);

    std::atomic<bool> release{!added_mid_build};
    std::atomic<int> built_with_in_side{-1};
    f.engine->SetCompactionBuildHookForTesting([&](const CsrSnapshot& csr) {
      built_with_in_side.store(csr.HasInSide() ? 1 : 0);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    const uint64_t gen = f.engine->snapshot_generation();
    ASSERT_TRUE(f.engine->Compact().ok());
    if (added_mid_build) {
      // The worker took its policy before the build the hook now holds.
      while (built_with_in_side.load() < 0) std::this_thread::yield();
      ASSERT_TRUE(f.store.AddRuleFromPaths(f.res, {backward}).ok());
      ASSERT_TRUE(f.engine->RefreshPolicies().ok());
      // The refresh published over the old CSR, and derived its in-side.
      auto during = f.engine->AcquireReadView();
      EXPECT_EQ(during->snapshot_generation(), gen);
      EXPECT_TRUE(during->csr().HasInSide());
      release.store(true, std::memory_order_release);
    }
    f.engine->WaitForCompaction();
    auto view = f.engine->AcquireReadView();
    ASSERT_EQ(view->snapshot_generation(), gen + 1);
    EXPECT_EQ(built_with_in_side.load(), added_mid_build ? 0 : 1);
    EXPECT_TRUE(view->csr().HasInSide()) << added_mid_build;

    std::vector<BoundPathExpression> exprs = {MustBind(f.g, backward)};
    if (added_mid_build) exprs.push_back(MustBind(f.g, "colleague[1]"));
    for (NodeId req = 0; req < 6; ++req) {
      bool expected = req == 0;
      for (const auto& expr : exprs) {
        expected = expected || mirror.Match(expr, 0, req);
      }
      EXPECT_EQ(f.Granted(req), expected)
          << "requester " << req << " mid-build " << added_mid_build;
    }
    EXPECT_TRUE(f.Granted(5));
    EXPECT_FALSE(f.Granted(1));
  }
}

}  // namespace
}  // namespace sargus
