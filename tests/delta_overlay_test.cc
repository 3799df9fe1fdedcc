#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/access_engine.h"
#include "graph/delta_overlay.h"
#include "query/audience.h"
#include "query/closure_prefilter.h"
#include "query/online_evaluator.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::MakeDiamond;
using testing_util::MirrorGraph;
using testing_util::MustBind;

// ---- DeltaOverlay unit ------------------------------------------------------

TEST(DeltaOverlay, StagingSemanticsAndVersion) {
  DeltaOverlay ov;
  EXPECT_TRUE(ov.empty());
  EXPECT_EQ(ov.version(), 0u);

  EXPECT_TRUE(ov.StageAdd(1, 2, 0));
  EXPECT_FALSE(ov.StageAdd(1, 2, 0));  // idempotent
  EXPECT_TRUE(ov.IsStagedAdd(1, 2, 0));
  EXPECT_TRUE(ov.has_insertions());
  EXPECT_FALSE(ov.has_deletions());
  EXPECT_EQ(ov.version(), 1u);

  EXPECT_TRUE(ov.StageRemove(3, 4, 1));
  EXPECT_TRUE(ov.IsRemoved(3, 4, 1));
  EXPECT_FALSE(ov.IsRemoved(4, 3, 1));  // orientation matters
  EXPECT_TRUE(ov.has_deletions());
  EXPECT_EQ(ov.size(), 2u);
  EXPECT_EQ(ov.version(), 2u);

  // Adjacency views in both orientations.
  auto out = ov.AddedOut(1, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 2u);
  auto in = ov.AddedIn(2, 0);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], 1u);
  EXPECT_TRUE(ov.AddedOut(2, 0).empty());
  EXPECT_TRUE(ov.AddedOut(1, 1).empty());  // wrong label

  // Unstaging erases both orientations.
  EXPECT_TRUE(ov.UnstageAdd(1, 2, 0));
  EXPECT_FALSE(ov.UnstageAdd(1, 2, 0));
  EXPECT_TRUE(ov.AddedOut(1, 0).empty());
  EXPECT_TRUE(ov.AddedIn(2, 0).empty());
  EXPECT_TRUE(ov.UnstageRemove(3, 4, 1));
  EXPECT_TRUE(ov.empty());

  const uint64_t v = ov.version();
  ov.Clear();  // already empty: no version bump
  EXPECT_EQ(ov.version(), v);
  ov.StageAdd(5, 6, 0);
  ov.Clear();
  EXPECT_TRUE(ov.empty());
  EXPECT_GT(ov.version(), v + 1);
}

TEST(DeltaOverlay, ForEachNeighborEdgeMergesBaseAndDelta) {
  SocialGraph g = MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const LabelId fr = g.labels().Lookup("friend");
  ASSERT_NE(fr, kInvalidLabel);

  DeltaOverlay ov;
  ov.StageRemove(0, 1, fr);  // base edge 0 -f-> 1 masked
  ov.StageAdd(0, 3, fr);     // new edge 0 -f-> 3

  auto collect = [&](NodeId node, bool backward) {
    std::vector<NodeId> got;
    ForEachNeighborEdge(csr, &ov, node, fr, backward, [&](NodeId w) {
      got.push_back(w);
      return false;
    });
    std::sort(got.begin(), got.end());
    return got;
  };

  // Forward from 0: base {1, 4} minus removed {1} plus added {3}.
  EXPECT_EQ(collect(0, false), (std::vector<NodeId>{3, 4}));
  // Backward into 1: base {0} fully masked.
  EXPECT_EQ(collect(1, true), (std::vector<NodeId>{}));
  // Backward into 3: base friend-in {5} plus added {0}.
  EXPECT_EQ(collect(3, true), (std::vector<NodeId>{0, 5}));
  // Early stop is honored.
  int seen = 0;
  EXPECT_TRUE(ForEachNeighborEdge(csr, &ov, 0, fr, false, [&](NodeId) {
    ++seen;
    return true;
  }));
  EXPECT_EQ(seen, 1);
}

TEST(DeltaOverlay, SinceMatchesLogicalDifference) {
  using Triple = std::tuple<NodeId, NodeId, LabelId>;
  using TripleSet = std::set<Triple>;
  // base ⊕ overlay: base minus the removes, plus the adds.
  auto apply = [](TripleSet base, const DeltaOverlay& ov) {
    ov.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
      base.erase({t.src, t.dst, t.label});
    });
    ov.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
      base.insert({t.src, t.dst, t.label});
    });
    return base;
  };
  auto triples = [](const DeltaOverlay& ov, bool added) {
    std::vector<Triple> out;
    auto push = [&](const DeltaOverlay::EdgeTriple& t) {
      out.emplace_back(t.src, t.dst, t.label);
    };
    if (added) {
      ov.ForEachAdded(push);
    } else {
      ov.ForEachRemoved(push);
    }
    std::sort(out.begin(), out.end());  // deterministic picks
    return out;
  };

  size_t withdrawn = 0;
  size_t restored = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    constexpr NodeId kBaseNodes = 12;
    TripleSet base;
    for (int i = 0; i < 40; ++i) {
      base.insert({static_cast<NodeId>(rng.NextBounded(kBaseNodes)),
                   static_cast<NodeId>(rng.NextBounded(kBaseNodes)),
                   static_cast<LabelId>(rng.NextBounded(2))});
    }

    // Staging by the engine's rules: an add of a base triple withdraws
    // its remove, a remove of a staged add withdraws the add, and only
    // base triples are ever staged as removed.
    DeltaOverlay live;
    auto stage_add = [&](const Triple& t) {
      const auto [s, d, l] = t;
      if (base.contains(t)) {
        return live.UnstageRemove(s, d, l);
      }
      return live.StageAdd(s, d, l);
    };
    auto stage_remove = [&](const Triple& t) {
      const auto [s, d, l] = t;
      if (live.UnstageAdd(s, d, l)) return true;
      return base.contains(t) && live.StageRemove(s, d, l);
    };
    auto random_op = [&] {
      const NodeId n = kBaseNodes + live.num_staged_nodes();
      const Triple t{static_cast<NodeId>(rng.NextBounded(n)),
                     static_cast<NodeId>(rng.NextBounded(n)),
                     static_cast<LabelId>(rng.NextBounded(2))};
      const uint64_t kind = rng.NextBounded(8);
      if (kind == 0) {
        (void)live.StageNode();
      } else if (kind < 5) {
        (void)stage_add(t);
      } else {
        (void)stage_remove(t);
      }
    };

    for (int i = 0; i < 30; ++i) random_op();
    const DeltaOverlay frozen = live;

    // Later staging: random ops, plus withdrawing frozen adds, restoring
    // frozen removes and edges on nodes staged after the freeze.
    const std::vector<Triple> frozen_adds = triples(frozen, true);
    const std::vector<Triple> frozen_removes = triples(frozen, false);
    for (int i = 0; i < 30; ++i) {
      const uint64_t kind = rng.NextBounded(4);
      if (kind == 0 && !frozen_adds.empty()) {
        if (stage_remove(frozen_adds[rng.NextBounded(frozen_adds.size())])) {
          ++withdrawn;
        }
      } else if (kind == 1 && !frozen_removes.empty()) {
        if (stage_add(frozen_removes[rng.NextBounded(frozen_removes.size())])) {
          ++restored;
        }
      } else if (kind == 2) {
        const NodeId fresh = kBaseNodes + live.StageNode();
        (void)stage_add({static_cast<NodeId>(rng.NextBounded(kBaseNodes)),
                         fresh, 0});
      } else {
        random_op();
      }
    }

    const DeltaOverlay since = live.Since(frozen);
    const TripleSet folded = apply(base, frozen);
    EXPECT_EQ(apply(folded, since), apply(base, live)) << "seed " << seed;
    for (const Triple& t : triples(since, true)) {
      const auto [s, d, l] = t;
      EXPECT_FALSE(folded.contains(t)) << "seed " << seed;
      const auto out = since.AddedOut(s, l);
      EXPECT_NE(std::find(out.begin(), out.end(), d), out.end());
      const auto in = since.AddedIn(d, l);
      EXPECT_NE(std::find(in.begin(), in.end(), s), in.end());
    }
    for (const Triple& t : triples(since, false)) {
      EXPECT_TRUE(folded.contains(t)) << "seed " << seed;
    }
    EXPECT_EQ(since.num_staged_nodes(),
              live.num_staged_nodes() - frozen.num_staged_nodes());
    EXPECT_EQ(since.version(), live.version());
  }
  // The seeds reach both rebasing cases, not just carried-over triples.
  EXPECT_GT(withdrawn, 0u);
  EXPECT_GT(restored, 0u);
}

// ---- Engine mutations -------------------------------------------------------

struct EngineFixture {
  SocialGraph g;
  PolicyStore store;
  ResourceId res = 0;
  std::unique_ptr<AccessControlEngine> engine;

  EngineFixture(SocialGraph graph, const std::vector<std::string>& rule_paths,
                NodeId owner, EngineOptions options)
      : g(std::move(graph)) {
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

TEST(EngineOverlay, MutationsVisibleWithoutRebuild) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0, {});
  // Node 0 has no colleague out-edge in the diamond.
  EXPECT_FALSE(f.Granted(5));
  const uint64_t gen = f.engine->snapshot_generation();

  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  EXPECT_TRUE(f.Granted(5));  // visible to the very next query

  ASSERT_TRUE(f.engine->RemoveEdge(0, 5, "colleague").ok());
  EXPECT_FALSE(f.Granted(5));

  // Pure overlay traffic: no rebuild happened.
  EXPECT_EQ(f.engine->snapshot_generation(), gen);
  EXPECT_GE(f.engine->overlay_version(), 2u);
}

TEST(EngineOverlay, RemoveMasksBaseEdgeAndAddRestoresIt) {
  EngineFixture f(MakeDiamond(), {"friend[1,2]/colleague[1]"}, /*owner=*/0, {});
  // 0 -f-> 4 -c-> 3 grants requester 3.
  EXPECT_TRUE(f.Granted(3));
  // Mask both disjunct paths' colleague hops: 4-c->3 and 2-c->3.
  ASSERT_TRUE(f.engine->RemoveEdge(4, 3, "colleague").ok());
  ASSERT_TRUE(f.engine->RemoveEdge(2, 3, "colleague").ok());
  EXPECT_FALSE(f.Granted(3));
  // Re-adding a masked base edge unstages the removal.
  ASSERT_TRUE(f.engine->AddEdge(4, 3, "colleague").ok());
  EXPECT_TRUE(f.Granted(3));
  // Removing a non-existent logical edge is kNotFound.
  auto st = f.engine->RemoveEdge(0, 3, "colleague");
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(EngineOverlay, MutationRequiresMutableGraphAndBuiltIndexes) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  (void)store.RegisterResource(0, "doc");
  const SocialGraph& const_g = g;
  AccessControlEngine const_engine(const_g, store);
  ASSERT_TRUE(const_engine.RebuildIndexes().ok());
  EXPECT_EQ(const_engine.AddEdge(0, 5, "friend").code(),
            StatusCode::kFailedPrecondition);

  AccessControlEngine unbuilt(g, store);
  EXPECT_EQ(unbuilt.AddEdge(0, 5, "friend").code(),
            StatusCode::kFailedPrecondition);

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  EXPECT_EQ(engine.AddEdge(0, 99, "friend").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RemoveEdge(0, 1, "no-such-label").code(),
            StatusCode::kNotFound);
}

TEST(EngineOverlay, CompactFoldsOverlayIntoGraphAndRebuilds) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0, {});
  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  ASSERT_TRUE(f.engine->RemoveEdge(0, 1, "friend").ok());
  const uint64_t gen = f.engine->snapshot_generation();
  EXPECT_TRUE(f.Granted(5));

  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();  // background by default; drain for asserts
  EXPECT_TRUE(f.engine->overlay().empty());
  EXPECT_EQ(f.engine->snapshot_generation(), gen + 1);
  // Folded into the system of record.
  const LabelId co = f.g.labels().Lookup("colleague");
  const LabelId fr = f.g.labels().Lookup("friend");
  EXPECT_TRUE(f.g.FindEdge(0, 5, co).has_value());
  EXPECT_FALSE(f.g.FindEdge(0, 1, fr).has_value());
  // Same logical graph, same decision.
  EXPECT_TRUE(f.Granted(5));
  // Idempotent on an empty overlay.
  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();
  EXPECT_EQ(f.engine->snapshot_generation(), gen + 1);
}

TEST(EngineOverlay, AutoCompactionAtThreshold) {
  EngineFixture f(MakeDiamond(), {"colleague[1]"}, /*owner=*/0,
                  {.compact_threshold = 3});
  const uint64_t gen = f.engine->snapshot_generation();
  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  ASSERT_TRUE(f.engine->AddEdge(1, 4, "colleague").ok());
  EXPECT_EQ(f.engine->snapshot_generation(), gen);
  EXPECT_EQ(f.engine->overlay().size(), 2u);
  // Third staged mutation trips the threshold (and, by default, kicks
  // the background pipeline — drain it before asserting folded state).
  ASSERT_TRUE(f.engine->AddEdge(2, 5, "colleague").ok());
  f.engine->WaitForCompaction();
  EXPECT_EQ(f.engine->snapshot_generation(), gen + 1);
  EXPECT_TRUE(f.engine->overlay().empty());
  const LabelId co = f.g.labels().Lookup("colleague");
  EXPECT_TRUE(f.g.FindEdge(2, 5, co).has_value());
  EXPECT_TRUE(f.Granted(5));
}

// The closure prefilter is a library evaluator (the engine serves online
// BFS alone), so its overlay conservatism is checked by wrapping an
// overlay-aware OnlineEvaluator directly, as a view would.

/// Two components, 0 -f-> 1 and 2 -f-> 3, with a snapshot CSR and the
/// undirected closure the prefilter needs for soundness.
struct PrefilterFixture {
  SocialGraph g;
  CsrSnapshot csr;
  TransitiveClosure closure;
  BoundPathExpression expr;
  DeltaOverlay overlay;

  PrefilterFixture() {
    for (int i = 0; i < 4; ++i) g.AddNode();
    (void)g.AddEdge(0, 1, "friend");
    (void)g.AddEdge(2, 3, "friend");
    Rebuild();
    expr = MustBind(g, "friend[1,3]");
  }

  /// What a compaction does: fold the overlay, rebuild both indexes.
  void Rebuild() {
    csr = CsrSnapshot::Build(g);
    closure = TransitiveClosure::Build(csr, /*as_undirected=*/true);
  }

  Evaluation Check(NodeId requester) {
    OnlineEvaluator online(g, csr, &overlay);
    ClosurePrefilterEvaluator prefiltered(closure, online, &overlay, &g);
    auto r = prefiltered.Evaluate(ReachQuery{0, requester, &expr, false});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : Evaluation{};
  }
};

TEST(EngineOverlay, ClosurePrefilterSuspendedByPendingInsertions) {
  PrefilterFixture f;
  // Disconnected: the closure fast-denies.
  const Evaluation denied = f.Check(3);
  EXPECT_FALSE(denied.granted);
  EXPECT_GE(denied.stats.prefilter_rejections, 1u);

  // A pending insertion bridges the components. The stale closure still
  // says "unreachable" — the prefilter must stand down, not fast-deny.
  const LabelId fr = f.g.labels().Lookup("friend");
  ASSERT_TRUE(f.overlay.StageAdd(1, 2, fr));
  const Evaluation granted = f.Check(3);
  EXPECT_TRUE(granted.granted);  // 0 -f-> 1 -f-> 2 -f-> 3
  EXPECT_EQ(granted.stats.prefilter_rejections, 0u);

  // After the fold the closure covers the bridge; still granted.
  ASSERT_TRUE(f.g.AddEdge(1, 2, fr).ok());
  f.overlay.Clear();
  f.Rebuild();
  EXPECT_TRUE(f.Check(3).granted);
}

TEST(EngineOverlay, ClosurePrefilterStaysActiveUnderPureDeletions) {
  // Deletions cannot create paths, so the snapshot closure remains a
  // sound over-approximation.
  PrefilterFixture f;
  ASSERT_TRUE(f.overlay.StageRemove(2, 3, f.g.labels().Lookup("friend")));
  ASSERT_TRUE(f.overlay.has_deletions());
  const Evaluation denied = f.Check(3);
  EXPECT_FALSE(denied.granted);
  // The fast-deny path still fires (deny pruning stays valid).
  EXPECT_GE(denied.stats.prefilter_rejections, 1u);
}

// ---- Randomized interleaved mutations vs rebuild-from-scratch oracle --------

// The oracle is testing_util::MirrorGraph: the logical graph materialized
// as a plain SocialGraph, rebuilt into a fresh CSR per check.

TEST(EngineOverlay, RandomizedInterleavedMutationsAgreeWithOracle) {
  auto gen = GenerateErdosRenyi(
      {.base = {.num_nodes = 16, .seed = 77}, .avg_out_degree = 2.0});
  ASSERT_TRUE(gen.ok());
  SocialGraph g = std::move(*gen);

  PolicyStore store;
  struct Res {
    ResourceId id;
    NodeId owner;
  };
  std::vector<Res> resources;
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,2]"},
      {"friend[1]/colleague[1]"},
      {"colleague[1,2]/friend[1]"},
      {"friend[1,3]"},
  };
  for (NodeId owner = 0; owner < 4; ++owner) {
    ResourceId id = store.RegisterResource(owner, "doc" +
                                                      std::to_string(owner));
    (void)store.AddRuleFromPaths(id, rule_sets[owner]).ValueOrDie();
    resources.push_back({id, owner});
  }

  AccessControlEngine engine(g, store, {.compact_threshold = 16});
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  MirrorGraph oracle(g);
  // Bound once against the engine graph; label/attr ids are shared with
  // the mirror (it is a copy) and survive compaction (dictionaries only
  // grow).
  std::vector<std::vector<BoundPathExpression>> bound(resources.size());
  for (size_t i = 0; i < resources.size(); ++i) {
    for (const std::string& text : rule_sets[i]) {
      bound[i].push_back(MustBind(g, text));
    }
  }
  const LabelId fr = g.labels().Lookup("friend");
  const LabelId co = g.labels().Lookup("colleague");
  ASSERT_NE(fr, kInvalidLabel);
  ASSERT_NE(co, kInvalidLabel);

  auto check_all = [&](const char* when) {
    for (size_t i = 0; i < resources.size(); ++i) {
      for (NodeId req = 0; req < g.NumNodes(); ++req) {
        auto r = engine.CheckAccess({.requester = req, .resource = resources[i].id});
        ASSERT_TRUE(r.ok()) << when << ": " << r.status().ToString();
        bool expected = resources[i].owner == req;
        for (const auto& expr : bound[i]) {
          if (expected) break;
          expected = oracle.Match(expr, resources[i].owner, req);
        }
        ASSERT_EQ(r->granted, expected)
            << when << ": resource " << i << " requester " << req
            << " overlay=" << engine.overlay().size()
            << " gen=" << engine.snapshot_generation();
      }
    }
  };

  Rng rng(4242);
  const size_t kOps = 300;
  for (size_t op = 0; op < kOps; ++op) {
    const uint64_t kind = rng.NextBounded(10);
    if (kind < 4) {  // add a random edge
      const NodeId s = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const NodeId d = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      const LabelId l = rng.NextBool(0.5) ? fr : co;
      ASSERT_TRUE(engine.AddEdge(s, d, l).ok());
      oracle.Add(s, d, l);
    } else if (kind < 7) {  // remove a random live logical edge
      auto e = oracle.RandomLiveEdge(rng);
      if (!e.has_value()) continue;
      ASSERT_TRUE(engine.RemoveEdge(e->src, e->dst, e->label).ok());
      oracle.Remove(e->src, e->dst, e->label);
    } else {  // spot-check a random decision
      const size_t i = rng.NextBounded(resources.size());
      const NodeId req = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      auto r = engine.CheckAccess({.requester = req, .resource = resources[i].id});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      bool expected = resources[i].owner == req;
      for (const auto& expr : bound[i]) {
        if (expected) break;
        expected = oracle.Match(expr, resources[i].owner, req);
      }
      ASSERT_EQ(r->granted, expected)
          << "op " << op << " resource " << i << " requester " << req
          << " overlay=" << engine.overlay().size();
    }
    // Mid-sequence: queries straddling a forced compaction, reusing this
    // thread's pooled scratch on both sides.
    if (op == kOps / 2) {
      check_all("before forced Compact");
      ASSERT_TRUE(engine.Compact().ok());
      engine.WaitForCompaction();
      EXPECT_TRUE(engine.overlay().empty());
      check_all("after forced Compact");
    }
  }
  // Auto-compaction must have fired at least once at threshold 16.
  engine.WaitForCompaction();
  EXPECT_GT(engine.snapshot_generation(), 2u);
  check_all("final");
}

TEST(EngineOverlay, AudienceCollectionSeesOverlay) {
  SocialGraph g = MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const BoundPathExpression expr = MustBind(g, "friend[1,2]");
  const LabelId fr = g.labels().Lookup("friend");

  DeltaOverlay ov;
  ov.StageAdd(4, 5, fr);     // extends the friend ball of 0
  ov.StageRemove(0, 1, fr);  // cuts the 0 -> 1 -> 2 branch

  MirrorGraph oracle(g);
  oracle.Add(4, 5, fr);
  oracle.Remove(0, 1, fr);

  std::vector<NodeId> expected;
  for (NodeId dst = 0; dst < g.NumNodes(); ++dst) {
    if (oracle.Match(expr, 0, dst)) expected.push_back(dst);
  }
  EXPECT_EQ(CollectMatchingAudience(g, csr, expr, 0, nullptr, &ov), expected);
  // Sanity: the overlay actually changed the audience.
  EXPECT_NE(CollectMatchingAudience(g, csr, expr, 0), expected);
}

}  // namespace
}  // namespace sargus
