#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/delta_overlay.h"
#include "query/bidirectional.h"
#include "query/closure_prefilter.h"
#include "query/faithful_join_evaluator.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::BruteForceMatch;
using testing_util::BuildStack;
using testing_util::MakeDiamond;
using testing_util::MustBind;
using testing_util::Stack;

/// The invariant this suite enforces (and every future optimization PR
/// must keep green): all evaluators return identical grant/deny for every
/// (expression, src, dst) triple, and match an independent brute force.
/// The engine serves only online BFS; the join index, bidirectional
/// search and the faithful join are library evaluators, held to the same
/// law here.
void CheckAgreement(const Stack& s, const std::vector<std::string>& exprs) {
  OnlineEvaluator bfs(s.g, s.csr);
  BidirectionalEvaluator bidi(s.g, s.csr);
  JoinIndexEvaluator join(s.g, s.lg, *s.cluster);
  FaithfulJoinEvaluator faithful(s.g, s.lg, *s.oracle, *s.cluster);
  FaithfulJoinOptions unanchored_opts;
  unanchored_opts.anchor_endpoints_early = false;
  FaithfulJoinEvaluator unanchored(s.g, s.lg, *s.oracle, *s.cluster,
                                   unanchored_opts);
  ClosurePrefilterEvaluator pref_dir(*s.closure_directed, bfs);
  ClosurePrefilterEvaluator pref_undir(*s.closure_undirected, join);

  const Evaluator* evaluators[] = {&bfs,        &bidi,     &join,
                                   &faithful,   &unanchored,
                                   &pref_dir,   &pref_undir};

  for (const std::string& text : exprs) {
    const BoundPathExpression expr = MustBind(s.g, text);
    for (NodeId src = 0; src < s.g.NumNodes(); ++src) {
      for (NodeId dst = 0; dst < s.g.NumNodes(); ++dst) {
        const ReachQuery q{src, dst, &expr, false};
        const bool expected = BruteForceMatch(s.g, s.csr, expr, src, dst);
        for (const Evaluator* eval : evaluators) {
          auto r = eval->Evaluate(q);
          ASSERT_TRUE(r.ok()) << eval->name() << ": "
                              << r.status().ToString();
          EXPECT_EQ(r->granted, expected)
              << eval->name() << " disagrees on '" << text << "' " << src
              << " -> " << dst;
        }
      }
    }
  }
}

TEST(EvaluatorAgreement, DiamondForwardExpressions) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  CheckAgreement(*s, {
                         "friend[1]",
                         "friend[1,2]",
                         "friend[2,3]",
                         "colleague[1]",
                         "friend[1,2]/colleague[1]",
                         "friend[1]/friend[1]/colleague[1]",
                         "friend[1]{age>=30}",
                         "friend[1,2]{age>=15}/colleague[1]{age>=40}",
                         "friend[1,3]/friend[1,2]",
                     });
}

TEST(EvaluatorAgreement, DiamondBackwardExpressions) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/true);
  ASSERT_NE(s, nullptr);
  CheckAgreement(*s, {
                         "friend-[1]",
                         "friend-[1,2]",
                         "colleague-[1]/friend-[1]",
                         "friend[1,2]/colleague[1]",
                         "friend[1]/colleague-[1]",
                         "colleague-[1]{age>=40}",
                     });
}

TEST(EvaluatorAgreement, SyntheticGraphsAllFamilies) {
  const std::vector<std::string> exprs = {
      "friend[1]",
      "friend[1,2]/colleague[1]",
      "friend[1,3]",
      "colleague[1]/friend[1,2]",
      "friend[1]{age>=40}/colleague[1,2]",
  };
  auto er = GenerateErdosRenyi(
      {.base = {.num_nodes = 24, .seed = 21}, .avg_out_degree = 2.0});
  auto ba = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 24, .seed = 22}, .edges_per_node = 2});
  auto ws = GenerateWattsStrogatz({.base = {.num_nodes = 24, .seed = 23},
                                   .neighbors_per_side = 2,
                                   .rewire_probability = 0.2});
  for (auto* g : {&er, &ba, &ws}) {
    ASSERT_TRUE(g->ok());
    auto s = BuildStack(std::move(**g), /*include_backward=*/false);
    ASSERT_NE(s, nullptr);
    CheckAgreement(*s, exprs);
  }
}

TEST(EvaluatorAgreement, SyntheticBackwardMix) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 20, .seed = 31}, .avg_out_degree = 2.0});
  ASSERT_TRUE(g.ok());
  auto s = BuildStack(std::move(*g), /*include_backward=*/true);
  ASSERT_NE(s, nullptr);
  CheckAgreement(*s, {
                         "friend-[1,2]",
                         "friend[1]/colleague-[1]",
                         "colleague-[1,2]/friend[1]",
                     });
}

TEST(EvaluatorAgreement, PrefilterDelegatesInvalidQueriesToInner) {
  // The prefilter must not convert invalid queries into silent denies;
  // the inner evaluator reports the proper error (regression).
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  OnlineEvaluator bfs(s->g, s->csr);
  ClosurePrefilterEvaluator pref(*s->closure_directed, bfs);
  const BoundPathExpression expr = MustBind(s->g, "friend[1]");
  // Out-of-range endpoint: error, not deny.
  auto r1 = pref.Evaluate(ReachQuery{0, 99, &expr, false});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // Null expression: error, not deny.
  auto r2 = pref.Evaluate(ReachQuery{0, 1, nullptr, false});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluatorAgreement, JoinRefusesBackwardWithoutBackwardLineGraph) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  JoinIndexEvaluator join(s->g, s->lg, *s->cluster);
  const BoundPathExpression expr = MustBind(s->g, "friend-[1]");
  auto r = join.Evaluate(ReachQuery{1, 0, &expr, false});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluatorAgreement, AdjacencyTupleCapBoundsLiveTuplesNotCumulativeWork) {
  // A friend chain: every per-hop frontier has exactly one live tuple,
  // but the odometer walks 5 sequences. A cap of 2 must therefore never
  // trip (regression: the cap was applied to cumulative tuples).
  SocialGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode();
  for (NodeId v = 0; v + 1 < 6; ++v) (void)g.AddEdge(v, v + 1, "friend");
  auto s = BuildStack(std::move(g), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  JoinIndexOptions opts;
  opts.max_intermediate_tuples = 2;
  JoinIndexEvaluator join(s->g, s->lg, *s->cluster, opts);
  const BoundPathExpression expr = MustBind(s->g, "friend[1,5]");
  auto r = join.Evaluate(ReachQuery{0, 5, &expr, false});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->granted);
  EXPECT_EQ(r->stats.line_queries, 5u);
}

/// Overlay extension of the agreement invariant: after a random
/// interleaving of staged additions and removals, every overlay-aware
/// evaluator must agree with a brute force over the *materialized*
/// logical graph (a mirror that actually applied each mutation and is
/// rebuilt from scratch — the semantics the overlay emulates lazily).
void CheckOverlayAgreement(const Stack& s, const DeltaOverlay& overlay,
                           const SocialGraph& mirror,
                           const std::vector<std::string>& exprs) {
  const CsrSnapshot mirror_csr = CsrSnapshot::Build(mirror);
  OnlineEvaluator bfs(s.g, s.csr, &overlay);
  BidirectionalEvaluator bidi(s.g, s.csr, &overlay);
  // Conservative prefilter: with pending insertions it must delegate
  // rather than fast-deny from the stale closure.
  ClosurePrefilterEvaluator pref(*s.closure_undirected, bfs, &overlay);
  const Evaluator* evaluators[] = {&bfs, &bidi, &pref};

  for (const std::string& text : exprs) {
    const BoundPathExpression expr = MustBind(s.g, text);
    for (NodeId src = 0; src < s.g.NumNodes(); ++src) {
      for (NodeId dst = 0; dst < s.g.NumNodes(); ++dst) {
        const ReachQuery q{src, dst, &expr, false};
        const bool expected =
            BruteForceMatch(mirror, mirror_csr, expr, src, dst);
        for (const Evaluator* eval : evaluators) {
          auto r = eval->Evaluate(q);
          ASSERT_TRUE(r.ok()) << eval->name() << ": "
                              << r.status().ToString();
          EXPECT_EQ(r->granted, expected)
              << eval->name() << " disagrees on '" << text << "' " << src
              << " -> " << dst << " with overlay (" << overlay.NumAdded()
              << " adds, " << overlay.NumRemoved() << " removes)";
        }
      }
    }
  }
}

TEST(EvaluatorAgreement, OverlayRandomizedMutationsAllFamilies) {
  const std::vector<std::string> exprs = {
      "friend[1]",
      "friend[1,2]/colleague[1]",
      "friend[1,3]",
      "colleague[1]/friend[1,2]",
      "friend[1]{age>=40}/colleague[1,2]",
  };
  for (uint64_t seed : {101u, 102u, 103u}) {
    auto gen = GenerateErdosRenyi(
        {.base = {.num_nodes = 18, .seed = seed}, .avg_out_degree = 2.0});
    ASSERT_TRUE(gen.ok());
    auto s = BuildStack(std::move(*gen), /*include_backward=*/false);
    ASSERT_NE(s, nullptr);

    SocialGraph mirror = s->g;  // the materialized logical graph
    DeltaOverlay overlay;
    const LabelId fr = s->g.labels().Lookup("friend");
    const LabelId co = s->g.labels().Lookup("colleague");
    ASSERT_NE(fr, kInvalidLabel);
    ASSERT_NE(co, kInvalidLabel);

    Rng rng(seed * 31);
    for (int op = 0; op < 40; ++op) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(s->g.NumNodes()));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(s->g.NumNodes()));
      const LabelId l = rng.NextBool(0.5) ? fr : co;
      if (rng.NextBool(0.5)) {
        // Stage a logical add (mimicking the engine's invariants: never
        // duplicate a visible base edge).
        if (s->g.FindEdge(a, b, l).has_value()) {
          overlay.UnstageRemove(a, b, l);
        } else {
          overlay.StageAdd(a, b, l);
        }
        (void)mirror.AddEdge(a, b, l);
      } else {
        // Stage a logical remove of whatever edge is visible.
        if (overlay.UnstageAdd(a, b, l)) {
          // withdrew a pending insertion
        } else if (s->g.FindEdge(a, b, l).has_value()) {
          overlay.StageRemove(a, b, l);
        }
        if (auto id = mirror.FindEdge(a, b, l)) (void)mirror.RemoveEdge(*id);
      }
    }
    ASSERT_FALSE(overlay.empty());
    CheckOverlayAgreement(*s, overlay, mirror, exprs);
  }
}

TEST(EvaluatorAgreement, OverlayBackwardStepsSeeMutations) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/true);
  ASSERT_NE(s, nullptr);
  SocialGraph mirror = s->g;
  DeltaOverlay overlay;
  const LabelId fr = s->g.labels().Lookup("friend");
  const LabelId co = s->g.labels().Lookup("colleague");
  // Mutations exercised through reversed steps: kill 5 -f-> 3, add
  // 3 -c-> 1 (reachable from 1 only via colleague-).
  overlay.StageRemove(5, 3, fr);
  (void)mirror.RemoveEdge(*mirror.FindEdge(5, 3, fr));
  overlay.StageAdd(3, 1, co);
  (void)mirror.AddEdge(3, 1, co);

  CheckOverlayAgreement(*s, overlay, mirror,
                        {
                            "friend-[1]",
                            "friend-[1,2]",
                            "colleague-[1]/friend-[1]",
                            "friend[1]/colleague-[1]",
                            "colleague-[1]{age>=40}",
                        });
}

TEST(EvaluatorAgreement, WitnessesAgreeOnValidity) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  const BoundPathExpression expr =
      MustBind(s->g, "friend[1,2]/colleague[1]");
  const ReachQuery q{0, 3, &expr, /*want_witness=*/true};

  OnlineEvaluator bfs(s->g, s->csr);
  BidirectionalEvaluator bidi(s->g, s->csr);
  JoinIndexEvaluator join(s->g, s->lg, *s->cluster);
  FaithfulJoinEvaluator faithful(s->g, s->lg, *s->oracle, *s->cluster);
  for (const Evaluator* eval :
       {static_cast<const Evaluator*>(&bfs),
        static_cast<const Evaluator*>(&bidi),
        static_cast<const Evaluator*>(&join),
        static_cast<const Evaluator*>(&faithful)}) {
    auto r = eval->Evaluate(q);
    ASSERT_TRUE(r.ok()) << eval->name();
    ASSERT_TRUE(r->granted) << eval->name();
    const auto& w = r->witness;
    ASSERT_GE(w.size(), 2u) << eval->name();
    EXPECT_EQ(w.front(), 0u) << eval->name();
    EXPECT_EQ(w.back(), 3u) << eval->name();
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      bool edge_exists = false;
      for (const auto& e : s->csr.Out(w[i])) {
        if (e.other == w[i + 1]) edge_exists = true;
      }
      EXPECT_TRUE(edge_exists)
          << eval->name() << ": no edge " << w[i] << "->" << w[i + 1];
    }
  }
}

}  // namespace
}  // namespace sargus
