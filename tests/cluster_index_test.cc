#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "index/base_tables.h"
#include "index/cluster_index.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::BuildStack;
using testing_util::MakeDiamond;

TEST(BaseTables, RowsPerLabel) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  const BaseTables tables = BaseTables::Build(s->lg);
  const LabelId friend_l = s->g.labels().Lookup("friend");
  const LabelId colleague_l = s->g.labels().Lookup("colleague");
  EXPECT_EQ(tables.Rows(friend_l).size(), 5u);
  EXPECT_EQ(tables.Rows(colleague_l).size(), 3u);
  EXPECT_TRUE(tables.Rows(kInvalidLabel).empty());
  // Rows are tail-sorted.
  const auto rows = tables.Rows(friend_l);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].tail, rows[i].tail);
  }
  // No backward tables when the line graph is forward-only.
  EXPECT_TRUE(tables.Rows(friend_l, /*backward=*/true).empty());
}

TEST(BaseTables, BackwardOrientationRows) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/true);
  ASSERT_NE(s, nullptr);
  const BaseTables tables = BaseTables::Build(s->lg);
  const LabelId friend_l = s->g.labels().Lookup("friend");
  EXPECT_EQ(tables.Rows(friend_l).size(), 5u);
  EXPECT_EQ(tables.Rows(friend_l, true).size(), 5u);
  // A backward row swaps the endpoints of its forward twin.
  const auto fwd = tables.Rows(friend_l);
  const auto bwd = tables.Rows(friend_l, true);
  for (const auto& row : bwd) {
    const auto& lv = s->lg.vertex(row.line);
    EXPECT_TRUE(lv.backward);
    EXPECT_EQ(row.tail, s->g.edge(lv.edge).dst);
    EXPECT_EQ(row.head, s->g.edge(lv.edge).src);
  }
  EXPECT_EQ(fwd.size(), bwd.size());
}

TEST(ClusterJoinIndex, ClustersMatchTailBuckets) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  const LabelId friend_l = s->g.labels().Lookup("friend");
  const LabelId colleague_l = s->g.labels().Lookup("colleague");

  // Node 0 has two outgoing friend edges.
  EXPECT_EQ(s->cluster->Cluster(friend_l, false, 0).size(), 2u);
  // Node 2 has one colleague edge (to 3) and one friend edge (to 0).
  EXPECT_EQ(s->cluster->Cluster(colleague_l, false, 2).size(), 1u);
  EXPECT_EQ(s->cluster->Cluster(friend_l, false, 2).size(), 1u);
  // Empty cluster for labels a node does not have.
  EXPECT_TRUE(s->cluster->Cluster(colleague_l, false, 0).empty());
  // Every member's (label, tail) matches the cluster key.
  for (NodeId v = 0; v < s->g.NumNodes(); ++v) {
    for (LineVertexId lv : s->cluster->Cluster(friend_l, false, v)) {
      EXPECT_EQ(s->lg.vertex(lv).label, friend_l);
      EXPECT_EQ(s->lg.vertex(lv).tail, v);
      EXPECT_FALSE(s->lg.vertex(lv).backward);
    }
  }
}

TEST(ClusterJoinIndex, CentersCountNonEmptyBuckets) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  // Forward buckets: friend@0(2), friend@1, friend@2, friend@5,
  // colleague@1, colleague@2, colleague@4 -> 7 centers.
  EXPECT_EQ(s->cluster->NumCenters(), 7u);
}

TEST(ClusterJoinIndex, LabelPairReachability) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/false);
  ASSERT_NE(s, nullptr);
  const LabelId friend_l = s->g.labels().Lookup("friend");
  const LabelId colleague_l = s->g.labels().Lookup("colleague");
  // friend (0->1) precedes colleague (2->3): reachable.
  EXPECT_TRUE(
      s->cluster->LabelPairReachable(friend_l, false, colleague_l, false));
  // colleague (2->3) precedes friend? 3 has no outgoing edges, but
  // colleague 1->5 flows into friend 5->3. Reachable.
  EXPECT_TRUE(
      s->cluster->LabelPairReachable(colleague_l, false, friend_l, false));
  // Out-of-range label ids are never reachable.
  EXPECT_FALSE(s->cluster->LabelPairReachable(LabelId{9}, false, friend_l,
                                              false));
}

TEST(ClusterJoinIndex, RejectsMismatchedCsr) {
  auto s = BuildStack(MakeDiamond(), /*include_backward=*/true);
  ASSERT_NE(s, nullptr);
  // One more edge: the edge count disagrees with the line graph.
  SocialGraph more_edges = MakeDiamond();
  ASSERT_TRUE(more_edges.AddEdge(3, 4, "friend").ok());
  // One more node: the node count disagrees.
  SocialGraph more_nodes = MakeDiamond();
  more_nodes.AddNode();
  for (const SocialGraph* g : {&more_edges, &more_nodes}) {
    auto bad = ClusterJoinIndex::Build(s->lg, CsrSnapshot::Build(*g));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

/// Checks every oriented-label pair (plus one label past the alphabet)
/// against brute force over the line-graph oracle: A precedes B iff some
/// A vertex reaches some B vertex. Returns the number of unreachable
/// pairs whose labels both have vertices, so callers can assert the
/// cases discriminate.
size_t ExpectLabelPairsMatchOracle(const testing_util::Stack& s) {
  size_t num_labels = 0;
  for (LineVertexId v = 0; v < s.lg.NumVertices(); ++v) {
    num_labels = std::max<size_t>(num_labels, s.lg.vertex(v).label + 1u);
  }
  std::vector<std::vector<LineVertexId>> by_label(2 * (num_labels + 1));
  for (LineVertexId v = 0; v < s.lg.NumVertices(); ++v) {
    const auto& lv = s.lg.vertex(v);
    by_label[2 * lv.label + (lv.backward ? 1 : 0)].push_back(v);
  }
  size_t unreachable = 0;
  for (size_t a = 0; a < by_label.size(); ++a) {
    for (size_t b = 0; b < by_label.size(); ++b) {
      bool expected = false;
      for (LineVertexId u : by_label[a]) {
        for (LineVertexId w : by_label[b]) {
          if (s.oracle->Reachable(u, w)) {
            expected = true;
            break;
          }
        }
        if (expected) break;
      }
      const bool got = s.cluster->LabelPairReachable(
          static_cast<LabelId>(a / 2), a % 2 == 1,
          static_cast<LabelId>(b / 2), b % 2 == 1);
      EXPECT_EQ(got, expected) << "oriented labels " << a << " -> " << b;
      if (!expected && !by_label[a].empty() && !by_label[b].empty()) {
        ++unreachable;
      }
    }
  }
  return unreachable;
}

TEST(ClusterJoinIndex, LabelPairsMatchLineOracleBruteForce) {
  const std::vector<std::string> labels = {"friend", "colleague", "family",
                                           "follows"};
  struct Case {
    std::string name;
    SocialGraph graph;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    // Dense and reciprocal, then sparse and one-way: the sparse graphs
    // leave many label pairs unreachable.
    for (const double reciprocity : {0.5, 0.0}) {
      const bool sparse = reciprocity == 0.0;
      const SocialGraphSpec base{.num_nodes = 48,
                                 .seed = seed,
                                 .labels = labels,
                                 .reciprocity = reciprocity};
      const std::string tag = std::string(sparse ? " sparse" : " dense") +
                              " seed " + std::to_string(seed);
      auto er = GenerateErdosRenyi(
          {.base = base, .avg_out_degree = sparse ? 0.8 : 2.5});
      auto ba = GenerateBarabasiAlbert(
          {.base = base, .edges_per_node = sparse ? 1u : 2u});
      auto ws = GenerateWattsStrogatz(
          {.base = base,
           .neighbors_per_side = sparse ? 1u : 2u,
           .rewire_probability = 0.2});
      ASSERT_TRUE(er.ok() && ba.ok() && ws.ok());
      cases.push_back({"ER" + tag, std::move(*er)});
      cases.push_back({"BA" + tag, std::move(*ba)});
      cases.push_back({"WS" + tag, std::move(*ws)});
    }
  }
  {
    // Self-loops, 2-cycles and a one-way tail, labels mixed on each.
    SocialGraph g;
    for (int i = 0; i < 7; ++i) g.AddNode();
    ASSERT_TRUE(g.AddEdge(0, 0, "friend").ok());
    ASSERT_TRUE(g.AddEdge(0, 1, "colleague").ok());
    ASSERT_TRUE(g.AddEdge(1, 2, "friend").ok());
    ASSERT_TRUE(g.AddEdge(2, 1, "family").ok());
    ASSERT_TRUE(g.AddEdge(3, 3, "family").ok());
    ASSERT_TRUE(g.AddEdge(4, 5, "colleague").ok());
    ASSERT_TRUE(g.AddEdge(5, 4, "colleague").ok());
    ASSERT_TRUE(g.AddEdge(5, 6, "follows").ok());
    cases.push_back({"self-loops and 2-cycles", std::move(g)});
  }
  {
    SocialGraph g;
    for (int i = 0; i < 4; ++i) g.AddNode();
    cases.push_back({"no edges", std::move(g)});
  }
  cases.push_back({"no nodes", SocialGraph()});

  size_t unreachable = 0;
  for (const Case& c : cases) {
    for (const bool backward : {false, true}) {
      SCOPED_TRACE(c.name + (backward ? " with backward" : " forward"));
      auto s = BuildStack(c.graph, backward);
      ASSERT_NE(s, nullptr);
      unreachable += ExpectLabelPairsMatchOracle(*s);
      // Label ids past the alphabet: false, however the pair is asked.
      EXPECT_FALSE(s->cluster->LabelPairReachable(LabelId{9}, false,
                                                  LabelId{9}, false));
    }
  }
  // Some pairs of labels that have edges must be unreachable, or the
  // comparison would not discriminate.
  EXPECT_GT(unreachable, 0u);
}

}  // namespace
}  // namespace sargus
