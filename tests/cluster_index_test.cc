#include <gtest/gtest.h>

#include "index/base_tables.h"
#include "index/cluster_index.h"
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

TEST(ClusterJoinIndex, RejectsMismatchedOracle) {
  auto s1 = BuildStack(MakeDiamond(), false);
  auto s2 = BuildStack(MakeDiamond(), true);  // different vertex count
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  auto bad = ClusterJoinIndex::Build(s2->lg, *s1->oracle);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sargus
