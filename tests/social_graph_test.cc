#include <gtest/gtest.h>

#include "graph/social_graph.h"

namespace sargus {
namespace {

TEST(SocialGraph, AddNodesAndEdges) {
  SocialGraph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  const NodeId a = g.AddNode();
  const NodeId b = g.AddNode();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(g.NumNodes(), 2u);

  auto e = g.AddEdge(a, b, "friend");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.IsLiveEdge(*e));
  EXPECT_EQ(g.edge(*e).src, a);
  EXPECT_EQ(g.edge(*e).dst, b);
  EXPECT_EQ(g.labels().ToString(g.edge(*e).label), "friend");
}

TEST(SocialGraph, DuplicateEdgesCoalesce) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  auto e1 = g.AddEdge(0, 1, "friend");
  auto e2 = g.AddEdge(0, 1, "friend");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*e1, *e2);
  EXPECT_EQ(g.NumEdges(), 1u);
  // Different label: a genuinely new parallel edge.
  auto e3 = g.AddEdge(0, 1, "colleague");
  ASSERT_TRUE(e3.ok());
  EXPECT_NE(*e1, *e3);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(SocialGraph, AddEdgeValidation) {
  SocialGraph g;
  g.AddNode();
  auto bad = g.AddEdge(0, 5, "friend");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto bad_label = g.AddEdge(0, 0, LabelId{3});
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), StatusCode::kInvalidArgument);
}

TEST(SocialGraph, RemoveEdgeTombstones) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  const EdgeId e = *g.AddEdge(0, 1, "friend");
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  EXPECT_FALSE(g.IsLiveEdge(e));
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.EdgeSlotCount(), 1u);  // slot survives
  // Double remove fails.
  EXPECT_EQ(g.RemoveEdge(e).code(), StatusCode::kNotFound);
  // Re-adding gets a fresh slot.
  const EdgeId e2 = *g.AddEdge(0, 1, "friend");
  EXPECT_NE(e, e2);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(SocialGraph, Attributes) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  ASSERT_TRUE(g.SetAttribute(0, "age", 25).ok());
  EXPECT_EQ(g.GetAttribute(0, "age"), std::optional<int64_t>(25));
  EXPECT_EQ(g.GetAttribute(1, "age"), std::nullopt);   // unset
  EXPECT_EQ(g.GetAttribute(0, "height"), std::nullopt);  // unknown attr
  // Overwrite.
  ASSERT_TRUE(g.SetAttribute(0, "age", 26).ok());
  EXPECT_EQ(g.GetAttribute(0, "age"), std::optional<int64_t>(26));
  // Out of range node.
  EXPECT_EQ(g.SetAttribute(9, "age", 1).code(), StatusCode::kInvalidArgument);
  // Attribute added after nodes exist works for later nodes too.
  const NodeId c = g.AddNode();
  EXPECT_EQ(g.GetAttribute(c, "age"), std::nullopt);
  ASSERT_TRUE(g.SetAttribute(c, "age", 99).ok());
  EXPECT_EQ(g.GetAttribute(c, "age"), std::optional<int64_t>(99));
}

TEST(NameDictionary, CapsAtSentinelBoundary) {
  NameDictionary d;
  // append, not "n" + ...: GCC 12's -Wrestrict misfires on that form.
  for (int i = 0; i < 0xFFFF; ++i) {
    d.Intern(std::string("n").append(std::to_string(i)));
  }
  EXPECT_EQ(d.size(), 0xFFFFu);
  // The sentinel id is never minted; overflow interns fail loudly.
  EXPECT_EQ(d.Intern("overflow"), uint16_t{0xFFFF});
  EXPECT_EQ(d.size(), 0xFFFFu);
  EXPECT_EQ(d.Lookup("overflow"), uint16_t{0xFFFF});
  EXPECT_EQ(d.Lookup("n0"), 0u);  // existing ids intact
}

TEST(NameDictionary, InternLookupRoundTrip) {
  NameDictionary d;
  const uint16_t f = d.Intern("friend");
  const uint16_t c = d.Intern("colleague");
  EXPECT_NE(f, c);
  EXPECT_EQ(d.Intern("friend"), f);  // idempotent
  EXPECT_EQ(d.Lookup("friend"), f);
  EXPECT_EQ(d.Lookup("nope"), uint16_t{0xFFFF});
  EXPECT_EQ(d.ToString(c), "colleague");
  EXPECT_EQ(d.size(), 2u);
}

}  // namespace
}  // namespace sargus
