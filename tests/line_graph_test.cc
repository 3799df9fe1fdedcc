#include <gtest/gtest.h>

#include "graph/line_graph.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

TEST(LineGraph, ForwardOnlyVertices) {
  SocialGraph g = testing_util::MakeDiamond();  // 8 edges
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  EXPECT_EQ(lg.NumVertices(), g.NumEdges());
  EXPECT_FALSE(lg.includes_backward());
  EXPECT_EQ(lg.NumGraphNodes(), g.NumNodes());
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const auto& lv = lg.vertex(v);
    EXPECT_FALSE(lv.backward);
    EXPECT_TRUE(g.FindEdge(lv.tail, lv.head, lv.label).has_value());
  }
}

TEST(LineGraph, BackwardDoublesVertices) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr, {.include_backward = true});
  EXPECT_EQ(lg.NumVertices(), 2 * g.NumEdges());
  EXPECT_TRUE(lg.includes_backward());
  size_t backward = 0;
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const auto& lv = lg.vertex(v);
    if (lv.backward) {
      ++backward;
      EXPECT_TRUE(g.FindEdge(lv.head, lv.tail, lv.label).has_value());
    }
  }
  EXPECT_EQ(backward, g.NumEdges());
}

TEST(LineGraph, ArcCountMatchesInOutProducts) {
  // Path a -> b -> c plus b -> d: line vertices (ab),(bc),(bd).
  // Arcs: (ab)->(bc), (ab)->(bd). Sum over nodes of in*out = 1*2 = 2.
  SocialGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 2, "friend");
  (void)g.AddEdge(1, 3, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  EXPECT_EQ(lg.NumVertices(), 3u);
  EXPECT_EQ(lg.NumArcs(), 2u);
}

TEST(LineGraph, TailHeadBuckets) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  // Node 0 has two outgoing edges -> two line vertices with tail 0.
  EXPECT_EQ(lg.VerticesWithTail(0).size(), 2u);
  // Node 3 has three incoming edges -> three with head 3.
  EXPECT_EQ(lg.VerticesWithHead(3).size(), 3u);
  // Successor relation: arcs out of a line vertex are exactly the
  // vertices whose tail is its head.
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    for (LineVertexId w : lg.VerticesWithTail(lg.vertex(v).head)) {
      EXPECT_EQ(lg.vertex(v).head, lg.vertex(w).tail);
    }
  }
}

}  // namespace
}  // namespace sargus
