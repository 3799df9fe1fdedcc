#include <gtest/gtest.h>

#include "index/transitive_closure.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

TEST(TransitiveClosure, DirectedChain) {
  SocialGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 2, "friend");
  (void)g.AddEdge(2, 3, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  TransitiveClosure tc = TransitiveClosure::Build(csr, false);
  EXPECT_EQ(tc.NumComponents(), 4u);
  EXPECT_TRUE(tc.Reachable(0, 3));
  EXPECT_TRUE(tc.Reachable(1, 2));
  EXPECT_FALSE(tc.Reachable(3, 0));
  EXPECT_TRUE(tc.Reachable(2, 2));  // self
  // Pairs: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3) = 6.
  EXPECT_EQ(tc.NumReachablePairs(), 6u);
  EXPECT_FALSE(tc.is_undirected());
}

TEST(TransitiveClosure, CycleCompresses) {
  SocialGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 0, "friend");
  (void)g.AddEdge(1, 2, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  TransitiveClosure tc = TransitiveClosure::Build(csr, false);
  EXPECT_EQ(tc.NumComponents(), 2u);
  EXPECT_TRUE(tc.Reachable(0, 1));
  EXPECT_TRUE(tc.Reachable(1, 0));
  EXPECT_TRUE(tc.Reachable(0, 2));
  EXPECT_FALSE(tc.Reachable(2, 0));
  // (0,1)(1,0)(0,2)(1,2) = 4.
  EXPECT_EQ(tc.NumReachablePairs(), 4u);
}

TEST(TransitiveClosure, UndirectedComponents) {
  SocialGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(2, 1, "friend");  // 0-1-2 one undirected component
  (void)g.AddEdge(3, 4, "friend");  // 3-4 another
  CsrSnapshot csr = CsrSnapshot::Build(g);
  TransitiveClosure tc = TransitiveClosure::Build(csr, true);
  EXPECT_TRUE(tc.is_undirected());
  EXPECT_EQ(tc.NumComponents(), 2u);
  EXPECT_TRUE(tc.Reachable(0, 2));
  EXPECT_TRUE(tc.Reachable(2, 0));
  EXPECT_TRUE(tc.Reachable(3, 4));
  EXPECT_FALSE(tc.Reachable(0, 3));
  // 3*2 + 2*1 = 8 ordered pairs.
  EXPECT_EQ(tc.NumReachablePairs(), 8u);
}

TEST(TransitiveClosure, AgreesWithBfsOnRandomGraph) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 60, .seed = 5, .reciprocity = 0.2},
       .avg_out_degree = 2.0});
  ASSERT_TRUE(g.ok());
  CsrSnapshot csr = CsrSnapshot::Build(*g);
  TransitiveClosure tc = TransitiveClosure::Build(csr, false);
  // Reference BFS per source.
  for (NodeId src = 0; src < 60; ++src) {
    std::vector<uint8_t> seen(60, 0);
    std::vector<NodeId> queue{src};
    seen[src] = 1;
    for (size_t h = 0; h < queue.size(); ++h) {
      for (NodeId w : csr.Out(queue[h])) {
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
    for (NodeId dst = 0; dst < 60; ++dst) {
      EXPECT_EQ(tc.Reachable(src, dst), static_cast<bool>(seen[dst]))
          << src << " -> " << dst;
    }
  }
}

TEST(TransitiveClosure, MemoryGrowsWithComponents) {
  auto dag_like = GenerateErdosRenyi(
      {.base = {.num_nodes = 200, .seed = 7, .reciprocity = 0.0,
                .assign_attributes = false},
       .avg_out_degree = 1.5});
  ASSERT_TRUE(dag_like.ok());
  CsrSnapshot csr = CsrSnapshot::Build(*dag_like);
  TransitiveClosure tc = TransitiveClosure::Build(csr, false);
  EXPECT_GT(tc.NumComponents(), 100u);  // few cycles at this density
  EXPECT_GT(tc.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace sargus
