#include <gtest/gtest.h>

#include "index/intervals.h"
#include "index/line_oracle.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

/// Brute-force line-graph reachability by BFS over the implicit arcs.
std::vector<uint8_t> LineBfs(const LineGraph& lg, LineVertexId src) {
  std::vector<uint8_t> seen(lg.NumVertices(), 0);
  std::vector<LineVertexId> queue{src};
  seen[src] = 1;
  for (size_t h = 0; h < queue.size(); ++h) {
    for (LineVertexId w : lg.VerticesWithTail(lg.vertex(queue[h]).head)) {
      if (!seen[w]) {
        seen[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return seen;
}

class LineOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(LineOracleTest, MatchesBruteForceBothModes) {
  const bool include_backward = GetParam();
  auto g = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 40, .seed = 11}, .edges_per_node = 2});
  ASSERT_TRUE(g.ok());
  CsrSnapshot csr = CsrSnapshot::Build(*g);
  LineGraph lg = LineGraph::Build(csr, {.include_backward = include_backward});
  auto oracle = LineReachabilityOracle::Build(lg);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  // The oracle serves 2-hop labels; the interval-filtered DFS the
  // benchmarks measure runs over intervals built from its DAG.
  const IntervalIndex intervals = IntervalIndex::Build(oracle->dag());

  for (LineVertexId u = 0; u < lg.NumVertices(); ++u) {
    const auto seen = LineBfs(lg, u);
    for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
      const bool expected = seen[v] != 0;
      EXPECT_EQ(oracle->Reachable(u, v), expected)
          << "two-hop " << u << " -> " << v;
      EXPECT_EQ(IntervalFilteredReachable(oracle->dag(), intervals.forward,
                                          oracle->ComponentOf(u),
                                          oracle->ComponentOf(v)),
                expected)
          << "intervals " << u << " -> " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orientations, LineOracleTest, ::testing::Bool());

TEST(LineOracle, ExposesPipelineStages) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  LineGraph lg = LineGraph::Build(csr);
  auto oracle = LineReachabilityOracle::Build(lg);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->scc().component_of.size(), lg.NumVertices());
  EXPECT_GT(oracle->dag().NumVertices(), 0u);
  EXPECT_GT(oracle->two_hop()->LabelingSize(), 0u);
  EXPECT_GT(oracle->MemoryBytes(), 0u);
}

TEST(TwoHop, GreedyGuardRejectsOversizedDag) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 50, .seed = 3}, .avg_out_degree = 2.0});
  ASSERT_TRUE(g.ok());
  CsrSnapshot csr = CsrSnapshot::Build(*g);
  LineGraph lg = LineGraph::Build(csr);
  SccResult scc = ComputeScc(lg);
  Dag dag = BuildCondensation(scc, lg);
  TwoHopOptions opts;
  opts.strategy = TwoHopStrategy::kGreedyMaxCover;
  opts.max_vertices_for_greedy = 1;  // force rejection
  auto lab = TwoHopLabeling::Build(dag, opts);
  ASSERT_FALSE(lab.ok());
  EXPECT_EQ(lab.status().code(), StatusCode::kResourceExhausted);
}

TEST(TwoHop, StrategiesAgreeOnReachability) {
  auto g = GenerateWattsStrogatz({.base = {.num_nodes = 30, .seed = 13},
                                  .neighbors_per_side = 2,
                                  .rewire_probability = 0.2});
  ASSERT_TRUE(g.ok());
  CsrSnapshot csr = CsrSnapshot::Build(*g);
  LineGraph lg = LineGraph::Build(csr);
  SccResult scc = ComputeScc(lg);
  Dag dag = BuildCondensation(scc, lg);

  auto pll = TwoHopLabeling::Build(dag, {});
  TwoHopOptions greedy_opts;
  greedy_opts.strategy = TwoHopStrategy::kGreedyMaxCover;
  auto greedy = TwoHopLabeling::Build(dag, greedy_opts);
  ASSERT_TRUE(pll.ok());
  ASSERT_TRUE(greedy.ok());
  for (uint32_t u = 0; u < dag.NumVertices(); ++u) {
    for (uint32_t v = 0; v < dag.NumVertices(); ++v) {
      EXPECT_EQ(pll->Reachable(u, v), greedy->Reachable(u, v))
          << u << " -> " << v;
    }
  }
}

}  // namespace
}  // namespace sargus
