#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "synth/generators.h"

namespace sargus {
namespace {

TEST(Generators, ErdosRenyiBasics) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 100, .seed = 1}, .avg_out_degree = 3.0});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 100u);
  // Edge budget is 300 before reciprocity twins and dedup coalescing.
  EXPECT_GT(g->NumEdges(), 200u);
  EXPECT_LT(g->NumEdges(), 650u);
  EXPECT_EQ(g->labels().size(), 3u);  // default alphabet
}

TEST(Generators, Deterministic) {
  const ErdosRenyiSpec spec{.base = {.num_nodes = 50, .seed = 9},
                            .avg_out_degree = 2.0};
  auto g1 = GenerateErdosRenyi(spec);
  auto g2 = GenerateErdosRenyi(spec);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_EQ(g1->EdgeSlotCount(), g2->EdgeSlotCount());
  for (EdgeId e = 0; e < g1->EdgeSlotCount(); ++e) {
    EXPECT_EQ(g1->edge(e).src, g2->edge(e).src);
    EXPECT_EQ(g1->edge(e).dst, g2->edge(e).dst);
    EXPECT_EQ(g1->edge(e).label, g2->edge(e).label);
  }
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(g1->GetAttribute(v, "age"), g2->GetAttribute(v, "age"));
  }
  // A different seed diverges.
  auto g3 = GenerateErdosRenyi({.base = {.num_nodes = 50, .seed = 10},
                                .avg_out_degree = 2.0});
  ASSERT_TRUE(g3.ok());
  bool differs = g3->EdgeSlotCount() != g1->EdgeSlotCount();
  for (EdgeId e = 0; !differs && e < g1->EdgeSlotCount(); ++e) {
    differs = g1->edge(e).src != g3->edge(e).src ||
              g1->edge(e).dst != g3->edge(e).dst;
  }
  EXPECT_TRUE(differs);
}

TEST(Generators, BarabasiAlbertSkew) {
  auto g = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 300, .seed = 4, .reciprocity = 0.0},
       .edges_per_node = 2});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumNodes(), 300u);
  // Preferential attachment: max in-degree far above the mean.
  std::vector<size_t> indeg(300, 0);
  for (EdgeId e = 0; e < g->EdgeSlotCount(); ++e) {
    if (g->IsLiveEdge(e)) ++indeg[g->edge(e).dst];
  }
  const size_t max_in = *std::max_element(indeg.begin(), indeg.end());
  EXPECT_GE(max_in, 10u);
}

TEST(Generators, WattsStrogatzRing) {
  auto g = GenerateWattsStrogatz({.base = {.num_nodes = 60, .seed = 2,
                                           .reciprocity = 0.0},
                                  .neighbors_per_side = 2,
                                  .rewire_probability = 0.0});
  ASSERT_TRUE(g.ok());
  // No rewiring: exactly 2 out-edges per node.
  EXPECT_EQ(g->NumEdges(), 120u);
}

TEST(Generators, AttributesInRange) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 40, .seed = 6}, .avg_out_degree = 1.0});
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < 40; ++v) {
    const auto age = g->GetAttribute(v, "age");
    ASSERT_TRUE(age.has_value());
    EXPECT_GE(*age, 13);
    EXPECT_LE(*age, 80);
    const auto trust = g->GetAttribute(v, "trust");
    ASSERT_TRUE(trust.has_value());
    EXPECT_GE(*trust, 0);
    EXPECT_LE(*trust, 100);
  }
  auto bare = GenerateErdosRenyi(
      {.base = {.num_nodes = 10, .seed = 6, .assign_attributes = false},
       .avg_out_degree = 1.0});
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->GetAttribute(0, "age"), std::nullopt);
}

TEST(Generators, ValidationErrors) {
  EXPECT_EQ(GenerateErdosRenyi({.base = {.num_nodes = 0}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenerateErdosRenyi({.base = {.num_nodes = 5, .labels = {}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenerateBarabasiAlbert(
                {.base = {.num_nodes = 5}, .edges_per_node = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenerateWattsStrogatz({.base = {.num_nodes = 5},
                                   .neighbors_per_side = 1,
                                   .rewire_probability = 2.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Generators, DuplicateLabelsInSpecDropNoEdges) {
  // Duplicate names intern to one id; every generated edge must still
  // land (regression: positional label indices produced invalid ids).
  auto dup = GenerateWattsStrogatz(
      {.base = {.num_nodes = 40, .seed = 3, .labels = {"friend", "friend"},
                .reciprocity = 0.0},
       .neighbors_per_side = 2,
       .rewire_probability = 0.0});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->NumEdges(), 80u);  // 2 out-edges per node, none lost
  EXPECT_EQ(dup->labels().size(), 1u);
}

TEST(Generators, CustomLabelAlphabet) {
  auto g = GenerateErdosRenyi(
      {.base = {.num_nodes = 30, .seed = 8, .labels = {"a", "b"}},
       .avg_out_degree = 2.0});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->labels().size(), 2u);
  for (EdgeId e = 0; e < g->EdgeSlotCount(); ++e) {
    if (!g->IsLiveEdge(e)) continue;
    EXPECT_LT(g->edge(e).label, 2u);
  }
}

TEST(ZipfSampler, PinsSkewToTheFittedDistribution) {
  // 200k draws over 1000 ranks at theta = 0.8: the empirical frequency
  // of the hottest ranks must sit within 10% (relative) of the exact
  // probability mass the sampler itself reports.
  const uint64_t kItems = 1000;
  const uint64_t kDraws = 200000;
  ZipfSampler zipf(kItems, 0.8, 1234);
  std::vector<uint64_t> hits(kItems, 0);
  for (uint64_t i = 0; i < kDraws; ++i) ++hits[zipf.Next()];

  // Ranks 0 and 1 are produced by exact CDF thresholds, so they pin the
  // skew tightly; deeper ranks come from the approximate inverse CDF
  // and only get a coarse bound.
  for (uint64_t rank : {uint64_t{0}, uint64_t{1}}) {
    const double expected = zipf.Probability(rank) * kDraws;
    EXPECT_NEAR(hits[rank], expected, 0.10 * expected) << "rank " << rank;
  }
  const double expected2 = zipf.Probability(2) * kDraws;
  EXPECT_NEAR(hits[2], expected2, 0.30 * expected2);
  // The head dominates: rank 0 beats any deep-tail rank by an order of
  // magnitude, which a uniform sampler (theta = 0) would never show.
  EXPECT_GT(hits[0], 20 * hits[500] + 1);
  // Probabilities are monotone in rank and sum to ~1.
  double total = 0.0;
  for (uint64_t r = 0; r < kItems; ++r) {
    total += zipf.Probability(r);
    if (r > 0) {
      EXPECT_LE(zipf.Probability(r), zipf.Probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, ThetaZeroIsUniform) {
  const uint64_t kItems = 50;
  ZipfSampler uniform(kItems, 0.0, 7);
  std::vector<uint64_t> hits(kItems, 0);
  const uint64_t kDraws = 100000;
  for (uint64_t i = 0; i < kDraws; ++i) ++hits[uniform.Next()];
  const double expected = static_cast<double>(kDraws) / kItems;
  for (uint64_t r = 0; r < kItems; ++r) {
    EXPECT_NEAR(hits[r], expected, 0.25 * expected) << "rank " << r;
    EXPECT_NEAR(uniform.Probability(r), 1.0 / kItems, 1e-12);
  }
}

TEST(ZipfSampler, DeterministicInSeed) {
  ZipfSampler a(100, 0.9, 42);
  ZipfSampler b(100, 0.9, 42);
  ZipfSampler c(100, 0.9, 43);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
  // Every draw stays in range even at the degenerate sizes.
  ZipfSampler one(1, 0.99, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(one.Next(), 0u);
}

}  // namespace
}  // namespace sargus
