#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

TEST(CsrSnapshot, MirrorsLiveEdges) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumNodes(), g.NumNodes());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());

  // Node 0 has friend edges to 1 and 4.
  auto out0 = csr.Out(0);
  ASSERT_EQ(out0.size(), 2u);
  std::vector<NodeId> targets;
  for (const auto& e : out0) targets.push_back(e.other);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 4}));

  // In-edges of 3: colleague from 2 and 4, friend from 5.
  EXPECT_EQ(csr.In(3).size(), 3u);
}

TEST(CsrSnapshot, LabelRanges) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const LabelId friend_l = g.labels().Lookup("friend");
  const LabelId colleague_l = g.labels().Lookup("colleague");

  EXPECT_EQ(csr.OutWithLabel(1, friend_l).size(), 1u);     // 1 -f-> 2
  EXPECT_EQ(csr.OutWithLabel(1, colleague_l).size(), 1u);  // 1 -c-> 5
  EXPECT_EQ(csr.InWithLabel(3, colleague_l).size(), 2u);   // from 2 and 4
  EXPECT_EQ(csr.InWithLabel(3, friend_l).size(), 1u);      // from 5
  EXPECT_TRUE(csr.OutWithLabel(3, friend_l).empty());
}

TEST(CsrSnapshot, IgnoresTombstonedEdges) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  const EdgeId e = *g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 0, "friend");
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumEdges(), 1u);
  EXPECT_TRUE(csr.Out(0).empty());
  EXPECT_EQ(csr.Out(1).size(), 1u);
}

TEST(CsrSnapshot, SnapshotIsImmutable) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  (void)g.AddEdge(1, 0, "friend");  // mutate after snapshot
  EXPECT_EQ(csr.NumEdges(), 1u);    // snapshot unchanged
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(CsrSnapshot, EmptyGraph) {
  SocialGraph g;
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumNodes(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
}

/// Folds `overlay` into `g` in the order background compaction does
/// (AccessControlEngine::FoldOverlayIntoGraph): staged nodes first, then
/// removals, then additions in the overlay's iteration order.
void FoldInCompactionOrder(SocialGraph& g, const DeltaOverlay& overlay) {
  if (overlay.num_staged_nodes() > 0) {
    (void)g.AddNodes(overlay.num_staged_nodes());
  }
  overlay.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
    auto id = g.FindEdge(t.src, t.dst, t.label);
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(g.RemoveEdge(*id).ok());
  });
  overlay.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    ASSERT_TRUE(g.AddEdge(t.src, t.dst, t.label).ok());
  });
}

void ExpectSameEntries(std::span<const CsrSnapshot::Entry> a,
                       std::span<const CsrSnapshot::Entry> b,
                       const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].other, b[i].other) << where << " entry " << i;
    EXPECT_EQ(a[i].label, b[i].label) << where << " entry " << i;
    EXPECT_EQ(a[i].edge, b[i].edge) << where << " entry " << i;
  }
}

// Background compaction builds the next bundle from the frozen overlay
// (Build(g, overlay, first_new_edge)) before it folds that overlay into
// the graph, and serves the bundle against the folded graph. That is
// only sound if the merged build equals a plain rebuild after the fold,
// edge ids included.
TEST(CsrSnapshot, MergedBuildMatchesPostFoldRebuild) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto gen = seed % 2 == 0
                   ? GenerateBarabasiAlbert(
                         {.base = {.num_nodes = 40, .seed = seed},
                          .edges_per_node = 3})
                   : GenerateErdosRenyi(
                         {.base = {.num_nodes = 40, .seed = seed},
                          .avg_out_degree = 2.5});
    ASSERT_TRUE(gen.ok());
    SocialGraph g = std::move(*gen);
    const size_t n = g.NumNodes();
    const size_t num_labels = g.labels().size();
    ASSERT_GT(g.NumEdges(), 0u);
    Rng rng(4200 + seed);

    // Live base triples, to remove from.
    std::vector<DeltaOverlay::EdgeTriple> base;
    for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
      if (!g.IsLiveEdge(e)) continue;
      base.push_back({g.edge(e).src, g.edge(e).dst, g.edge(e).label});
    }

    DeltaOverlay overlay;
    const size_t staged = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < staged; ++i) overlay.StageNode();
    const size_t logical = n + staged;
    for (int i = 0; i < 30; ++i) {
      const uint64_t kind = rng.NextBounded(4);
      if (kind == 0) {
        const auto& t = base[rng.NextBounded(base.size())];
        (void)overlay.StageRemove(t.src, t.dst, t.label);
      } else {
        const NodeId s = static_cast<NodeId>(rng.NextBounded(logical));
        const NodeId d = static_cast<NodeId>(rng.NextBounded(logical));
        const LabelId l = static_cast<LabelId>(rng.NextBounded(num_labels));
        if (s < n && d < n && g.FindEdge(s, d, l).has_value()) continue;
        (void)overlay.StageAdd(s, d, l);
      }
    }
    // A base triple removed and then added back: the fold must drop the
    // old slot before it appends the new one, or the graph would
    // coalesce the add onto the removed edge.
    const auto& again = base[rng.NextBounded(base.size())];
    (void)overlay.StageRemove(again.src, again.dst, again.label);
    ASSERT_TRUE(overlay.StageAdd(again.src, again.dst, again.label));
    // A staged add withdrawn and staged again.
    (void)overlay.UnstageAdd(static_cast<NodeId>(n), 0, 0);
    ASSERT_TRUE(overlay.StageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.UnstageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.StageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.has_deletions());

    const EdgeId first_new_edge = static_cast<EdgeId>(g.EdgeSlotCount());
    const CsrSnapshot merged = CsrSnapshot::Build(g, overlay, first_new_edge);
    FoldInCompactionOrder(g, overlay);
    const CsrSnapshot rebuilt = CsrSnapshot::Build(g);

    const std::string label = "seed " + std::to_string(seed);
    ASSERT_EQ(merged.NumNodes(), rebuilt.NumNodes()) << label;
    ASSERT_EQ(merged.NumEdges(), rebuilt.NumEdges()) << label;
    EXPECT_EQ(merged.NumNodes(), logical) << label;
    for (NodeId v = 0; v < merged.NumNodes(); ++v) {
      ExpectSameEntries(merged.Out(v), rebuilt.Out(v),
                        label + " out of " + std::to_string(v));
      ExpectSameEntries(merged.In(v), rebuilt.In(v),
                        label + " in of " + std::to_string(v));
    }
  }
}

}  // namespace
}  // namespace sargus
