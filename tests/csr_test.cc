#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/csr_sort.h"
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

/// Folds `overlay` into `g` the way background compaction does
/// (AccessControlEngine::FoldOverlayIntoGraph): staged nodes first, then
/// removals, then additions, here in an order shuffled by `rng`.
void FoldWithShuffledAdditions(SocialGraph& g, const DeltaOverlay& overlay,
                               Rng& rng) {
  if (overlay.num_staged_nodes() > 0) {
    (void)g.AddNodes(overlay.num_staged_nodes());
  }
  overlay.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
    auto id = g.FindEdge(t.src, t.dst, t.label);
    ASSERT_TRUE(id.has_value());
    ASSERT_TRUE(g.RemoveEdge(*id).ok());
  });
  std::vector<DeltaOverlay::EdgeTriple> added;
  overlay.ForEachAdded(
      [&](const DeltaOverlay::EdgeTriple& t) { added.push_back(t); });
  for (size_t i = added.size(); i > 1; --i) {
    std::swap(added[i - 1], added[rng.NextBounded(i)]);
  }
  for (const DeltaOverlay::EdgeTriple& t : added) {
    ASSERT_TRUE(g.AddEdge(t.src, t.dst, t.label).ok());
  }
}

/// Expects `side` range `v` to hold the same entries in `a` and `b`.
/// The message is built only on a mismatch, so a million-edge graph
/// compares in one pass.
void ExpectSameEntries(std::span<const CsrSnapshot::Entry> a,
                       std::span<const CsrSnapshot::Entry> b,
                       const std::string& where, const char* side, NodeId v) {
  auto same = [](const CsrSnapshot::Entry& x, const CsrSnapshot::Entry& y) {
    return x.other == y.other && x.label == y.label;
  };
  if (std::equal(a.begin(), a.end(), b.begin(), b.end(), same)) return;
  const std::string at = where + " " + side + " of " + std::to_string(v);
  ASSERT_EQ(a.size(), b.size()) << at;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].other, b[i].other) << at << " entry " << i;
    EXPECT_EQ(a[i].label, b[i].label) << at << " entry " << i;
  }
}

/// An input with at least this many edges, four times the build's
/// 2^18-entry floor per chunk, builds in four chunks on a machine with
/// four or more cores.
constexpr size_t kFourChunkEdges = size_t{4} << 18;

// ---- The build against a reference ----------------------------------------

/// One direction of a CSR as the reference build lays it out.
struct ReferenceSide {
  std::vector<uint32_t> offsets;
  std::vector<CsrSnapshot::Entry> entries;
};

bool EntryLess(const CsrSnapshot::Entry& a, const CsrSnapshot::Entry& b) {
  return a.label != b.label ? a.label < b.label : a.other < b.other;
}

/// The straightforward build the fast one must reproduce: copy the live
/// edges, counting-sort them by endpoint, then std::sort every range by
/// (label, other).
ReferenceSide ReferenceBuild(const SocialGraph& g, bool out_side) {
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (g.IsLiveEdge(e)) edges.push_back(g.edge(e));
  }
  const size_t n = g.NumNodes();
  ReferenceSide side;
  side.offsets.assign(n + 1, 0);
  for (const Edge& rec : edges) {
    ++side.offsets[(out_side ? rec.src : rec.dst) + 1];
  }
  for (size_t v = 0; v < n; ++v) side.offsets[v + 1] += side.offsets[v];
  side.entries.resize(edges.size());
  std::vector<uint32_t> cursor(side.offsets.begin(), side.offsets.end() - 1);
  for (const Edge& rec : edges) {
    const NodeId at = out_side ? rec.src : rec.dst;
    const NodeId other = out_side ? rec.dst : rec.src;
    side.entries[cursor[at]++] = {other, rec.label};
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(side.entries.begin() + side.offsets[v],
              side.entries.begin() + side.offsets[v + 1], EntryLess);
  }
  return side;
}

void ExpectMatchesReference(const SocialGraph& g, const std::string& where) {
  const CsrSnapshot csr = CsrSnapshot::Build(g);
  ASSERT_EQ(csr.NumNodes(), g.NumNodes()) << where;
  ASSERT_EQ(csr.NumEdges(), g.NumEdges()) << where;
  const ReferenceSide out = ReferenceBuild(g, /*out_side=*/true);
  const ReferenceSide in = ReferenceBuild(g, /*out_side=*/false);
  auto range = [](const ReferenceSide& side, NodeId v) {
    return std::span<const CsrSnapshot::Entry>(
        side.entries.data() + side.offsets[v],
        side.offsets[v + 1] - side.offsets[v]);
  };
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ExpectSameEntries(csr.Out(v), range(out, v), where, "out", v);
    ExpectSameEntries(csr.In(v), range(in, v), where, "in", v);
  }
}

std::vector<std::string> LabelNames(size_t count) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    names.push_back(std::string("l").append(std::to_string(i)));
  }
  return names;
}

/// Adds what the generators do not produce: isolated nodes, self-loops,
/// tombstoned slots, interned labels no edge uses, and two hubs whose
/// in-degree exceeds the build's 32-entry insertion-sort cutoff — one
/// over every label, one over only the first and last label so its
/// label span can be wider than its range.
void AddEdgeCases(SocialGraph& g, Rng& rng) {
  const size_t base = g.NumNodes();
  const size_t num_labels = g.labels().size();
  (void)g.AddNodes(3);  // isolated
  (void)g.labels().Intern("unused-a");
  (void)g.labels().Intern("unused-b");
  for (NodeId v = 0; v < base; v += 7) {
    (void)g.AddEdge(v, v, static_cast<LabelId>(rng.NextBounded(num_labels)));
  }
  const NodeId hub = 0;
  const NodeId narrow_hub = static_cast<NodeId>(base / 2);
  for (NodeId v = 1; v < base && v < 200; ++v) {
    const LabelId l = static_cast<LabelId>(rng.NextBounded(num_labels));
    (void)g.AddEdge(v, hub, l);
    (void)g.AddEdge(hub, v, static_cast<LabelId>(num_labels - 1 - l));
  }
  for (NodeId v = 0; v < base && v < 40; ++v) {
    const LabelId l = rng.NextBounded(2) == 0
                          ? LabelId{0}
                          : static_cast<LabelId>(num_labels - 1);
    (void)g.AddEdge(v, narrow_hub, l);
  }
  for (EdgeId e = 3; e < g.EdgeSlotCount(); e += 11) {
    if (g.IsLiveEdge(e)) {
      ASSERT_TRUE(g.RemoveEdge(e).ok());
    }
  }
}

/// Checks the build of `g` against the reference, then again after
/// AddEdgeCases.
void ExpectMatchesReferenceWithEdgeCases(SocialGraph g, uint64_t seed,
                                         const std::string& where) {
  ExpectMatchesReference(g, where);
  Rng rng(seed);
  AddEdgeCases(g, rng);
  ASSERT_GT(CsrSnapshot::Build(g).In(0).size(), 32u) << where;
  ExpectMatchesReference(g, where + " with edge cases");
}

TEST(CsrSnapshot, BuildMatchesReference) {
  for (const size_t num_labels : {1u, 3u, 64u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const uint64_t seed = 17 + kind;
      const SocialGraphSpec base{.num_nodes = 300,
                                 .seed = seed,
                                 .labels = LabelNames(num_labels)};
      auto gen = kind == 0   ? GenerateErdosRenyi({.base = base})
                 : kind == 1 ? GenerateBarabasiAlbert({.base = base})
                             : GenerateWattsStrogatz({.base = base});
      ASSERT_TRUE(gen.ok());
      ExpectMatchesReferenceWithEdgeCases(
          std::move(*gen), seed,
          "kind " + std::to_string(kind) + " labels " +
              std::to_string(num_labels));
    }
  }
  // A graph large enough that every stage of the build runs in several
  // chunks, each writing its own share of every range.
  for (const size_t num_labels : {3u, 64u}) {
    auto gen = GenerateBarabasiAlbert({.base = {.num_nodes = 200000,
                                                .seed = 23,
                                                .labels = LabelNames(
                                                    num_labels)}});
    ASSERT_TRUE(gen.ok());
    ASSERT_GE(gen->NumEdges(), kFourChunkEdges);
    ExpectMatchesReferenceWithEdgeCases(
        std::move(*gen), 23,
        "large labels " + std::to_string(num_labels));
  }
}

// ---- The range sort ---------------------------------------------------------

// By the 0-1 principle, a comparator network that sorts every input of
// two distinct values sorts every input. SortRange pads a range of up to
// eight entries to eight, so every length up to eight is its own input
// set; the low value has the larger `other`, so the label must decide.
TEST(CsrSnapshot, SortRangeSortsEveryBinaryInputOfEveryPaddedLength) {
  const CsrSnapshot::Entry low{0xFFFFFFFEu, 0};
  const CsrSnapshot::Entry high{0, 1};
  for (size_t n = 0; n <= 8; ++n) {
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<CsrSnapshot::Entry> range(n);
      for (size_t i = 0; i < n; ++i) range[i] = (bits >> i & 1) ? high : low;
      csr_sort::SortRange(range.data(), range.data() + n);
      const size_t ones = static_cast<size_t>(std::popcount(bits));
      for (size_t i = 0; i < n; ++i) {
        const CsrSnapshot::Entry want = i < n - ones ? low : high;
        EXPECT_EQ(range[i].other, want.other) << n << " " << bits << " " << i;
        EXPECT_EQ(range[i].label, want.label) << n << " " << bits << " " << i;
      }
    }
  }
}

/// `n` entries with distinct (label, other) keys, a third of each field
/// drawn from its extremes: labels 0 and 0xFFFE (the largest a dictionary
/// mints), others 0 and `max_other`.
std::vector<CsrSnapshot::Entry> RandomRange(size_t n, NodeId max_other,
                                            Rng& rng) {
  auto pick = [&rng](uint64_t max) -> uint64_t {
    switch (rng.NextBounded(6)) {
      case 0:
        return 0;
      case 1:
        return max;
      default:
        return rng.NextBounded(max + 1);
    }
  };
  std::vector<CsrSnapshot::Entry> range;
  while (range.size() < n) {
    const CsrSnapshot::Entry e{static_cast<NodeId>(pick(max_other)),
                               static_cast<LabelId>(pick(0xFFFE))};
    if (std::none_of(range.begin(), range.end(), [&e](const auto& x) {
          return x.other == e.other && x.label == e.label;
        })) {
      range.push_back(e);
    }
  }
  return range;
}

// Every length from 0 to 40 crosses the network, insertion and std::sort
// paths and both of their cutoffs.
TEST(CsrSnapshot, RangesOfEveryLengthSortLikeStdSort) {
  Rng rng(97);
  for (size_t n = 0; n <= 40; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<CsrSnapshot::Entry> range =
          RandomRange(n, 0xFFFFFFFEu, rng);
      std::vector<CsrSnapshot::Entry> want = range;
      std::sort(want.begin(), want.end(), EntryLess);
      csr_sort::SortRange(range.data(), range.data() + n);
      ExpectSameEntries(range, want, "length " + std::to_string(n), "range",
                        static_cast<NodeId>(trial));
    }
  }

  // The same through Build, over a dictionary that interns every label
  // id up to 0xFFFE: node v's out-range has v entries, and the in-ranges
  // collect them.
  SocialGraph g;
  const NodeId nodes = 2000;
  (void)g.AddNodes(nodes);
  for (size_t l = 0; l <= 0xFFFE; ++l) {
    ASSERT_EQ(g.labels().Intern(std::string("l").append(std::to_string(l))), l);
  }
  for (NodeId v = 0; v <= 40; ++v) {
    for (const CsrSnapshot::Entry& e : RandomRange(v, nodes - 1, rng)) {
      ASSERT_TRUE(g.AddEdge(v, e.other, e.label).ok());
    }
  }
  ExpectMatchesReference(g, "extreme labels");
}

// A build of at least 2^19 entries runs its sort phase in more than one
// worker. Here every hub sits in the first block of nodes the workers
// take, so one worker sorts all the long ranges while the others take
// the rest; the layout still equals the serial reference.
TEST(CsrSnapshot, HubsInTheFirstBlockBuildLikeTheSerialReference) {
  SocialGraph g;
  const NodeId nodes = 150000;
  (void)g.AddNodes(nodes);
  for (const char* name : {"friend", "colleague", "family"}) {
    (void)g.labels().Intern(name);
  }
  Rng rng(11);
  auto label = [&rng] { return static_cast<LabelId>(rng.NextBounded(3)); };
  for (NodeId hub = 0; hub < 32; ++hub) {
    for (int i = 0; i < 4000; ++i) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(nodes));
      ASSERT_TRUE(g.AddEdge(hub, v, label()).ok());
      ASSERT_TRUE(g.AddEdge(v, hub, label()).ok());
    }
  }
  for (NodeId v = 32; v < nodes; ++v) {
    for (int i = 0; i < 2; ++i) {
      const NodeId w = static_cast<NodeId>(32 + rng.NextBounded(nodes - 32));
      ASSERT_TRUE(g.AddEdge(v, w, label()).ok());
    }
  }
  ASSERT_GE(g.NumEdges(), size_t{1} << 19);
  ExpectMatchesReference(g, "hubs first");
}

// Background compaction builds the next CSR from the frozen overlay
// (Build(g, overlay)) before it folds that overlay into the graph, and
// serves it against the folded graph. That is only sound if the merged
// build equals a plain rebuild after the fold, entry for entry, whatever
// order the fold adds edges in.
TEST(CsrSnapshot, MergedBuildMatchesPostFoldRebuild) {
  // Seeds 7 and 8 draw from a 64-label alphabet; seed 10 builds in
  // several chunks.
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 10}) {
    const bool large = seed == 10;
    const SocialGraphSpec spec{
        .num_nodes = large ? 200000u : 40u,
        .seed = seed,
        .labels = seed <= 6 || large ? SocialGraphSpec{}.labels
                                     : LabelNames(64)};
    auto gen = seed % 2 == 0
                   ? GenerateBarabasiAlbert(
                         {.base = spec, .edges_per_node = large ? 4u : 3u})
                   : GenerateErdosRenyi({.base = spec, .avg_out_degree = 2.5});
    ASSERT_TRUE(gen.ok());
    SocialGraph g = std::move(*gen);
    const size_t n = g.NumNodes();
    const size_t num_labels = g.labels().size();
    ASSERT_GE(g.NumEdges(), large ? kFourChunkEdges : 1u);
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
    // Staged nodes with edges in, out, to each other and to themselves.
    for (size_t k = 0; k < staged; ++k) {
      const NodeId v = static_cast<NodeId>(n + k);
      for (int i = 0; i < 3; ++i) {
        const NodeId w = static_cast<NodeId>(rng.NextBounded(logical));
        const LabelId l = static_cast<LabelId>(rng.NextBounded(num_labels));
        (void)overlay.StageAdd(v, w, l);
        (void)overlay.StageAdd(w, v, l);
      }
      (void)overlay.StageAdd(v, v, 0);
    }
    // A base triple removed and then added back: the fold must drop the
    // old slot before it appends the new one, or the graph would
    // coalesce the add onto the removed edge.
    const auto& again = base[rng.NextBounded(base.size())];
    (void)overlay.StageRemove(again.src, again.dst, again.label);
    ASSERT_TRUE(overlay.StageAdd(again.src, again.dst, again.label));
    // A staged add of a triple the graph already holds, as when the
    // caller added it outside the engine since the last rebuild: the
    // fold coalesces it, so the merged build must not repeat it.
    const auto& held = base[rng.NextBounded(base.size())];
    if (!overlay.IsStagedRemove(held.src, held.dst, held.label)) {
      ASSERT_TRUE(overlay.StageAdd(held.src, held.dst, held.label));
    }
    // A staged add withdrawn and staged again.
    (void)overlay.UnstageAdd(static_cast<NodeId>(n), 0, 0);
    ASSERT_TRUE(overlay.StageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.UnstageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.StageAdd(static_cast<NodeId>(n), 0, 0));
    ASSERT_TRUE(overlay.has_deletions());

    const CsrSnapshot merged = CsrSnapshot::Build(g, overlay);
    FoldWithShuffledAdditions(g, overlay, rng);
    const CsrSnapshot rebuilt = CsrSnapshot::Build(g);

    const std::string label = "seed " + std::to_string(seed);
    ASSERT_EQ(merged.NumNodes(), rebuilt.NumNodes()) << label;
    ASSERT_EQ(merged.NumEdges(), rebuilt.NumEdges()) << label;
    EXPECT_EQ(merged.NumNodes(), logical) << label;
    for (NodeId v = 0; v < merged.NumNodes(); ++v) {
      ExpectSameEntries(merged.Out(v), rebuilt.Out(v), label, "out", v);
      ExpectSameEntries(merged.In(v), rebuilt.In(v), label, "in", v);
    }
  }
}

// Build makes only the out-side; the first In() derives the in-side,
// and threads racing on that first call all read the one derivation.
TEST(CsrSnapshot, RacingFirstInCallsShareOneDerivation) {
  auto gen = GenerateBarabasiAlbert({.base = {.num_nodes = 3000, .seed = 31}});
  ASSERT_TRUE(gen.ok());
  const SocialGraph& g = *gen;
  const ReferenceSide in = ReferenceBuild(g, /*out_side=*/false);
  for (int round = 0; round < 4; ++round) {
    const CsrSnapshot csr = CsrSnapshot::Build(g);
    ASSERT_FALSE(csr.HasInSide());
    const size_t out_bytes = csr.MemoryBytes();
    constexpr int kThreads = 6;
    std::atomic<int> ready{0};
    std::vector<const CsrSnapshot::Entry*> first(kThreads, nullptr);
    std::vector<size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread starts at a different node, so the first call
        // lands on a different range.
        const NodeId n = static_cast<NodeId>(g.NumNodes());
        for (NodeId i = 0; i < n; ++i) {
          const NodeId v = static_cast<NodeId>((i + t * 499u) % n);
          const auto got = csr.In(v);
          const std::span<const CsrSnapshot::Entry> want(
              in.entries.data() + in.offsets[v],
              in.offsets[v + 1] - in.offsets[v]);
          if (!std::equal(got.begin(), got.end(), want.begin(), want.end(),
                          [](const auto& a, const auto& b) {
                            return a.other == b.other && a.label == b.label;
                          })) {
            ++mismatches[t];
          }
        }
        first[t] = csr.In(0).data();
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_TRUE(csr.HasInSide());
    EXPECT_GT(csr.MemoryBytes(), out_bytes);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0u) << "round " << round << " thread " << t;
      EXPECT_EQ(first[t], first[0]) << "round " << round << " thread " << t;
    }
  }
}

TEST(CsrSnapshot, MoveCarriesTheDerivedInSide) {
  const SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot a = CsrSnapshot::Build(g);
  const CsrSnapshot::Entry* in3 = a.In(3).data();
  CsrSnapshot b = std::move(a);
  EXPECT_TRUE(b.HasInSide());
  EXPECT_EQ(b.In(3).data(), in3);
  EXPECT_EQ(b.In(3).size(), 3u);
  // A moved-from snapshot is empty, and assigning over a snapshot
  // releases the in-side it held.
  EXPECT_EQ(a.NumNodes(), 0u);
  EXPECT_FALSE(a.HasInSide());
  b = CsrSnapshot::Build(g);
  EXPECT_FALSE(b.HasInSide());
  EXPECT_EQ(b.In(3).size(), 3u);
}

}  // namespace
}  // namespace sargus
