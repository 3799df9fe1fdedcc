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
  std::vector<NodeId> targets(out0.begin(), out0.end());
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

  using Ids = std::vector<NodeId>;
  auto ids = [](std::span<const NodeId> s) { return Ids(s.begin(), s.end()); };
  EXPECT_EQ(ids(csr.OutWithLabel(1, friend_l)), Ids{2});      // 1 -f-> 2
  EXPECT_EQ(ids(csr.OutWithLabel(1, colleague_l)), Ids{5});   // 1 -c-> 5
  EXPECT_EQ(ids(csr.InWithLabel(3, colleague_l)), (Ids{2, 4}));
  EXPECT_EQ(ids(csr.InWithLabel(3, friend_l)), Ids{5});       // from 5
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

/// One node's range, out or in, as its two columns.
struct Range {
  std::span<const NodeId> ids;
  std::span<const LabelId> labels;
};

Range OutRange(const CsrSnapshot& csr, NodeId v) {
  return {csr.Out(v), csr.OutLabels(v)};
}

Range InRange(const CsrSnapshot& csr, NodeId v) {
  return {csr.In(v), csr.InLabels(v)};
}

bool SameRange(const Range& a, const Range& b) {
  return std::ranges::equal(a.ids, b.ids) &&
         std::ranges::equal(a.labels, b.labels);
}

/// Expects `side` range `v` to hold the same entries in `a` and `b`.
/// The message is built only on a mismatch, so a million-edge graph
/// compares in one pass.
void ExpectSameEntries(const Range& a, const Range& b,
                       const std::string& where, const char* side, NodeId v) {
  if (SameRange(a, b)) return;
  const std::string at = where + " " + side + " of " + std::to_string(v);
  ASSERT_EQ(a.ids.size(), b.ids.size()) << at;
  ASSERT_EQ(a.labels.size(), a.ids.size()) << at;
  ASSERT_EQ(b.labels.size(), b.ids.size()) << at;
  for (size_t i = 0; i < a.ids.size(); ++i) {
    EXPECT_EQ(a.ids[i], b.ids[i]) << at << " entry " << i;
    EXPECT_EQ(a.labels[i], b.labels[i]) << at << " entry " << i;
  }
}

/// An input with at least this many edges, four times the build's
/// 2^18-entry floor per chunk, builds in four chunks on a machine with
/// four or more cores.
constexpr size_t kFourChunkEdges = size_t{4} << 18;

// ---- The build against a reference ----------------------------------------

/// One entry as a (label, other) pair, whose order is the CSR's.
using Key = std::pair<LabelId, NodeId>;

/// Splits `keys` into the two columns SortRange and the CSR hold.
void SplitKeys(const std::vector<Key>& keys, std::vector<NodeId>* ids,
               std::vector<LabelId>* labels) {
  ids->clear();
  labels->clear();
  for (const auto& [label, other] : keys) {
    ids->push_back(other);
    labels->push_back(label);
  }
}

/// One direction of a CSR as the reference build lays it out.
struct ReferenceSide {
  std::vector<uint32_t> offsets;
  std::vector<NodeId> ids;
  std::vector<LabelId> labels;

  Range At(NodeId v) const {
    const size_t size = offsets[v + 1] - offsets[v];
    return {{ids.data() + offsets[v], size},
            {labels.data() + offsets[v], size}};
  }
};

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
  std::vector<Key> keys(edges.size());
  std::vector<uint32_t> cursor(side.offsets.begin(), side.offsets.end() - 1);
  for (const Edge& rec : edges) {
    const NodeId at = out_side ? rec.src : rec.dst;
    const NodeId other = out_side ? rec.dst : rec.src;
    keys[cursor[at]++] = {rec.label, other};
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(keys.begin() + side.offsets[v],
              keys.begin() + side.offsets[v + 1]);
  }
  SplitKeys(keys, &side.ids, &side.labels);
  return side;
}

void ExpectMatchesReference(const SocialGraph& g, const std::string& where) {
  const CsrSnapshot csr = CsrSnapshot::Build(g);
  ASSERT_EQ(csr.NumNodes(), g.NumNodes()) << where;
  ASSERT_EQ(csr.NumEdges(), g.NumEdges()) << where;
  const ReferenceSide out = ReferenceBuild(g, /*out_side=*/true);
  const ReferenceSide in = ReferenceBuild(g, /*out_side=*/false);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ExpectSameEntries(OutRange(csr, v), out.At(v), where, "out", v);
    ExpectSameEntries(InRange(csr, v), in.At(v), where, "in", v);
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
// 4, 8 or 16 entries to that width, so every length up to 16 is its own
// input set, and lengths 4, 8 and 16 give each network all of its 2^4,
// 2^8 and 2^16 full-width inputs; the low value has the larger `other`,
// so the label must decide.
TEST(CsrSnapshot, SortRangeSortsEveryBinaryInputOfEveryPaddedLength) {
  const Key low{0, 0xFFFFFFFEu};
  const Key high{1, 0};
  std::vector<uint64_t> long_keys;
  std::vector<NodeId> ids;
  std::vector<LabelId> labels;
  for (size_t n = 0; n <= 16; ++n) {
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<Key> range(n);
      for (size_t i = 0; i < n; ++i) range[i] = (bits >> i & 1) ? high : low;
      SplitKeys(range, &ids, &labels);
      csr_sort::SortRange(ids.data(), labels.data(), n, long_keys);
      const size_t zeros = n - static_cast<size_t>(std::popcount(bits));
      for (size_t i = 0; i < n; ++i) range[i] = i < zeros ? low : high;
      std::vector<NodeId> want_ids;
      std::vector<LabelId> want_labels;
      SplitKeys(range, &want_ids, &want_labels);
      ASSERT_EQ(ids, want_ids) << n << " " << bits;
      ASSERT_EQ(labels, want_labels) << n << " " << bits;
    }
  }
}

/// `n` entries with distinct (label, other) keys, a third of each field
/// drawn from its extremes: labels 0 and 0xFFFE (the largest a dictionary
/// mints), others 0 and `max_other`.
std::vector<Key> RandomRange(size_t n, NodeId max_other, Rng& rng) {
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
  std::vector<Key> range;
  while (range.size() < n) {
    const NodeId other = static_cast<NodeId>(pick(max_other));
    const Key key{static_cast<LabelId>(pick(0xFFFE)), other};
    if (std::find(range.begin(), range.end(), key) == range.end()) {
      range.push_back(key);
    }
  }
  return range;
}

// Every length from 0 to 40 crosses the three networks, the insertion
// and std::sort paths and every cutoff between them. One key buffer
// serves every call, as it serves a sort worker, so a long range also
// sorts in a buffer grown by a longer one.
TEST(CsrSnapshot, RangesOfEveryLengthSortLikeStdSort) {
  Rng rng(97);
  std::vector<uint64_t> long_keys;
  for (const size_t first : {size_t{0}, size_t{40}}) {
    for (size_t i = 0; i <= 40; ++i) {
      const size_t n = first == 0 ? i : first - i;
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<Key> range = RandomRange(n, 0xFFFFFFFEu, rng);
        std::vector<NodeId> ids, want_ids;
        std::vector<LabelId> labels, want_labels;
        SplitKeys(range, &ids, &labels);
        std::sort(range.begin(), range.end());
        SplitKeys(range, &want_ids, &want_labels);
        csr_sort::SortRange(ids.data(), labels.data(), n, long_keys);
        ExpectSameEntries({ids, labels}, {want_ids, want_labels},
                          "length " + std::to_string(n), "range",
                          static_cast<NodeId>(trial));
      }
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
    for (const auto& [label, other] : RandomRange(v, nodes - 1, rng)) {
      ASSERT_TRUE(g.AddEdge(v, other, label).ok());
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
      ExpectSameEntries(OutRange(merged, v), OutRange(rebuilt, v), label,
                        "out", v);
      ExpectSameEntries(InRange(merged, v), InRange(rebuilt, v), label, "in",
                        v);
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
    std::vector<const NodeId*> first(kThreads, nullptr);
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
          if (!SameRange(InRange(csr, v), in.At(v))) ++mismatches[t];
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
  const NodeId* in3 = a.In(3).data();
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

// A side costs one 4-byte offset per node (plus one) and 6 bytes per
// entry, a 4-byte id and a 2-byte label in two columns, with no padding
// and no spare capacity; the in-side adds as much once derived.
TEST(CsrSnapshot, MemoryBytesIsSixBytesPerEntry) {
  const SocialGraph g = testing_util::MakeDiamond();
  const CsrSnapshot csr = CsrSnapshot::Build(g);
  ASSERT_GT(g.NumEdges(), 0u);
  const size_t side_bytes = (g.NumNodes() + 1) * 4 + g.NumEdges() * 6;
  EXPECT_EQ(csr.MemoryBytes(), side_bytes);
  ASSERT_EQ(csr.In(3).size(), 3u);
  EXPECT_EQ(csr.MemoryBytes(), 2 * side_bytes);
}

}  // namespace
}  // namespace sargus
