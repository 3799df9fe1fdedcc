#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/social_graph.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"
#include "synth/generators.h"

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

// A slot is marked dead in its own record, by the kInvalidLabel
// tombstone: the removed slot reads dead, the index misses it, and a
// re-add takes a new slot. Growing the index (a rehash over every slot)
// and copying the graph keep the tombstone where it was; a Freeze drops
// it. With no attribute column, a thawed graph's MemoryBytes is 10 B per
// slot plus the index.
TEST(SocialGraph, DeadSlotIsMarkedInBand) {
  SocialGraph g;
  g.AddNodes(200);
  const LabelId f = g.labels().Intern("friend");
  for (NodeId v = 0; v + 1 < 64; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1, f).ok());
  const EdgeId dead = *g.FindEdge(5, 6, f);
  ASSERT_TRUE(g.RemoveEdge(dead).ok());
  EXPECT_FALSE(g.IsLiveEdge(dead));
  EXPECT_EQ(g.edge(dead).label, kInvalidLabel);
  EXPECT_FALSE(g.FindEdge(5, 6, f).has_value());
  EXPECT_FALSE(g.FindEdge(5, 6, kInvalidLabel).has_value());
  EXPECT_EQ(g.NumEdges(), 62u);
  const EdgeId readded = *g.AddEdge(5, 6, f);
  EXPECT_EQ(readded, g.EdgeSlotCount() - 1);
  EXPECT_NE(readded, dead);
  EXPECT_FALSE(g.IsLiveEdge(dead));

  const size_t capacity = g.edge_index_capacity();
  for (NodeId v = 64; v + 1 < 200; ++v) {
    ASSERT_TRUE(g.AddEdge(v, v + 1, f).ok());
  }
  ASSERT_GT(g.edge_index_capacity(), capacity);  // rehashed past the slot
  auto expect_dead_slot_kept = [&](const SocialGraph& h) {
    EXPECT_FALSE(h.IsLiveEdge(dead));
    EXPECT_EQ(h.FindEdge(5, 6, f), std::optional<EdgeId>(readded));
    EXPECT_FALSE(h.FindEdge(5, 6, kInvalidLabel).has_value());
    for (EdgeId e = 0; e < h.EdgeSlotCount(); ++e) {
      if (e == dead) continue;
      ASSERT_TRUE(h.IsLiveEdge(e)) << e;
      const Edge rec = h.edge(e);
      ASSERT_EQ(h.FindEdge(rec.src, rec.dst, rec.label),
                std::optional<EdgeId>(e));
    }
    EXPECT_EQ(h.NumEdges(), h.EdgeSlotCount() - 1);
  };
  expect_dead_slot_kept(g);
  const SocialGraph copy = g;
  expect_dead_slot_kept(copy);
  g.Freeze();  // renumbers the live edges densely: the tombstone is gone
  EXPECT_EQ(g.EdgeSlotCount(), g.NumEdges());
  g.Thaw();  // slots sized exactly, no slack
  EXPECT_EQ(g.EdgeSlotCount(), g.NumEdges());
  EXPECT_EQ(g.MemoryBytes(), g.EdgeSlotCount() * 10 +
                                 g.edge_index_capacity() * sizeof(EdgeId));
}

// kInvalidLabel marks dead slots, so no edge may carry it: with the
// dictionary full (0xFFFF names, ids 0..0xFFFE), the sentinel id is
// still past its end and refused, and the last real id is stored live.
TEST(SocialGraph, RefusesTheTombstoneLabel) {
  SocialGraph g;
  g.AddNodes(2);
  for (int i = 0; i < 0xFFFF; ++i) {
    g.labels().Intern(std::string("l").append(std::to_string(i)));
  }
  ASSERT_EQ(g.labels().size(), 0xFFFFu);
  auto refused = g.AddEdge(0, 1, kInvalidLabel);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.EdgeSlotCount(), 0u);
  auto last = g.AddEdge(0, 1, LabelId{0xFFFE});
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(g.IsLiveEdge(*last));
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

// ---- Edge index -------------------------------------------------------------

using Triple = std::tuple<NodeId, NodeId, LabelId>;
using TripleOracle = std::map<Triple, EdgeId>;

std::optional<EdgeId> Find(const SocialGraph& g, const Triple& t) {
  return g.FindEdge(std::get<0>(t), std::get<1>(t), std::get<2>(t));
}

void ExpectIndexMatches(const SocialGraph& g, const TripleOracle& oracle) {
  ASSERT_EQ(g.NumEdges(), oracle.size());
  for (const auto& [t, id] : oracle) {
    ASSERT_EQ(Find(g, t), std::optional<EdgeId>(id))
        << std::get<0>(t) << " " << std::get<1>(t) << " " << std::get<2>(t);
  }
}

// The triple -> slot index against a std::map oracle. Phase one: seeded
// adds (duplicates coalesce onto the live slot), removes, re-adds (a
// fresh slot) and finds over a key space small enough to revisit and
// large enough to grow the table from empty through many doublings.
// Phase two: a copy mutated apart from the original answers on its own.
// Phase three: probe runs that wrap past the end of a 16-slot table,
// deleted from in every order, so backward shift moves ids across the
// wrap.
TEST(SocialGraph, EdgeIndexMatchesOracle) {
  constexpr NodeId kNodes = 96;
  SocialGraph g;
  g.AddNodes(kNodes);
  for (const char* label : {"friend", "colleague", "family"}) {
    g.labels().Intern(label);
  }
  TripleOracle oracle;
  Rng rng(2012);
  size_t last_capacity = 0;
  int capacity_changes = 0;
  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    const Triple t{static_cast<NodeId>(rng.NextBounded(kNodes)),
                   static_cast<NodeId>(rng.NextBounded(kNodes)),
                   static_cast<LabelId>(rng.NextBounded(3))};
    const auto it = oracle.find(t);
    // Adds outweigh removes in the first half, so the table grows;
    // removes outweigh adds in the second, so runs thin out.
    const uint64_t pick = rng.NextBounded(10);
    if (pick < (op < kOps / 2 ? 6u : 3u)) {
      const size_t slots = g.EdgeSlotCount();
      auto id = g.AddEdge(std::get<0>(t), std::get<1>(t), std::get<2>(t));
      ASSERT_TRUE(id.ok());
      if (it != oracle.end()) {
        ASSERT_EQ(*id, it->second);  // coalesced
      } else {
        ASSERT_EQ(*id, slots);  // a fresh slot, re-adds included
        oracle.emplace(t, *id);
      }
    } else if (pick < 8) {
      const std::optional<EdgeId> found = Find(g, t);
      ASSERT_EQ(found.has_value(), it != oracle.end());
      if (found.has_value()) {
        ASSERT_EQ(*found, it->second);
        ASSERT_TRUE(g.RemoveEdge(*found).ok());
        oracle.erase(it);
        ASSERT_FALSE(Find(g, t).has_value());
      }
    } else {
      ASSERT_EQ(Find(g, t), it == oracle.end()
                                ? std::nullopt
                                : std::optional<EdgeId>(it->second));
    }
    if (g.edge_index_capacity() != last_capacity) {
      last_capacity = g.edge_index_capacity();
      ++capacity_changes;
      ASSERT_LE(g.NumEdges() * 4, last_capacity * 3);
    }
    if (op % 8192 == 0) ExpectIndexMatches(g, oracle);
  }
  ExpectIndexMatches(g, oracle);
  EXPECT_GE(capacity_changes, 10);  // 16 -> 16384 at least

  // A copy owns its index: removing half its edges and adding new ones
  // leaves the original's answers unchanged.
  SocialGraph copy = g;
  TripleOracle copy_oracle = oracle;
  bool drop = false;
  for (auto it = copy_oracle.begin(); it != copy_oracle.end();) {
    if ((drop = !drop)) {
      ASSERT_TRUE(copy.RemoveEdge(it->second).ok());
      it = copy_oracle.erase(it);
    } else {
      ++it;
    }
  }
  for (NodeId v = 0; v < kNodes; ++v) {
    const Triple t{v, kNodes - 1 - v, LabelId{2}};
    auto id = copy.AddEdge(v, kNodes - 1 - v, LabelId{2});
    ASSERT_TRUE(id.ok());
    copy_oracle.emplace(t, *id);
  }
  ExpectIndexMatches(copy, copy_oracle);
  ExpectIndexMatches(g, oracle);

  // Wrapping runs: six triples whose home is slot 14 or 15 and four
  // whose home is slot 0 or 1 fill slots 14, 15, 0, 1, ... of a 16-slot
  // table (ten live ids stay under its 3/4 bound).
  SocialGraph w;
  w.AddNodes(4096);
  const LabelId friend_label = w.labels().Intern("friend");
  std::vector<Triple> wrap;
  size_t near_end = 0, near_start = 0;
  for (NodeId src = 0; near_end < 6 || near_start < 4; ++src) {
    const uint64_t home =
        SocialGraph::EdgeTripleHash(src, src + 1, friend_label) & 15;
    if (home >= 14 && near_end < 6) {
      ++near_end;
    } else if (home <= 1 && near_start < 4) {
      ++near_start;
    } else {
      continue;
    }
    wrap.push_back({src, src + 1, friend_label});
  }
  for (int round = 0; round < 500; ++round) {
    TripleOracle live;
    for (const Triple& t : wrap) {
      auto id = w.AddEdge(std::get<0>(t), std::get<1>(t), std::get<2>(t));
      ASSERT_TRUE(id.ok());
      live.emplace(t, *id);
    }
    ASSERT_EQ(w.edge_index_capacity(), 16u);
    ExpectIndexMatches(w, live);
    std::vector<Triple> order = wrap;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    for (const Triple& t : order) {
      ASSERT_TRUE(w.RemoveEdge(live.at(t)).ok());
      live.erase(t);
      ASSERT_FALSE(Find(w, t).has_value());
      ExpectIndexMatches(w, live);
    }
  }
}

// A bundle stores no edge slots: the loaded graph is frozen over the
// bundle's CSR, so it holds no index (capacity 0) and FindEdge finds
// every live triple at its CSR position, and no removed one, by binary
// search alone. The first mutation thaws it and rebuilds the index. The
// bundle's sections are several MiB, so this also streams them across
// chunk edges both ways.
TEST(SocialGraph, EdgeIndexRebuiltOnFirstFindAfterLoad) {
  auto generated =
      GenerateBarabasiAlbert({.base = {.num_nodes = 65536, .seed = 5}});
  ASSERT_TRUE(generated.ok());
  SocialGraph g = std::move(*generated);
  for (EdgeId e = 0; e < g.EdgeSlotCount(); e += 7) {
    ASSERT_TRUE(g.RemoveEdge(e).ok());
  }
  const CsrSnapshot csr = CsrSnapshot::Build(g);
  const DeltaOverlay overlay;
  char tmpl[] = "/tmp/sargus_graph_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/bundle";
  storage::BundlePayload payload;
  payload.graph = &g;
  payload.csr = &csr;
  payload.overlay = &overlay;
  ASSERT_TRUE(storage::WriteBundle(path, payload).ok());
  auto loaded = storage::LoadBundle(path);
  ::unlink(path.c_str());
  ::rmdir(tmpl);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SocialGraph& h = loaded->graph;
  EXPECT_TRUE(h.frozen());
  EXPECT_EQ(h.edge_index_capacity(), 0u);
  ASSERT_EQ(h.NumEdges(), g.NumEdges());
  ASSERT_EQ(h.EdgeSlotCount(), h.NumEdges());
  EdgeId slot = 0;
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    const auto dsts = csr.Out(v);
    const auto labels = csr.OutLabels(v);
    for (size_t i = 0; i < dsts.size(); ++i) {
      ASSERT_EQ(h.FindEdge(v, dsts[i], labels[i]), std::optional<EdgeId>(slot));
      ++slot;
    }
  }
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    const Edge& rec = g.edge(e);
    EXPECT_EQ(h.FindEdge(rec.src, rec.dst, rec.label).has_value(),
              g.IsLiveEdge(e))
        << e;
  }
  EXPECT_EQ(h.edge_index_capacity(), 0u);  // lookups never built it
  const Edge first = h.edge(0);
  ASSERT_TRUE(h.RemoveEdge(0).ok());
  EXPECT_FALSE(h.frozen());
  EXPECT_FALSE(h.FindEdge(first.src, first.dst, first.label).has_value());
  EXPECT_GT(h.edge_index_capacity(), 0u);
  EXPECT_LE(h.NumEdges() * 4, h.edge_index_capacity() * 3);
}

// Every generator freezes its graph, which holds no triple index: a
// generated graph's lookups read the CSR, and an add that coalesces
// leaves it frozen. The first mutation thaws it, and from then on
// lookups, coalescing and removal behave as on a graph that was never
// frozen, with the rebuilt table inside the 3/4 bound.
TEST(SocialGraph, FinishedGraphHoldsNoEdgeIndex) {
  const SocialGraphSpec base{.num_nodes = 2048, .seed = 11};
  auto check = [](const char* kind, Result<SocialGraph> generated) {
    SCOPED_TRACE(kind);
    ASSERT_TRUE(generated.ok());
    SocialGraph& g = *generated;
    EXPECT_TRUE(g.frozen());
    EXPECT_EQ(g.edge_index_capacity(), 0u);
    for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
      if (!g.IsLiveEdge(e)) continue;
      const Edge rec = g.edge(e);
      ASSERT_EQ(g.FindEdge(rec.src, rec.dst, rec.label),
                std::optional<EdgeId>(e));
    }
    ASSERT_TRUE(g.IsLiveEdge(0));
    const Edge first = g.edge(0);
    const size_t edges = g.NumEdges();
    const auto again = g.AddEdge(first.src, first.dst, first.label);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, EdgeId{0});  // coalesced onto the existing edge
    EXPECT_EQ(g.NumEdges(), edges);
    EXPECT_TRUE(g.frozen());
    ASSERT_TRUE(g.RemoveEdge(0).ok());
    EXPECT_FALSE(g.frozen());
    EXPECT_FALSE(g.FindEdge(first.src, first.dst, first.label).has_value());
    EXPECT_EQ(g.NumEdges(), edges - 1);
    EXPECT_GT(g.edge_index_capacity(), 0u);
    EXPECT_LE(g.NumEdges() * 4, g.edge_index_capacity() * 3);
  };
  check("ER", GenerateErdosRenyi({.base = base, .avg_out_degree = 4.0}));
  check("BA", GenerateBarabasiAlbert({.base = base, .edges_per_node = 4}));
  check("WS", GenerateWattsStrogatz(
                  {.base = base, .neighbors_per_side = 2,
                   .rewire_probability = 0.1}));
}

// A frozen graph's MemoryBytes is exactly its snapshot's plus its
// attribute columns (one int64 per node each): no slots, no index. A
// thaw refills 10 B a slot and rebuilds the index, which MemoryBytes then
// counts instead of the snapshot, and the whole graph stays within 24 B
// per live edge (the node-based map the index replaced cost ~60 B on its
// own).
TEST(SocialGraph, MemoryBytesCountsTheEdgeIndex) {
  auto g = GenerateBarabasiAlbert({.base = {.num_nodes = 65536, .seed = 5}});
  ASSERT_TRUE(g.ok());
  const size_t column_bytes =
      g->attrs().size() * g->NumNodes() * sizeof(int64_t);
  ASSERT_TRUE(g->frozen());
  EXPECT_EQ(g->edge_index_capacity(), 0u);
  EXPECT_EQ(g->MemoryBytes(), g->frozen_csr()->MemoryBytes() + column_bytes);
  g->Thaw();
  // A slot is a packed 10-byte record (DeadSlotIsMarkedInBand pins it).
  const size_t index_bytes = g->edge_index_capacity() * sizeof(EdgeId);
  EXPECT_GT(index_bytes, 0u);
  EXPECT_EQ(g->MemoryBytes(),
            g->EdgeSlotCount() * 10 + column_bytes + index_bytes);
  EXPECT_LE(static_cast<double>(g->MemoryBytes()) /
                static_cast<double>(g->NumEdges()),
            24.0);
}

// Freeze renumbers the live edges into CSR order and drops the
// tombstones: edge e is the e-th out-entry of the graph's snapshot, and
// FindEdge finds every live triple there, and no removed one, with no
// triple index. A thaw keeps every id, and a copy of a frozen graph
// shares the snapshot and thaws without touching the original.
TEST(SocialGraph, FreezeRenumbersIntoCsrOrder) {
  const SocialGraphSpec base{.num_nodes = 4096, .seed = 21};
  auto check = [](const char* kind, Result<SocialGraph> generated) {
    SCOPED_TRACE(kind);
    ASSERT_TRUE(generated.ok());
    SocialGraph& g = *generated;
    std::vector<Edge> removed;
    for (EdgeId e = 3; e < g.EdgeSlotCount(); e += 5) {
      removed.push_back(g.edge(e));
      ASSERT_TRUE(g.RemoveEdge(e).ok());
    }
    ASSERT_FALSE(g.frozen());
    ASSERT_GT(g.EdgeSlotCount(), g.NumEdges());  // tombstones
    const size_t live = g.NumEdges();
    g.Freeze();
    ASSERT_TRUE(g.frozen());
    EXPECT_EQ(g.NumEdges(), live);
    EXPECT_EQ(g.EdgeSlotCount(), live);
    EXPECT_EQ(g.edge_index_capacity(), 0u);

    const CsrSnapshot& csr = *g.frozen_csr();
    ASSERT_EQ(csr.NumEdges(), live);
    EdgeId e = 0;
    for (NodeId v = 0; v < csr.NumNodes(); ++v) {
      const auto dsts = csr.Out(v);
      const auto labels = csr.OutLabels(v);
      for (size_t i = 0; i < dsts.size(); ++i, ++e) {
        ASSERT_TRUE(g.IsLiveEdge(e));
        const Edge rec = g.edge(e);
        ASSERT_TRUE(rec.src == v && rec.dst == dsts[i] &&
                    rec.label == labels[i])
            << "edge " << e;
        ASSERT_EQ(g.FindEdge(v, dsts[i], labels[i]), std::optional<EdgeId>(e));
      }
    }
    EXPECT_FALSE(g.IsLiveEdge(e));
    for (const Edge& rec : removed) {
      ASSERT_FALSE(g.FindEdge(rec.src, rec.dst, rec.label).has_value());
    }
    EXPECT_FALSE(g.FindEdge(0, 1, kInvalidLabel).has_value());
    EXPECT_FALSE(
        g.FindEdge(static_cast<NodeId>(g.NumNodes()), 0, 0).has_value());
    EXPECT_EQ(g.edge_index_capacity(), 0u);

    // A copy shares the snapshot; thawing it leaves the original frozen
    // over the same object, with the same answers.
    SocialGraph copy = g;
    EXPECT_EQ(copy.frozen_csr().get(), &csr);
    copy.Thaw();
    EXPECT_FALSE(copy.frozen());
    EXPECT_EQ(copy.frozen_csr(), nullptr);
    ASSERT_EQ(copy.EdgeSlotCount(), live);
    for (EdgeId id = 0; id < live; ++id) {
      const Edge a = g.edge(id);
      const Edge b = copy.edge(id);
      ASSERT_TRUE(a.src == b.src && a.dst == b.dst && a.label == b.label)
          << "edge " << id;
      ASSERT_EQ(copy.FindEdge(a.src, a.dst, a.label),
                std::optional<EdgeId>(id));
    }
    ASSERT_TRUE(copy.RemoveEdge(0).ok());
    EXPECT_TRUE(g.frozen());
    EXPECT_EQ(g.frozen_csr().get(), &csr);
    EXPECT_EQ(g.NumEdges(), live);
    EXPECT_TRUE(g.IsLiveEdge(0));

    // Freezing the copy again renumbers past the removed first edge.
    copy.Freeze();
    EXPECT_EQ(copy.NumEdges(), live - 1);
    const Edge a = g.edge(1);
    const Edge b = copy.edge(0);
    EXPECT_TRUE(a.src == b.src && a.dst == b.dst && a.label == b.label);
  };
  check("ER", GenerateErdosRenyi({.base = base, .avg_out_degree = 4.0}));
  check("BA", GenerateBarabasiAlbert({.base = base, .edges_per_node = 4}));
  check("WS", GenerateWattsStrogatz(
                  {.base = base, .neighbors_per_side = 2,
                   .rewire_probability = 0.1}));
}

// A frozen graph's reads are pure, and its snapshot is shared and
// immutable (bar the in-side, derived once under its own lock), so
// readers of the original race neither the first In() on the shared
// snapshot nor a copy that thaws, mutates and refreezes beside them.
TEST(SocialGraph, CopyThawsWhileOriginalIsRead) {
  auto generated =
      GenerateBarabasiAlbert({.base = {.num_nodes = 2048, .seed = 9}});
  ASSERT_TRUE(generated.ok());
  const SocialGraph g = std::move(*generated);
  const size_t edges = g.NumEdges();
  std::atomic<size_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (EdgeId e = t; e < edges; e += 3) {
        const Edge rec = g.edge(e);
        if (!g.IsLiveEdge(e) ||
            g.FindEdge(rec.src, rec.dst, rec.label) != std::optional(e) ||
            g.frozen_csr()->In(rec.dst).empty()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    SocialGraph copy = g;
    ASSERT_TRUE(copy.RemoveEdge(static_cast<EdgeId>(round)).ok());
    ASSERT_TRUE(copy.AddEdge(0, 1, LabelId{0}).ok());
    copy.Freeze();
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_TRUE(g.frozen());
  EXPECT_EQ(g.NumEdges(), edges);
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
