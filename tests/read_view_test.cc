#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/access_engine.h"
#include "query/eval_context.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::BruteForceMatch;
using testing_util::MakeDiamond;
using testing_util::MirrorGraph;
using testing_util::MustBind;

// ---- View lifecycle ---------------------------------------------------------

struct ViewFixture {
  SocialGraph g;
  PolicyStore store;
  ResourceId res = 0;
  std::unique_ptr<AccessControlEngine> engine;

  explicit ViewFixture(const std::vector<std::string>& rule_paths,
                       EngineOptions options = {}) {
    g = MakeDiamond();
    res = store.RegisterResource(/*owner=*/0, "doc");
    (void)store.AddRuleFromPaths(res, rule_paths).ValueOrDie();
    engine = std::make_unique<AccessControlEngine>(g, store, options);
    auto st = engine->RebuildIndexes();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  bool GrantedOn(const AccessReadView& view, NodeId requester) {
    auto r = view.CheckAccess({.requester = requester, .resource = res});
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->granted;
  }
};

TEST(ReadView, PublicationSwapsViewsAndStampsDecisions) {
  ViewFixture f({"colleague[1]"});
  auto v0 = f.engine->AcquireReadView();
  ASSERT_NE(v0, nullptr);
  EXPECT_EQ(v0->snapshot_generation(), 1u);
  EXPECT_FALSE(f.GrantedOn(*v0, 5));  // 0 has no colleague out-edge

  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  auto v1 = f.engine->AcquireReadView();
  ASSERT_NE(v1, v0);  // mutation published a new view
  EXPECT_TRUE(f.GrantedOn(*v1, 5));
  // The old view still answers against its frozen state.
  EXPECT_FALSE(f.GrantedOn(*v0, 5));

  // Stamps identify the state each view serves.
  auto d0 = v0->CheckAccess({.requester = 5, .resource = f.res});
  auto d1 = v1->CheckAccess({.requester = 5, .resource = f.res});
  ASSERT_TRUE(d0.ok());
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d0->snapshot_generation, d1->snapshot_generation);
  EXPECT_LT(d0->overlay_version, d1->overlay_version);
}

TEST(ReadView, OldViewKeptAliveAcrossCompactStillAnswersConsistently) {
  ViewFixture f({"colleague[1]"});
  // Stage a grant-changing mutation, pin the pre-compaction view.
  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  ASSERT_TRUE(f.engine->RemoveEdge(2, 3, "colleague").ok());
  auto overlay_view = f.engine->AcquireReadView();
  const uint64_t gen = overlay_view->snapshot_generation();
  const uint64_t ver = overlay_view->overlay_version();
  EXPECT_TRUE(f.GrantedOn(*overlay_view, 5));
  EXPECT_FALSE(overlay_view->overlay().empty());

  ASSERT_TRUE(f.engine->Compact().ok());
  f.engine->WaitForCompaction();  // background by default
  auto compacted_view = f.engine->AcquireReadView();
  EXPECT_GT(compacted_view->snapshot_generation(), gen);
  EXPECT_TRUE(compacted_view->overlay().empty());

  // The pinned view survived compaction: same stamps, same answers,
  // repeatedly, even though the engine's SocialGraph has since been
  // rewritten underneath its (frozen) CSR + overlay pair.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(f.GrantedOn(*overlay_view, 5));
    auto d = overlay_view->CheckAccess({.requester = 5, .resource = f.res});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->snapshot_generation, gen);
    EXPECT_EQ(d->overlay_version, ver);
  }
  // Both views agree on the logical graph (compaction changes cost, not
  // answers).
  for (NodeId req = 0; req < 6; ++req) {
    EXPECT_EQ(f.GrantedOn(*overlay_view, req),
              f.GrantedOn(*compacted_view, req))
        << req;
  }
}

TEST(ReadView, PolicyChangesInvisibleUntilRepublish) {
  ViewFixture f({"colleague[1]"});
  auto stale = f.engine->AcquireReadView();
  // A rule added after publication is invisible to served decisions...
  ASSERT_TRUE(f.store.AddRuleFromPaths(f.res, {"friend[1]"}).ok());
  EXPECT_FALSE(f.GrantedOn(*stale, 1));  // friend[1] would grant 1
  auto still_stale = f.engine->CheckAccess({.requester = 1,
                                            .resource = f.res});
  ASSERT_TRUE(still_stale.ok());
  EXPECT_FALSE(still_stale->granted);
  // ...until the next publish picks it up.
  ASSERT_TRUE(f.engine->RefreshPolicies().ok());
  auto fresh = f.engine->CheckAccess({.requester = 1, .resource = f.res});
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->granted);
  // The pinned pre-refresh view still serves the old policy.
  EXPECT_FALSE(f.GrantedOn(*stale, 1));
  // Mutations republish too (and refresh stale policy along the way).
  ASSERT_TRUE(f.store.AddRuleFromPaths(f.res, {"friend[1,2]"}).ok());
  ASSERT_TRUE(f.engine->AddEdge(0, 5, "colleague").ok());
  auto after_mutation = f.engine->CheckAccess({.requester = 2,
                                               .resource = f.res});
  ASSERT_TRUE(after_mutation.ok());
  EXPECT_TRUE(after_mutation->granted);  // 0 -f-> 1 -f-> 2
}

// ---- Batch API --------------------------------------------------------------

TEST(ReadView, BatchAgreesWithLoopAndIsPositional) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId r0 = store.RegisterResource(0, "a");
  (void)store.AddRuleFromPaths(r0, {"friend[1,2]"}).ValueOrDie();
  const ResourceId r1 = store.RegisterResource(2, "b");
  (void)store.AddRuleFromPaths(r1, {"colleague[1]"}).ValueOrDie();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  auto view = engine.AcquireReadView();

  // Interleaved resources (so grouping has to reorder), one bad
  // resource, one out-of-range requester, one witness request.
  std::vector<AccessRequest> requests;
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    requests.push_back({.requester = static_cast<NodeId>(rng.NextBounded(6)),
                        .resource = rng.NextBool(0.5) ? r0 : r1,
                        .want_witness = (i % 5 == 0)});
  }
  requests.push_back({.requester = 1, .resource = 99});   // unknown resource
  requests.push_back({.requester = 99, .resource = r0});  // bad requester

  EvalContext ctx;
  auto batch = view->CheckAccessBatch(requests, ctx);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto loop = view->CheckAccess(requests[i]);
    ASSERT_EQ(batch[i].ok(), loop.ok()) << i;
    if (!loop.ok()) {
      EXPECT_EQ(batch[i].status().code(), loop.status().code()) << i;
      continue;
    }
    EXPECT_EQ(batch[i]->granted, loop->granted) << i;
    EXPECT_EQ(batch[i]->requester, requests[i].requester) << i;
    EXPECT_EQ(batch[i]->resource, requests[i].resource) << i;
    EXPECT_EQ(batch[i]->witness.empty(), loop->witness.empty()) << i;
  }
  // The two malformed slots failed alone.
  EXPECT_EQ(batch[40].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(batch[41].status().code(), StatusCode::kInvalidArgument);

  // Engine facade batch agrees and audits the successful decisions.
  auto facade = engine.CheckAccessBatch(requests);
  ASSERT_EQ(facade.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(facade[i].ok(), batch[i].ok()) << i;
    if (facade[i].ok()) {
      EXPECT_EQ(facade[i]->granted, batch[i]->granted) << i;
    }
  }
  EXPECT_EQ(engine.AuditTrail().size(), 40u);
}

// ---- Concurrency ------------------------------------------------------------

TEST(ReadView, ConcurrentReadersVsMutatorAgreeWithPerStateOracle) {
  auto gen = GenerateErdosRenyi(
      {.base = {.num_nodes = 16, .seed = 99}, .avg_out_degree = 2.0});
  ASSERT_TRUE(gen.ok());
  SocialGraph g = std::move(*gen);

  PolicyStore store;
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,2]"},
      {"friend[1]/colleague[1]"},
      {"colleague[1,2]"},
      {"friend[1,3]"},
  };
  struct Res {
    ResourceId id;
    NodeId owner;
  };
  std::vector<Res> resources;
  for (NodeId owner = 0; owner < 4; ++owner) {
    ResourceId id =
        store.RegisterResource(owner, "doc" + std::to_string(owner));
    (void)store.AddRuleFromPaths(id, rule_sets[owner]).ValueOrDie();
    resources.push_back({id, owner});
  }

  // Auto-compaction off: the mutator compacts explicitly, so every
  // published state is one it recorded an oracle matrix for.
  AccessControlEngine engine(g, store,
                             {.use_closure_prefilter = true,
                              .compact_threshold = 0});
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  // Bound once against the engine graph (dictionaries only grow, so
  // these stay valid across compactions).
  std::vector<std::vector<BoundPathExpression>> bound(resources.size());
  for (size_t i = 0; i < resources.size(); ++i) {
    for (const std::string& text : rule_sets[i]) {
      bound[i].push_back(MustBind(g, text));
    }
  }
  const LabelId fr = g.labels().Lookup("friend");
  const LabelId co = g.labels().Lookup("colleague");
  ASSERT_NE(fr, kInvalidLabel);
  ASSERT_NE(co, kInvalidLabel);

  const size_t kNumNodes = g.NumNodes();
  const size_t kNumResources = resources.size();

  // Expected grant for every (resource, requester), per published state,
  // keyed by the (snapshot_generation, overlay_version) stamp.
  using StateKey = std::pair<uint64_t, uint64_t>;
  using Matrix = std::vector<uint8_t>;  // resources × requesters
  std::map<StateKey, Matrix> oracle_by_state;
  std::mutex oracle_mu;  // map insertions race reader starts, not lookups

  MirrorGraph mirror(g);
  auto record_state = [&]() {
    Matrix m(kNumResources * kNumNodes, 0);
    CsrSnapshot csr = CsrSnapshot::Build(mirror.g);
    for (size_t i = 0; i < kNumResources; ++i) {
      for (NodeId req = 0; req < kNumNodes; ++req) {
        bool expected = resources[i].owner == req;
        for (const auto& expr : bound[i]) {
          if (expected) break;
          expected = BruteForceMatch(mirror.g, csr, expr,
                                     resources[i].owner, req);
        }
        m[i * kNumNodes + req] = expected ? 1 : 0;
      }
    }
    StateKey key{engine.snapshot_generation(), engine.overlay_version()};
    std::lock_guard<std::mutex> lock(oracle_mu);
    oracle_by_state[key] = std::move(m);
  };
  record_state();  // the initial published state

  struct LoggedDecision {
    uint64_t gen;
    uint64_t ver;
    uint32_t resource_index;
    NodeId requester;
    bool granted;
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> readers_started{0};
  const size_t kReaders = 8;
  std::vector<std::vector<LoggedDecision>> logs(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(1000 + t);
      EvalContext ctx;
      auto& log = logs[t];
      // Half the readers pin fresh views per query, half go through the
      // engine facade (exercising the audit-ring mutex under TSan).
      const bool use_facade = (t % 2 == 0);
      bool announced = false;
      // do/while: every reader logs at least one decision even if the
      // mutator finishes first (single-core schedulers may not run this
      // thread until the main thread blocks in join()).
      do {
        const uint32_t i =
            static_cast<uint32_t>(rng.NextBounded(kNumResources));
        const NodeId req = static_cast<NodeId>(rng.NextBounded(kNumNodes));
        AccessRequest request{.requester = req, .resource = resources[i].id};
        Result<AccessDecision> r = [&]() -> Result<AccessDecision> {
          if (use_facade) return engine.CheckAccess(request);
          auto view = engine.AcquireReadView();
          return view->CheckAccess(request, ctx);
        }();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        log.push_back({r->snapshot_generation, r->overlay_version, i, req,
                       r->granted});
        if (!announced) {
          announced = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  // Don't start mutating until every reader has decided at least once,
  // so publications genuinely race in-flight reads.
  while (readers_started.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  // The (single) mutator: interleaved AddEdge/RemoveEdge with periodic
  // explicit Compact()s, recording the oracle matrix for every state it
  // publishes. Readers race every one of these publications.
  Rng rng(4242);
  const size_t kOps = 120;
  for (size_t op = 0; op < kOps; ++op) {
    if (op % 8 == 0) std::this_thread::yield();  // let readers interleave
    if (op % 24 == 23) {
      // Background compaction: readers race the completion swap; the
      // wait pins down the published (generation, version) to record.
      // (The logical graph is compaction-invariant, so the matrix is
      // the same either way — only the key needs the quiesce.)
      ASSERT_TRUE(engine.Compact().ok());
      engine.WaitForCompaction();
      record_state();
      continue;
    }
    if (rng.NextBool(0.6)) {
      const NodeId s = static_cast<NodeId>(rng.NextBounded(kNumNodes));
      const NodeId d = static_cast<NodeId>(rng.NextBounded(kNumNodes));
      const LabelId l = rng.NextBool(0.5) ? fr : co;
      ASSERT_TRUE(engine.AddEdge(s, d, l).ok());
      mirror.Add(s, d, l);
    } else {
      // Remove a random live logical edge of the mirror, if any.
      const std::optional<Edge> picked = mirror.RandomLiveEdge(rng);
      if (!picked.has_value()) continue;
      ASSERT_TRUE(
          engine.RemoveEdge(picked->src, picked->dst, picked->label).ok());
      mirror.Remove(picked->src, picked->dst, picked->label);
    }
    record_state();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Every logged decision must match the oracle matrix of the exact
  // published state its stamps name.
  size_t checked = 0;
  for (const auto& log : logs) {
    EXPECT_FALSE(log.empty());
    for (const LoggedDecision& d : log) {
      auto it = oracle_by_state.find({d.gen, d.ver});
      ASSERT_NE(it, oracle_by_state.end())
          << "decision stamped with unrecorded state (gen=" << d.gen
          << ", ver=" << d.ver << ")";
      const bool expected =
          it->second[d.resource_index * kNumNodes + d.requester] != 0;
      ASSERT_EQ(d.granted, expected)
          << "gen=" << d.gen << " ver=" << d.ver << " resource "
          << d.resource_index << " requester " << d.requester;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // The facade readers audited concurrently; the ring must have survived
  // (bounded size, no torn entries — TSan guards the rest).
  EXPECT_LE(engine.AuditTrail().size(), engine.options().audit_capacity);
}

TEST(ReadView, EightThreadsHammerOneSharedView) {
  ViewFixture f({"friend[1,2]/colleague[1]"});
  auto view = f.engine->AcquireReadView();
  // Requester 3 is granted (0-f->4-c->3), requester 2 denied.
  std::vector<std::thread> threads;
  std::atomic<size_t> wrong{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      EvalContext ctx;
      for (int i = 0; i < 500; ++i) {
        auto yes = view->CheckAccess(
            {.requester = 3, .resource = f.res,
             .want_witness = (i % 7 == 0)},
            ctx);
        auto no =
            view->CheckAccess({.requester = 2, .resource = f.res}, ctx);
        if (!yes.ok() || !yes->granted || !no.ok() || no->granted) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace sargus
