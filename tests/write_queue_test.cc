#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/access_engine.h"
#include "engine/write_queue.h"
#include "storage/snapshot_format.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using storage::WalRecord;
using testing_util::MakeDiamond;
using testing_util::TempDir;

PolicyStore MakeStore() {
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  EXPECT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,3]"}).ok());
  const ResourceId doc = store.RegisterResource(2, "doc");
  EXPECT_TRUE(store.AddRuleFromPaths(doc, {"colleague[1,2]"}).ok());
  return store;
}

// Applies one WAL record through the mirror engine's public surface —
// exactly what a serial caller would have done at that point in the
// commit order.
void ReplayRecord(AccessControlEngine& mirror, const WalRecord& rec) {
  switch (rec.kind) {
    case WalRecord::Kind::kAddEdge:
      ASSERT_TRUE(mirror.AddEdge(rec.src, rec.dst, rec.label).ok());
      return;
    case WalRecord::Kind::kRemoveEdge:
      ASSERT_TRUE(mirror.RemoveEdge(rec.src, rec.dst, rec.label).ok());
      return;
    case WalRecord::Kind::kAddNode:
      ASSERT_TRUE(mirror.AddNode().ok());
      return;
    case WalRecord::Kind::kPolicyRefresh:
      ASSERT_TRUE(mirror.RefreshPolicies().ok());
      return;
  }
  FAIL() << "unknown record kind";
}

void ExpectDecisionsAgree(const AccessControlEngine& a,
                          const AccessControlEngine& b, size_t num_nodes,
                          size_t num_resources) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (ResourceId res = 0; res < num_resources; ++res) {
      auto da = a.CheckAccess({.requester = v, .resource = res});
      auto db = b.CheckAccess({.requester = v, .resource = res});
      ASSERT_EQ(da.ok(), db.ok()) << "v=" << v << " res=" << res;
      if (!da.ok()) continue;
      EXPECT_EQ(da->granted, db->granted) << "v=" << v << " res=" << res;
      EXPECT_EQ(da->matched_rule, db->matched_rule)
          << "v=" << v << " res=" << res;
    }
  }
}

// ---- Ticket stamps vs the WAL oracle ----------------------------------------

// Every successful ticket's (generation, overlay_version) stamp must be
// byte-identical to the stamp its WAL record carries, and a mirror
// engine replaying the log serially must walk through exactly the same
// version sequence. Includes an idempotent duplicate AddEdge, whose
// record deliberately repeats the previous version (no staging bump).
TEST(WriteQueueTicket, StampsMatchWalMirrorOracle) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  // Pile everything into one deterministic batch.
  engine.write_queue().PauseForTesting(true);
  std::vector<WriteTicket> tickets;
  tickets.push_back(engine.SubmitAddEdge(3, 5, "friend"));
  tickets.push_back(engine.SubmitAddEdge(0, 1, "friend"));  // idempotent dup
  tickets.push_back(engine.SubmitRemoveEdge(2, 0, "friend"));
  tickets.push_back(engine.SubmitAddNode());
  tickets.push_back(engine.SubmitAddEdge(5, 2, "colleague"));
  engine.write_queue().PauseForTesting(false);

  std::vector<WriteOutcome> outcomes;
  for (const auto& t : tickets) outcomes.push_back(t.Wait());
  for (const auto& out : outcomes) ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(outcomes[3].node, 6u);  // diamond has nodes 0..5

  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->records.size(), tickets.size());

  // Ticket stamp == record stamp, op for op (submission order is commit
  // order within one producer).
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].generation, wal->records[i].generation) << i;
    EXPECT_EQ(outcomes[i].overlay_version, wal->records[i].overlay_version)
        << i;
  }
  // The idempotent duplicate bumped nothing: it repeats op 0's version.
  EXPECT_EQ(outcomes[1].overlay_version, outcomes[0].overlay_version);
  EXPECT_GT(outcomes[2].overlay_version, outcomes[1].overlay_version);

  // Serial mirror replay reproduces the exact version walk.
  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  for (const auto& rec : wal->records) {
    ReplayRecord(mirror, rec);
    if (HasFailure()) return;
    EXPECT_EQ(mirror.snapshot_generation(), rec.generation);
    EXPECT_EQ(mirror.overlay_version(), rec.overlay_version);
  }
  ExpectDecisionsAgree(engine, mirror, /*num_nodes=*/6, store.NumResources());
}

// ---- Per-ticket error isolation ---------------------------------------------

// One batch, four ops, two of them bad: the bad ops fail only their own
// tickets; the good ops commit and are visible.
TEST(WriteQueueErrors, IsolatedWithinOneBatch) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  engine.write_queue().PauseForTesting(true);
  WriteTicket good1 = engine.SubmitAddEdge(3, 5, "friend");
  WriteTicket bad_missing = engine.SubmitRemoveEdge(0, 3, "friend");
  WriteTicket bad_range = engine.SubmitAddEdge(99, 0, "friend");
  WriteTicket good2 = engine.SubmitAddEdge(5, 0, "colleague");
  engine.write_queue().PauseForTesting(false);
  engine.FlushWrites();

  EXPECT_TRUE(good1.Wait().status.ok());
  EXPECT_EQ(bad_missing.Wait().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(bad_range.Wait().status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good2.Wait().status.ok());

  // All four drained as ONE group-commit batch.
  const WriteQueueStats stats = engine.write_queue().stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_seen, 4u);
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.applied, 4u);
  EXPECT_EQ(stats.rejected, 0u);

  // The good edges really landed: removing them succeeds.
  EXPECT_TRUE(engine.RemoveEdge(3, 5, "friend").ok());
  EXPECT_TRUE(engine.RemoveEdge(5, 0, "colleague").ok());
}

// A failed op and a successful op in the same batch get different
// stamps only if staging moved between them; the failed op's stamp
// names the state that rejected it.
TEST(WriteQueueErrors, FailedOpStampNamesRejectingState) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  engine.write_queue().PauseForTesting(true);
  WriteTicket good = engine.SubmitAddEdge(3, 5, "friend");
  WriteTicket bad = engine.SubmitRemoveEdge(0, 3, "friend");
  engine.write_queue().PauseForTesting(false);

  const WriteOutcome good_out = good.Wait();
  const WriteOutcome bad_out = bad.Wait();
  ASSERT_TRUE(good_out.status.ok());
  ASSERT_FALSE(bad_out.status.ok());
  // The bad op staged nothing, so it reports the state the good op left.
  EXPECT_EQ(bad_out.generation, good_out.generation);
  EXPECT_EQ(bad_out.overlay_version, good_out.overlay_version);
}

// ---- Backpressure -----------------------------------------------------------

// With the writer paused and the queue at capacity, Submit blocks until
// the writer drains room — it never drops, never errors.
TEST(WriteQueueBackpressure, SubmitBlocksOnFullQueue) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  EngineOptions options;
  options.write_queue_capacity = 2;
  AccessControlEngine engine(g, store, options);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  engine.write_queue().PauseForTesting(true);
  WriteTicket t1 = engine.SubmitAddEdge(3, 5, "friend");
  WriteTicket t2 = engine.SubmitAddEdge(5, 0, "colleague");

  std::atomic<bool> third_submitted{false};
  WriteTicket t3;
  std::thread producer([&] {
    t3 = engine.SubmitAddEdge(1, 4, "friend");
    third_submitted.store(true, std::memory_order_release);
  });

  // The queue is full; the producer must be parked in Submit.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(third_submitted.load(std::memory_order_acquire));

  engine.write_queue().PauseForTesting(false);
  producer.join();
  EXPECT_TRUE(third_submitted.load(std::memory_order_acquire));
  EXPECT_TRUE(t1.Wait().status.ok());
  EXPECT_TRUE(t2.Wait().status.ok());
  EXPECT_TRUE(t3.Wait().status.ok());
}

// ---- Shutdown ---------------------------------------------------------------

// Tickets are never abandoned: ops still queued at shutdown complete
// with an explicit kUnavailable (unapplied), and submits after shutdown
// return tickets born kUnavailable.
TEST(WriteQueueShutdown, DrainsQueuedTicketsAsUnavailable) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  const uint64_t version_before = engine.overlay_version();

  engine.write_queue().PauseForTesting(true);
  std::vector<WriteTicket> stranded;
  stranded.push_back(engine.SubmitAddEdge(3, 5, "friend"));
  stranded.push_back(engine.SubmitRemoveEdge(2, 0, "friend"));
  stranded.push_back(engine.SubmitAddNode());
  engine.write_queue().Shutdown();

  for (const auto& t : stranded) {
    ASSERT_TRUE(t.done());  // resolved, not abandoned
    EXPECT_EQ(t.Wait().status.code(), StatusCode::kUnavailable);
  }
  // None of them were applied.
  EXPECT_EQ(engine.overlay_version(), version_before);
  EXPECT_EQ(engine.write_queue().stats().rejected, 3u);

  // Post-shutdown submissions resolve immediately with kUnavailable,
  // through both the async surface and the legacy shims.
  WriteTicket late = engine.SubmitAddEdge(3, 5, "friend");
  ASSERT_TRUE(late.done());
  EXPECT_EQ(late.Wait().status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.AddEdge(3, 5, "friend").code(), StatusCode::kUnavailable);
}

TEST(WriteQueueShutdown, WaitOnInvalidTicketFailsCleanly) {
  WriteTicket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_FALSE(ticket.done());
  EXPECT_EQ(ticket.Wait().status.code(), StatusCode::kFailedPrecondition);
}

// ---- Group commit: one fsync per batch --------------------------------------

TEST(WriteQueueGroupCommit, OneFsyncPerBatch) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  // One batch of 10: 10 records, ONE fsync.
  engine.write_queue().PauseForTesting(true);
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(engine.SubmitAddEdge(static_cast<NodeId>(i % 6),
                                           static_cast<NodeId>((i + 3) % 6),
                                           "follows" + std::to_string(i)));
  }
  const uint64_t appends_before = engine.wal_append_count();
  const uint64_t syncs_before = engine.wal_sync_count();
  engine.write_queue().PauseForTesting(false);
  engine.FlushWrites();
  for (const auto& t : tickets) EXPECT_TRUE(t.Wait().status.ok());
  EXPECT_EQ(engine.wal_append_count() - appends_before, 10u);
  EXPECT_EQ(engine.wal_sync_count() - syncs_before, 1u);

  // Sequential Wait-each submissions form 10 singleton batches: still
  // one fsync per batch, i.e. 10.
  const uint64_t appends_mid = engine.wal_append_count();
  const uint64_t syncs_mid = engine.wal_sync_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine
                    .SubmitRemoveEdge(static_cast<NodeId>(i % 6),
                                      static_cast<NodeId>((i + 3) % 6),
                                      "follows" + std::to_string(i))
                    .Wait()
                    .status.ok());
  }
  EXPECT_EQ(engine.wal_append_count() - appends_mid, 10u);
  EXPECT_EQ(engine.wal_sync_count() - syncs_mid, 10u);
}

// ---- Randomized multi-producer interleaving vs a serial mirror --------------

// The acceptance oracle: M producers hammer the queue concurrently with
// a randomized op mix; afterwards the WAL (whose record order IS the
// commit order) is replayed serially into a mirror engine. The mirror
// must walk the identical (generation, overlay_version) sequence, the
// successful tickets must match the records one-to-one, and the two
// engines must agree on every access decision.
TEST(WriteQueueInterleave, RandomizedProducersAgreeWithSerialMirror) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  constexpr int kProducers = 4;
  constexpr int kOpsPerProducer = 150;  // 600 total: below the
                                        // auto-compaction threshold, so
                                        // generation stays fixed
  const std::vector<std::string> labels = {"friend", "colleague", "follows"};

  std::vector<std::vector<WriteTicket>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(0xACE5 + static_cast<uint64_t>(p));
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const auto src = static_cast<NodeId>(rng.NextBounded(6));
        const auto dst = static_cast<NodeId>(rng.NextBounded(6));
        const auto& label = labels[rng.NextBounded(labels.size())];
        const uint64_t roll = rng.NextBounded(10);
        if (roll < 6) {
          tickets[p].push_back(engine.SubmitAddEdge(src, dst, label));
        } else if (roll < 9) {
          tickets[p].push_back(engine.SubmitRemoveEdge(src, dst, label));
        } else {
          tickets[p].push_back(engine.SubmitAddNode());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.FlushWrites();

  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  // Successful tickets <-> WAL records, as multisets of
  // (kind, src, dst, generation, version). Failed ops log nothing.
  using Key = std::tuple<uint8_t, NodeId, NodeId, uint64_t, uint64_t>;
  std::vector<Key> from_tickets;
  for (const auto& per_thread : tickets) {
    for (const auto& t : per_thread) {
      const WriteOutcome out = t.Wait();
      if (!out.status.ok()) {
        EXPECT_EQ(out.status.code(), StatusCode::kNotFound)
            << out.status.ToString();
        continue;
      }
      // Ticket handles don't retain the op, so kind/endpoints come from
      // the matching record; collapse to the stamp here and let the
      // mirror walk below pin the op payloads.
      from_tickets.emplace_back(0, 0, 0, out.generation, out.overlay_version);
    }
  }
  std::vector<Key> from_records;
  for (const auto& rec : wal->records) {
    from_records.emplace_back(0, 0, 0, rec.generation, rec.overlay_version);
  }
  std::sort(from_tickets.begin(), from_tickets.end());
  std::sort(from_records.begin(), from_records.end());
  EXPECT_EQ(from_tickets, from_records)
      << "ticket stamps and WAL record stamps diverge";

  // Serial mirror replay: identical stamp walk, record by record.
  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  size_t added_nodes = 0;
  for (const auto& rec : wal->records) {
    if (rec.kind == WalRecord::Kind::kAddNode) ++added_nodes;
    ReplayRecord(mirror, rec);
    if (HasFailure()) return;
    ASSERT_EQ(mirror.snapshot_generation(), rec.generation);
    ASSERT_EQ(mirror.overlay_version(), rec.overlay_version);
  }
  ExpectDecisionsAgree(engine, mirror, 6 + added_nodes, store.NumResources());
}

// ---- Concurrency stress (TSan target) ---------------------------------------

// Producers, readers, and stats pollers all running at once against one
// engine; under TSan this pins the queue's synchronization. Every
// submitted op must be accounted for (applied or rejected, never lost).
TEST(WriteQueueStress, ConcurrentProducersAndReaders) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  constexpr int kProducers = 4;
  constexpr int kReaders = 2;
  constexpr int kOpsPerProducer = 200;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Rng rng(0xBEEF + static_cast<uint64_t>(p));
      for (int i = 0; i < kOpsPerProducer; ++i) {
        const auto src = static_cast<NodeId>(rng.NextBounded(6));
        const auto dst = static_cast<NodeId>(rng.NextBounded(6));
        if (rng.NextBool(0.5)) {
          // Half synchronous shims, half fire-and-forget tickets: both
          // submission styles race here on purpose.
          (void)engine.AddEdge(src, dst, "friend");
        } else {
          (void)engine.SubmitRemoveEdge(src, dst, "friend");
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(0xFACE + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const auto v = static_cast<NodeId>(rng.NextBounded(6));
        (void)engine.CheckAccess({.requester = v, .resource = 0});
        (void)engine.write_queue().stats();
        auto view = engine.AcquireReadView();
        ASSERT_NE(view, nullptr);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  engine.FlushWrites();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kProducers + r].join();

  const WriteQueueStats stats = engine.write_queue().stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers) * kOpsPerProducer);
  EXPECT_EQ(stats.applied + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.max_batch_seen, 1u);
}

// ---- Legacy facade semantics ------------------------------------------------

// The synchronous calls are Submit+Wait shims now; their status surface
// must not have moved.
TEST(WriteQueueFacade, SyncShimsPreserveLegacyStatuses) {
  SocialGraph g = MakeDiamond();
  PolicyStore store = MakeStore();

  {
    // Before RebuildIndexes every mutation is kFailedPrecondition.
    SocialGraph g2 = MakeDiamond();
    AccessControlEngine unbuilt(g2, store);
    EXPECT_EQ(unbuilt.AddEdge(0, 1, "friend").code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // Const-graph engines refuse mutations but still refresh policies.
    const SocialGraph& const_graph = g;
    AccessControlEngine frozen(const_graph, store);
    ASSERT_TRUE(frozen.RebuildIndexes().ok());
    EXPECT_EQ(frozen.AddEdge(0, 1, "friend").code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(frozen.RefreshPolicies().ok());
  }

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  EXPECT_TRUE(engine.AddEdge(0, 1, "friend").ok());  // idempotent dup
  EXPECT_EQ(engine.AddEdge(99, 0, "friend").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RemoveEdge(0, 3, "friend").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.RemoveEdge(0, 1, "nope").code(), StatusCode::kNotFound);
  auto node = engine.AddNode();
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 6u);
  EXPECT_TRUE(engine.AddEdge(*node, 0, "friend").ok());
  EXPECT_TRUE(engine.RefreshPolicies().ok());
}

}  // namespace
}  // namespace sargus
