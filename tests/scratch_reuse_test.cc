/// Tests for the query-scratch subsystem: the one-bit-per-slot set,
/// pooled reuse across queries (the zero-allocation steady state), sets
/// left empty by every walk, witness-parent isolation between queries,
/// and the thread-safety contract of const Evaluate.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/slot_bitset.h"
#include "query/audience.h"
#include "query/bidirectional.h"
#include "query/eval_context.h"
#include "query/join_evaluator.h"
#include "query/online_evaluator.h"
#include "tests/paper_test_util.h"

namespace sargus {
namespace {

using testing_util::BuildStack;
using testing_util::MakeDiamond;
using testing_util::MustBind;

TEST(SlotBitSet, InsertContainsAndClear) {
  SlotBitSet set;
  set.Reserve(130);
  EXPECT_TRUE(set.Empty());
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));  // already a member
  EXPECT_TRUE(set.Contains(3));
  EXPECT_TRUE(set.Insert(129));  // a slot in another word
  EXPECT_FALSE(set.Contains(128));
  EXPECT_FALSE(set.Empty());

  // Clearing from the inserted slots empties the set.
  set.ClearWordOf(3);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Contains(129));
  set.ClearWordOf(129);
  EXPECT_TRUE(set.Empty());
  EXPECT_TRUE(set.Insert(3));
}

TEST(SlotBitSet, GrowthLeavesNewWordsClear) {
  SlotBitSet set;
  set.Reserve(4);
  EXPECT_EQ(set.capacity(), 64u);  // whole words
  EXPECT_TRUE(set.Insert(2));
  set.Reserve(1000);  // grow while a member is set
  EXPECT_GE(set.capacity(), 1000u);
  EXPECT_TRUE(set.Contains(2));  // growth keeps the old words
  for (size_t i = 64; i < set.capacity(); ++i) {
    ASSERT_FALSE(set.Contains(i)) << i;
  }
  EXPECT_TRUE(set.Insert(999));
  const size_t bytes = set.MemoryBytes();
  set.Reserve(4);  // never shrinks
  EXPECT_GE(set.capacity(), 1000u);
  EXPECT_EQ(set.MemoryBytes(), bytes);
  EXPECT_TRUE(set.Contains(999));
}

class ScratchReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stack_ = BuildStack(MakeDiamond(), /*include_backward=*/true);
    ASSERT_NE(stack_, nullptr);
  }
  std::unique_ptr<testing_util::Stack> stack_;
};

/// Back-to-back grant -> deny -> grant on one evaluator and one context:
/// each walk must leave the visited set empty (no stale visited state
/// producing a wrong deny or grant) and the arrays must be reused, not
/// reallocated.
TEST_F(ScratchReuseTest, GrantDenyGrantReusesStamps) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  OnlineEvaluator eval(stack_->g, stack_->csr);
  EvalContext ctx;

  auto grant1 = eval.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant1.ok());
  EXPECT_TRUE(grant1->granted);
  EXPECT_GT(ctx.scratch.visited().capacity(), 0u);
  EXPECT_TRUE(ctx.scratch.visited().Empty());
  const size_t bytes_after_first = ctx.scratch.MemoryBytes();

  auto deny = eval.Evaluate(ReachQuery{5, 0, &expr, true}, ctx);
  ASSERT_TRUE(deny.ok());
  EXPECT_FALSE(deny->granted);
  EXPECT_TRUE(deny->witness.empty());
  EXPECT_TRUE(ctx.scratch.visited().Empty());

  auto grant2 = eval.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant2.ok());
  EXPECT_TRUE(grant2->granted);
  EXPECT_EQ(grant2->witness, grant1->witness);
  EXPECT_EQ(grant2->stats.pairs_visited, grant1->stats.pairs_visited);
  EXPECT_TRUE(ctx.scratch.visited().Empty());

  // No regrowth: the steady-state path performed no O(|V|·states)
  // allocation.
  EXPECT_EQ(ctx.scratch.MemoryBytes(), bytes_after_first);
}

/// Witness parents live beside the frontier and are emptied with it; a
/// later query must not stitch a path out of a previous query's parent
/// links.
TEST_F(ScratchReuseTest, WitnessParentsDoNotLeakAcrossQueries) {
  const BoundPathExpression long_expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  const BoundPathExpression short_expr = MustBind(stack_->g, "colleague[1]");
  OnlineEvaluator eval(stack_->g, stack_->csr);
  EvalContext ctx;

  // Populate parents with the long query's chains.
  auto first = eval.Evaluate(ReachQuery{0, 3, &long_expr, true}, ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->granted);
  ASSERT_GE(first->witness.size(), 3u);

  // A different (src, expr) query on the same scratch: its witness must
  // be exactly its own one-hop path, not contaminated by stale parents.
  auto second = eval.Evaluate(ReachQuery{4, 3, &short_expr, true}, ctx);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->granted);
  EXPECT_EQ(second->witness, (std::vector<NodeId>{4, 3}));
}

/// A context reused across every pair, alternating the online and the
/// bidirectional evaluator, decides exactly as a fresh context per query
/// does, and every set in the pool reads empty afterwards.
TEST_F(ScratchReuseTest, ReusedContextKeepsDecisionsStable) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  OnlineEvaluator online(stack_->g, stack_->csr);
  BidirectionalEvaluator bidir(stack_->g, stack_->csr);
  EvalContext ctx;

  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 0; dst < 6; ++dst) {
      EvalContext fresh;
      const bool expected =
          online.Evaluate(ReachQuery{src, dst, &expr, false}, fresh)->granted;
      EXPECT_EQ(
          online.Evaluate(ReachQuery{src, dst, &expr, true}, ctx)->granted,
          expected)
          << "online " << src << "->" << dst;
      EXPECT_EQ(
          bidir.Evaluate(ReachQuery{src, dst, &expr, dst % 2 == 0}, ctx)
              ->granted,
          expected)
          << "bidir " << src << "->" << dst;
    }
  }
  EXPECT_TRUE(ctx.scratch.visited().Empty());
  EXPECT_GT(ctx.scratch.visited_back.capacity(), 0u);
  EXPECT_TRUE(ctx.scratch.visited_back.Empty());
}

/// The adjacency join's per-sequence seen array comes from the pool too.
TEST_F(ScratchReuseTest, JoinEvaluatorReusesLineScratch) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  JoinIndexEvaluator join(stack_->g, stack_->lg, *stack_->cluster);
  EvalContext ctx;

  auto grant1 = join.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant1.ok());
  EXPECT_TRUE(grant1->granted);
  const size_t line_capacity = ctx.scratch.line_seen.capacity();

  auto deny = join.Evaluate(ReachQuery{5, 0, &expr, false}, ctx);
  ASSERT_TRUE(deny.ok());
  EXPECT_FALSE(deny->granted);

  auto grant2 = join.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant2.ok());
  EXPECT_TRUE(grant2->granted);
  EXPECT_EQ(grant2->witness, grant1->witness);
  EXPECT_EQ(ctx.scratch.line_seen.capacity(), line_capacity);
  EXPECT_TRUE(ctx.scratch.line_seen.Empty());

  // A sequence stopped by the tuple cap mid-hop clears its bits too:
  // 0 -> 2 fails friend/colleague, then friend/friend/colleague pushes
  // one live tuple after its first hop, over a cap of zero.
  JoinIndexOptions capped;
  capped.max_intermediate_tuples = 0;
  JoinIndexEvaluator capped_join(stack_->g, stack_->lg, *stack_->cluster,
                                 capped);
  auto exhausted = capped_join.Evaluate(ReachQuery{0, 2, &expr, false}, ctx);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.scratch.line_seen.Empty());
}

/// The audience collector shares the same pool; repeated calls agree and
/// reuse the product-space arrays.
TEST_F(ScratchReuseTest, AudienceCollectorReusesScratch) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  EvalContext ctx;
  const auto first = CollectMatchingAudience(stack_->g, stack_->csr, expr, 0,
                                             &ctx);
  const size_t bytes = ctx.scratch.MemoryBytes();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(CollectMatchingAudience(stack_->g, stack_->csr, expr, 0, &ctx),
              first);
  }
  EXPECT_EQ(ctx.scratch.MemoryBytes(), bytes);
  EXPECT_TRUE(ctx.scratch.visited().Empty());
  EXPECT_TRUE(ctx.scratch.node_marks.Empty());
}

/// Thread-safety contract: any number of threads may call Evaluate(q) on
/// one shared const evaluator — each thread gets its own pooled context.
TEST_F(ScratchReuseTest, ConcurrentEvaluateSmoke) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  const OnlineEvaluator online(stack_->g, stack_->csr);
  const BidirectionalEvaluator bidir(stack_->g, stack_->csr);

  // Ground truth, computed up front.
  bool expected[6][6];
  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 0; dst < 6; ++dst) {
      expected[src][dst] =
          online.Evaluate(ReachQuery{src, dst, &expr, false})->granted;
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const NodeId src = static_cast<NodeId>((t + round) % 6);
        const NodeId dst = static_cast<NodeId>((t * 7 + round * 3) % 6);
        const Evaluator& eval =
            (round % 2 == 0) ? static_cast<const Evaluator&>(online)
                             : static_cast<const Evaluator&>(bidir);
        auto r = eval.Evaluate(ReachQuery{src, dst, &expr, round % 3 == 0});
        if (!r.ok() || r->granted != expected[src][dst]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sargus
