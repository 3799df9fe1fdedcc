/// Tests for the query-scratch subsystem: epoch-stamped sets, pooled
/// reuse across queries (the zero-allocation steady state), forced epoch
/// wraparound, witness-parent isolation between queries, and the
/// thread-safety contract of const Evaluate.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "common/epoch_set.h"
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

TEST(EpochStampSet, InsertContainsAndEpochReset) {
  EpochStampSet set;
  set.BeginEpoch(8);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));  // already a member this epoch
  EXPECT_TRUE(set.Contains(3));

  set.BeginEpoch(8);  // O(1) reset
  EXPECT_FALSE(set.Contains(3));
  EXPECT_TRUE(set.Insert(3));
}

TEST(EpochStampSet, GrowsLazilyAndKeepsHighWaterMark) {
  EpochStampSet set;
  set.BeginEpoch(4);
  EXPECT_TRUE(set.Insert(2));
  EXPECT_EQ(set.capacity(), 4u);
  set.BeginEpoch(16);  // grow
  EXPECT_FALSE(set.Contains(2));
  EXPECT_TRUE(set.Insert(15));
  EXPECT_EQ(set.capacity(), 16u);
  set.BeginEpoch(4);  // never shrinks
  EXPECT_EQ(set.capacity(), 16u);
}

TEST(EpochStampSet, WraparoundWipesStaleStamps) {
  EpochStampSet set;
  set.BeginEpoch(4);
  EXPECT_TRUE(set.Insert(1));

  // Jump to the last representable epoch; the stamp written above (epoch
  // 1) must never read as a member again after the wrap.
  set.SetEpochForTesting(std::numeric_limits<uint32_t>::max());
  set.BeginEpoch(4);
  EXPECT_EQ(set.epoch(), 1u);
  EXPECT_FALSE(set.Contains(1));
  EXPECT_TRUE(set.Insert(1));
  set.BeginEpoch(4);
  EXPECT_EQ(set.epoch(), 2u);
  EXPECT_FALSE(set.Contains(1));
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
/// stamps must reset logically between queries (no stale visited state
/// producing a wrong deny or grant) and the backing arrays must be
/// reused, not reallocated.
TEST_F(ScratchReuseTest, GrantDenyGrantReusesStamps) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  OnlineEvaluator eval(stack_->g, stack_->csr);
  EvalContext ctx;

  auto grant1 = eval.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant1.ok());
  EXPECT_TRUE(grant1->granted);
  const uint32_t epoch_after_first = ctx.scratch.visited.epoch();
  const size_t capacity_after_first = ctx.scratch.visited.capacity();

  auto deny = eval.Evaluate(ReachQuery{5, 0, &expr, true}, ctx);
  ASSERT_TRUE(deny.ok());
  EXPECT_FALSE(deny->granted);
  EXPECT_TRUE(deny->witness.empty());

  auto grant2 = eval.Evaluate(ReachQuery{0, 3, &expr, true}, ctx);
  ASSERT_TRUE(grant2.ok());
  EXPECT_TRUE(grant2->granted);
  EXPECT_EQ(grant2->witness, grant1->witness);
  EXPECT_EQ(grant2->stats.pairs_visited, grant1->stats.pairs_visited);

  // The pool advanced one epoch per query without regrowing: the
  // steady-state path performed no O(|V|·states) allocation.
  EXPECT_EQ(ctx.scratch.visited.epoch(), epoch_after_first + 2);
  EXPECT_EQ(ctx.scratch.visited.capacity(), capacity_after_first);
}

/// Witness parents are never cleared (only epoch-invalidated); a later
/// query must not stitch a path out of a previous query's parent links.
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

/// Forcing epoch wraparound mid-workload must not change any decision:
/// the wipe makes the wrapped epoch indistinguishable from a fresh pool.
TEST_F(ScratchReuseTest, EpochWraparoundKeepsDecisionsStable) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  OnlineEvaluator online(stack_->g, stack_->csr);
  BidirectionalEvaluator bidir(stack_->g, stack_->csr);
  EvalContext ctx;

  // Reference decisions on a pristine context.
  std::vector<bool> expected;
  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 0; dst < 6; ++dst) {
      EvalContext fresh;
      expected.push_back(
          online.Evaluate(ReachQuery{src, dst, &expr, false}, fresh)->granted);
    }
  }

  // Two epochs away from the wrap: the sweep below crosses it for every
  // set in the pool.
  const uint32_t near_max = std::numeric_limits<uint32_t>::max() - 2;
  ctx.scratch.visited.SetEpochForTesting(near_max);
  ctx.scratch.visited_back.SetEpochForTesting(near_max);
  ctx.scratch.line_seen.SetEpochForTesting(near_max);
  ctx.scratch.node_marks.SetEpochForTesting(near_max);

  size_t i = 0;
  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 0; dst < 6; ++dst, ++i) {
      EXPECT_EQ(
          online.Evaluate(ReachQuery{src, dst, &expr, true}, ctx)->granted,
          expected[i])
          << "online " << src << "->" << dst;
      EXPECT_EQ(
          bidir.Evaluate(ReachQuery{src, dst, &expr, false}, ctx)->granted,
          expected[i])
          << "bidir " << src << "->" << dst;
    }
  }
  // The pool really did wrap (epoch restarted from 1).
  EXPECT_LT(ctx.scratch.visited.epoch(), near_max);
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
}

/// The audience collector shares the same pool; repeated calls agree and
/// reuse the product-space arrays.
TEST_F(ScratchReuseTest, AudienceCollectorReusesScratch) {
  const BoundPathExpression expr = MustBind(stack_->g, "friend[1,2]/colleague[1]");
  EvalContext ctx;
  const auto first = CollectMatchingAudience(stack_->g, stack_->csr, expr, 0,
                                             &ctx);
  const size_t capacity = ctx.scratch.visited.capacity();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(CollectMatchingAudience(stack_->g, stack_->csr, expr, 0, &ctx),
              first);
  }
  EXPECT_EQ(ctx.scratch.visited.capacity(), capacity);
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
