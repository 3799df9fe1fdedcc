#include <gtest/gtest.h>

#include "query/online_evaluator.h"
#include "tests/paper_test_util.h"

namespace sargus {
namespace {

using testing_util::BruteForceMatch;
using testing_util::BuildStack;
using testing_util::MakeDiamond;
using testing_util::MustBind;

class OnlineEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stack_ = BuildStack(MakeDiamond(), /*include_backward=*/true);
    ASSERT_NE(stack_, nullptr);
  }
  Result<Evaluation> Eval(const std::string& expr, NodeId src, NodeId dst,
                          bool witness = false) {
    exprs_.push_back(
        std::make_unique<BoundPathExpression>(MustBind(stack_->g, expr)));
    OnlineEvaluator eval(stack_->g, stack_->csr);
    return eval.Evaluate(
        ReachQuery{src, dst, exprs_.back().get(), witness});
  }
  std::unique_ptr<testing_util::Stack> stack_;
  std::vector<std::unique_ptr<BoundPathExpression>> exprs_;
};

TEST_F(OnlineEvalTest, DirectEdge) {
  auto r = Eval("friend[1]", 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->granted);
  EXPECT_FALSE(Eval("friend[1]", 0, 2)->granted);   // two hops away
  EXPECT_FALSE(Eval("friend[1]", 1, 0)->granted);   // wrong direction
  EXPECT_FALSE(Eval("colleague[1]", 0, 1)->granted);  // wrong label
}

TEST_F(OnlineEvalTest, HopRange) {
  EXPECT_TRUE(Eval("friend[1,2]", 0, 2)->granted);   // 0-1-2
  EXPECT_FALSE(Eval("friend[2,2]", 0, 1)->granted);  // exactly 2 required
  EXPECT_TRUE(Eval("friend[2,2]", 0, 2)->granted);
  // 0-1-2-0: a cycle back to the source in 3 friend hops.
  EXPECT_TRUE(Eval("friend[3,3]", 0, 0)->granted);
}

TEST_F(OnlineEvalTest, PaperQ1) {
  // friend[1,2]/colleague[1]: 0 -f-> 4 -c-> 3 and 0 -f-> 1 -f-> 2 -c-> 3.
  EXPECT_TRUE(Eval("friend[1,2]/colleague[1]", 0, 3)->granted);
  // From node 1: 1 -f-> 2 -c-> 3.
  EXPECT_TRUE(Eval("friend[1,2]/colleague[1]", 1, 3)->granted);
  // From node 5: friend 5->3, but 3 has no outgoing colleague edge.
  EXPECT_FALSE(Eval("friend[1,2]/colleague[1]", 5, 3)->granted);
}

TEST_F(OnlineEvalTest, BackwardStep) {
  // friend-[1]: traverse a friend edge against its direction: 1 -> 0.
  EXPECT_TRUE(Eval("friend-[1]", 1, 0)->granted);
  EXPECT_FALSE(Eval("friend-[1]", 0, 1)->granted);
  // 3 has incoming friend from 5: 3 -friend-[1]-> 5.
  EXPECT_TRUE(Eval("friend-[1]", 3, 5)->granted);
  // Mixed: 3 -c-[1]-> 4 (backward colleague), then 4 is friend-from 0.
  EXPECT_TRUE(Eval("colleague-[1]/friend-[1]", 3, 0)->granted);
}

TEST_F(OnlineEvalTest, AttributeFilters) {
  // ages: node v -> 10 + 10v. friend[1]{age>=30}: 0 -> 4 passes (age 50)
  // but 0 -> 1 fails (age 20).
  EXPECT_TRUE(Eval("friend[1]{age>=30}", 0, 4)->granted);
  EXPECT_FALSE(Eval("friend[1]{age>=30}", 0, 1)->granted);
  // Filter applies to intermediate nodes too: 0-1-2 with age>=25 fails
  // at node 1 (20) even though 2 (30) passes.
  EXPECT_FALSE(Eval("friend[2,2]{age>=25}", 0, 2)->granted);
  EXPECT_TRUE(Eval("friend[2,2]{age>=15}", 0, 2)->granted);
  // Conjunction: impossible band denies.
  EXPECT_FALSE(Eval("friend[1]{age>=30,age<=40}", 0, 1)->granted);
  EXPECT_TRUE(Eval("friend[1]{age>=30,age<=60}", 0, 4)->granted);
}

TEST_F(OnlineEvalTest, WitnessIsValidPath) {
  auto r = Eval("friend[1,2]/colleague[1]", 0, 3, /*witness=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->granted);
  const auto& w = r->witness;
  ASSERT_GE(w.size(), 3u);
  EXPECT_EQ(w.front(), 0u);
  EXPECT_EQ(w.back(), 3u);
  // Every consecutive pair is a real edge of the right label family.
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    bool found = false;
    for (NodeId next : stack_->csr.Out(w[i])) {
      if (next == w[i + 1]) found = true;
    }
    EXPECT_TRUE(found) << "no edge " << w[i] << " -> " << w[i + 1];
  }
}

TEST_F(OnlineEvalTest, SelfLoopWitnessKeepsRepeatedNodes) {
  SocialGraph g;
  g.AddNode();
  (void)g.AddEdge(0, 0, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const BoundPathExpression expr = MustBind(g, "friend[2,2]");
  OnlineEvaluator eval(g, csr);
  auto r = eval.Evaluate(ReachQuery{0, 0, &expr, /*want_witness=*/true});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->granted);
  // Two hops around the self-loop: the witness must trace both.
  EXPECT_EQ(r->witness, (std::vector<NodeId>{0, 0, 0}));
}

TEST_F(OnlineEvalTest, BfsAgreesWithBruteForce) {
  const char* exprs[] = {"friend[1]", "friend[1,2]", "friend[1,2]/colleague[1]",
                         "friend-[1,2]", "colleague[1]/friend-[1]"};
  OnlineEvaluator bfs(stack_->g, stack_->csr);
  for (const char* text : exprs) {
    const BoundPathExpression expr = MustBind(stack_->g, text);
    for (NodeId src = 0; src < 6; ++src) {
      for (NodeId dst = 0; dst < 6; ++dst) {
        ReachQuery q{src, dst, &expr, false};
        EXPECT_EQ(bfs.Evaluate(q)->granted,
                  BruteForceMatch(stack_->g, stack_->csr, expr, src, dst))
            << text << " " << src << "->" << dst;
      }
    }
  }
}

TEST_F(OnlineEvalTest, ValidationErrors) {
  OnlineEvaluator eval(stack_->g, stack_->csr);
  // Null expression.
  auto r1 = eval.Evaluate(ReachQuery{0, 1, nullptr, false});
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  // Foreign graph binding.
  SocialGraph other = MakeDiamond();
  BoundPathExpression foreign = MustBind(other, "friend[1]");
  auto r2 = eval.Evaluate(ReachQuery{0, 1, &foreign, false});
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  // Endpoint out of range.
  BoundPathExpression ok_expr = MustBind(stack_->g, "friend[1]");
  auto r3 = eval.Evaluate(ReachQuery{0, 99, &ok_expr, false});
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OnlineEvalTest, StatsCountWork) {
  auto r = Eval("friend[1,2]/colleague[1]", 0, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.pairs_visited, 0u);
  EXPECT_EQ(r->stats.tuples_generated, 0u);  // not a join engine
}

}  // namespace
}  // namespace sargus
