#include <gtest/gtest.h>

#include <algorithm>

#include "query/audience.h"
#include "query/online_evaluator.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::MakeDiamond;
using testing_util::MustBind;

TEST(Workload, AudienceOnDiamond) {
  SocialGraph g = MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const BoundPathExpression expr = MustBind(g, "friend[1,2]/colleague[1]");
  // From 0: 0-f->1-c?-no... audiences: via 0-f->4-c->3 and 0-f->1-f->2-c->3
  // both end at 3; via 0-f->1 then colleague 1-c->5 ends at 5.
  const auto audience = CollectMatchingAudience(g, csr, expr, 0);
  EXPECT_EQ(audience, (std::vector<NodeId>{3, 5}));
  // Sorted ascending by contract.
  EXPECT_TRUE(std::is_sorted(audience.begin(), audience.end()));
}

TEST(Workload, AudienceMatchesEvaluatorDecisions) {
  auto gen = GenerateBarabasiAlbert(
      {.base = {.num_nodes = 40, .seed = 17}, .edges_per_node = 2});
  ASSERT_TRUE(gen.ok());
  SocialGraph g = std::move(*gen);
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const BoundPathExpression expr = MustBind(g, "friend[1,2]/colleague[1]");
  OnlineEvaluator eval(g, csr);
  for (NodeId src = 0; src < g.NumNodes(); src += 3) {
    const auto audience = CollectMatchingAudience(g, csr, expr, src);
    for (NodeId dst = 0; dst < g.NumNodes(); ++dst) {
      const bool in_audience =
          std::binary_search(audience.begin(), audience.end(), dst);
      auto r = eval.Evaluate(ReachQuery{src, dst, &expr, false});
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->granted, in_audience) << src << " -> " << dst;
    }
  }
}

TEST(Workload, EmptyOnMismatchedArguments) {
  SocialGraph g = MakeDiamond();
  SocialGraph other = MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const BoundPathExpression foreign = MustBind(other, "friend[1]");
  EXPECT_TRUE(CollectMatchingAudience(g, csr, foreign, 0).empty());
  const BoundPathExpression expr = MustBind(g, "friend[1]");
  EXPECT_TRUE(CollectMatchingAudience(g, csr, expr, 99).empty());
}

TEST(Workload, FiltersRestrictAudience) {
  SocialGraph g = MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  // friend[1] from 0 reaches 1 (age 20) and 4 (age 50).
  const BoundPathExpression all = MustBind(g, "friend[1]");
  EXPECT_EQ(CollectMatchingAudience(g, csr, all, 0),
            (std::vector<NodeId>{1, 4}));
  const BoundPathExpression adults = MustBind(g, "friend[1]{age>=30}");
  EXPECT_EQ(CollectMatchingAudience(g, csr, adults, 0),
            (std::vector<NodeId>{4}));
}

}  // namespace
}  // namespace sargus
