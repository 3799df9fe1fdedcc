#include <gtest/gtest.h>

#include "engine/access_engine.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::MakeDiamond;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : g_(MakeDiamond()) {}
  SocialGraph g_;
  PolicyStore store_;
};

TEST_F(EngineTest, PolicyStoreBasics) {
  const ResourceId photo = store_.RegisterResource(0, "photo");
  EXPECT_TRUE(store_.HasResource(photo));
  EXPECT_EQ(store_.resource(photo).owner, 0u);
  EXPECT_EQ(store_.resource(photo).name, "photo");

  auto rule = store_.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"});
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(store_.NumRules(), 1u);
  EXPECT_EQ(store_.rule(*rule).paths.size(), 1u);

  // Unknown resource.
  EXPECT_EQ(store_.AddRuleFromPaths(99, {"friend[1]"}).status().code(),
            StatusCode::kNotFound);
  // Empty path list.
  EXPECT_EQ(store_.AddRuleFromPaths(photo, {}).status().code(),
            StatusCode::kInvalidArgument);
  // Syntax error propagates; no rule is stored.
  EXPECT_EQ(store_.AddRuleFromPaths(photo, {"friend[0]"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.NumRules(), 1u);
}

TEST_F(EngineTest, GrantAndDenyAcrossEvaluatorChoices) {
  const ResourceId photo = store_.RegisterResource(0, "photo");
  ASSERT_TRUE(store_.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"})
                  .ok());

  // The two serving configurations: online BFS alone and behind the
  // closure prefilter.
  for (const bool prefilter : {false, true}) {
    AccessControlEngine engine(g_, store_,
                               {.use_closure_prefilter = prefilter});
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    // Node 3 is in the audience of owner 0 (0-f->4-c->3).
    auto granted = engine.CheckAccess({.requester = 3, .resource = photo});
    ASSERT_TRUE(granted.ok());
    EXPECT_TRUE(granted->granted) << prefilter;
    EXPECT_TRUE(granted->matched_rule.has_value());
    EXPECT_EQ(granted->evaluator_name,
              prefilter ? "closure-prefilter" : "online-bfs");
    // Node 2 is not (no colleague edge ends at 2).
    auto denied = engine.CheckAccess({.requester = 2, .resource = photo});
    ASSERT_TRUE(denied.ok());
    EXPECT_FALSE(denied->granted) << prefilter;
    EXPECT_FALSE(denied->matched_rule.has_value());
  }
}

TEST_F(EngineTest, OwnerAlwaysGranted) {
  const ResourceId secret = store_.RegisterResource(2, "secret");
  AccessControlEngine engine(g_, store_);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  auto r = engine.CheckAccess({.requester = 2, .resource = secret});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->granted);
  EXPECT_TRUE(r->owner_access);
  // No rules: everyone else is denied.
  auto other = engine.CheckAccess({.requester = 0, .resource = secret});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->granted);
}

TEST_F(EngineTest, RuleDisjunction) {
  const ResourceId album = store_.RegisterResource(0, "album");
  // Two rules; the second one admits node 1 (friend[1]).
  ASSERT_TRUE(store_.AddRuleFromPaths(album, {"colleague[1]"}).ok());
  ASSERT_TRUE(store_.AddRuleFromPaths(album, {"friend[1]"}).ok());
  AccessControlEngine engine(g_, store_);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  auto r = engine.CheckAccess({.requester = 1, .resource = album});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->granted);
  ASSERT_TRUE(r->matched_rule.has_value());
  EXPECT_EQ(store_.rule(*r->matched_rule).paths[0].ToString(), "friend[1]");
}

TEST_F(EngineTest, BackwardPolicyNeedsBackwardLineGraph) {
  const ResourceId res = store_.RegisterResource(1, "res");
  ASSERT_TRUE(store_.AddRuleFromPaths(res, {"friend-[1]"}).ok());

  // The default engine serves backward steps with no extra option: online
  // search walks the CSR's in-entries.
  AccessControlEngine engine(g_, store_);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  auto r = engine.CheckAccess({.requester = 0, .resource = res});  // edge 0-f->1 reversed
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->granted);
  auto denied = engine.CheckAccess({.requester = 3, .resource = res});
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied->granted);
}

TEST_F(EngineTest, RulePathErrorDoesNotMaskLaterGrant) {
  // Disjunction semantics: the first path names a label the graph does
  // not have, so it fails to bind, but the second path grants node 1
  // anyway.
  const ResourceId res = store_.RegisterResource(0, "res");
  ASSERT_TRUE(store_.AddRuleFromPaths(res, {"enemy[1]", "friend[1]"}).ok());
  AccessControlEngine engine(g_, store_);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  auto granted = engine.CheckAccess({.requester = 1, .resource = res});
  ASSERT_TRUE(granted.ok()) << granted.status().ToString();
  EXPECT_TRUE(granted->granted);
  // When nothing grants, the bind error stays loud.
  auto err = engine.CheckAccess({.requester = 3, .resource = res});
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, WitnessAndPrefilter) {
  const ResourceId res = store_.RegisterResource(0, "res");
  ASSERT_TRUE(
      store_.AddRuleFromPaths(res, {"friend[1,2]/colleague[1]"}).ok());
  EngineOptions opts;
  opts.use_closure_prefilter = true;
  AccessControlEngine engine(g_, store_, opts);
  ASSERT_TRUE(engine.RebuildIndexes().ok());

  // Witness is per request now, not an engine-wide option.
  auto r = engine.CheckAccess(
      {.requester = 3, .resource = res, .want_witness = true});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->granted);
  ASSERT_GE(r->witness.size(), 3u);
  EXPECT_EQ(r->witness.front(), 0u);
  EXPECT_EQ(r->witness.back(), 3u);

  // The same grant without the flag carries no witness.
  auto bare = engine.CheckAccess({.requester = 3, .resource = res});
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->granted);
  EXPECT_TRUE(bare->witness.empty());
}

TEST_F(EngineTest, ErrorsAndPreconditions) {
  const ResourceId res = store_.RegisterResource(0, "res");
  AccessControlEngine engine(g_, store_);
  // Unknown resource.
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  EXPECT_EQ(engine.CheckAccess({.requester = 1, .resource = 42}).status().code(), StatusCode::kNotFound);
  // Requester out of range.
  EXPECT_EQ(engine.CheckAccess({.requester = 99, .resource = res}).status().code(),
            StatusCode::kInvalidArgument);
  // CheckAccess before RebuildIndexes.
  AccessControlEngine cold(g_, store_);
  EXPECT_EQ(cold.CheckAccess({.requester = 1, .resource = res})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, AuditTrailRecordsDecisions) {
  const ResourceId res = store_.RegisterResource(0, "res");
  ASSERT_TRUE(store_.AddRuleFromPaths(res, {"friend[1]"}).ok());
  EngineOptions opts;
  opts.audit_capacity = 3;
  AccessControlEngine engine(g_, store_, opts);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  for (NodeId r = 1; r <= 5; ++r) {
    ASSERT_TRUE(engine.CheckAccess({.requester = r, .resource = res}).ok());
  }
  const auto trail = engine.AuditTrail();
  ASSERT_EQ(trail.size(), 3u);  // capped
  // Oldest-first: requesters 3, 4, 5 remain.
  EXPECT_EQ(trail[0].requester, 3u);
  EXPECT_EQ(trail[2].requester, 5u);
  // Requester 4 was granted (0-f->4), requester 3 denied.
  EXPECT_FALSE(trail[0].granted);
  EXPECT_TRUE(trail[1].granted);
}

}  // namespace
}  // namespace sargus
