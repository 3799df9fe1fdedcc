#ifndef SARGUS_TESTS_SHARD_TEST_UTIL_H_
#define SARGUS_TESTS_SHARD_TEST_UTIL_H_

/// \file shard_test_util.h
/// \brief Fixtures shared by the sharded-tier suites (router and chaos):
/// a ten-resource policy workload over a generated graph, the 60-node
/// Barabasi-Albert graph it usually runs on, and the 8-node two-shard
/// chain.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/access_engine.h"
#include "synth/generators.h"

namespace sargus {
namespace testing_util {

/// A graph plus a store of ten resources at spread-out owners, cycling
/// through forward, multi-step, backward, attribute-filtered and
/// unknown-label rules; every third resource gets a second rule.
struct Workload {
  SocialGraph graph;
  PolicyStore store;
  std::vector<ResourceId> resources;
};

inline Workload MakeWorkload(SocialGraph g) {
  Workload w;
  w.graph = std::move(g);
  const size_t n = w.graph.NumNodes();
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,3]"},
      {"friend[1,2]/colleague[1,2]"},
      {"colleague-[1,2]"},
      {"friend[1,2]{age>=18}"},
      {"family[1,4]"},
  };
  for (size_t i = 0; i < 10; ++i) {
    const NodeId owner = static_cast<NodeId>((i * 37 + 11) % n);
    const ResourceId r =
        w.store.RegisterResource(owner, "res" + std::to_string(i));
    EXPECT_TRUE(
        w.store.AddRuleFromPaths(r, rule_sets[i % rule_sets.size()]).ok());
    if (i % 3 == 0) {
      EXPECT_TRUE(w.store.AddRuleFromPaths(r, {"colleague[1,2]"}).ok());
    }
    w.resources.push_back(r);
  }
  return w;
}

inline Result<SocialGraph> SmallBa(uint64_t seed) {
  BarabasiAlbertSpec spec;
  spec.base.num_nodes = 60;
  spec.base.seed = seed;
  spec.edges_per_node = 2;
  return GenerateBarabasiAlbert(spec);
}

/// The 8-node / 2-shard chain: nodes 0-3 on shard 0, 4-7 on shard 1,
/// chain 0 -f-> 4 -f-> 5 -f-> 1, resource at node 0 guarded by
/// friend[1,3]. Requester 1 is granted through two cut crossings;
/// requester 3 never is.
struct ChainFixture {
  SocialGraph graph;
  PolicyStore store;
  ResourceId res = 0;
};

inline ChainFixture MakeChain() {
  ChainFixture f;
  f.graph.AddNodes(8);
  EXPECT_TRUE(f.graph.AddEdge(0, 4, "friend").ok());
  EXPECT_TRUE(f.graph.AddEdge(4, 5, "friend").ok());
  EXPECT_TRUE(f.graph.AddEdge(5, 1, "friend").ok());
  f.res = f.store.RegisterResource(0, "res");
  EXPECT_TRUE(f.store.AddRuleFromPaths(f.res, {"friend[1,3]"}).ok());
  return f;
}

}  // namespace testing_util
}  // namespace sargus

#endif  // SARGUS_TESTS_SHARD_TEST_UTIL_H_
