#ifndef SARGUS_TESTS_PAPER_TEST_UTIL_H_
#define SARGUS_TESTS_PAPER_TEST_UTIL_H_

/// \file paper_test_util.h
/// \brief The paper's full index stack built over one graph, for suites
/// that link sargus_paper.

#include <memory>

#include "graph/line_graph.h"
#include "index/cluster_index.h"
#include "index/line_oracle.h"
#include "index/transitive_closure.h"
#include "tests/test_util.h"

namespace sargus {
namespace testing_util {

/// Everything the evaluators need, built over one graph.
struct Stack {
  SocialGraph g;
  CsrSnapshot csr;
  LineGraph lg;
  std::unique_ptr<LineReachabilityOracle> oracle;
  std::unique_ptr<ClusterJoinIndex> cluster;
  std::unique_ptr<TransitiveClosure> closure_directed;
  std::unique_ptr<TransitiveClosure> closure_undirected;
};

inline std::unique_ptr<Stack> BuildStack(SocialGraph g,
                                         bool include_backward) {
  auto s = std::make_unique<Stack>();
  s->g = std::move(g);
  s->csr = CsrSnapshot::Build(s->g);
  s->lg = LineGraph::Build(s->csr, {.include_backward = include_backward});
  auto oracle = LineReachabilityOracle::Build(s->lg);
  if (!oracle.ok()) return nullptr;
  s->oracle = std::make_unique<LineReachabilityOracle>(std::move(*oracle));
  auto cluster = ClusterJoinIndex::Build(s->lg, s->csr);
  if (!cluster.ok()) return nullptr;
  s->cluster = std::make_unique<ClusterJoinIndex>(std::move(*cluster));
  s->closure_directed = std::make_unique<TransitiveClosure>(
      TransitiveClosure::Build(s->csr, /*as_undirected=*/false));
  s->closure_undirected = std::make_unique<TransitiveClosure>(
      TransitiveClosure::Build(s->csr, /*as_undirected=*/true));
  return s;
}

}  // namespace testing_util
}  // namespace sargus

#endif  // SARGUS_TESTS_PAPER_TEST_UTIL_H_
