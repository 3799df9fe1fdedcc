#ifndef SARGUS_TESTS_TEST_UTIL_H_
#define SARGUS_TESTS_TEST_UTIL_H_

/// \file test_util.h
/// \brief Shared fixtures over the serving library: hand-built graphs,
/// an independent brute-force reference evaluator used to anchor the
/// cross-evaluator agreement suite, and the materialized mirror graph
/// the mutation suites check the engine against, and a scoped temp
/// directory for the durability suites. The paper's index stack fixture
/// is in paper_test_util.h.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "core/path_expression.h"
#include "core/path_parser.h"
#include "graph/csr.h"
#include "graph/social_graph.h"

namespace sargus {
namespace testing_util {

/// The paper's running example shape: a small labeled graph with
/// attributes, cycles, parallel labels and both orientations exercised.
///
///   0 -f-> 1 -f-> 2 -c-> 3
///   0 -f-> 4 -c-> 3      (short colleague detour)
///   2 -f-> 0             (cycle)
///   5 -f-> 3             (edge INTO 3; reachable from 3 only backward)
///   1 -c-> 5
///   ages: node v has age 10 + 10*v  (node 0 -> 10, node 1 -> 20, ...)
inline SocialGraph MakeDiamond() {
  SocialGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode();
  for (NodeId v = 0; v < 6; ++v) {
    (void)g.SetAttribute(v, "age", 10 + 10 * static_cast<int64_t>(v));
  }
  (void)g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 2, "friend");
  (void)g.AddEdge(2, 3, "colleague");
  (void)g.AddEdge(0, 4, "friend");
  (void)g.AddEdge(4, 3, "colleague");
  (void)g.AddEdge(2, 0, "friend");
  (void)g.AddEdge(5, 3, "friend");
  (void)g.AddEdge(1, 5, "colleague");
  return g;
}

inline BoundPathExpression MustBind(const SocialGraph& g,
                                    const std::string& text) {
  auto parsed = ParsePathExpression(text);
  auto bound = BoundPathExpression::Bind(*parsed, g);
  return std::move(bound).ValueOrDie();
}

/// Independent ground truth: exhaustive DFS over (node, step, hops)
/// configurations, structured completely differently from the automaton
/// walkers. Caps recursion to keep tests bounded.
inline bool BruteForceMatch(const SocialGraph& g, const CsrSnapshot& csr,
                            const BoundPathExpression& expr, NodeId src,
                            NodeId dst) {
  const auto& steps = expr.steps();
  struct Frame {
    NodeId node;
    size_t step;
    uint32_t hops;  // hops consumed in current step
  };
  // DFS with explicit visited set over configurations.
  std::vector<Frame> stack{{src, 0, 0}};
  std::vector<uint8_t> seen;
  const size_t total_states = [&] {
    size_t t = 0;
    for (const auto& s : steps) t += s.max_hops + 1;
    return t;
  }();
  seen.assign(g.NumNodes() * total_states, 0);
  auto state_index = [&](size_t step, uint32_t hops) {
    size_t base = 0;
    for (size_t i = 0; i < step; ++i) base += steps[i].max_hops + 1;
    return base + hops;
  };
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const size_t id =
        static_cast<size_t>(f.node) * total_states + state_index(f.step,
                                                                 f.hops);
    if (seen[id]) continue;
    seen[id] = 1;
    // Completion: all steps done with minimums met.
    if (f.step == steps.size() - 1 && f.hops >= steps[f.step].min_hops) {
      if (f.node == dst) return true;
    }
    // Epsilon: advance to the next step once the minimum is met.
    if (f.step + 1 < steps.size() && f.hops >= steps[f.step].min_hops) {
      stack.push_back({f.node, f.step + 1, 0});
    }
    // Consume one more edge of the current step.
    if (f.hops < steps[f.step].max_hops) {
      const BoundStep& st = steps[f.step];
      const auto next = st.backward ? csr.InWithLabel(f.node, st.label)
                                    : csr.OutWithLabel(f.node, st.label);
      for (NodeId w : next) {
        if (!BoundPathExpression::NodePasses(g, w, st)) continue;
        stack.push_back({w, f.step, f.hops + 1});
      }
    }
  }
  return false;
}

/// The logical graph materialized eagerly: a plain SocialGraph that
/// receives every mutation the engine stages, rebuilt into a fresh CSR
/// per check — the semantics the overlay emulates lazily and every
/// engine state (pre-, mid- and post-compaction, every published view)
/// must match.
struct MirrorGraph {
  SocialGraph g;

  explicit MirrorGraph(const SocialGraph& base) : g(base) {}

  void Add(NodeId s, NodeId d, LabelId l) { (void)g.AddEdge(s, d, l); }
  void Remove(NodeId s, NodeId d, LabelId l) {
    auto id = g.FindEdge(s, d, l);
    if (id.has_value()) (void)g.RemoveEdge(*id);
  }
  bool Match(const BoundPathExpression& expr, NodeId src, NodeId dst) const {
    CsrSnapshot csr = CsrSnapshot::Build(g);
    return BruteForceMatch(g, csr, expr, src, dst);
  }
  /// A uniformly random live edge, if any.
  std::optional<Edge> RandomLiveEdge(Rng& rng) const {
    if (g.NumEdges() == 0) return std::nullopt;
    for (int attempts = 0; attempts < 256; ++attempts) {
      EdgeId e = static_cast<EdgeId>(rng.NextBounded(g.EdgeSlotCount()));
      if (g.IsLiveEdge(e)) return g.edge(e);
    }
    return std::nullopt;
  }
};

/// A fresh directory under /tmp, removed with everything in it when the
/// object goes out of scope.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sargus_test_XXXXXX";
    if (mkdtemp(tmpl) != nullptr) path_ = tmpl;
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    std::error_code ec;  // best effort
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace testing_util
}  // namespace sargus

#endif  // SARGUS_TESTS_TEST_UTIL_H_
