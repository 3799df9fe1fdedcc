#include "index/intervals.h"

#include <algorithm>

#include "common/rng.h"

namespace sargus {

IntervalLabeling IntervalLabeling::Build(const Dag& dag, bool reversed,
                                         uint64_t seed) {
  const size_t n = dag.NumVertices();
  IntervalLabeling lab;
  lab.intervals_.assign(n * kTraversals, Interval{});

  auto out = [&](uint32_t v) { return reversed ? dag.In(v) : dag.Out(v); };
  auto in = [&](uint32_t v) { return reversed ? dag.Out(v) : dag.In(v); };

  std::vector<uint32_t> roots;
  for (uint32_t v = 0; v < n; ++v) {
    if (in(v).empty()) roots.push_back(v);
  }

  std::vector<uint8_t> visited(n);
  // DFS frame: vertex + cursor into a shuffled successor list.
  struct Frame {
    uint32_t v;
    uint32_t succ_begin;
    uint32_t next;
    uint32_t succ_end;
  };
  std::vector<Frame> stack;
  std::vector<uint32_t> succ_storage;

  for (uint32_t k = 0; k < kTraversals; ++k) {
    Rng rng(seed * 0x9e3779b9ULL + k + 1);
    std::fill(visited.begin(), visited.end(), 0);
    uint32_t counter = 0;

    // Shuffled root order makes traversals independent.
    std::vector<uint32_t> root_order = roots;
    for (size_t i = root_order.size(); i > 1; --i) {
      std::swap(root_order[i - 1], root_order[rng.NextBounded(i)]);
    }

    auto open = [&](uint32_t v) {
      visited[v] = 1;
      const uint32_t begin = static_cast<uint32_t>(succ_storage.size());
      for (uint32_t w : out(v)) succ_storage.push_back(w);
      // Shuffle this frame's successors.
      const uint32_t len = static_cast<uint32_t>(succ_storage.size()) - begin;
      for (uint32_t i = len; i > 1; --i) {
        std::swap(succ_storage[begin + i - 1],
                  succ_storage[begin + rng.NextBounded(i)]);
      }
      stack.push_back(Frame{v, begin, begin,
                            static_cast<uint32_t>(succ_storage.size())});
    };

    // Iterate all vertices (roots first) so isolated cycles-free leftovers
    // are covered even if unreachable from any zero-indegree vertex.
    auto run_from = [&](uint32_t root) {
      if (visited[root]) return;
      open(root);
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.next < f.succ_end) {
          const uint32_t w = succ_storage[f.next++];
          if (!visited[w]) open(w);
          continue;
        }
        // Post-visit: post = counter; low = min(low of children, own post).
        const uint32_t v = f.v;
        Interval& iv = lab.intervals_[v * kTraversals + k];
        uint32_t low = counter;
        for (uint32_t w : out(v)) {
          low = std::min(low, lab.intervals_[w * kTraversals + k].low);
        }
        iv.low = low;
        iv.post = counter++;
        succ_storage.resize(f.succ_begin);
        stack.pop_back();
      }
    };
    for (uint32_t root : root_order) run_from(root);
    for (uint32_t v = 0; v < n; ++v) run_from(v);
  }
  return lab;
}

IntervalIndex IntervalIndex::Build(const Dag& dag, uint64_t seed) {
  IntervalIndex idx;
  idx.forward = IntervalLabeling::Build(dag, /*reversed=*/false, seed);
  idx.backward = IntervalLabeling::Build(dag, /*reversed=*/true, seed ^ 0xabcdef);
  return idx;
}

bool IntervalFilteredReachable(const Dag& dag, const IntervalLabeling& forward,
                               uint32_t cu, uint32_t cv) {
  if (cu == cv) return true;
  if (!forward.MayReach(cu, cv)) return false;
  std::vector<uint32_t> stack{cu};
  std::vector<uint8_t> visited(dag.NumVertices(), 0);
  visited[cu] = 1;
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    if (x == cv) return true;
    for (uint32_t w : dag.Out(x)) {
      if (!visited[w] && forward.MayReach(w, cv)) {
        visited[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace sargus
