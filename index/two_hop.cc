#include "index/two_hop.h"

#include <algorithm>
#include <numeric>

namespace sargus {
namespace {

/// Pruned landmark sweep in the given vertex order. Produces per-vertex
/// hub lists containing hub *ranks* (position in `order`), which keeps the
/// lists sorted by insertion and makes intersection a sorted merge.
struct SweepResult {
  std::vector<std::vector<uint32_t>> out_hubs;  // hubs x with v ->* x
  std::vector<std::vector<uint32_t>> in_hubs;   // hubs x with x ->* v
};

bool HubQuery(const SweepResult& r, uint32_t u, uint32_t v) {
  if (u == v) return true;
  const auto& a = r.out_hubs[u];
  const auto& b = r.in_hubs[v];
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

SweepResult PrunedSweep(const Dag& dag, const std::vector<uint32_t>& order) {
  const size_t n = dag.NumVertices();
  SweepResult r;
  r.out_hubs.resize(n);
  r.in_hubs.resize(n);
  std::vector<uint32_t> queue;
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint32_t> touched;

  for (uint32_t rank = 0; rank < n; ++rank) {
    const uint32_t hub = order[rank];

    // Forward BFS from hub: vertices v with hub ->* v get hub in Lin(v),
    // unless an earlier hub already certifies hub ->* v.
    auto sweep = [&](bool forward) {
      queue.clear();
      touched.clear();
      queue.push_back(hub);
      seen[hub] = 1;
      touched.push_back(hub);
      for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t v = queue[head];
        // Pruning: if existing labels already witness the hub-v relation,
        // neither v nor anything below it needs this hub.
        if (v != hub) {
          const bool covered = forward ? HubQuery(r, hub, v)
                                       : HubQuery(r, v, hub);
          if (covered) continue;
          if (forward) {
            r.in_hubs[v].push_back(rank);
          } else {
            r.out_hubs[v].push_back(rank);
          }
        }
        for (uint32_t w : forward ? dag.Out(v) : dag.In(v)) {
          if (!seen[w]) {
            seen[w] = 1;
            touched.push_back(w);
            queue.push_back(w);
          }
        }
      }
      for (uint32_t v : touched) seen[v] = 0;
    };
    sweep(/*forward=*/true);
    sweep(/*forward=*/false);
    // The hub reaches itself both ways.
    r.out_hubs[hub].push_back(rank);
    r.in_hubs[hub].push_back(rank);
  }
  return r;
}

}  // namespace

Result<TwoHopLabeling> TwoHopLabeling::Build(const Dag& dag,
                                             TwoHopOptions options) {
  const size_t n = dag.NumVertices();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  if (options.strategy == TwoHopStrategy::kPrunedLandmark) {
    // Rank by degree sum, descending — a cheap centrality proxy.
    std::vector<uint64_t> score(n);
    for (uint32_t v = 0; v < n; ++v) {
      score[v] = dag.Out(v).size() + dag.In(v).size();
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return score[a] > score[b];
    });
  } else {
    if (n > options.max_vertices_for_greedy) {
      return Status::ResourceExhausted(
          "greedy max-cover 2-hop: DAG has " + std::to_string(n) +
          " vertices, cap is " +
          std::to_string(options.max_vertices_for_greedy));
    }
    // Exact |descendants| x |ancestors| scores via bitset closure in
    // reverse topological order.
    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> desc(n * words, 0);
    std::vector<uint64_t> anc(n * words, 0);
    const auto& topo = dag.TopoOrder();
    for (size_t i = topo.size(); i-- > 0;) {
      const uint32_t v = topo[i];
      desc[v * words + v / 64] |= uint64_t{1} << (v % 64);
      for (uint32_t w : dag.Out(v)) {
        for (size_t k = 0; k < words; ++k) {
          desc[v * words + k] |= desc[w * words + k];
        }
      }
    }
    for (const uint32_t v : topo) {
      anc[v * words + v / 64] |= uint64_t{1} << (v % 64);
      for (uint32_t w : dag.In(v)) {
        for (size_t k = 0; k < words; ++k) {
          anc[v * words + k] |= anc[w * words + k];
        }
      }
    }
    std::vector<uint64_t> score(n);
    for (uint32_t v = 0; v < n; ++v) {
      uint64_t d = 0, a = 0;
      for (size_t k = 0; k < words; ++k) {
        d += static_cast<uint64_t>(__builtin_popcountll(desc[v * words + k]));
        a += static_cast<uint64_t>(__builtin_popcountll(anc[v * words + k]));
      }
      score[v] = d * a;
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return score[a] > score[b];
    });
  }

  SweepResult r = PrunedSweep(dag, order);

  TwoHopLabeling lab;
  lab.Flatten(r.out_hubs, r.in_hubs);
  return lab;
}

void TwoHopLabeling::Flatten(
    const std::vector<std::vector<uint32_t>>& out_hubs,
    const std::vector<std::vector<uint32_t>>& in_hubs) {
  const size_t n = out_hubs.size();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] =
        out_offsets_[v] + static_cast<uint32_t>(out_hubs[v].size());
    in_offsets_[v + 1] =
        in_offsets_[v] + static_cast<uint32_t>(in_hubs[v].size());
  }
  out_hubs_.clear();
  in_hubs_.clear();
  out_hubs_.reserve(out_offsets_.back());
  in_hubs_.reserve(in_offsets_.back());
  for (size_t v = 0; v < n; ++v) {
    out_hubs_.insert(out_hubs_.end(), out_hubs[v].begin(), out_hubs[v].end());
    in_hubs_.insert(in_hubs_.end(), in_hubs[v].begin(), in_hubs[v].end());
  }
}

bool TwoHopLabeling::Reachable(uint32_t u, uint32_t v) const {
  if (u == v) return true;
  const uint32_t* a = out_hubs_.data() + out_offsets_[u];
  const uint32_t* a_end = out_hubs_.data() + out_offsets_[u + 1];
  const uint32_t* b = in_hubs_.data() + in_offsets_[v];
  const uint32_t* b_end = in_hubs_.data() + in_offsets_[v + 1];
  while (a != a_end && b != b_end) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

}  // namespace sargus
