#include "graph/csr.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/csr_sort.h"
#include "graph/delta_overlay.h"

namespace sargus {

namespace {

/// The sort phase hands out nodes in blocks of this many, from one
/// shared cursor, so the block holding a graph's hubs (the lowest ids of
/// a Barabási–Albert graph) or a helper that starts late holds up no
/// other worker.
constexpr size_t kSortBlock = 4096;

/// Every input also names the key of the input about this many
/// positions later, whose destination the scatter prefetches for
/// writing. An entry goes to two columns, so most inputs would
/// otherwise stall on two cache misses; at 16 inputs ahead the lines
/// arrive in time, and the cursor read then has rarely moved on by
/// more than a line. The serial scatter pass at 65,536 nodes took
/// 1.8-2.1 ms without the prefetch and 1.3-1.45 ms with it (Intel Xeon,
/// 4 vCPUs).
constexpr size_t kScatterAhead = 16;

/// Splits nodes [0, offsets.size() - 1) into `chunks` ranges of about
/// equal entry count: range c is [bounds[c], bounds[c + 1]).
std::vector<size_t> NodeBounds(const std::vector<uint32_t>& offsets,
                               size_t chunks) {
  const size_t n = offsets.size() - 1;
  std::vector<size_t> bounds(chunks + 1, n);
  bounds[0] = 0;
  for (size_t c = 1; c < chunks; ++c) {
    const uint64_t target = uint64_t{offsets[n]} * c / chunks;
    bounds[c] = static_cast<size_t>(
        std::lower_bound(offsets.begin(), offsets.begin() + n, target) -
        offsets.begin());
  }
  return bounds;
}

/// Lays the inputs [bounds[0], bounds[chunks]) out by key into `side`,
/// one chunk per thread. `for_each(begin, end, fn)` calls fn(key, other,
/// label, ahead) for every item at inputs [begin, end), in input order
/// and the same way on each of its two calls; `ahead` is any key below
/// `num_keys`, best that of the item about kScatterAhead inputs later,
/// and only steers a prefetch. Chunk c counts its inputs into its
/// own per-key array; the prefix pass turns those counts into cursors
/// that start chunk c after every earlier chunk in each range, so every
/// range holds its entries in input order, as a serial scatter would,
/// without an atomic.
template <typename ForEach, typename Side>
void ChunkedScatter(size_t num_keys, const std::vector<size_t>& bounds,
                    const ForEach& for_each, Side* side) {
  const size_t chunks = bounds.size() - 1;
  auto cursors = std::make_unique_for_overwrite<uint32_t[]>(chunks * num_keys);
  ParallelFor(chunks, [&](size_t c) {
    uint32_t* count = cursors.get() + c * num_keys;
    std::fill(count, count + num_keys, 0);
    for_each(bounds[c], bounds[c + 1],
             [count](NodeId key, NodeId, LabelId, NodeId) { ++count[key]; });
  });
  // The prefix pass, split by key range over the same workers: each
  // range but the last sums its counts, a serial prefix over those sums
  // gives every range its first offset, and each range then turns its
  // counts into cursors.
  std::vector<uint32_t>& offsets = side->offsets;
  offsets.resize(num_keys + 1);
  std::vector<uint32_t> range_start(chunks, 0);
  auto key_begin = [&](size_t r) { return num_keys * r / chunks; };
  ParallelFor(chunks - 1, [&](size_t r) {
    const size_t begin = key_begin(r), end = key_begin(r + 1);
    uint32_t sum = 0;
    for (size_t c = 0; c < chunks; ++c) {
      const uint32_t* count = cursors.get() + c * num_keys;
      for (size_t v = begin; v < end; ++v) sum += count[v];
    }
    range_start[r + 1] = sum;
  });
  for (size_t r = 1; r < chunks; ++r) range_start[r] += range_start[r - 1];
  ParallelFor(chunks, [&](size_t r) {
    const size_t begin = key_begin(r), end = key_begin(r + 1);
    uint32_t total = range_start[r];
    for (size_t v = begin; v < end; ++v) {
      offsets[v] = total;
      for (size_t c = 0; c < chunks; ++c) {
        uint32_t& at = cursors[c * num_keys + v];
        total += std::exchange(at, total);
      }
    }
    if (r + 1 == chunks) offsets[num_keys] = total;
  });
  const uint32_t total = offsets.back();
  side->ids.resize(total);  // unwritten: the scatter fills every slot
  side->labels.resize(total);
  ParallelFor(chunks, [&](size_t c) {
    uint32_t* cursor = cursors.get() + c * num_keys;
    NodeId* ids = side->ids.data();
    LabelId* labels = side->labels.data();
    for_each(bounds[c], bounds[c + 1],
             [cursor, ids, labels](NodeId key, NodeId other, LabelId label,
                                   NodeId ahead) {
               __builtin_prefetch(ids + cursor[ahead], /*rw=*/1);
               __builtin_prefetch(labels + cursor[ahead], /*rw=*/1);
               const uint32_t at = cursor[key]++;
               ids[at] = other;
               labels[at] = label;
             });
  });
}

/// Sorts every range of `side` by (label, other) with `workers` threads,
/// each taking blocks of kSortBlock nodes from one shared cursor until
/// none is left. The graph coalesces duplicate (src, dst, label)
/// triples, so within one node's range, out or in, the key is unique.
template <typename Side>
void SortRanges(size_t workers, Side* side) {
  const std::vector<uint32_t>& offsets = side->offsets;
  const size_t n = offsets.size() - 1;
  std::atomic<size_t> cursor{0};
  ParallelFor(workers, [&](size_t) {
    std::vector<uint64_t> long_keys;  // grown by the longest range sorted
    NodeId* ids = side->ids.data();
    LabelId* labels = side->labels.data();
    for (size_t begin = cursor.fetch_add(kSortBlock, std::memory_order_relaxed);
         begin < n;
         begin = cursor.fetch_add(kSortBlock, std::memory_order_relaxed)) {
      for (size_t v = begin; v < std::min(n, begin + kSortBlock); ++v) {
        csr_sort::SortRange(ids + offsets[v], labels + offsets[v],
                            offsets[v + 1] - offsets[v], long_keys);
      }
    }
  });
}

}  // namespace

template <typename ForEachEdge>
CsrSnapshot CsrSnapshot::Scatter(size_t num_nodes, size_t num_inputs,
                                 const ForEachEdge& for_each_edge) {
  CsrSnapshot snap;
  snap.num_nodes_ = num_nodes;

  // Out-side: scatter by source, chunked over the inputs, then sort each
  // range by (label, dst).
  const size_t chunks = NumChunks(num_inputs);
  std::vector<size_t> inputs(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) inputs[c] = num_inputs * c / chunks;
  ChunkedScatter(
      num_nodes, inputs,
      [&for_each_edge](size_t begin, size_t end, const auto& fn) {
        for_each_edge(begin, end, [&fn](const Edge& rec, NodeId ahead) {
          fn(rec.src, rec.dst, rec.label, ahead);
        });
      },
      &snap.out_);
  SortRanges(chunks, &snap.out_);
  return snap;
}

CsrSnapshot::CsrSnapshot(CsrSnapshot&& other) noexcept
    : num_nodes_(std::exchange(other.num_nodes_, 0)),
      out_(std::exchange(other.out_, Side{})),
      in_(other.in_.exchange(nullptr, std::memory_order_acq_rel)) {}

CsrSnapshot& CsrSnapshot::operator=(CsrSnapshot&& other) noexcept {
  if (this != &other) {
    num_nodes_ = std::exchange(other.num_nodes_, 0);
    out_ = std::exchange(other.out_, Side{});
    delete in_.exchange(other.in_.exchange(nullptr, std::memory_order_acq_rel),
                        std::memory_order_acq_rel);
  }
  return *this;
}

CsrSnapshot::~CsrSnapshot() { delete in_.load(std::memory_order_acquire); }

size_t CsrSnapshot::MemoryBytes() const {
  size_t bytes = out_.MemoryBytes();
  if (const Side* in = in_.load(std::memory_order_acquire)) {
    bytes += in->MemoryBytes();
  }
  return bytes;
}

const CsrSnapshot::Side& CsrSnapshot::DeriveInSide() const {
  std::lock_guard<std::mutex> lock(in_mu_);
  if (const Side* in = in_.load(std::memory_order_relaxed)) return *in;
  auto in = std::make_unique<Side>();
  // Transpose, chunked over source ranges, then sort each in-range by
  // (label, src) as the out-side sorts its ranges.
  const size_t chunks = NumChunks(NumEdges());
  ChunkedScatter(
      num_nodes_, NodeBounds(out_.offsets, chunks),
      [this](size_t begin, size_t end, const auto& fn) {
        const uint32_t last = out_.offsets[end] - 1;  // no call if empty
        for (size_t v = begin; v < end; ++v) {
          for (uint32_t i = out_.offsets[v]; i < out_.offsets[v + 1]; ++i) {
            fn(out_.ids[i], static_cast<NodeId>(v), out_.labels[i],
               out_.ids[std::min<uint32_t>(i + kScatterAhead, last)]);
          }
        }
      },
      in.get());
  SortRanges(chunks, in.get());
  const Side* published = in.release();
  in_.store(published, std::memory_order_release);
  return *published;
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g) {
  return Scatter(g.NumNodes(), g.EdgeSlotCount(),
                 [&g](size_t begin, size_t end, const auto& fn) {
                   for (EdgeId e = begin; e < end; ++e) {
                     if (!g.IsLiveEdge(e)) continue;
                     fn(g.edge(e),
                        g.edge(std::min(e + kScatterAhead, end - 1)).src);
                   }
                 });
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g,
                               const DeltaOverlay& overlay) {
  // The inputs are the edge slots, then the staged additions. Before the
  // two passes of Scatter, each staged triple probes the graph's triple
  // index once: a staged removal flags its edge's slot in `removed`, and
  // a staged addition the graph already holds live (added outside the
  // engine since the last rebuild) is left out, so it stays one edge, as
  // the fold keeps it: a repeated (label, other) key is a bundle the
  // loader refuses.
  const size_t slots = g.EdgeSlotCount();
  std::vector<uint8_t> removed(slots, 0);
  overlay.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
    if (auto slot = g.FindEdge(t.src, t.dst, t.label)) removed[*slot] = 1;
  });
  std::vector<Edge> added;
  overlay.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    if (overlay.IsRemoved(t.src, t.dst, t.label) ||
        !g.FindEdge(t.src, t.dst, t.label).has_value()) {
      added.push_back(Edge{t.src, t.dst, t.label});
    }
  });
  return Scatter(
      g.NumNodes() + overlay.num_staged_nodes(), slots + added.size(),
      [&](size_t begin, size_t end, const auto& fn) {
        for (EdgeId e = begin; e < std::min(end, slots); ++e) {
          if (!g.IsLiveEdge(e) || removed[e]) continue;
          fn(g.edge(e), g.edge(std::min(e + kScatterAhead, slots - 1)).src);
        }
        for (size_t i = std::max(begin, slots); i < end; ++i) {
          fn(added[i - slots],
             added[std::min(i - slots + kScatterAhead, added.size() - 1)].src);
        }
      });
}

}  // namespace sargus
