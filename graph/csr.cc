#include "graph/csr.h"

#include <algorithm>

#include "graph/delta_overlay.h"

namespace sargus {

namespace {

using Entry = CsrSnapshot::Entry;

/// (label, other) order. The graph coalesces duplicate (src, dst, label)
/// triples, so within one node's range the key is unique and any sort by
/// it gives the same result.
bool LabelOtherLess(const Entry& a, const Entry& b) {
  return a.label != b.label ? a.label < b.label : a.other < b.other;
}

/// Stable sort of in-ranges by label. Each range arrives sorted by
/// `other`, so the result is (label, other) order. One instance is
/// shared across all ranges so the long-range scratch is allocated once.
class StableLabelSorter {
 public:
  /// Ranges up to this length sort by insertion, longer ones by a
  /// counting pass over their labels.
  static constexpr size_t kShortRange = 32;

  void Sort(Entry* first, Entry* last) {
    const size_t n = static_cast<size_t>(last - first);
    if (n <= kShortRange) {
      for (Entry* i = first + 1; i < last; ++i) {
        const Entry x = *i;
        Entry* j = i;
        for (; j > first && x.label < j[-1].label; --j) *j = j[-1];
        *j = x;
      }
      return;
    }
    LabelId lo = first->label;
    LabelId hi = first->label;
    for (const Entry* e = first; e < last; ++e) {
      lo = std::min(lo, e->label);
      hi = std::max(hi, e->label);
    }
    if (lo == hi) return;
    const size_t span = static_cast<size_t>(hi - lo) + 1;
    if (span > n) {
      // A few labels spread over a wide id range: a count array would
      // cost more than the range, and the key is unique, so sort by it.
      std::sort(first, last, LabelOtherLess);
      return;
    }
    counts_.assign(span + 1, 0);
    for (const Entry* e = first; e < last; ++e) ++counts_[e->label - lo + 1];
    for (size_t l = 1; l <= span; ++l) counts_[l] += counts_[l - 1];
    if (scratch_.size() < n) scratch_.resize(n);
    for (const Entry* e = first; e < last; ++e) {
      scratch_[counts_[e->label - lo]++] = *e;
    }
    std::copy(scratch_.begin(), scratch_.begin() + n, first);
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<Entry> scratch_;
};

}  // namespace

template <typename ForEachEdge>
CsrSnapshot CsrSnapshot::Scatter(size_t num_nodes,
                                 const ForEachEdge& for_each_edge) {
  CsrSnapshot snap;
  snap.num_nodes_ = num_nodes;
  snap.out_offsets_.assign(num_nodes + 1, 0);

  // Counting pass.
  for_each_edge([&](const Edge& rec) { ++snap.out_offsets_[rec.src + 1]; });
  for (size_t v = 0; v < num_nodes; ++v) {
    snap.out_offsets_[v + 1] += snap.out_offsets_[v];
  }
  snap.out_entries_.resize(snap.out_offsets_[num_nodes]);

  // Out-side: scatter by source, then sort each range by (label, dst).
  std::vector<uint32_t> cursor(snap.out_offsets_.begin(),
                               snap.out_offsets_.end() - 1);
  for_each_edge([&](const Edge& rec) {
    snap.out_entries_[cursor[rec.src]++] = {rec.dst, rec.label};
  });
  Entry* out = snap.out_entries_.data();
  for (size_t v = 0; v < num_nodes; ++v) {
    std::sort(out + snap.out_offsets_[v], out + snap.out_offsets_[v + 1],
              LabelOtherLess);
  }
  snap.DeriveInSide();
  return snap;
}

void CsrSnapshot::DeriveInSide() {
  in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Entry& e : out_entries_) ++in_offsets_[e.other + 1];
  for (size_t v = 0; v < num_nodes_; ++v) {
    in_offsets_[v + 1] += in_offsets_[v];
  }
  in_entries_.resize(out_entries_.size());

  // Transpose in source order, so every in-range comes out sorted by
  // source; a stable pass by label then leaves it in (label, src) order.
  std::vector<uint32_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (const Entry& e : Out(v)) {
      in_entries_[cursor[e.other]++] = {v, e.label};
    }
  }
  Entry* in = in_entries_.data();
  StableLabelSorter sorter;
  for (size_t v = 0; v < num_nodes_; ++v) {
    sorter.Sort(in + in_offsets_[v], in + in_offsets_[v + 1]);
  }
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g) {
  return Scatter(g.NumNodes(), [&g](auto&& fn) {
    for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
      if (g.IsLiveEdge(e)) fn(g.edge(e));
    }
  });
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g,
                               const DeltaOverlay& overlay) {
  // Staged removals are resolved to slots once, before the two passes of
  // Scatter, and only edges whose source has a staged removal pay a hash
  // probe. A staged addition the graph already holds live (added outside
  // the engine since the last rebuild) stays one edge, as the fold keeps
  // it: a repeated (label, other) key is a bundle the loader refuses.
  std::vector<Edge> added;
  overlay.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    if (overlay.IsRemoved(t.src, t.dst, t.label) ||
        !g.FindEdge(t.src, t.dst, t.label).has_value()) {
      added.push_back(Edge{t.src, t.dst, t.label});
    }
  });
  std::vector<uint8_t> removed;
  if (overlay.has_deletions()) {
    std::vector<uint8_t> source_has_removal(g.NumNodes(), 0);
    overlay.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
      if (t.src < g.NumNodes()) source_has_removal[t.src] = 1;
    });
    removed.assign(g.EdgeSlotCount(), 0);
    for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
      if (!g.IsLiveEdge(e)) continue;
      const Edge& rec = g.edge(e);
      removed[e] = source_has_removal[rec.src] &&
                   overlay.IsRemoved(rec.src, rec.dst, rec.label);
    }
  }
  return Scatter(
      g.NumNodes() + overlay.num_staged_nodes(), [&](auto&& fn) {
        for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
          if (g.IsLiveEdge(e) && (removed.empty() || !removed[e])) {
            fn(g.edge(e));
          }
        }
        for (const Edge& rec : added) fn(rec);
      });
}

std::span<const CsrSnapshot::Entry> CsrSnapshot::LabelRange(
    std::span<const Entry> all, LabelId label) {
  auto lo = std::lower_bound(
      all.begin(), all.end(), label,
      [](const Entry& e, LabelId l) { return e.label < l; });
  auto hi = std::upper_bound(
      all.begin(), all.end(), label,
      [](LabelId l, const Entry& e) { return l < e.label; });
  return {lo, hi};
}

}  // namespace sargus
