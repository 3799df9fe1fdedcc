#ifndef SARGUS_GRAPH_CSR_SORT_H_
#define SARGUS_GRAPH_CSR_SORT_H_

/// \file csr_sort.h
/// \brief SortRange: the kernel that orders one CSR range by its key.
///
/// The CSR build (graph/csr.cc) sorts every node's range, out and in, by
/// one packed 64-bit key per entry, `uint64_t{label} << 32 | other`,
/// whose integer order is the (label, other) order. Most ranges are
/// short (a 65,536-node Barabási–Albert graph has six out-entries per
/// node on average), so a range of up to eight entries goes through a
/// branch-free sorting network, padded with kPadKey, one of up to
/// kShortRange through insertion sort, and a longer one through
/// std::sort, all three comparing packed keys.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "graph/csr.h"

namespace sargus::csr_sort {

using Entry = CsrSnapshot::Entry;

/// Ranges up to this length sort by insertion, longer ones by std::sort.
inline constexpr size_t kShortRange = 32;

/// Fills the unused slots of the network. No packed key equals it: a
/// label is 16 bits, so bits 48–63 of every key are zero.
inline constexpr uint64_t kPadKey = ~uint64_t{0};

inline uint64_t Key(const Entry& e) {
  return uint64_t{e.label} << 32 | e.other;
}

inline Entry FromKey(uint64_t key) {
  return Entry{static_cast<NodeId>(key), static_cast<LabelId>(key >> 32)};
}

/// Orders a and b without a branch. std::min and std::max compile to a
/// compare-and-jump here, which mispredicts on unsorted keys.
inline void CompareExchange(uint64_t& a, uint64_t& b) {
  const uint64_t swap = (a ^ b) & (uint64_t{0} - (b < a));
  a ^= swap;
  b ^= swap;
}

/// Sorts k[0, 8) with the 19-comparator, depth-6 network for eight
/// inputs.
inline void SortEight(uint64_t* k) {
  CompareExchange(k[0], k[2]);
  CompareExchange(k[1], k[3]);
  CompareExchange(k[4], k[6]);
  CompareExchange(k[5], k[7]);
  CompareExchange(k[0], k[4]);
  CompareExchange(k[1], k[5]);
  CompareExchange(k[2], k[6]);
  CompareExchange(k[3], k[7]);
  CompareExchange(k[0], k[1]);
  CompareExchange(k[2], k[3]);
  CompareExchange(k[4], k[5]);
  CompareExchange(k[6], k[7]);
  CompareExchange(k[2], k[4]);
  CompareExchange(k[3], k[5]);
  CompareExchange(k[1], k[4]);
  CompareExchange(k[3], k[6]);
  CompareExchange(k[1], k[2]);
  CompareExchange(k[3], k[4]);
  CompareExchange(k[5], k[6]);
}

/// Sorts [first, last) by packed key. Callers pass ranges whose keys
/// are unique, so any sort by the key gives the same result.
inline void SortRange(Entry* first, Entry* last) {
  const size_t n = static_cast<size_t>(last - first);
  if (n < 2) return;
  if (n <= 8) {
    uint64_t keys[8];
    std::fill(keys, keys + 8, kPadKey);
    for (size_t i = 0; i < n; ++i) keys[i] = Key(first[i]);
    SortEight(keys);
    for (size_t i = 0; i < n; ++i) first[i] = FromKey(keys[i]);
  } else if (n <= kShortRange) {
    for (Entry* i = first + 1; i < last; ++i) {
      const Entry x = *i;
      const uint64_t key = Key(x);
      Entry* j = i;
      for (; j > first && key < Key(j[-1]); --j) *j = j[-1];
      *j = x;
    }
  } else {
    std::sort(first, last,
              [](const Entry& a, const Entry& b) { return Key(a) < Key(b); });
  }
}

}  // namespace sargus::csr_sort

#endif  // SARGUS_GRAPH_CSR_SORT_H_
