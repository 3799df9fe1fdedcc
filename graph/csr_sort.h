#ifndef SARGUS_GRAPH_CSR_SORT_H_
#define SARGUS_GRAPH_CSR_SORT_H_

/// \file csr_sort.h
/// \brief SortRange: the kernel that orders one CSR range by its key.
///
/// A CSR side keeps each entry in two parallel columns, the far
/// endpoint (`ids`) and the label (`labels`); see graph/csr.h. The
/// build (graph/csr.cc) sorts every node's range, out and in, by one
/// packed 64-bit key per entry, `uint64_t{label} << 32 | other`, whose
/// integer order is the (label, other) order: SortRange gathers the
/// range's keys from both columns, sorts the keys and writes both
/// columns back. Most ranges are short (a 65,536-node Barabási–Albert
/// graph has six out-entries per node on average), so the kernel routes
/// a range by its length:
///  - up to 4 entries: a 5-comparator network;
///  - 5 to 8: a 19-comparator network;
///  - 9 to 16: Batcher's 63-comparator odd-even merge network;
///  - 17 to kShortRange: insertion sort;
///  - longer: std::sort over a caller-owned key buffer.
/// A network pads its unused inputs with kPadKey. Each size class
/// keeps its keys on the stack; only a range past kShortRange needs the
/// buffer, so a build holds no key array beside its columns.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/types.h"

namespace sargus::csr_sort {

/// Ranges up to this length sort on the stack, longer ones by std::sort.
inline constexpr size_t kShortRange = 32;

/// Fills the unused slots of a network. No packed key equals it: a
/// label is 16 bits, so bits 48–63 of every key are zero.
inline constexpr uint64_t kPadKey = ~uint64_t{0};

inline uint64_t Key(NodeId other, LabelId label) {
  return uint64_t{label} << 32 | other;
}

/// Orders a and b without a branch. std::min and std::max compile to a
/// compare-and-jump here, which mispredicts on unsorted keys.
inline void CompareExchange(uint64_t& a, uint64_t& b) {
  const uint64_t swap = (a ^ b) & (uint64_t{0} - (b < a));
  a ^= swap;
  b ^= swap;
}

/// One comparator of a sorting network: orders k[lo] before k[hi].
struct Comparator {
  uint8_t lo, hi;
};

/// Sorts four inputs in depth 3.
inline constexpr Comparator kFour[] = {{0, 1}, {2, 3}, {0, 2}, {1, 3},
                                       {1, 2}};

/// Sorts eight inputs in depth 6.
inline constexpr Comparator kEight[] = {
    {0, 2}, {1, 3}, {4, 6}, {5, 7}, {0, 4}, {1, 5}, {2, 6},
    {3, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}, {2, 4}, {3, 5},
    {1, 4}, {3, 6}, {1, 2}, {3, 4}, {5, 6}};

/// Batcher's odd-even merge sort of sixteen inputs, one depth level a
/// line (depth 10).
inline constexpr Comparator kSixteen[] = {
    {0, 1},  {2, 3},   {4, 5},   {6, 7},   {8, 9},   {10, 11}, {12, 13},
    {14, 15},
    {0, 2},  {1, 3},   {4, 6},   {5, 7},   {8, 10},  {9, 11},  {12, 14},
    {13, 15},
    {1, 2},  {5, 6},   {0, 4},   {3, 7},   {9, 10},  {13, 14}, {8, 12},
    {11, 15},
    {2, 6},  {1, 5},   {10, 14}, {9, 13},  {0, 8},   {7, 15},
    {2, 4},  {3, 5},   {10, 12}, {11, 13},
    {1, 2},  {3, 4},   {5, 6},   {9, 10},  {11, 12}, {13, 14},
    {4, 12}, {2, 10},  {6, 14},  {1, 9},   {5, 13},  {3, 11},
    {4, 8},  {6, 10},  {5, 9},   {7, 11},
    {2, 4},  {6, 8},   {10, 12}, {3, 5},   {7, 9},   {11, 13},
    {1, 2},  {3, 4},   {5, 6},   {7, 8},   {9, 10},  {11, 12}, {13, 14}};

/// Runs every comparator of kNetwork over k, unrolled at compile time.
template <const auto& kNetwork, size_t... I>
inline void RunNetwork(uint64_t* k, std::index_sequence<I...>) {
  (CompareExchange(k[kNetwork[I].lo], k[kNetwork[I].hi]), ...);
}

/// Sorts a range of n <= sizeof...(I) entries through kNetwork. Every
/// index is a constant once the folds unroll, so the keys can stay in
/// registers from the gather to the write-back.
template <const auto& kNetwork, size_t... I>
inline void SortByNetwork(NodeId* ids, LabelId* labels, size_t n,
                          std::index_sequence<I...>) {
  uint64_t keys[] = {(I < n ? Key(ids[I], labels[I]) : kPadKey)...};
  RunNetwork<kNetwork>(keys, std::make_index_sequence<std::size(kNetwork)>{});
  const auto put = [&](size_t i) {
    if (i < n) {
      ids[i] = static_cast<NodeId>(keys[i]);
      labels[i] = static_cast<LabelId>(keys[i] >> 32);
    }
  };
  (put(I), ...);
}

/// Packs the keys of n entries into keys[0, n).
inline void ReadKeys(const NodeId* ids, const LabelId* labels, size_t n,
                   uint64_t* keys) {
  for (size_t i = 0; i < n; ++i) keys[i] = Key(ids[i], labels[i]);
}

/// Unpacks keys[0, n) into both columns.
inline void WriteKeys(const uint64_t* keys, size_t n, NodeId* ids,
                    LabelId* labels) {
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<NodeId>(keys[i]);
    labels[i] = static_cast<LabelId>(keys[i] >> 32);
  }
}

/// Sorts the n entries at ids[0, n) and labels[0, n) by packed key.
/// `long_keys` is grown to hold the keys of a range longer than
/// kShortRange; a caller sorting many ranges passes the same buffer to
/// each. Callers pass ranges whose keys are unique, so any sort by the
/// key gives the same result.
inline void SortRange(NodeId* ids, LabelId* labels, size_t n,
                      std::vector<uint64_t>& long_keys) {
  if (n < 2) return;
  if (n <= 4) {
    SortByNetwork<kFour>(ids, labels, n, std::make_index_sequence<4>{});
  } else if (n <= 8) {
    SortByNetwork<kEight>(ids, labels, n, std::make_index_sequence<8>{});
  } else if (n <= 16) {
    SortByNetwork<kSixteen>(ids, labels, n, std::make_index_sequence<16>{});
  } else if (n <= kShortRange) {
    uint64_t keys[kShortRange];
    ReadKeys(ids, labels, n, keys);
    for (size_t i = 1; i < n; ++i) {
      const uint64_t key = keys[i];
      size_t j = i;
      for (; j > 0 && key < keys[j - 1]; --j) keys[j] = keys[j - 1];
      keys[j] = key;
    }
    WriteKeys(keys, n, ids, labels);
  } else {
    if (long_keys.size() < n) long_keys.resize(n);
    ReadKeys(ids, labels, n, long_keys.data());
    std::sort(long_keys.begin(), long_keys.begin() + n);
    WriteKeys(long_keys.data(), n, ids, labels);
  }
}

}  // namespace sargus::csr_sort

#endif  // SARGUS_GRAPH_CSR_SORT_H_
