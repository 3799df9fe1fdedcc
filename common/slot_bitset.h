#ifndef SARGUS_COMMON_SLOT_BITSET_H_
#define SARGUS_COMMON_SLOT_BITSET_H_

/// \file slot_bitset.h
/// \brief SlotBitSet: a membership set of one bit per slot over a dense
/// index range, the building block of the query scratch pool.
///
/// A plain `std::vector<uint8_t> visited(n)` costs O(n) to allocate and
/// zero on every query, which puts an O(|V|·states) floor under even the
/// shortest-path grant. A SlotBitSet is grown once to the high-water
/// mark and reused, and it is empty between uses: the code that inserts
/// keeps the list of slots it inserted anyway (a frontier, an audience)
/// and clears the set from that list when it is done, so a query pays
/// O(slots touched) and never O(capacity).
///
/// Not thread-safe: each thread (or caller) owns its own sets via
/// EvalContext (see query/eval_context.h).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sargus {

class SlotBitSet {
 public:
  /// Makes slots [0, size) addressable. Grows with clear words and never
  /// shrinks.
  void Reserve(size_t size) {
    const size_t words = (size + kWordBits - 1) / kWordBits;
    if (words_.size() < words) words_.resize(words, 0);
  }

  /// Marks `i` as a member; returns true when it was not one yet. `i`
  /// must be below the size passed to Reserve.
  bool Insert(size_t i) {
    uint64_t& word = words_[i / kWordBits];
    const uint64_t bit = uint64_t{1} << (i % kWordBits);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  bool Contains(size_t i) const {
    return ((words_[i / kWordBits] >> (i % kWordBits)) & 1) != 0;
  }

  /// Zeroes the word that holds slot `i`, and so every slot sharing it.
  /// Called for each slot a user inserted, once it is done with all of
  /// them, this empties the set without touching the words it never
  /// dirtied.
  void ClearWordOf(size_t i) { words_[i / kWordBits] = 0; }

  /// True when no slot is a member. O(capacity): for tests and checks.
  bool Empty() const {
    return std::all_of(words_.begin(), words_.end(),
                       [](uint64_t w) { return w == 0; });
  }

  /// Slots currently addressable (the high-water mark, rounded up to a
  /// word).
  size_t capacity() const { return words_.size() * kWordBits; }

  size_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  static constexpr size_t kWordBits = 64;
  std::vector<uint64_t> words_;
};

}  // namespace sargus

#endif  // SARGUS_COMMON_SLOT_BITSET_H_
