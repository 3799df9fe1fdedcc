#ifndef SARGUS_COMMON_CHECKSUM_H_
#define SARGUS_COMMON_CHECKSUM_H_

/// \file checksum.h
/// \brief FNV-1a-64: the one checksum every sargus byte format uses.
///
/// The shard wire protocol (shard/wire.h, frame trailer), the snapshot
/// bundle format (storage/snapshot_format.h, header + per-section
/// checksums) and the mutation WAL (storage/wal.h, per-record trailer)
/// all seal their bytes with this hash. One implementation, cross-pinned
/// by a golden-value test (tests/storage_test.cc), so a frame a shard
/// emits and a section a loader verifies can never disagree about what
/// "checksummed" means. Two forms share the constants: the serial
/// Fnv1a64 for small payloads, and the eight-lane StripedFnv1a64 for
/// bulk bundle sections (see below).
///
/// FNV-1a is not cryptographic; it is a corruption detector. Every
/// single-bit flip changes the digest (the wire fuzz suite and the
/// storage corruption matrix both pin this empirically over 10k seeded
/// mutations).

#include <cstddef>
#include <cstdint>
#include <span>

namespace sargus {

inline constexpr uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// Resumable form: feed the previous digest back in as `state` to hash
/// discontiguous regions as one logical stream.
inline uint64_t Fnv1a64Resume(std::span<const uint8_t> bytes,
                              uint64_t state) {
  uint64_t h = state;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Digest of one contiguous byte range.
inline uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  return Fnv1a64Resume(bytes, kFnv1a64OffsetBasis);
}

inline uint64_t Fnv1a64(const void* data, size_t size) {
  return Fnv1a64({static_cast<const uint8_t*>(data), size});
}

/// Eight-lane striped FNV-1a-64 for bulk data (snapshot bundle
/// sections). Byte i feeds lane i % 8; each lane is an independent
/// FNV-1a-64 stream, and the digest is the plain FNV-1a-64 of the eight
/// lane digests serialized little-endian. Semantically it is still
/// "FNV-1a-64 over every byte" — same detection strength per flip — but
/// the eight multiply chains are independent, so the loop pipelines at
/// ~8x the throughput of the serial form (which retires one dependent
/// 64-bit multiply per byte). Small payloads (wire frames, WAL records)
/// keep the serial form; bundle sections are tens of MB and their
/// verification sits on the cold-start path.
///
/// The hasher is resumable: Update may be called with pieces of any
/// size, and Digest() equals the one-shot StripedFnv1a64 of their
/// concatenation. The bundle writer and loader stream sections through
/// a bounded buffer and hash each piece as it passes.
class StripedFnv1a64Hasher {
 public:
  void Update(std::span<const uint8_t> bytes) {
    // Work on locals: the input is a uint8_t pointer, which may alias
    // the member lanes and would force a reload per byte.
    uint64_t l[8];
    for (size_t j = 0; j < 8; ++j) l[j] = lane_[j];
    const uint8_t* p = bytes.data();
    size_t n = bytes.size();
    // Finish the lane round an earlier piece left open.
    for (; n > 0 && pos_ % 8 != 0; ++p, --n, ++pos_) {
      l[pos_ % 8] = (l[pos_ % 8] ^ *p) * kFnv1a64Prime;
    }
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      l[0] = (l[0] ^ p[i + 0]) * kFnv1a64Prime;
      l[1] = (l[1] ^ p[i + 1]) * kFnv1a64Prime;
      l[2] = (l[2] ^ p[i + 2]) * kFnv1a64Prime;
      l[3] = (l[3] ^ p[i + 3]) * kFnv1a64Prime;
      l[4] = (l[4] ^ p[i + 4]) * kFnv1a64Prime;
      l[5] = (l[5] ^ p[i + 5]) * kFnv1a64Prime;
      l[6] = (l[6] ^ p[i + 6]) * kFnv1a64Prime;
      l[7] = (l[7] ^ p[i + 7]) * kFnv1a64Prime;
    }
    for (; i < n; ++i) {
      l[i % 8] = (l[i % 8] ^ p[i]) * kFnv1a64Prime;
    }
    pos_ += n;
    for (size_t j = 0; j < 8; ++j) lane_[j] = l[j];
  }

  uint64_t Digest() const {
    uint8_t digest[64];
    for (size_t j = 0; j < 8; ++j) {
      for (size_t b = 0; b < 8; ++b) {
        digest[j * 8 + b] = static_cast<uint8_t>(lane_[j] >> (8 * b));
      }
    }
    return Fnv1a64(digest, sizeof(digest));
  }

 private:
  uint64_t lane_[8] = {kFnv1a64OffsetBasis, kFnv1a64OffsetBasis,
                       kFnv1a64OffsetBasis, kFnv1a64OffsetBasis,
                       kFnv1a64OffsetBasis, kFnv1a64OffsetBasis,
                       kFnv1a64OffsetBasis, kFnv1a64OffsetBasis};
  uint64_t pos_ = 0;  // bytes hashed so far; the next byte feeds pos_ % 8
};

inline uint64_t StripedFnv1a64(std::span<const uint8_t> bytes) {
  StripedFnv1a64Hasher h;
  h.Update(bytes);
  return h.Digest();
}

inline uint64_t StripedFnv1a64(const void* data, size_t size) {
  return StripedFnv1a64({static_cast<const uint8_t*>(data), size});
}

}  // namespace sargus

#endif  // SARGUS_COMMON_CHECKSUM_H_
