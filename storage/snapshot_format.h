#ifndef SARGUS_STORAGE_SNAPSHOT_FORMAT_H_
#define SARGUS_STORAGE_SNAPSHOT_FORMAT_H_

/// \file snapshot_format.h
/// \brief The on-disk snapshot bundle: one versioned, page-aligned,
/// checksummed file holding everything a serving engine needs — graph,
/// overlay, and the prebuilt CSR — so a restart is a read + verify +
/// adopt, never an index *computation*.
///
/// Each edge is stored once, as a row of the CSR's out-side (6 B: the
/// far endpoint and the label). The CSR section is the node count, the
/// out-offsets, the entry count and then the out-side's two columns,
/// every id and then every label, the bytes CsrSnapshot holds in memory
/// (graph/csr.h): SaveCsr writes each column with one bulk copy and
/// LoadCsr reads it straight into the snapshot's column. The graph
/// section holds only the name dictionaries and the attribute columns.
/// The loader derives the rest: the CSR's in-side (the out-side
/// transposed), on first use, and the graph's edges, which are the
/// loaded CSR itself (the graph comes back frozen over it).
///
/// File layout (little-endian throughout; the build static_asserts it):
///
///     page 0 (4096 B)   header: magic, version, stamp, flags,
///                       section table, FNV-1a-64 over bytes [0, 4088)
///                       stored in the page's last 8 bytes
///     page 1..          sections, each page-aligned and zero-padded
///                       to the next page boundary
///
/// Every section carries its own FNV-1a-64 digest (the eight-lane
/// striped form, common/checksum.h StripedFnv1a64 — sections are tens
/// of MB and verification sits on the cold-start path) in the section
/// table, so a loader re-verifies each byte range independently before
/// adopting it
/// (the corruption-matrix test flips bits everywhere and expects an
/// explicit kDataLoss, never a crash or a wrong decision). Structs with
/// interior padding (the overlay's triples) are serialized as parallel
/// scalar columns — raw struct memcpy would checksum uninitialized
/// padding bytes. Padding-free structs and plain scalar vectors are
/// bulk-copied.
///
/// Both directions stream. WriteBundle puts each section through one
/// kBlobChunkBytes buffer into the temp file at its page-aligned offset,
/// hashing as it goes, and writes the header page (which names every
/// section's digest) last; the loader reads each section with pread in
/// chunks of the same size and decodes while it hashes. Neither holds
/// the file, or a section, in memory whole.
///
/// Publication is atomic: WriteBundle fills the temp file that
/// WriteFileAtomic (temp + fsync + rename + dir fsync) publishes, so
/// `snapshot.sargus` is always either the previous complete bundle or
/// the new complete bundle, and a failed save leaves no temp file.
///
/// The header carries the (generation, overlay_version) stamp of the
/// engine state the bundle captured — the coordinate the WAL replay
/// rule compares against (storage/wal.h).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/result.h"
#include "common/status.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "graph/social_graph.h"

namespace sargus::storage {

static_assert(std::endian::native == std::endian::little,
              "snapshot bundles are little-endian on-disk; big-endian "
              "hosts need byte-swapping load/save paths");

/// Durability directory layout: one bundle, one WAL.
inline constexpr char kSnapshotFileName[] = "snapshot.sargus";
inline constexpr char kWalFileName[] = "wal.log";

inline constexpr uint64_t kBundleMagic = 0x3150414E53475253ULL;  // "SRGSNAP1"
/// Version 2 dropped the base-table section (kind 6); version 3 dropped
/// the interval labels from the oracle section; version 4 dropped the
/// oracle section (kind 4); version 5 dropped the line-graph and cluster
/// sections (kinds 3 and 5) and their header flags; version 6 dropped
/// the graph's edge slots, the CSR entries' edge ids and the CSR's
/// in-side, all derived at load. Older bundles are refused with
/// kDataLoss, not migrated.
inline constexpr uint32_t kBundleVersion = 6;
inline constexpr uint32_t kBundlePageSize = 4096;
/// Fixed header fields end here; section table entries follow.
inline constexpr size_t kBundleSectionTableOffset = 64;
inline constexpr size_t kBundleSectionEntryBytes = 32;
inline constexpr size_t kBundleMaxSections =
    (kBundlePageSize - 8 - kBundleSectionTableOffset) /
    kBundleSectionEntryBytes;

// The header's `flags` field (bytes 40..48) is always written 0 and a
// loader refuses any nonzero value. Bits 0 and 1 flagged the join stack
// and backward line-graph orientations up to version 4, bits 2 and 3
// the transitive closure and its undirected mode; all retired, never
// reused.

enum class SectionKind : uint32_t {
  kGraph = 1,
  kCsr = 2,
  // Retired, never reused: 3 held the line graph and 5 the cluster
  // index up to version 4, 4 the line-graph reachability oracle up to
  // version 3, 6 the paper's base tables up to version 1, and 7 the
  // transitive closure of the served prefilter.
  kOverlay = 8,
};

/// The (snapshot_generation, overlay_version) coordinate a bundle or a
/// WAL record was captured at — the same stamps AccessDecision carries.
struct SnapshotStamp {
  uint64_t generation = 0;
  uint64_t overlay_version = 0;

  /// Lexicographic order: the WAL replay rule is `record > bundle`.
  friend bool operator<=(const SnapshotStamp& a, const SnapshotStamp& b) {
    return a.generation < b.generation ||
           (a.generation == b.generation &&
            a.overlay_version <= b.overlay_version);
  }
};

/// What the engine hands the writer. All pointers are borrowed for the
/// duration of WriteBundle.
struct BundlePayload {
  const SocialGraph* graph = nullptr;
  const CsrSnapshot* csr = nullptr;
  const DeltaOverlay* overlay = nullptr;
  SnapshotStamp stamp;
  /// Effective auto-compaction threshold at save time, restored on open.
  uint64_t compact_threshold = 0;
};

/// Serializes `payload` and atomically publishes it at `path`.
Status WriteBundle(const std::string& path, const BundlePayload& payload);

/// Header-only inspection (the corruption tests target specific
/// sections by offset through this).
struct BundleInfo {
  uint32_t version = 0;
  uint32_t page_size = 0;
  uint64_t file_size = 0;
  SnapshotStamp stamp;
  uint64_t compact_threshold = 0;
  struct Section {
    SectionKind kind;
    uint64_t offset;
    uint64_t size;
    uint64_t checksum;
  };
  std::vector<Section> sections;
};

/// Reads and verifies only the header page of `path`.
Result<BundleInfo> ReadBundleInfo(const std::string& path);

/// Reads the header page of an open bundle and verifies it with
/// ParseBundleHeader. The loader and ReadBundleInfo share this.
Result<BundleInfo> ReadBundleHeader(const ReadOnlyFile& file);

/// Verifies a bundle's header page (magic, version, header checksum,
/// zero flags, section-table bounds) against the size of the file it
/// came from, so "valid header" means one thing everywhere. `page`
/// holds the file's first bytes, at most kBundlePageSize of them.
Result<BundleInfo> ParseBundleHeader(std::span<const uint8_t> page,
                                     uint64_t file_size);

// ---- Byte codec -------------------------------------------------------------

/// The one buffer a BlobWriter or BlobReader streams a section through.
/// It bounds what a save or a load holds on top of the structures
/// themselves, whatever the bundle's size.
inline constexpr size_t kBlobChunkBytes = size_t{1} << 20;

/// Little-endian sink that streams one section into the bundle file at
/// `offset` through a kBlobChunkBytes buffer, hashing every byte as it
/// passes. The first write error latches; later puts are dropped and
/// Finish() reports it.
class BlobWriter {
 public:
  BlobWriter(int fd, uint64_t offset)
      : fd_(fd), offset_(offset), buf_(new uint8_t[kBlobChunkBytes]) {}

  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }

  /// Length-prefixed bulk copy. T must be trivially copyable with no
  /// interior padding (padding bytes would make checksums depend on
  /// stale stack memory); padded structs go through PutColumn.
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    PutU64(v.size());
    PutArray(v);
  }

  /// PutVec without the length prefix, for arrays of one length whose
  /// count the caller writes once.
  template <typename T, typename A>
  void PutArray(const std::vector<T, A>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(v.data(), v.size() * sizeof(T));
  }

  /// Writes `field` of every row, in row order: one column of a padded
  /// struct (no length prefix; the caller writes the row count once).
  template <typename T, typename A, typename M>
  void PutColumn(const std::vector<T, A>& rows, M T::*field) {
    static_assert(std::is_trivially_copyable_v<M>);
    for (size_t i = 0; i < rows.size();) {
      if (kBlobChunkBytes - used_ < sizeof(M)) Flush();
      const size_t k =
          std::min(rows.size() - i, (kBlobChunkBytes - used_) / sizeof(M));
      uint8_t* out = buf_.get() + used_;
      for (size_t j = 0; j < k; ++j) {
        std::memcpy(out + j * sizeof(M), &(rows[i + j].*field), sizeof(M));
      }
      used_ += k * sizeof(M);
      i += k;
    }
  }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Writes out what is buffered; returns the first write error.
  Status Finish() {
    Flush();
    return status_;
  }
  /// Section bytes put so far.
  uint64_t size() const { return written_ + used_; }
  /// StripedFnv1a64 of the section; valid after Finish().
  uint64_t checksum() const { return hasher_.Digest(); }

 private:
  void PutRaw(const void* p, size_t n) {
    if (n <= kBlobChunkBytes - used_) {
      std::memcpy(buf_.get() + used_, p, n);
      used_ += n;
      return;
    }
    Flush();
    if (n < kBlobChunkBytes) {
      std::memcpy(buf_.get(), p, n);
      used_ = n;
      return;
    }
    WriteThrough({static_cast<const uint8_t*>(p), n});  // no second copy
  }
  void Flush() {
    WriteThrough({buf_.get(), used_});
    used_ = 0;
  }
  void WriteThrough(std::span<const uint8_t> bytes);

  int fd_;
  uint64_t offset_;
  std::unique_ptr<uint8_t[]> buf_;
  size_t used_ = 0;
  uint64_t written_ = 0;
  StripedFnv1a64Hasher hasher_;
  Status status_;
};

/// Bounds-checked cursor over the `size` bytes at `offset` of a bundle
/// file. It reads them with pread in kBlobChunkBytes pieces (large
/// arrays go straight into their destination) and hashes each piece as
/// it arrives, so a section is decoded while it is verified. Decoding
/// therefore sees bytes before their checksum is known: overruns latch
/// `ok() == false` and return zeros instead of reading past the
/// section, and every count is checked against the bytes left before
/// anything is sized by it, so corrupt bytes degrade to a Status at
/// the call site, never UB or an allocation the section could not fill.
/// Drain() hashes whatever decoding left unread; only then is Digest()
/// the section's checksum.
class BlobReader {
 public:
  BlobReader(const ReadOnlyFile& file, uint64_t offset, uint64_t size)
      : file_(file), offset_(offset), size_(size) {}

  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }

  template <typename T>
  void GetVec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t count = GetU64();
    if (!ok_ || count > Remaining() / sizeof(T)) {
      ok_ = false;
      out->clear();
      return;
    }
    out->resize(count);
    GetRaw(out->data(), count * sizeof(T));
  }

  /// Fills the already sized `out`: the inverse of BlobWriter::PutArray.
  template <typename T, typename A>
  void GetArray(std::vector<T, A>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok_ || out->size() > Remaining() / sizeof(T)) {
      ok_ = false;
      return;
    }
    GetRaw(out->data(), out->size() * sizeof(T));
  }

  /// Fills `field` of every row of the already sized `rows`: the
  /// inverse of BlobWriter::PutColumn, copied out of the buffer a chunk
  /// at a time.
  template <typename T, typename A, typename M>
  void GetColumn(std::vector<T, A>* rows, M T::*field) {
    static_assert(std::is_trivially_copyable_v<M>);
    const size_t n = rows->size();
    if (!ok_ || n > Remaining() / sizeof(M)) {
      ok_ = false;
      return;
    }
    for (size_t i = 0; i < n && ok_;) {
      if (tail_ - head_ < sizeof(M)) {
        // The buffer is spent, or a value straddles the chunk edge.
        GetRaw(&((*rows)[i++].*field), sizeof(M));
        continue;
      }
      const size_t k = std::min(n - i, (tail_ - head_) / sizeof(M));
      const uint8_t* in = buf_.get() + head_;
      for (size_t j = 0; j < k; ++j) {
        std::memcpy(&((*rows)[i + j].*field), in + j * sizeof(M), sizeof(M));
      }
      head_ += k * sizeof(M);
      pos_ += k * sizeof(M);
      i += k;
    }
  }

  void GetString(std::string* out) {
    const uint32_t len = GetU32();
    if (!ok_ || len > Remaining()) {
      ok_ = false;
      out->clear();
      return;
    }
    out->resize(len);
    GetRaw(out->data(), len);
  }

  size_t Remaining() const { return size_ - pos_; }
  bool ok() const { return ok_; }

  /// Reads and hashes every section byte decoding did not consume.
  /// Returns the read error, if any read failed.
  Status Drain();
  /// StripedFnv1a64 of the whole section once Drain() returned OK.
  uint64_t Digest() const { return hasher_.Digest(); }

 private:
  template <typename T>
  T Get() {
    T v{};
    GetRaw(&v, sizeof v);
    return v;
  }
  void GetRaw(void* p, size_t n);
  /// Bytes the next read takes: the rest of the section, at most a chunk.
  size_t NextChunk() const;
  /// Reads the next `n` section bytes into `dst` and hashes them; false
  /// (with io_status_ set) on a read error.
  bool Fetch(uint8_t* dst, size_t n);
  /// Fetches the next chunk into the buffer.
  bool Refill();

  const ReadOnlyFile& file_;
  uint64_t offset_;
  uint64_t size_;
  uint64_t pos_ = 0;      // section bytes consumed by decoding
  uint64_t fetched_ = 0;  // section bytes read from the file and hashed
  std::unique_ptr<uint8_t[]> buf_;
  size_t head_ = 0;  // buf_[head_, tail_) is fetched but not consumed
  size_t tail_ = 0;
  bool ok_ = true;
  StripedFnv1a64Hasher hasher_;
  Status io_status_;
};

// ---- Private-member bridge --------------------------------------------------

/// The one friend every serialized class grants. Save halves live in
/// snapshot_format.cc, load halves in snapshot_loader.cc; keeping both
/// behind a single named bridge means a class audits exactly one line
/// to know who can see its internals.
struct StorageAccess {
  /// The graph section holds only the dictionaries and attributes.
  static void SaveGraph(const SocialGraph& g, BlobWriter& w);
  static Status LoadGraph(BlobReader& r, SocialGraph* g);

  /// LoadCsr refuses (kDataLoss) offsets that do not run from 0 to the
  /// entry count without decreasing, and an out-range that is not
  /// strictly (label, other)-sorted or names a node past the last. It
  /// loads only the out-side; the in-side is derived on first use.
  static void SaveCsr(const CsrSnapshot& csr, BlobWriter& w);
  static Status LoadCsr(BlobReader& r, CsrSnapshot* csr);
  /// Hands `csr` to `g` as its frozen form (node count and edges, edge e
  /// being the e-th out-entry). Refuses (kDataLoss) a label past `g`'s
  /// dictionary, checked by node range on every core.
  static Status FreezeGraphOver(std::shared_ptr<const CsrSnapshot> csr,
                                SocialGraph* g);

  static void SaveOverlay(const DeltaOverlay& o, BlobWriter& w);
  static Status LoadOverlay(BlobReader& r, DeltaOverlay* o);
};

}  // namespace sargus::storage

#endif  // SARGUS_STORAGE_SNAPSHOT_FORMAT_H_
