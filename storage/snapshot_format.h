#ifndef SARGUS_STORAGE_SNAPSHOT_FORMAT_H_
#define SARGUS_STORAGE_SNAPSHOT_FORMAT_H_

/// \file snapshot_format.h
/// \brief The on-disk snapshot bundle: one versioned, page-aligned,
/// checksummed file holding everything a serving engine needs — graph,
/// overlay, and the prebuilt CSR — so a restart is an mmap + verify +
/// adopt, never an index *computation*.
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
/// interior padding (Edge, CsrSnapshot::Entry) are
/// serialized as parallel scalar columns — raw struct memcpy would
/// checksum uninitialized padding bytes. Padding-free structs and plain
/// scalar vectors are bulk-memcpy'd.
///
/// Publication is atomic: SnapshotWriter assembles the file in memory
/// and hands it to WriteFileAtomic (temp + fsync + rename + dir fsync),
/// so `snapshot.sargus` is always either the previous complete bundle
/// or the new complete bundle.
///
/// The header carries the (generation, overlay_version) stamp of the
/// engine state the bundle captured — the coordinate the WAL replay
/// rule compares against (storage/wal.h).

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

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
/// sections (kinds 3 and 5) and their header flags. Older bundles are
/// refused with kDataLoss, not migrated.
inline constexpr uint32_t kBundleVersion = 5;
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

/// Verifies the header page of an already-mapped bundle (magic, version,
/// header checksum, zero flags, section-table bounds). The loader and
/// ReadBundleInfo share this so "valid header" means one thing.
Result<BundleInfo> ParseBundleHeader(std::span<const uint8_t> bytes);

// ---- Byte codec -------------------------------------------------------------

/// Growing little-endian sink the serialize halves write sections into.
class BlobWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof v); }

  /// Length-prefixed bulk copy. T must be trivially copyable with no
  /// interior padding (padding bytes would make checksums depend on
  /// stale stack memory); padded structs go through per-field columns.
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    if (!s.empty()) PutRaw(s.data(), s.size());
  }

  std::span<const uint8_t> bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  void PutRaw(const void* p, size_t n) {
    const size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, p, n);
  }
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked cursor over one verified section. Overruns latch
/// `ok() == false` and return zeros instead of reading past the span, so
/// a malformed section (writer bug; checksummed corruption cannot reach
/// here) degrades to a Status at the call site, never UB.
class BlobReader {
 public:
  explicit BlobReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t GetU8() {
    uint8_t v = 0;
    GetRaw(&v, sizeof v);
    return v;
  }
  uint16_t GetU16() {
    uint16_t v = 0;
    GetRaw(&v, sizeof v);
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof v);
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof v);
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    GetRaw(&v, sizeof v);
    return v;
  }

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
    if (count > 0) GetRaw(out->data(), count * sizeof(T));
  }

  void GetString(std::string* out) {
    const uint32_t len = GetU32();
    if (!ok_ || len > Remaining()) {
      ok_ = false;
      out->clear();
      return;
    }
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool ok() const { return ok_; }

 private:
  void GetRaw(void* p, size_t n) {
    if (!ok_ || n > Remaining()) {
      ok_ = false;
      return;
    }
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
  }
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Private-member bridge --------------------------------------------------

/// The one friend every serialized class grants. Save halves live in
/// snapshot_format.cc, load halves in snapshot_loader.cc; keeping both
/// behind a single named bridge means a class audits exactly one line
/// to know who can see its internals.
struct StorageAccess {
  static void SaveGraph(const SocialGraph& g, BlobWriter& w);
  static Status LoadGraph(BlobReader& r, SocialGraph* g);

  static void SaveCsr(const CsrSnapshot& csr, BlobWriter& w);
  static Status LoadCsr(BlobReader& r, CsrSnapshot* csr);

  static void SaveOverlay(const DeltaOverlay& o, BlobWriter& w);
  static Status LoadOverlay(BlobReader& r, DeltaOverlay* o);
};

}  // namespace sargus::storage

#endif  // SARGUS_STORAGE_SNAPSHOT_FORMAT_H_
