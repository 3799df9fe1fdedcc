#ifndef SARGUS_STORAGE_WAL_H_
#define SARGUS_STORAGE_WAL_H_

/// \file wal.h
/// \brief The mutation write-ahead log: an append-only stream of
/// length-prefixed, checksummed writer operations.
///
/// Every engine mutation (AddEdge / RemoveEdge / AddNode / policy
/// refresh) appends one record *after* it is staged and *before* its
/// ticket completes (a group-commit batch appends all of its records
/// with one AppendBatch), stamped with the (snapshot_generation,
/// overlay_version) the mutation landed in — the same stamps
/// AccessDecision carries. A
/// snapshot bundle (storage/snapshot_format.h) is stamped the same way,
/// which yields the recovery rule:
///
///     replay a record  iff  (gen, ver) > (bundle.gen, bundle.ver)
///                           (lexicographic)
///
/// Records at or below the bundle stamp are *covered* — their effect is
/// already inside the bundle's graph/overlay — and must be skipped, not
/// double-applied. That makes the crash window between "bundle
/// published" and "WAL truncated" safe by construction: a reopen sees
/// covered records and ignores them.
///
/// Record layout (little-endian):
///
///     u32 payload_len            | bytes from `kind` to payload end
///     u8  kind                   |
///     u64 generation             |
///     u64 overlay_version        |  payload
///     kind-specific fields       |
///     u64 FNV-1a-64              | over payload_len + payload
///
/// AddEdge/RemoveEdge carry the label *name* (not the id): a label
/// interned after the last snapshot save does not exist in the bundle's
/// dictionary, so replay re-interns by name exactly like the original
/// call did. Torn-tail semantics: ReadWal returns the longest clean
/// record prefix; a record that fails its length bound or checksum stops
/// the scan with `tail_status` describing why and `valid_bytes` marking
/// the truncation point (the writer reopens the log truncated there).
/// Any single-bit flip in the stream is caught by a record checksum —
/// the storage corruption-matrix test pins this.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

namespace sargus::storage {

inline constexpr uint64_t kWalMagic = 0x314C41575347'5253ULL;  // "SRGSWAL1"
inline constexpr uint32_t kWalVersion = 1;
/// Magic + version + reserved u32.
inline constexpr size_t kWalFileHeaderBytes = 16;
/// Cap on one record's payload; anything larger is corruption.
inline constexpr uint32_t kWalMaxPayloadBytes = 1 << 20;

/// When appends are made durable.
///
///  * kEveryRecord — fdatasync once per AppendBatch (a crashed writer
///    loses nothing it acknowledged: the engine completes a batch's
///    tickets only after AppendBatch returns, so one sync per batch makes
///    every record in it durable).
///  * kNever — leave flushing to the OS (fast, loses the unsynced tail
///    on power failure — still never corrupts: the tail, torn batch
///    included, is detected and truncated to the last whole record on
///    reopen).
enum class WalSyncPolicy { kEveryRecord, kNever };

struct WalRecord {
  enum class Kind : uint8_t {
    kAddEdge = 1,
    kRemoveEdge = 2,
    kAddNode = 3,
    kPolicyRefresh = 4,
  };
  Kind kind = Kind::kAddNode;
  /// Stamp of the published state the mutation landed in.
  uint64_t generation = 0;
  uint64_t overlay_version = 0;
  // kAddEdge / kRemoveEdge only:
  NodeId src = 0;
  NodeId dst = 0;
  std::string label;
};

/// Result of scanning a WAL file.
struct WalContents {
  std::vector<WalRecord> records;
  /// Offset of the first byte past the last clean record — where a
  /// recovering writer resumes appending.
  uint64_t valid_bytes = 0;
  /// OK when the scan ended exactly at EOF; otherwise why it stopped
  /// (torn tail or corruption). Records before the stop point are
  /// intact either way — a bad record never makes it into `records`.
  Status tail_status = OkStatus();
};

/// Encodes one record (for tests that build WAL bytes by hand).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec);

/// Scans `path`. kNotFound when the file does not exist; kInvalidArgument
/// when the file header itself is damaged. Never crashes on garbage.
Result<WalContents> ReadWal(const std::string& path);

/// Appender. Open creates the file (writing the header) or resumes an
/// existing one at `resume_size` (truncating a torn tail detected by
/// ReadWal).
class WalWriter {
 public:
  static Result<WalWriter> Open(const std::string& path,
                                WalSyncPolicy sync_policy,
                                int64_t resume_size = -1);

  WalWriter() = default;
  WalWriter(WalWriter&&) noexcept = default;
  WalWriter& operator=(WalWriter&&) noexcept = default;

  /// Group commit: seals all of `recs` into one gathered write and
  /// fdatasyncs ONCE at the end (unless kNever). On return every record
  /// of the batch is durable per the policy — the engine completes the
  /// batch's tickets only after this returns. All-or-nothing: on a
  /// failed write or sync the file is cut back to its size before the
  /// batch, so no torn record can sit in front of the next batch. If
  /// that cut fails too, the writer stays failed and returns the error
  /// from every later AppendBatch. (A crash mid-write still leaves a
  /// torn tail, which ReadWal truncates on reopen — safe, because
  /// nothing in the batch was acknowledged.)
  Status AppendBatch(std::span<const WalRecord> recs);

  /// Drops every record: the log shrinks back to its file header. Called
  /// after a snapshot bundle covering the log is durably published.
  Status Truncate();

  Status Sync() { return file_.Sync(); }
  uint64_t size() const { return file_.size(); }
  bool is_open() const { return file_.is_open(); }

  /// Records appended and fdatasyncs issued by
  /// appends over this writer's lifetime — the "one fsync per batch"
  /// tests read these. Truncate/Open-header syncs are not counted.
  uint64_t append_count() const { return append_count_; }
  uint64_t sync_count() const { return sync_count_; }

 private:
  AppendFile file_;
  WalSyncPolicy sync_policy_ = WalSyncPolicy::kEveryRecord;
  uint64_t append_count_ = 0;
  uint64_t sync_count_ = 0;
  /// Set when a failed batch could not be cut back off the file.
  Status failed_ = OkStatus();
};

}  // namespace sargus::storage

#endif  // SARGUS_STORAGE_WAL_H_
