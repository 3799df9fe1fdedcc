#ifndef SARGUS_COMMON_FILE_UTIL_H_
#define SARGUS_COMMON_FILE_UTIL_H_

/// \file file_util.h
/// \brief POSIX file helpers for the durability layer: positional
/// reads, atomic publication, and a synced append stream.
///
/// Everything here reports failures as Status (never throws, never
/// crashes on I/O errors) and owns its descriptors RAII-style, so a
/// failed load or a destroyed writer can never leak an fd.
///
/// Atomicity model (the snapshot bundle's publication protocol):
/// `WriteFileAtomic` lets its caller fill `<path>.tmp.<pid>` in the same
/// directory, fsyncs the file, rename(2)s it over `path`, then fsyncs
/// the directory — so a reader either sees the complete old file or the
/// complete new one, never a torn write, even across power loss. A
/// failure at any step unlinks the temp file and leaves `path` as it was.

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace sargus {

/// A read-only file read by offset (pread(2)), so several threads may
/// read one descriptor at once. Move-only; closes on destruction.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path);

  ReadOnlyFile() = default;
  ReadOnlyFile(ReadOnlyFile&& other) noexcept { *this = std::move(other); }
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile();

  /// File size at Open.
  uint64_t size() const { return size_; }

  /// Reads exactly `n` bytes at `offset` into `dst`. kDataLoss when the
  /// file ends first (it shrank after Open).
  Status ReadAt(uint64_t offset, void* dst, size_t n) const;

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

/// Creates `dir` (one level) if it does not exist yet.
Status CreateDirIfMissing(const std::string& dir);

/// True when `path` names an existing file.
bool FileExists(const std::string& path);

/// Writes all of `bytes` at `offset` of `fd` (pwrite(2), retrying short
/// writes and EINTR).
Status WriteAllAt(int fd, std::span<const uint8_t> bytes, uint64_t offset);

/// Atomically replaces `path` with whatever `fill` writes into the temp
/// file descriptor it is handed: temp file + fill + fsync + rename +
/// directory fsync. A failed `fill` (or any later step) unlinks the
/// temp file. See the file comment for the crash guarantee.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(int fd)>& fill);

/// An append-only file stream (the WAL's backing). Open creates the file
/// when absent and positions at `resume_size` when given (truncating a
/// torn tail), else at the current end.
class AppendFile {
 public:
  static Result<AppendFile> Open(const std::string& path,
                                 int64_t resume_size = -1);

  AppendFile() = default;
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  /// On failure a prefix of `bytes` may be on disk while size() still
  /// reports the size before the call: TruncateTo(that size) undoes it.
  Status Append(std::span<const uint8_t> bytes);
  /// fdatasync the file contents.
  Status Sync();
  /// Shrinks the file to `size` bytes (0 = reset) and syncs.
  Status TruncateTo(uint64_t size);

  /// Bytes written so far (file size).
  uint64_t size() const { return size_; }
  bool is_open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
};

}  // namespace sargus

#endif  // SARGUS_COMMON_FILE_UTIL_H_
