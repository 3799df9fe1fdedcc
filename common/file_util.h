#ifndef SARGUS_COMMON_FILE_UTIL_H_
#define SARGUS_COMMON_FILE_UTIL_H_

/// \file file_util.h
/// \brief POSIX file helpers for the durability layer: RAII mmap,
/// atomic publication, and a synced append stream.
///
/// Everything here reports failures as Status (never throws, never
/// crashes on I/O errors) and owns its descriptors RAII-style, so a
/// failed load or a destroyed writer can never leak an fd or a mapping.
///
/// Atomicity model (the snapshot bundle's publication protocol):
/// `WriteFileAtomic` writes to `<path>.tmp.<pid>` in the same directory,
/// fsyncs the file, rename(2)s it over `path`, then fsyncs the directory
/// — so a reader either sees the complete old file or the complete new
/// one, never a torn write, even across power loss.

#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace sargus {

/// A read-only memory-mapped file. Move-only; unmaps and closes on
/// destruction. An empty file maps to an empty span (no mapping held).
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::span<const uint8_t> bytes() const {
    return {static_cast<const uint8_t*>(data_), size_};
  }
  size_t size() const { return size_; }

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

/// Creates `dir` (one level) if it does not exist yet.
Status CreateDirIfMissing(const std::string& dir);

/// True when `path` names an existing file.
bool FileExists(const std::string& path);

/// Atomically replaces `path` with `bytes`: temp file + fsync + rename +
/// directory fsync. See the file comment for the crash guarantee.
Status WriteFileAtomic(const std::string& path,
                       std::span<const uint8_t> bytes);

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
