#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace sargus {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

/// Directory part of `path` ("" when none).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return ErrnoStatus("open for fsync", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync", path);
  return OkStatus();
}

}  // namespace

// ---- ReadOnlyFile -----------------------------------------------------------

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return ErrnoStatus("open", path);
  }
  ReadOnlyFile out;
  out.fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoStatus("fstat", path);
  out.size_ = static_cast<uint64_t>(st.st_size);
  return out;
}

ReadOnlyFile& ReadOnlyFile::operator=(ReadOnlyFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status ReadOnlyFile::ReadAt(uint64_t offset, void* dst, size_t n) const {
  uint8_t* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    const ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", "<fd " + std::to_string(fd_) + ">");
    }
    if (got == 0) return Status::DataLoss("file ended before the read did");
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return OkStatus();
}

// ---- Directory / atomic write ----------------------------------------------

Status CreateDirIfMissing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return OkStatus();
  return ErrnoStatus("mkdir", dir);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status WriteAllAt(int fd, std::span<const uint8_t> bytes, uint64_t offset) {
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::pwrite(fd, p, left, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", "<fd " + std::to_string(fd) + ">");
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    left -= static_cast<size_t>(n);
  }
  return OkStatus();
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(int fd)>& fill) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);

  Status s = fill(fd);
  if (s.ok() && ::fsync(fd) != 0) s = ErrnoStatus("fsync", tmp);
  if (::close(fd) != 0 && s.ok()) s = ErrnoStatus("close", tmp);
  if (s.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    s = ErrnoStatus("rename", tmp);
  }
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  // The rename is only durable once the directory entry is.
  return FsyncPath(DirName(path), O_RDONLY | O_DIRECTORY);
}

// ---- AppendFile -------------------------------------------------------------

Result<AppendFile> AppendFile::Open(const std::string& path,
                                    int64_t resume_size) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  AppendFile out;
  out.fd_ = fd;
  out.size_ = static_cast<uint64_t>(st.st_size);
  if (resume_size >= 0 && static_cast<uint64_t>(resume_size) < out.size_) {
    const Status s = out.TruncateTo(static_cast<uint64_t>(resume_size));
    if (!s.ok()) return s;
  }
  if (::lseek(fd, static_cast<off_t>(out.size_), SEEK_SET) < 0) {
    return ErrnoStatus("lseek", path);
  }
  return out;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendFile::Append(std::span<const uint8_t> bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile: not open");
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", "<append file>");
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  size_ += bytes.size();
  return OkStatus();
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile: not open");
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", "<append file>");
  return OkStatus();
}

Status AppendFile::TruncateTo(uint64_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("AppendFile: not open");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("ftruncate", "<append file>");
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return ErrnoStatus("lseek", "<append file>");
  }
  size_ = size;
  return Sync();
}

}  // namespace sargus
