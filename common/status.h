#ifndef SARGUS_COMMON_STATUS_H_
#define SARGUS_COMMON_STATUS_H_

/// \file status.h
/// \brief Error signalling for every fallible sargus API.
///
/// Conventions (see docs/ARCHITECTURE.md):
///  * Builders and parsers return `Result<T>` (status.h + result.h); cheap
///    infallible accessors return values directly.
///  * `Status` carries a canonical code plus a human-readable message.
///  * Codes follow the usual canonical meanings:
///      - kInvalidArgument:   malformed input (bad expression syntax, bad ids)
///      - kNotFound:          a named entity does not exist (label, resource)
///      - kFailedPrecondition: API called before its prerequisite
///                             (e.g. backward step without backward line graph)
///      - kResourceExhausted: a configured cap was hit (join tuple budget)
///      - kInternal:          invariant violation — always a sargus bug
///      - kUnavailable:       a dependency (shard, transport) cannot be
///                            reached right now; retrying later may succeed
///      - kDeadlineExceeded:  the operation ran out of its time budget;
///                            the work may or may not have happened

#include <string>
#include <string_view>
#include <utility>

namespace sargus {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 3,
  kResourceExhausted = 4,
  kOutOfRange = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kUnavailable = 8,
  kDeadlineExceeded = 9,
  kDataLoss = 10,
};

/// The highest code; a code read from outside the process above it is
/// not one this build knows.
inline constexpr StatusCode kLastStatusCode = StatusCode::kDataLoss;

/// Returns the canonical name ("INVALID_ARGUMENT", ...) for a code.
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  /// Default status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// Bytes on disk (or the wire) failed a checksum or framing check.
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_;
  std::string message_;
};

/// Shorthand used by call sites that only need an OK status object.
inline Status OkStatus() { return Status(); }

/// Propagates a non-OK status from an expression to the caller.
#define SARGUS_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::sargus::Status _sargus_st = (expr);         \
    if (!_sargus_st.ok()) return _sargus_st;      \
  } while (0)

}  // namespace sargus

#endif  // SARGUS_COMMON_STATUS_H_
