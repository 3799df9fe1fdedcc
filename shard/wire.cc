#include "shard/wire.h"

#include <cstring>

#include "common/checksum.h"

namespace sargus::wire {
namespace {

/// Little-endian byte emitter.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader; sticky failure flag.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return bytes_[pos_++];
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint16_t>(bytes_[pos_] |
                                       (uint16_t{bytes_[pos_ + 1]} << 8));
    pos_ += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }
  std::string Str() {
    const uint32_t len = U32();
    if (!Need(len)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  /// Element count for a repeated field; capped by the bytes actually
  /// remaining so a corrupt length cannot trigger a huge allocation.
  uint32_t Count(size_t min_elem_bytes) {
    const uint32_t n = U32();
    if (min_elem_bytes > 0 && n > Remaining() / min_elem_bytes) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  size_t Remaining() const { return bytes_.size() - pos_; }
  bool failed() const { return failed_; }
  bool ExactlyConsumed() const { return !failed_ && pos_ == bytes_.size(); }

 private:
  bool Need(size_t n) {
    if (failed_ || bytes_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

constexpr size_t kHeaderBytes = 9;    // magic + version + type
constexpr size_t kChecksumBytes = 8;  // trailing FNV-1a 64

void PutHeader(ByteWriter& w, MsgType type) {
  w.U32(kMagic);
  w.U32(kProtocolVersion);
  w.U8(static_cast<uint8_t>(type));
}

/// Appends the frame checksum and releases the buffer. Every Encode
/// ends with this; every decoder starts with CheckFrame below.
std::vector<uint8_t> Seal(ByteWriter& w) {
  std::vector<uint8_t> frame = w.Take();
  const uint64_t sum = Fnv1a64(frame);
  for (int i = 0; i < 8; ++i) {
    frame.push_back(static_cast<uint8_t>(sum >> (8 * i)));
  }
  return frame;
}

uint32_t ReadU32At(std::span<const uint8_t> bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t{bytes[pos + i]} << (8 * i);
  return v;
}

uint64_t ReadU64At(std::span<const uint8_t> bytes, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{bytes[pos + i]} << (8 * i);
  return v;
}

/// Validates magic, version and the trailing checksum, returning the
/// frame body (header + payload, checksum stripped). Any mutation of a
/// sealed frame — bit flip, truncation, extension — fails here with a
/// clean kInvalidArgument.
Result<std::span<const uint8_t>> CheckFrame(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    return Status::InvalidArgument("wire: frame shorter than header");
  }
  if (ReadU32At(bytes, 0) != kMagic) {
    return Status::InvalidArgument("wire: bad magic (not a sargus frame)");
  }
  const uint32_t version = ReadU32At(bytes, 4);
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("wire: unknown protocol version " +
                                   std::to_string(version) + " (speak " +
                                   std::to_string(kProtocolVersion) + ")");
  }
  const std::span<const uint8_t> body =
      bytes.first(bytes.size() - kChecksumBytes);
  if (Fnv1a64(body) != ReadU64At(bytes, bytes.size() - kChecksumBytes)) {
    return Status::InvalidArgument("wire: frame checksum mismatch");
  }
  return body;
}

Status TakeHeader(ByteReader& r, MsgType expected) {
  const uint32_t magic = r.U32();
  const uint32_t version = r.U32();
  const uint8_t type = r.U8();
  if (r.failed() || magic != kMagic) {
    return Status::InvalidArgument("wire: bad magic (not a sargus frame)");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("wire: unknown protocol version " +
                                   std::to_string(version) + " (speak " +
                                   std::to_string(kProtocolVersion) + ")");
  }
  if (type != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("wire: message type " +
                                   std::to_string(type) + ", expected " +
                                   std::to_string(static_cast<int>(expected)));
  }
  return OkStatus();
}

Status CheckTail(const ByteReader& r) {
  if (!r.ExactlyConsumed()) {
    return Status::InvalidArgument("wire: truncated or trailing bytes");
  }
  return OkStatus();
}

void PutStamp(ByteWriter& w, const Stamp& s) {
  w.U64(s.snapshot_generation);
  w.U64(s.overlay_version);
}

Stamp TakeStamp(ByteReader& r) {
  Stamp s;
  s.snapshot_generation = r.U64();
  s.overlay_version = r.U64();
  return s;
}

void PutFrontier(ByteWriter& w, const std::vector<FrontierEntry>& f) {
  w.U32(static_cast<uint32_t>(f.size()));
  for (const FrontierEntry& e : f) {
    w.U32(e.node);
    w.U32(e.state);
    w.U32(e.residual_hops);
  }
}

std::vector<FrontierEntry> TakeFrontier(ByteReader& r) {
  const uint32_t n = r.Count(12);
  std::vector<FrontierEntry> f;
  f.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    FrontierEntry e;
    e.node = r.U32();
    e.state = r.U32();
    e.residual_hops = r.U32();
    f.push_back(e);
  }
  return f;
}

}  // namespace

std::vector<uint32_t> ResidualHopBudgets(const HopAutomaton& nfa) {
  const std::vector<BoundStep>& steps = nfa.bound_steps();
  std::vector<uint64_t> suffix(steps.size() + 1, 0);
  for (size_t i = steps.size(); i-- > 0;) {
    suffix[i] = suffix[i + 1] + steps[i].max_hops;
  }
  std::vector<uint32_t> residual(nfa.NumStates());
  for (uint32_t s = 0; s < nfa.NumStates(); ++s) {
    residual[s] =
        static_cast<uint32_t>(suffix[nfa.StepOf(s)] - nfa.HopsOf(s));
  }
  return residual;
}

uint8_t PackStatus(const Status& status) {
  return static_cast<uint8_t>(status.code());
}

Status UnpackStatus(uint8_t code, std::string error) {
  if (code == 0) return OkStatus();
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("wire: unknown status code " +
                            std::to_string(code) + ": " + error);
  }
  return Status(static_cast<StatusCode>(code), std::move(error));
}

std::vector<uint8_t> Encode(const BatchCheckRequest& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kBatchCheckRequest);
  w.U32(static_cast<uint32_t>(m.requests.size()));
  for (const CheckRequest& c : m.requests) {
    w.U32(c.requester);
    w.U32(c.resource);
    w.U8(c.want_witness);
  }
  return Seal(w);
}

Result<BatchCheckRequest> DecodeBatchCheckRequest(
    std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kBatchCheckRequest));
  BatchCheckRequest m;
  const uint32_t n = r.Count(9);
  m.requests.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CheckRequest c;
    c.requester = r.U32();
    c.resource = r.U32();
    c.want_witness = r.U8();
    m.requests.push_back(c);
  }
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const BatchCheckReply& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kBatchCheckReply);
  w.U32(static_cast<uint32_t>(m.replies.size()));
  for (const CheckReply& c : m.replies) {
    w.U8(c.status_code);
    w.Str(c.error);
    w.U8(c.granted);
    w.U8(c.owner_access);
    w.U8(c.has_matched_rule);
    w.U32(c.matched_rule);
    w.U64(c.pairs_visited);
    PutStamp(w, c.stamp);
    w.U32(static_cast<uint32_t>(c.witness.size()));
    for (NodeId n : c.witness) w.U32(n);
  }
  return Seal(w);
}

Result<BatchCheckReply> DecodeBatchCheckReply(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kBatchCheckReply));
  BatchCheckReply m;
  const uint32_t n = r.Count(1);
  m.replies.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CheckReply c;
    c.status_code = r.U8();
    c.error = r.Str();
    c.granted = r.U8();
    c.owner_access = r.U8();
    c.has_matched_rule = r.U8();
    c.matched_rule = r.U32();
    c.pairs_visited = r.U64();
    c.stamp = TakeStamp(r);
    const uint32_t witness = r.Count(4);
    c.witness.reserve(witness);
    for (uint32_t k = 0; k < witness; ++k) c.witness.push_back(r.U32());
    m.replies.push_back(std::move(c));
  }
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const WalkRequest& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kWalkRequest);
  w.U32(static_cast<uint32_t>(m.walks.size()));
  for (const Walk& walk : m.walks) {
    w.U32(walk.rule);
    w.U32(walk.path);
    w.U32(walk.requester);
    w.U8(static_cast<uint8_t>(walk.seed));
    w.U32(walk.owner);
    PutFrontier(w, walk.frontier);
  }
  return Seal(w);
}

Result<WalkRequest> DecodeWalkRequest(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kWalkRequest));
  WalkRequest m;
  const uint32_t n = r.Count(21);
  m.walks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Walk walk;
    walk.rule = r.U32();
    walk.path = r.U32();
    walk.requester = r.U32();
    const uint8_t seed = r.U8();
    if (seed > static_cast<uint8_t>(WalkSeed::kFrontier)) {
      return Status::InvalidArgument("wire: unknown walk seed mode " +
                                     std::to_string(seed));
    }
    walk.seed = static_cast<WalkSeed>(seed);
    walk.owner = r.U32();
    walk.frontier = TakeFrontier(r);
    m.walks.push_back(std::move(walk));
  }
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const WalkReply& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kWalkReply);
  w.U32(static_cast<uint32_t>(m.results.size()));
  for (const WalkResult& res : m.results) {
    w.U8(res.status_code);
    w.Str(res.error);
    w.U8(res.accepted);
    PutFrontier(w, res.exports);
    w.U64(res.pairs_visited);
  }
  PutStamp(w, m.stamp);
  return Seal(w);
}

Result<WalkReply> DecodeWalkReply(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kWalkReply));
  WalkReply m;
  const uint32_t n = r.Count(18);
  m.results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WalkResult res;
    res.status_code = r.U8();
    res.error = r.Str();
    res.accepted = r.U8();
    res.exports = TakeFrontier(r);
    res.pairs_visited = r.U64();
    m.results.push_back(std::move(res));
  }
  m.stamp = TakeStamp(r);
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const MutateRequest& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kMutateRequest);
  w.U8(static_cast<uint8_t>(m.op));
  w.U32(m.src);
  w.U32(m.dst);
  w.U16(m.label);
  return Seal(w);
}

Result<MutateRequest> DecodeMutateRequest(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kMutateRequest));
  MutateRequest m;
  const uint8_t op = r.U8();
  if (op > static_cast<uint8_t>(MutateOp::kAddNode)) {
    return Status::InvalidArgument("wire: unknown mutate op " +
                                   std::to_string(op));
  }
  m.op = static_cast<MutateOp>(op);
  m.src = r.U32();
  m.dst = r.U32();
  m.label = r.U16();
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const MutateReply& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kMutateReply);
  w.U8(m.status_code);
  w.Str(m.error);
  w.U32(m.new_node);
  PutStamp(w, m.stamp);
  return Seal(w);
}

Result<MutateReply> DecodeMutateReply(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kMutateReply));
  MutateReply m;
  m.status_code = r.U8();
  m.error = r.Str();
  m.new_node = r.U32();
  m.stamp = TakeStamp(r);
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  return m;
}

std::vector<uint8_t> Encode(const ErrorFrame& m) {
  ByteWriter w;
  PutHeader(w, MsgType::kErrorFrame);
  w.U8(m.status_code);
  w.Str(m.message);
  return Seal(w);
}

Result<ErrorFrame> DecodeErrorFrame(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  ByteReader r(body);
  SARGUS_RETURN_IF_ERROR(TakeHeader(r, MsgType::kErrorFrame));
  ErrorFrame m;
  m.status_code = r.U8();
  m.message = r.Str();
  SARGUS_RETURN_IF_ERROR(CheckTail(r));
  if (m.status_code == 0) {
    return Status::InvalidArgument("wire: error frame with OK status");
  }
  return m;
}

Status StatusFromErrorFrame(const ErrorFrame& frame) {
  if (frame.status_code == 0) {
    // Never encoded; defend against a hand-built frame anyway.
    return Status::Internal("wire: error frame with OK status: " +
                            frame.message);
  }
  return UnpackStatus(frame.status_code, frame.message);
}

Result<MsgType> PeekType(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const std::span<const uint8_t> body,
                          CheckFrame(bytes));
  const uint8_t type = body[kHeaderBytes - 1];
  if (type < static_cast<uint8_t>(MsgType::kBatchCheckRequest) ||
      type > static_cast<uint8_t>(MsgType::kErrorFrame)) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(type));
  }
  return static_cast<MsgType>(type);
}

Result<Message> ParseMessage(std::span<const uint8_t> bytes) {
  SARGUS_ASSIGN_OR_RETURN(const MsgType type, PeekType(bytes));
  switch (type) {
    case MsgType::kBatchCheckRequest: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeBatchCheckRequest(bytes));
      return Message(std::move(m));
    }
    case MsgType::kBatchCheckReply: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeBatchCheckReply(bytes));
      return Message(std::move(m));
    }
    case MsgType::kWalkRequest: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeWalkRequest(bytes));
      return Message(std::move(m));
    }
    case MsgType::kWalkReply: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeWalkReply(bytes));
      return Message(std::move(m));
    }
    case MsgType::kMutateRequest: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeMutateRequest(bytes));
      return Message(std::move(m));
    }
    case MsgType::kMutateReply: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeMutateReply(bytes));
      return Message(std::move(m));
    }
    case MsgType::kErrorFrame: {
      SARGUS_ASSIGN_OR_RETURN(auto m, DecodeErrorFrame(bytes));
      return Message(std::move(m));
    }
  }
  return Status::Internal("wire: unreachable message type");
}

}  // namespace sargus::wire
