#include "storage/wal.h"

#include <cstring>

#include "common/checksum.h"

namespace sargus::storage {

namespace {

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

std::vector<uint8_t> EncodeWalFileHeader() {
  std::vector<uint8_t> out;
  out.reserve(kWalFileHeaderBytes);
  PutU64(out, kWalMagic);
  PutU32(out, kWalVersion);
  PutU32(out, 0);  // reserved
  return out;
}

bool HasEdgePayload(WalRecord::Kind kind) {
  return kind == WalRecord::Kind::kAddEdge ||
         kind == WalRecord::Kind::kRemoveEdge;
}

}  // namespace

std::vector<uint8_t> EncodeWalRecord(const WalRecord& rec) {
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(rec.kind));
  PutU64(payload, rec.generation);
  PutU64(payload, rec.overlay_version);
  if (HasEdgePayload(rec.kind)) {
    PutU32(payload, rec.src);
    PutU32(payload, rec.dst);
    PutU32(payload, static_cast<uint32_t>(rec.label.size()));
    payload.insert(payload.end(), rec.label.begin(), rec.label.end());
  }

  std::vector<uint8_t> out;
  out.reserve(4 + payload.size() + 8);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // Checksum covers the length prefix too, so a flipped length byte is
  // caught even when it happens to point at another well-formed record.
  PutU64(out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<WalContents> ReadWal(const std::string& path) {
  SARGUS_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  std::vector<uint8_t> bytes(file.size());
  SARGUS_RETURN_IF_ERROR(file.ReadAt(0, bytes.data(), bytes.size()));

  if (bytes.size() < kWalFileHeaderBytes) {
    return Status::InvalidArgument("wal: file shorter than its header");
  }
  if (GetU64(bytes.data()) != kWalMagic) {
    return Status::InvalidArgument("wal: bad magic");
  }
  if (GetU32(bytes.data() + 8) != kWalVersion) {
    return Status::InvalidArgument("wal: unsupported version");
  }
  if (GetU32(bytes.data() + 12) != 0) {
    // The reserved word is written as zero; anything else is damage (and
    // validating it keeps every header byte covered for the
    // corruption-matrix guarantee).
    return Status::InvalidArgument("wal: nonzero reserved header field");
  }

  WalContents out;
  size_t pos = kWalFileHeaderBytes;
  out.valid_bytes = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 4) {
      out.tail_status = Status::DataLoss("wal: torn length prefix");
      break;
    }
    const uint32_t payload_len = GetU32(bytes.data() + pos);
    if (payload_len < 1 + 8 + 8 || payload_len > kWalMaxPayloadBytes) {
      out.tail_status = Status::DataLoss("wal: implausible record length");
      break;
    }
    const size_t record_len = 4 + static_cast<size_t>(payload_len) + 8;
    if (bytes.size() - pos < record_len) {
      out.tail_status = Status::DataLoss("wal: torn record body");
      break;
    }
    const uint8_t* rec = bytes.data() + pos;
    const uint64_t want = GetU64(rec + 4 + payload_len);
    const uint64_t got = Fnv1a64(rec, 4 + payload_len);
    if (want != got) {
      out.tail_status = Status::DataLoss("wal: record checksum mismatch");
      break;
    }

    const uint8_t* p = rec + 4;
    WalRecord r;
    const uint8_t kind_byte = p[0];
    if (kind_byte < 1 || kind_byte > 4) {
      out.tail_status = Status::DataLoss("wal: unknown record kind");
      break;
    }
    r.kind = static_cast<WalRecord::Kind>(kind_byte);
    r.generation = GetU64(p + 1);
    r.overlay_version = GetU64(p + 9);
    if (HasEdgePayload(r.kind)) {
      if (payload_len < 1 + 8 + 8 + 4 + 4 + 4) {
        out.tail_status = Status::DataLoss("wal: edge record too short");
        break;
      }
      r.src = GetU32(p + 17);
      r.dst = GetU32(p + 21);
      const uint32_t name_len = GetU32(p + 25);
      if (payload_len != 1 + 8 + 8 + 4 + 4 + 4 + name_len) {
        out.tail_status = Status::DataLoss("wal: edge label length mismatch");
        break;
      }
      r.label.assign(reinterpret_cast<const char*>(p + 29), name_len);
    } else if (payload_len != 1 + 8 + 8) {
      out.tail_status = Status::DataLoss("wal: unexpected payload length");
      break;
    }
    out.records.push_back(std::move(r));
    pos += record_len;
    out.valid_bytes = pos;
  }
  return out;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  WalSyncPolicy sync_policy,
                                  int64_t resume_size) {
  WalWriter out;
  out.sync_policy_ = sync_policy;
  SARGUS_ASSIGN_OR_RETURN(out.file_, AppendFile::Open(path, resume_size));
  if (out.file_.size() == 0) {
    const std::vector<uint8_t> header = EncodeWalFileHeader();
    SARGUS_RETURN_IF_ERROR(out.file_.Append(header));
    SARGUS_RETURN_IF_ERROR(out.file_.Sync());
  } else if (out.file_.size() < kWalFileHeaderBytes) {
    // A crash inside the initial header write; rewrite it whole.
    SARGUS_RETURN_IF_ERROR(out.file_.TruncateTo(0));
    const std::vector<uint8_t> header = EncodeWalFileHeader();
    SARGUS_RETURN_IF_ERROR(out.file_.Append(header));
    SARGUS_RETURN_IF_ERROR(out.file_.Sync());
  }
  return out;
}

Status WalWriter::AppendBatch(std::span<const WalRecord> recs) {
  SARGUS_RETURN_IF_ERROR(failed_);
  if (recs.empty()) return OkStatus();
  // One gathered write: sealing the batch into a single buffer keeps the
  // kernel from interleaving anything between the records, and a crash
  // mid-write tears only the suffix of this one write.
  std::vector<uint8_t> bytes;
  for (const WalRecord& rec : recs) {
    const std::vector<uint8_t> one = EncodeWalRecord(rec);
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  const uint64_t before = file_.size();
  Status status = file_.Append(bytes);
  if (status.ok() && sync_policy_ != WalSyncPolicy::kNever) {
    sync_count_ += 1;
    status = file_.Sync();
  }
  if (!status.ok()) {
    // Cut the torn (or unsynced) batch off, so the next acknowledged
    // batch is never written behind a record ReadWal would stop at.
    if (!file_.TruncateTo(before).ok()) failed_ = status;
    return status;
  }
  append_count_ += recs.size();
  return OkStatus();
}

Status WalWriter::Truncate() { return file_.TruncateTo(kWalFileHeaderBytes); }

}  // namespace sargus::storage
