#include "storage/snapshot_format.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <iterator>
#include <utility>

namespace sargus::storage {

namespace {

uint64_t PageAlign(uint64_t n) {
  return (n + kBundlePageSize - 1) / kBundlePageSize * kBundlePageSize;
}

/// Fixed-offset writes into the 4096-byte header page.
void PokeU32(uint8_t* page, size_t at, uint32_t v) {
  std::memcpy(page + at, &v, sizeof v);
}
void PokeU64(uint8_t* page, size_t at, uint64_t v) {
  std::memcpy(page + at, &v, sizeof v);
}
uint32_t PeekU32(const uint8_t* page, size_t at) {
  uint32_t v;
  std::memcpy(&v, page + at, sizeof v);
  return v;
}
uint64_t PeekU64(const uint8_t* page, size_t at) {
  uint64_t v;
  std::memcpy(&v, page + at, sizeof v);
  return v;
}

}  // namespace

// ---- Serialize halves (the loader's adopt halves live in
// snapshot_loader.cc so the read path can be audited standalone) ------------

void StorageAccess::SaveGraph(const SocialGraph& g, BlobWriter& w) {
  // Dictionaries: names only; ids_ is the inverse map, rebuilt on load.
  w.PutU64(g.labels_.names_.size());
  for (const std::string& s : g.labels_.names_) w.PutString(s);
  w.PutU64(g.attrs_.names_.size());
  for (const std::string& s : g.attrs_.names_) w.PutString(s);
  w.PutU64(g.attr_columns_.size());
  for (const auto& col : g.attr_columns_) w.PutVec(col);
  // The node count and the edge slots are refilled from the CSR.
}

void StorageAccess::SaveCsr(const CsrSnapshot& csr, BlobWriter& w) {
  w.PutU64(csr.num_nodes_);
  w.PutVec(csr.out_.offsets);
  // The out-side's two columns, as they lie in memory; the in-side is
  // derived on load.
  w.PutU64(csr.NumEdges());
  w.PutArray(csr.out_.ids);
  w.PutArray(csr.out_.labels);
}

void StorageAccess::SaveOverlay(const DeltaOverlay& o, BlobWriter& w) {
  // Triples as columns (EdgeTriple has padding); adjacency maps are
  // rebuilt by re-staging on load. Set iteration order is arbitrary but
  // consistent within one save, which is all replay needs.
  std::vector<DeltaOverlay::EdgeTriple> added(o.added_.begin(),
                                              o.added_.end());
  std::vector<DeltaOverlay::EdgeTriple> removed(o.removed_.begin(),
                                                o.removed_.end());
  using Triple = DeltaOverlay::EdgeTriple;
  for (const auto* triples : {&added, &removed}) {
    w.PutU64(triples->size());
    w.PutColumn(*triples, &Triple::src);
    w.PutColumn(*triples, &Triple::dst);
    w.PutColumn(*triples, &Triple::label);
  }
  w.PutU32(o.staged_nodes_);
  w.PutU64(o.version_);
}

// ---- Streaming codec --------------------------------------------------------

void BlobWriter::WriteThrough(std::span<const uint8_t> bytes) {
  if (bytes.empty() || !status_.ok()) return;
  hasher_.Update(bytes);
  status_ = WriteAllAt(fd_, bytes, offset_ + written_);
  written_ += bytes.size();
}

size_t BlobReader::NextChunk() const {
  return static_cast<size_t>(
      std::min<uint64_t>(size_ - fetched_, kBlobChunkBytes));
}

bool BlobReader::Fetch(uint8_t* dst, size_t n) {
  if (!io_status_.ok()) return false;
  io_status_ = file_.ReadAt(offset_ + fetched_, dst, n);
  if (!io_status_.ok()) return false;
  hasher_.Update({dst, n});
  fetched_ += n;
  return true;
}

bool BlobReader::Refill() {
  const size_t chunk = NextChunk();
  if (buf_ == nullptr) buf_.reset(new uint8_t[kBlobChunkBytes]);
  head_ = tail_ = 0;
  if (!Fetch(buf_.get(), chunk)) return false;
  tail_ = chunk;
  return true;
}

void BlobReader::GetRaw(void* p, size_t n) {
  if (!ok_ || n > Remaining()) {
    ok_ = false;
    return;
  }
  uint8_t* out = static_cast<uint8_t*>(p);
  pos_ += n;
  while (n > 0) {
    if (head_ == tail_) {
      // A whole chunk or more goes straight into its destination.
      const size_t chunk = NextChunk();
      if (n >= chunk) {
        if (!Fetch(out, chunk)) break;
        out += chunk;
        n -= chunk;
        continue;
      }
      if (!Refill()) break;
    }
    const size_t k = std::min(n, tail_ - head_);
    std::memcpy(out, buf_.get() + head_, k);
    head_ += k;
    out += k;
    n -= k;
  }
  if (n > 0) ok_ = false;  // the read failed; Drain() reports why
}

Status BlobReader::Drain() {
  while (fetched_ < size_ && Refill()) {
  }
  head_ = tail_ = 0;
  pos_ = size_;
  return io_status_;
}

// ---- Bundle assembly --------------------------------------------------------

Status WriteBundle(const std::string& path, const BundlePayload& payload) {
  if (payload.graph == nullptr || payload.csr == nullptr ||
      payload.overlay == nullptr) {
    return Status::InvalidArgument("WriteBundle: null payload component");
  }
  using Save = std::function<void(BlobWriter&)>;
  const std::pair<SectionKind, Save> sections[] = {
      {SectionKind::kGraph,
       [&](BlobWriter& w) { StorageAccess::SaveGraph(*payload.graph, w); }},
      {SectionKind::kCsr,
       [&](BlobWriter& w) { StorageAccess::SaveCsr(*payload.csr, w); }},
      {SectionKind::kOverlay,
       [&](BlobWriter& w) {
         StorageAccess::SaveOverlay(*payload.overlay, w);
       }},
  };
  static_assert(std::size(sections) <= kBundleMaxSections);

  return WriteFileAtomic(path, [&](int fd) -> Status {
    // Stream each section to its page-aligned offset; the gaps between
    // sections are holes, which read back as the zero padding. Sections
    // use the striped FNV variant: they are tens of MB and their
    // verification sits on the cold-start path. The header page stays
    // on plain Fnv1a64 — it is 4 KiB.
    uint64_t offset = kBundlePageSize;
    std::vector<BundleInfo::Section> table;
    for (const auto& [kind, save] : sections) {
      BlobWriter w(fd, offset);
      save(w);
      SARGUS_RETURN_IF_ERROR(w.Finish());
      table.push_back({kind, offset, w.size(), w.checksum()});
      offset = PageAlign(offset + w.size());
    }
    const uint64_t file_size = offset;
    if (::ftruncate(fd, static_cast<off_t>(file_size)) != 0) {
      return Status::Internal(std::string("WriteBundle: ftruncate: ") +
                              std::strerror(errno));
    }

    // The header page goes last: it names every section's checksum.
    std::vector<uint8_t> page(kBundlePageSize, 0);
    uint8_t* h = page.data();
    PokeU64(h, 0, kBundleMagic);
    PokeU32(h, 8, kBundleVersion);
    PokeU32(h, 12, kBundlePageSize);
    PokeU64(h, 16, file_size);
    PokeU64(h, 24, payload.stamp.generation);
    PokeU64(h, 32, payload.stamp.overlay_version);
    PokeU64(h, 40, 0);  // flags: no bit is live
    PokeU64(h, 48, payload.compact_threshold);
    PokeU32(h, 56, static_cast<uint32_t>(table.size()));
    PokeU32(h, 60, 0);  // reserved
    for (size_t i = 0; i < table.size(); ++i) {
      const size_t at =
          kBundleSectionTableOffset + i * kBundleSectionEntryBytes;
      PokeU32(h, at, static_cast<uint32_t>(table[i].kind));
      PokeU32(h, at + 4, 0);  // reserved
      PokeU64(h, at + 8, table[i].offset);
      PokeU64(h, at + 16, table[i].size);
      PokeU64(h, at + 24, table[i].checksum);
    }
    PokeU64(h, kBundlePageSize - 8, Fnv1a64(h, kBundlePageSize - 8));
    return WriteAllAt(fd, page, 0);
  });
}

Result<BundleInfo> ReadBundleInfo(const std::string& path) {
  SARGUS_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  return ReadBundleHeader(file);
}

Result<BundleInfo> ReadBundleHeader(const ReadOnlyFile& file) {
  std::vector<uint8_t> page(
      static_cast<size_t>(std::min<uint64_t>(file.size(), kBundlePageSize)));
  SARGUS_RETURN_IF_ERROR(file.ReadAt(0, page.data(), page.size()));
  return ParseBundleHeader(page, file.size());
}

Result<BundleInfo> ParseBundleHeader(std::span<const uint8_t> page,
                                     uint64_t file_size) {
  if (page.size() < kBundlePageSize || file_size < kBundlePageSize) {
    return Status::DataLoss("bundle: shorter than one header page");
  }
  const uint8_t* h = page.data();
  if (PeekU64(h, 0) != kBundleMagic) {
    return Status::DataLoss("bundle: bad magic");
  }
  const uint64_t want = PeekU64(h, kBundlePageSize - 8);
  if (want != Fnv1a64(h, kBundlePageSize - 8)) {
    return Status::DataLoss("bundle: header checksum mismatch");
  }
  BundleInfo info;
  info.version = PeekU32(h, 8);
  info.page_size = PeekU32(h, 12);
  if (info.version != kBundleVersion) {
    return Status::DataLoss("bundle: unsupported version");
  }
  if (info.page_size != kBundlePageSize) {
    return Status::DataLoss("bundle: unsupported page size");
  }
  info.file_size = PeekU64(h, 16);
  if (info.file_size != file_size) {
    return Status::DataLoss("bundle: file size mismatch");
  }
  info.stamp.generation = PeekU64(h, 24);
  info.stamp.overlay_version = PeekU64(h, 32);
  if (PeekU64(h, 40) != 0) {
    return Status::DataLoss("bundle: unknown header flags");
  }
  info.compact_threshold = PeekU64(h, 48);
  const uint32_t num_sections = PeekU32(h, 56);
  if (num_sections > kBundleMaxSections) {
    return Status::DataLoss("bundle: section count out of range");
  }
  for (uint32_t i = 0; i < num_sections; ++i) {
    const size_t at = kBundleSectionTableOffset + i * kBundleSectionEntryBytes;
    BundleInfo::Section s;
    s.kind = static_cast<SectionKind>(PeekU32(h, at));
    s.offset = PeekU64(h, at + 8);
    s.size = PeekU64(h, at + 16);
    s.checksum = PeekU64(h, at + 24);
    if (s.offset % kBundlePageSize != 0 || s.offset > info.file_size ||
        s.size > info.file_size - s.offset) {
      return Status::DataLoss("bundle: section bounds out of range");
    }
    info.sections.push_back(s);
  }
  return info;
}

}  // namespace sargus::storage
