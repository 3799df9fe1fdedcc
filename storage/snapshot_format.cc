#include "storage/snapshot_format.h"

#include <cstring>

#include "common/checksum.h"
#include "common/file_util.h"

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
  w.PutU64(g.num_nodes_);
  // Edge slots as columns (Edge has 2 interior padding bytes).
  w.PutU64(g.edges_.size());
  for (const Edge& e : g.edges_) w.PutU32(e.src);
  for (const Edge& e : g.edges_) w.PutU32(e.dst);
  for (const Edge& e : g.edges_) w.PutU16(e.label);
  w.PutVec(g.live_);
  w.PutU64(g.num_live_edges_);
  // Dictionaries: names only; ids_ is the inverse map, rebuilt on load.
  w.PutU64(g.labels_.names_.size());
  for (const std::string& s : g.labels_.names_) w.PutString(s);
  w.PutU64(g.attrs_.names_.size());
  for (const std::string& s : g.attrs_.names_) w.PutString(s);
  w.PutU64(g.attr_columns_.size());
  for (const auto& col : g.attr_columns_) w.PutVec(col);
  // edge_lookup_ is rebuilt on load from the live slots.
}

void StorageAccess::SaveCsr(const CsrSnapshot& csr, BlobWriter& w) {
  w.PutU64(csr.num_nodes_);
  w.PutVec(csr.out_offsets_);
  // Entry has 2 padding bytes -> columns.
  w.PutU64(csr.out_entries_.size());
  for (const auto& e : csr.out_entries_) w.PutU32(e.other);
  for (const auto& e : csr.out_entries_) w.PutU16(e.label);
  for (const auto& e : csr.out_entries_) w.PutU32(e.edge);
  w.PutVec(csr.in_offsets_);
  w.PutU64(csr.in_entries_.size());
  for (const auto& e : csr.in_entries_) w.PutU32(e.other);
  for (const auto& e : csr.in_entries_) w.PutU16(e.label);
  for (const auto& e : csr.in_entries_) w.PutU32(e.edge);
}

void StorageAccess::SaveOverlay(const DeltaOverlay& o, BlobWriter& w) {
  // Triples as columns (EdgeTriple has padding); adjacency maps are
  // rebuilt by re-staging on load. Set iteration order is arbitrary but
  // consistent within one save, which is all replay needs.
  std::vector<DeltaOverlay::EdgeTriple> added(o.added_.begin(),
                                              o.added_.end());
  std::vector<DeltaOverlay::EdgeTriple> removed(o.removed_.begin(),
                                                o.removed_.end());
  w.PutU64(added.size());
  for (const auto& t : added) w.PutU32(t.src);
  for (const auto& t : added) w.PutU32(t.dst);
  for (const auto& t : added) w.PutU16(t.label);
  w.PutU64(removed.size());
  for (const auto& t : removed) w.PutU32(t.src);
  for (const auto& t : removed) w.PutU32(t.dst);
  for (const auto& t : removed) w.PutU16(t.label);
  w.PutU32(o.staged_nodes_);
  w.PutU64(o.version_);
}

// ---- Bundle assembly --------------------------------------------------------

Status WriteBundle(const std::string& path, const BundlePayload& payload) {
  if (payload.graph == nullptr || payload.csr == nullptr ||
      payload.overlay == nullptr) {
    return Status::InvalidArgument("WriteBundle: null payload component");
  }

  struct PendingSection {
    SectionKind kind;
    std::vector<uint8_t> bytes;
  };
  std::vector<PendingSection> sections;
  auto add = [&sections](SectionKind kind, auto&& save) {
    BlobWriter w;
    save(w);
    sections.push_back({kind, w.Take()});
  };

  add(SectionKind::kGraph,
      [&](BlobWriter& w) { StorageAccess::SaveGraph(*payload.graph, w); });
  add(SectionKind::kCsr,
      [&](BlobWriter& w) { StorageAccess::SaveCsr(*payload.csr, w); });
  add(SectionKind::kOverlay,
      [&](BlobWriter& w) { StorageAccess::SaveOverlay(*payload.overlay, w); });

  if (sections.size() > kBundleMaxSections) {
    return Status::Internal("WriteBundle: section table overflow");
  }

  // Lay out: header page, then each section page-aligned.
  uint64_t offset = kBundlePageSize;
  std::vector<BundleInfo::Section> table;
  table.reserve(sections.size());
  for (const PendingSection& s : sections) {
    // Sections use the striped FNV variant: they are tens of MB and
    // their verification sits on the cold-start path (the serial form
    // retires one dependent multiply per byte, ~0.5 GB/s). The header
    // page stays on plain Fnv1a64 — it is 4 KiB.
    table.push_back({s.kind, offset, s.bytes.size(),
                     StripedFnv1a64(s.bytes.data(), s.bytes.size())});
    offset = PageAlign(offset + s.bytes.size());
  }
  const uint64_t file_size = offset;

  std::vector<uint8_t> file(file_size, 0);
  uint8_t* h = file.data();
  PokeU64(h, 0, kBundleMagic);
  PokeU32(h, 8, kBundleVersion);
  PokeU32(h, 12, kBundlePageSize);
  PokeU64(h, 16, file_size);
  PokeU64(h, 24, payload.stamp.generation);
  PokeU64(h, 32, payload.stamp.overlay_version);
  PokeU64(h, 40, 0);  // flags: no bit is live
  PokeU64(h, 48, payload.compact_threshold);
  PokeU32(h, 56, static_cast<uint32_t>(sections.size()));
  PokeU32(h, 60, 0);  // reserved
  for (size_t i = 0; i < table.size(); ++i) {
    const size_t at = kBundleSectionTableOffset + i * kBundleSectionEntryBytes;
    PokeU32(h, at, static_cast<uint32_t>(table[i].kind));
    PokeU32(h, at + 4, 0);  // reserved
    PokeU64(h, at + 8, table[i].offset);
    PokeU64(h, at + 16, table[i].size);
    PokeU64(h, at + 24, table[i].checksum);
  }
  PokeU64(h, kBundlePageSize - 8, Fnv1a64(h, kBundlePageSize - 8));

  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(file.data() + table[i].offset, sections[i].bytes.data(),
                sections[i].bytes.size());
  }

  return WriteFileAtomic(path, file);
}

Result<BundleInfo> ReadBundleInfo(const std::string& path) {
  SARGUS_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return ParseBundleHeader(file.bytes());
}

Result<BundleInfo> ParseBundleHeader(std::span<const uint8_t> bytes) {
  if (bytes.size() < kBundlePageSize) {
    return Status::DataLoss("bundle: shorter than one header page");
  }
  const uint8_t* h = bytes.data();
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
  if (info.file_size != bytes.size()) {
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
