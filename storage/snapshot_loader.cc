#include "storage/snapshot_loader.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/csr_sort.h"

namespace sargus::storage {

namespace {

/// A reader that ended mid-field, or a section with trailing bytes,
/// means the writer and loader disagree about the layout — surfaced as
/// corruption rather than silently adopting a half-read structure.
Status FinishSection(const BlobReader& r, const char* what) {
  if (!r.ok()) {
    return Status::DataLoss(std::string("bundle: truncated ") + what +
                            " section");
  }
  if (r.Remaining() != 0) {
    return Status::DataLoss(std::string("bundle: trailing bytes in ") + what +
                            " section");
  }
  return OkStatus();
}

/// The overlay section is re-staged as read, but walkers size their
/// visited arrays to CSR nodes + staged nodes and the next compaction
/// scatters staged triples into arrays of that size, so every staged
/// triple must lie inside it and name a dictionary label.
Status CheckOverlayRanges(const DeltaOverlay& overlay, size_t csr_nodes,
                          size_t num_labels) {
  const uint64_t logical = uint64_t{csr_nodes} + overlay.num_staged_nodes();
  bool in_range = logical <= std::numeric_limits<NodeId>::max();
  auto check = [&](const DeltaOverlay::EdgeTriple& t) {
    in_range = in_range && t.src < logical && t.dst < logical &&
               t.label < num_labels;
  };
  overlay.ForEachAdded(check);
  overlay.ForEachRemoved(check);
  return in_range ? OkStatus()
                  : Status::DataLoss("bundle: overlay out of range");
}

}  // namespace

// ---- Adopt halves (serialize halves live in snapshot_format.cc) -----------

Status StorageAccess::LoadGraph(BlobReader& r, SocialGraph* g) {
  auto load_dict = [&r](NameDictionary* dict) {
    const uint64_t n = r.GetU64();
    // Each name is >= 4 bytes, and ids are 16-bit with 0xFFFF reserved.
    if (!r.ok() || n > r.Remaining() || n > 0xFFFF) return false;
    dict->names_.resize(n);
    dict->ids_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      r.GetString(&dict->names_[i]);
      dict->ids_[dict->names_[i]] = static_cast<uint16_t>(i);
    }
    return true;
  };
  if (!load_dict(&g->labels_) || !load_dict(&g->attrs_)) {
    return Status::DataLoss("bundle: graph dictionary size out of range");
  }

  const uint64_t num_columns = r.GetU64();
  if (!r.ok() || num_columns > r.Remaining()) {
    return Status::DataLoss("bundle: graph attribute column count");
  }
  g->attr_columns_.resize(num_columns);
  for (auto& col : g->attr_columns_) r.GetVec(&col);
  return FinishSection(r, "graph");
}

Status StorageAccess::LoadCsr(BlobReader& r, CsrSnapshot* csr) {
  // An entry is 6 bytes on disk: other, then label, one column each.
  constexpr size_t kEntryBytes = sizeof(NodeId) + sizeof(LabelId);
  CsrSnapshot::Side& out = csr->out_;
  csr->num_nodes_ = r.GetU64();
  r.GetVec(&out.offsets);
  const uint64_t num_entries = r.GetU64();
  if (!r.ok() || num_entries > r.Remaining() / kEntryBytes) {
    return Status::DataLoss("bundle: csr out-entry count out of range");
  }
  out.ids.resize(num_entries);  // unwritten: GetArray fills both
  out.labels.resize(num_entries);
  r.GetArray(&out.ids);
  r.GetArray(&out.labels);
  SARGUS_RETURN_IF_ERROR(FinishSection(r, "csr"));

  // Out() and every walker index through these unchecked, and the
  // in-side derivation (on the first In()) scatters by `other`, so a
  // section that
  // passes its checksum but is not a well-formed CSR is refused here
  // rather than read out of bounds later.
  const size_t n = csr->num_nodes_;
  const std::vector<uint32_t>& offsets = out.offsets;
  if (n > std::numeric_limits<NodeId>::max() || offsets.size() != n + 1 ||
      offsets.front() != 0 || offsets.back() != num_entries) {
    return Status::DataLoss("bundle: csr offsets out of range");
  }
  // The per-node check only reads, so it splits by node range; the first
  // range that fails holds the lowest failing node, whose message a
  // serial scan would have returned.
  const size_t chunks = NumChunks(num_entries);
  std::vector<const char*> errors(chunks, nullptr);
  ParallelFor(chunks, [&](size_t c) {
    for (size_t v = n * c / chunks; v < n * (c + 1) / chunks; ++v) {
      if (offsets[v] > offsets[v + 1] || offsets[v + 1] > num_entries) {
        errors[c] = "bundle: csr offsets out of range";
        return;
      }
      // Strictly increasing (label, other) keys: sorted, and no edge
      // twice.
      uint64_t prev_key = 0;
      for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        const uint64_t key = csr_sort::Key(out.ids[i], out.labels[i]) + 1;
        if (out.ids[i] >= n || key <= prev_key) {
          errors[c] = "bundle: csr entry out of range or order";
          return;
        }
        prev_key = key;
      }
    }
  });
  for (const char* error : errors) {
    if (error != nullptr) return Status::DataLoss(error);
  }
  return OkStatus();
}

Status StorageAccess::FreezeGraphOver(std::shared_ptr<const CsrSnapshot> csr,
                                      SocialGraph* g) {
  // A label past the dictionary would be an edge no lookup can name
  // (or, at kInvalidLabel, a live edge read as dead once thawed), so any
  // failing node range refuses the bundle with the one message a serial
  // scan gives.
  const size_t num_labels = g->labels_.size();
  const size_t n = csr->NumNodes();
  const size_t chunks = NumChunks(csr->NumEdges());
  std::vector<uint8_t> failed(chunks, 0);
  ParallelFor(chunks, [&](size_t c) {
    for (size_t v = n * c / chunks; v < n * (c + 1) / chunks; ++v) {
      for (const LabelId label : csr->OutLabels(static_cast<NodeId>(v))) {
        if (label >= num_labels) {
          failed[c] = 1;
          return;
        }
      }
    }
  });
  if (std::find(failed.begin(), failed.end(), 1) != failed.end()) {
    return Status::DataLoss("bundle: csr entry label out of range");
  }
  g->num_nodes_ = n;
  g->num_live_edges_ = csr->NumEdges();
  g->csr_ = std::move(csr);
  return OkStatus();
}

Status StorageAccess::LoadOverlay(BlobReader& r, DeltaOverlay* o) {
  using Triple = DeltaOverlay::EdgeTriple;
  auto load_triples = [&r](std::vector<Triple>* out) {
    const uint64_t n = r.GetU64();
    if (!r.ok() || n > r.Remaining() / (2 * sizeof(NodeId) + sizeof(LabelId))) {
      return false;
    }
    out->resize(n);
    r.GetColumn(out, &Triple::src);
    r.GetColumn(out, &Triple::dst);
    r.GetColumn(out, &Triple::label);
    return true;
  };
  std::vector<Triple> added;
  std::vector<Triple> removed;
  if (!load_triples(&added) || !load_triples(&removed)) {
    return Status::DataLoss("bundle: overlay triple count out of range");
  }
  const uint32_t staged_nodes = r.GetU32();
  const uint64_t version = r.GetU64();
  SARGUS_RETURN_IF_ERROR(FinishSection(r, "overlay"));

  // Re-stage to rebuild the adjacency maps, then restore the node count
  // and the exact version counter (each Stage call bumped it).
  for (const auto& t : added) o->StageAdd(t.src, t.dst, t.label);
  for (const auto& t : removed) o->StageRemove(t.src, t.dst, t.label);
  o->staged_nodes_ = staged_nodes;
  o->version_ = version;
  return OkStatus();
}

// ---- Whole-bundle load ------------------------------------------------------

Result<LoadedBundle> LoadBundle(const std::string& path) {
  SARGUS_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  SARGUS_ASSIGN_OR_RETURN(BundleInfo info, ReadBundleHeader(file));

  LoadedBundle out;
  auto csr = std::make_shared<CsrSnapshot>();
  out.stamp = info.stamp;
  out.compact_threshold = info.compact_threshold;

  // Screen the section table (duplicates, unknown kinds) before reading
  // any section.
  uint64_t seen = 0;
  for (const BundleInfo::Section& s : info.sections) {
    const uint32_t raw_kind = static_cast<uint32_t>(s.kind);
    if (s.kind != SectionKind::kGraph && s.kind != SectionKind::kCsr &&
        s.kind != SectionKind::kOverlay) {
      return Status::DataLoss("bundle: unknown section kind");  // or retired
    }
    const uint64_t kind_bit = 1ULL << raw_kind;
    if (seen & kind_bit) {
      return Status::DataLoss("bundle: duplicate section");
    }
    seen |= kind_bit;
  }

  // Read, verify and adopt the sections in turn, on this thread.
  for (const BundleInfo::Section& s : info.sections) {
    BlobReader r(file, s.offset, s.size);
    Status decoded;
    switch (s.kind) {
      case SectionKind::kGraph:
        decoded = StorageAccess::LoadGraph(r, &out.graph);
        break;
      case SectionKind::kCsr:
        decoded = StorageAccess::LoadCsr(r, csr.get());
        break;
      case SectionKind::kOverlay:
        decoded = StorageAccess::LoadOverlay(r, &out.overlay);
        break;
    }
    // Decoding saw the bytes before their digest was known, so the
    // checksum verdict comes first: hash what decoding left unread, and
    // report a mismatch over whatever the decoder concluded.
    SARGUS_RETURN_IF_ERROR(r.Drain());
    if (r.Digest() != s.checksum) {
      return Status::DataLoss("bundle: section checksum mismatch");
    }
    SARGUS_RETURN_IF_ERROR(decoded);
  }

  auto require = [seen](SectionKind kind) {
    return (seen & (1ULL << static_cast<uint32_t>(kind))) != 0;
  };
  if (!require(SectionKind::kGraph) || !require(SectionKind::kCsr) ||
      !require(SectionKind::kOverlay)) {
    return Status::DataLoss("bundle: required section missing");
  }

  // Checks that join sections: labels are bounded by the graph section's
  // dictionary, overlay endpoints by the CSR's node count.
  SARGUS_RETURN_IF_ERROR(CheckOverlayRanges(
      out.overlay, csr->NumNodes(), out.graph.labels().size()));
  SARGUS_RETURN_IF_ERROR(
      StorageAccess::FreezeGraphOver(std::move(csr), &out.graph));
  return out;
}

}  // namespace sargus::storage
