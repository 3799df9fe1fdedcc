#include "storage/snapshot_loader.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

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

}  // namespace

// ---- Adopt halves (serialize halves live in snapshot_format.cc) -----------

Status StorageAccess::LoadGraph(BlobReader& r, SocialGraph* g) {
  g->num_nodes_ = r.GetU64();
  const uint64_t num_slots = r.GetU64();
  // A slot is 11 bytes on disk: src, dst, label and its live byte.
  constexpr size_t kSlotBytes =
      sizeof(NodeId) + sizeof(NodeId) + sizeof(LabelId) + 1;
  if (!r.ok() || num_slots > r.Remaining() / kSlotBytes) {
    return Status::DataLoss("bundle: graph edge count out of range");
  }
  g->edges_.resize(num_slots);
  r.GetColumn(&g->edges_, &Edge::src);
  r.GetColumn(&g->edges_, &Edge::dst);
  r.GetColumn(&g->edges_, &Edge::label);
  r.GetVec(&g->live_);
  g->num_live_edges_ = r.GetU64();
  if (!r.ok() || g->live_.size() != g->edges_.size()) {
    return Status::DataLoss("bundle: graph live bitmap size mismatch");
  }

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
  SARGUS_RETURN_IF_ERROR(FinishSection(r, "graph"));

  // The CSR build (Scatter indexes offsets by src), the shard
  // partitioner and the edge lookup all trust these, so a section that
  // decodes but breaks them is refused here.
  size_t live = 0;
  for (size_t e = 0; e < g->edges_.size(); ++e) {
    if (g->live_[e] > 1) {
      return Status::DataLoss("bundle: graph live byte is not 0 or 1");
    }
    if (g->live_[e] == 0) continue;
    ++live;
    const Edge& rec = g->edges_[e];
    if (rec.src >= g->num_nodes_ || rec.dst >= g->num_nodes_) {
      return Status::DataLoss("bundle: graph edge endpoint out of range");
    }
    if (rec.label >= g->labels_.size()) {
      return Status::DataLoss("bundle: graph edge label out of range");
    }
  }
  if (live != g->num_live_edges_) {
    return Status::DataLoss("bundle: graph live edge count mismatch");
  }

  // Do NOT rebuild the triple lookup here: the cold-start-to-first-query
  // path never needs it. Mark it stale instead; the graph rematerializes
  // it on first use (~0.06 s at 1.5M edges), which is always on the
  // mutation/fold path.
  g->edge_lookup_.clear();
  g->edge_lookup_stale_ = true;
  return OkStatus();
}

Status StorageAccess::LoadCsr(BlobReader& r, CsrSnapshot* csr) {
  using Entry = CsrSnapshot::Entry;
  // An entry is 10 bytes on disk: other, label, edge.
  constexpr size_t kEntryBytes =
      sizeof(NodeId) + sizeof(LabelId) + sizeof(EdgeId);
  auto load_side = [&r](std::vector<uint32_t>* offsets,
                        std::vector<Entry>* entries) {
    r.GetVec(offsets);
    const uint64_t n = r.GetU64();
    if (!r.ok() || n > r.Remaining() / kEntryBytes) return false;
    entries->resize(n);
    r.GetColumn(entries, &Entry::other);
    r.GetColumn(entries, &Entry::label);
    r.GetColumn(entries, &Entry::edge);
    return true;
  };
  csr->num_nodes_ = r.GetU64();
  if (!load_side(&csr->out_offsets_, &csr->out_entries_)) {
    return Status::DataLoss("bundle: csr out-entry count out of range");
  }
  if (!load_side(&csr->in_offsets_, &csr->in_entries_)) {
    return Status::DataLoss("bundle: csr in-entry count out of range");
  }
  SARGUS_RETURN_IF_ERROR(FinishSection(r, "csr"));
  if (csr->out_offsets_.size() != csr->num_nodes_ + 1 ||
      csr->in_offsets_.size() != csr->num_nodes_ + 1) {
    return Status::DataLoss("bundle: csr offset array size mismatch");
  }
  // Out()/In() and every walker index through these unchecked, so a
  // section that passes its checksum but is not a well-formed CSR is
  // refused here rather than read out of bounds later.
  auto well_formed = [&](const std::vector<uint32_t>& offsets,
                         const std::vector<Entry>& entries) {
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != entries.size()) {
      return false;
    }
    for (size_t v = 0; v + 1 < offsets.size(); ++v) {
      if (offsets[v] > offsets[v + 1]) return false;
    }
    for (const Entry& e : entries) {
      if (e.other >= csr->num_nodes_) return false;
    }
    return true;
  };
  if (!well_formed(csr->out_offsets_, csr->out_entries_) ||
      !well_formed(csr->in_offsets_, csr->in_entries_)) {
    return Status::DataLoss("bundle: csr offsets or entries out of range");
  }
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

  // Re-stage to rebuild the adjacency maps, then restore the exact
  // version counter (each Stage call bumped it).
  for (const auto& t : added) o->StageAdd(t.src, t.dst, t.label);
  for (const auto& t : removed) o->StageRemove(t.src, t.dst, t.label);
  for (uint32_t i = 0; i < staged_nodes; ++i) o->StageNode();
  o->version_ = version;
  return OkStatus();
}

// ---- Whole-bundle load ------------------------------------------------------

Result<LoadedBundle> LoadBundle(const std::string& path) {
  SARGUS_ASSIGN_OR_RETURN(ReadOnlyFile file, ReadOnlyFile::Open(path));
  SARGUS_ASSIGN_OR_RETURN(BundleInfo info, ReadBundleHeader(file));

  LoadedBundle out;
  out.csr = std::make_shared<CsrSnapshot>();
  out.stamp = info.stamp;
  out.compact_threshold = info.compact_threshold;

  // Screen the section table serially (duplicates, unknown kinds) before
  // fanning out.
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

  // Read, verify and adopt sections concurrently when the machine has
  // the cores for it: each section is one pass of pread + hash + column
  // copies, so on a multi-core box the bundle-wide wall time collapses
  // to the cost of the largest section. Workers share the descriptor
  // through pread (no file position) and write disjoint destinations,
  // so the fan-out is race-free; on a single-CPU box the loop runs
  // inline and pays no thread overhead.
  std::vector<Status> statuses(info.sections.size());
  auto run_section = [&file, &info, &out, &statuses](size_t i) {
    const BundleInfo::Section& s = info.sections[i];
    BlobReader r(file, s.offset, s.size);
    Status decoded;
    switch (s.kind) {
      case SectionKind::kGraph:
        decoded = StorageAccess::LoadGraph(r, &out.graph);
        break;
      case SectionKind::kCsr:
        decoded = StorageAccess::LoadCsr(r, out.csr.get());
        break;
      case SectionKind::kOverlay:
        decoded = StorageAccess::LoadOverlay(r, &out.overlay);
        break;
    }
    // Decoding saw the bytes before their digest was known, so the
    // checksum verdict comes first: hash what decoding left unread, and
    // report a mismatch over whatever the decoder concluded.
    statuses[i] = r.Drain();
    if (statuses[i].ok() && r.Digest() != s.checksum) {
      statuses[i] = Status::DataLoss("bundle: section checksum mismatch");
    }
    if (statuses[i].ok()) statuses[i] = decoded;
  };
  const size_t num_workers =
      std::min<size_t>(info.sections.size(),
                       std::max(1u, std::thread::hardware_concurrency()));
  if (num_workers <= 1) {
    for (size_t i = 0; i < info.sections.size(); ++i) run_section(i);
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      workers.emplace_back([&next, &run_section, &info] {
        for (size_t i; (i = next.fetch_add(1)) < info.sections.size();) {
          run_section(i);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  for (const Status& st : statuses) {
    SARGUS_RETURN_IF_ERROR(st);
  }

  auto require = [seen](SectionKind kind) {
    return (seen & (1ULL << static_cast<uint32_t>(kind))) != 0;
  };
  if (!require(SectionKind::kGraph) || !require(SectionKind::kCsr) ||
      !require(SectionKind::kOverlay)) {
    return Status::DataLoss("bundle: required section missing");
  }
  return out;
}

}  // namespace sargus::storage
