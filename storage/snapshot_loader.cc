#include "storage/snapshot_loader.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "index/transitive_closure.h"

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
  if (!r.ok() || num_slots > r.Remaining() / sizeof(uint32_t)) {
    return Status::DataLoss("bundle: graph edge count out of range");
  }
  g->edges_.resize(num_slots);
  for (auto& e : g->edges_) e.src = r.GetU32();
  for (auto& e : g->edges_) e.dst = r.GetU32();
  for (auto& e : g->edges_) e.label = r.GetU16();
  r.GetVec(&g->live_);
  g->num_live_edges_ = r.GetU64();
  if (!r.ok() || g->live_.size() != g->edges_.size()) {
    return Status::DataLoss("bundle: graph live bitmap size mismatch");
  }

  auto load_dict = [&r](NameDictionary* dict) {
    const uint64_t n = r.GetU64();
    if (!r.ok() || n > r.Remaining()) return;  // each name is >= 4 bytes
    dict->names_.resize(n);
    dict->ids_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      r.GetString(&dict->names_[i]);
      dict->ids_[dict->names_[i]] = static_cast<uint16_t>(i);
    }
  };
  load_dict(&g->labels_);
  load_dict(&g->attrs_);

  const uint64_t num_columns = r.GetU64();
  if (!r.ok() || num_columns > r.Remaining()) {
    return Status::DataLoss("bundle: graph attribute column count");
  }
  g->attr_columns_.resize(num_columns);
  for (auto& col : g->attr_columns_) r.GetVec(&col);

  // Do NOT rebuild the triple lookup here: hashing every live edge back
  // into the map costs about as much as the index rebuild the bundle
  // exists to avoid (~1s at 1M edges). Mark it stale instead; the graph
  // rematerializes it on first use, which is always on the mutation/fold
  // path, never on the cold-start-to-first-query path.
  g->edge_lookup_.clear();
  g->edge_lookup_stale_ = true;
  return FinishSection(r, "graph");
}

Status StorageAccess::LoadCsr(BlobReader& r, CsrSnapshot* csr) {
  csr->num_nodes_ = r.GetU64();
  r.GetVec(&csr->out_offsets_);
  const uint64_t num_out = r.GetU64();
  if (!r.ok() || num_out > r.Remaining() / sizeof(uint32_t)) {
    return Status::DataLoss("bundle: csr out-entry count out of range");
  }
  csr->out_entries_.resize(num_out);
  for (auto& e : csr->out_entries_) e.other = r.GetU32();
  for (auto& e : csr->out_entries_) e.label = r.GetU16();
  for (auto& e : csr->out_entries_) e.edge = r.GetU32();
  r.GetVec(&csr->in_offsets_);
  const uint64_t num_in = r.GetU64();
  if (!r.ok() || num_in > r.Remaining() / sizeof(uint32_t)) {
    return Status::DataLoss("bundle: csr in-entry count out of range");
  }
  csr->in_entries_.resize(num_in);
  for (auto& e : csr->in_entries_) e.other = r.GetU32();
  for (auto& e : csr->in_entries_) e.label = r.GetU16();
  for (auto& e : csr->in_entries_) e.edge = r.GetU32();
  if (csr->out_offsets_.size() != csr->num_nodes_ + 1 ||
      csr->in_offsets_.size() != csr->num_nodes_ + 1) {
    return Status::DataLoss("bundle: csr offset array size mismatch");
  }
  return FinishSection(r, "csr");
}

Status StorageAccess::LoadClosure(BlobReader& r, TransitiveClosure* c) {
  c->undirected_ = r.GetU8() != 0;
  c->num_components_ = r.GetU32();
  c->words_ = r.GetU64();
  c->reachable_pairs_ = r.GetU64();
  r.GetVec(&c->component_of_);
  r.GetVec(&c->component_size_);
  r.GetVec(&c->reach_);
  return FinishSection(r, "closure");
}

Status StorageAccess::LoadOverlay(BlobReader& r, DeltaOverlay* o) {
  auto load_triples = [&r](std::vector<DeltaOverlay::EdgeTriple>* out) {
    const uint64_t n = r.GetU64();
    if (!r.ok() || n > r.Remaining() / sizeof(uint32_t)) {
      return false;
    }
    out->resize(n);
    for (auto& t : *out) t.src = r.GetU32();
    for (auto& t : *out) t.dst = r.GetU32();
    for (auto& t : *out) t.label = r.GetU16();
    return true;
  };
  std::vector<DeltaOverlay::EdgeTriple> added;
  std::vector<DeltaOverlay::EdgeTriple> removed;
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
  SARGUS_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const std::span<const uint8_t> bytes = file.bytes();
  SARGUS_ASSIGN_OR_RETURN(BundleInfo info, ParseBundleHeader(bytes));

  LoadedBundle out;
  out.indexes = std::make_shared<SnapshotIndexes>();
  out.stamp = info.stamp;
  out.flags = info.flags;
  out.compact_threshold = info.compact_threshold;

  // Screen the section table serially (duplicates, unknown kinds), and
  // pre-allocate the owned index structures, before fanning out.
  uint64_t seen = 0;
  for (const BundleInfo::Section& s : info.sections) {
    const uint32_t raw_kind = static_cast<uint32_t>(s.kind);
    if (s.kind != SectionKind::kGraph && s.kind != SectionKind::kCsr &&
        s.kind != SectionKind::kClosure && s.kind != SectionKind::kOverlay) {
      return Status::DataLoss("bundle: unknown section kind");  // or retired
    }
    const uint64_t kind_bit = 1ULL << raw_kind;
    if (seen & kind_bit) {
      return Status::DataLoss("bundle: duplicate section");
    }
    seen |= kind_bit;
    if (s.kind == SectionKind::kClosure) {
      out.indexes->closure = std::make_unique<TransitiveClosure>();
    }
  }

  // Verify and adopt sections concurrently when the machine has the
  // cores for it: checksumming is one pass per section and adoption is
  // a chain of memcpys, so on a multi-core box the bundle-wide wall
  // time collapses to the cost of the largest section. Sections write
  // to disjoint destinations, so the fan-out is race-free; on a
  // single-CPU box the loop runs inline and pays no thread overhead.
  std::vector<Status> statuses(info.sections.size());
  auto run_section = [&bytes, &info, &out, &statuses](size_t i) {
    const BundleInfo::Section& s = info.sections[i];
    const std::span<const uint8_t> sec = bytes.subspan(s.offset, s.size);
    if (StripedFnv1a64(sec.data(), sec.size()) != s.checksum) {
      statuses[i] = Status::DataLoss("bundle: section checksum mismatch");
      return;
    }
    BlobReader r(sec);
    switch (s.kind) {
      case SectionKind::kGraph:
        statuses[i] = StorageAccess::LoadGraph(r, &out.graph);
        break;
      case SectionKind::kCsr:
        statuses[i] = StorageAccess::LoadCsr(r, &out.indexes->csr);
        break;
      case SectionKind::kClosure:
        statuses[i] =
            StorageAccess::LoadClosure(r, out.indexes->closure.get());
        break;
      case SectionKind::kOverlay:
        statuses[i] = StorageAccess::LoadOverlay(r, &out.overlay);
        break;
    }
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
  if (((info.flags & kFlagClosure) != 0) != (out.indexes->closure != nullptr)) {
    return Status::DataLoss("bundle: closure flag / section mismatch");
  }
  return out;
}

}  // namespace sargus::storage
