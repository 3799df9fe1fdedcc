#ifndef SARGUS_STORAGE_SNAPSHOT_LOADER_H_
#define SARGUS_STORAGE_SNAPSHOT_LOADER_H_

/// \file snapshot_loader.h
/// \brief Reconstructs a serving state from a snapshot bundle: mmap,
/// verify every checksum, adopt every section.
///
/// The load path never *computes* an index — no Tarjan, no label sweep,
/// no CSR counting sort. Each section is re-verified against its header
/// checksum and then bulk-copied into the live structures (the accepted
/// first cut; a zero-copy mmap-backed variant would swap the copies for
/// span views over the mapping). The only reconstruction work is the
/// cheap inverse maps serialization deliberately drops: dictionary
/// name->id maps, the graph's edge-triple lookup, and the overlay's
/// adjacency (rebuilt by re-staging its triples).
///
/// Every failure — missing file, bad magic, checksum mismatch, section
/// bounds out of range, truncated section payload — surfaces as an
/// explicit Status (kDataLoss for corruption). The corruption-matrix
/// test drives >=10k seeded bit flips through this path.

#include <memory>
#include <string>

#include "common/result.h"
#include "storage/snapshot_format.h"

namespace sargus::storage {

/// A fully adopted bundle, ready for AccessControlEngine::OpenFromDir to
/// install. `csr` is mutable here (the loader fills it); the engine
/// freezes it behind shared_ptr<const> on install.
struct LoadedBundle {
  SocialGraph graph;
  std::shared_ptr<CsrSnapshot> csr;
  DeltaOverlay overlay;
  SnapshotStamp stamp;
  uint64_t compact_threshold = 0;
};

/// Maps `path`, verifies header + every section checksum, adopts all
/// sections. kNotFound when the file is absent; kDataLoss on any
/// corruption.
Result<LoadedBundle> LoadBundle(const std::string& path);

}  // namespace sargus::storage

#endif  // SARGUS_STORAGE_SNAPSHOT_LOADER_H_
