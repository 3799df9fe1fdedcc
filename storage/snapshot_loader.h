#ifndef SARGUS_STORAGE_SNAPSHOT_LOADER_H_
#define SARGUS_STORAGE_SNAPSHOT_LOADER_H_

/// \file snapshot_loader.h
/// \brief Reconstructs a serving state from a snapshot bundle: read,
/// verify every checksum, adopt every section.
///
/// The load path never *computes* an index — no Tarjan, no label sweep,
/// no sort of the out-side. Each section is read with pread in bounded
/// chunks, hashed as it arrives and decoded column by column into the
/// live structures; its checksum verdict is checked before any decode
/// verdict is reported. The file is never mapped, so its pages do not
/// count toward the process's resident set while the copies are made.
/// The reconstruction work is what the bundle deliberately does not
/// store: the CSR's in-side (the out-side transposed, then a stable
/// pass by label over each range), the graph's edge slots (one per
/// out-entry, in CSR order), dictionary name->id maps and the overlay's
/// adjacency (rebuilt by re-staging its triples); the graph's
/// edge-triple lookup is left stale and rebuilt on first use.
///
/// Every failure — missing file, bad magic, checksum mismatch, section
/// bounds out of range, truncated section payload, a section that
/// decodes into out-of-range ids, an out-range that is not strictly
/// (label, other)-sorted, a CSR label past the dictionary, an overlay
/// triple past CSR nodes + staged nodes — surfaces as an explicit
/// Status (kDataLoss for corruption). The corruption-matrix test drives
/// thousands of seeded bit flips through this path.

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

/// Reads `path`, verifies header + every section checksum, adopts all
/// sections. kNotFound when the file is absent; kDataLoss on any
/// corruption.
Result<LoadedBundle> LoadBundle(const std::string& path);

}  // namespace sargus::storage

#endif  // SARGUS_STORAGE_SNAPSHOT_LOADER_H_
