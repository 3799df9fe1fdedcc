#include "engine/access_engine.h"

#include <algorithm>
#include <utility>

#include "common/file_util.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"

namespace sargus {

namespace {

uint64_t NextEngineId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string BundlePath(const std::string& dir) {
  return dir + "/" + storage::kSnapshotFileName;
}
std::string WalPath(const std::string& dir) {
  return dir + "/" + storage::kWalFileName;
}

/// Per-thread acquire cache: one entry is enough, because a serving
/// thread hammers one engine. `engine_id` (never recycled) guards
/// against a new engine reusing a destroyed engine's address. The view
/// is held weakly so an idle thread's cache cannot keep an obsolete
/// view (and its whole frozen index stack) alive — on a sequence hit
/// the engine's own strong reference guarantees lock() succeeds.
struct TlsViewCache {
  uint64_t engine_id = 0;
  uint64_t seq = 0;
  std::weak_ptr<const AccessReadView> view;
};
thread_local TlsViewCache tls_view_cache;

}  // namespace

AccessControlEngine::AccessControlEngine(const SocialGraph& graph,
                                         const PolicyStore& store,
                                         EngineOptions options)
    : graph_(&graph),
      store_(&store),
      options_(options),
      engine_id_(NextEngineId()),
      write_queue_(
          std::make_unique<MutationQueue>(this, options.write_queue_capacity)) {}

AccessControlEngine::AccessControlEngine(SocialGraph& graph,
                                         const PolicyStore& store,
                                         EngineOptions options)
    : graph_(&graph),
      mutable_graph_(&graph),
      store_(&store),
      options_(options),
      engine_id_(NextEngineId()),
      write_queue_(
          std::make_unique<MutationQueue>(this, options.write_queue_capacity)) {}

AccessControlEngine::~AccessControlEngine() {
  // Queue first: a draining batch can kick a compaction, so the
  // compaction thread must still be alive while the writer thread winds
  // down. Queued-but-unapplied mutations complete kUnavailable.
  write_queue_->Shutdown();
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    comp_shutdown_ = true;
  }
  comp_cv_.notify_all();
  if (comp_thread_.joinable()) comp_thread_.join();
}

void AccessControlEngine::PublishView() {
  auto view = AccessReadView::Create(
      *graph_, csr_, policy_, overlay_,
      snapshot_generation_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(view);
  }
  // The bump is the readers' freshness signal: a thread that observes
  // the new sequence re-reads the slot (whose mutex write above
  // happened before this release store).
  publish_seq_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const AccessReadView> AccessControlEngine::AcquireReadView()
    const {
  const uint64_t seq = publish_seq_.load(std::memory_order_acquire);
  if (seq == 0) return nullptr;  // nothing published yet
  TlsViewCache& cache = tls_view_cache;
  if (cache.engine_id == engine_id_ && cache.seq == seq) {
    // Steady state: no lock (weak_ptr::lock is a refcount CAS). A null
    // here means a racing republication just dropped the cached view;
    // fall through to the slot and re-cache.
    if (auto cached = cache.view.lock()) return cached;
  }
  std::shared_ptr<const AccessReadView> view;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view = view_;
  }
  // If a publication raced between the seq load and the slot read, the
  // cache stamps an older seq onto a newer view: the next acquire just
  // refreshes again. Freshness is monotonic either way (the slot is
  // written before the sequence bump).
  cache.engine_id = engine_id_;
  cache.seq = seq;
  cache.view = view;
  return view;
}

bool AccessControlEngine::RefreshPolicySnapshotIfStale() {
  if (policy_ != nullptr &&
      policy_->source_num_resources == store_->NumResources() &&
      policy_->source_num_rules == store_->NumRules()) {
    return false;
  }
  policy_ = PolicySnapshot::Build(*store_, *graph_);
  return true;
}

void AccessControlEngine::RecomputeEffectiveThreshold() {
  if (options_.compact_threshold == EngineOptions::kCompactThresholdAuto) {
    effective_compact_threshold_ =
        std::max<size_t>(1024, csr_->NumEdges() / 16);
  } else {
    effective_compact_threshold_ = options_.compact_threshold;
  }
}

Status AccessControlEngine::RebuildIndexesLocked() {
  built_ = false;
  // The overlay is relative to the snapshot being replaced; staged
  // mutations that should survive must go through Compact() instead.
  overlay_.Clear();
  csr_ = std::make_shared<const CsrSnapshot>(CsrSnapshot::Build(*graph_));
  // Unconditional policy rebuild: fresh dictionary entries (labels
  // interned since the last build) may fix previously failed binds.
  policy_ = PolicySnapshot::Build(*store_, *graph_);
  built_ = true;
  snapshot_generation_.fetch_add(1, std::memory_order_release);
  RecomputeEffectiveThreshold();
  PublishView();
  if (durable_) {
    // The WAL's records (and the old bundle) describe state this rebuild
    // just discarded; publish a bundle covering the fresh snapshot.
    SARGUS_RETURN_IF_ERROR(SaveSnapshotLocked());
  }
  return OkStatus();
}

Status AccessControlEngine::RebuildIndexes() {
  // Drain the pipeline first: a build in flight references the CSR
  // and overlay this rebuild replaces, and its completion would fold
  // staged state the contract says a rebuild discards. The wait returns
  // holding the lock, so no threshold-kicked build can start between
  // the drain and the rebuild.
  std::unique_lock<std::mutex> lock(mutation_mu_);
  comp_cv_.wait(lock, [&] { return !building_; });
  return RebuildIndexesLocked();
}

// ---- Dynamic mutations ------------------------------------------------------

Status AccessControlEngine::CheckMutable() const {
  if (mutable_graph_ == nullptr) {
    return Status::FailedPrecondition(
        "mutation requires the mutable-graph constructor (compaction must "
        "write the SocialGraph)");
  }
  if (!built_) {
    return Status::FailedPrecondition(
        "mutation staged against no snapshot: call RebuildIndexes() first");
  }
  return OkStatus();
}

size_t AccessControlEngine::LogicalNumNodesLocked() const {
  return csr_->NumNodes() + overlay_.num_staged_nodes();
}

// Walker visited arrays are sized to snapshot + staged nodes, so staged
// endpoints must lie inside that logical range (anything else needs
// AddNode first).
Status AccessControlEngine::CheckEndpoints(NodeId src, NodeId dst) const {
  const size_t n = LogicalNumNodesLocked();
  if (src >= n || dst >= n) {
    return Status::InvalidArgument(
        "edge mutation: endpoint outside the current snapshot");
  }
  return OkStatus();
}

// The synchronous calls are Submit + Wait over the queue.

Status AccessControlEngine::AddEdge(NodeId src, NodeId dst,
                                    const std::string& label) {
  return SubmitAddEdge(src, dst, label).Wait().status;
}

Status AccessControlEngine::AddEdge(NodeId src, NodeId dst, LabelId label) {
  return SubmitAddEdge(src, dst, label).Wait().status;
}

Status AccessControlEngine::RemoveEdge(NodeId src, NodeId dst,
                                       const std::string& label) {
  return SubmitRemoveEdge(src, dst, label).Wait().status;
}

Status AccessControlEngine::RemoveEdge(NodeId src, NodeId dst, LabelId label) {
  return SubmitRemoveEdge(src, dst, label).Wait().status;
}

Result<NodeId> AccessControlEngine::AddNode() {
  WriteOutcome out = SubmitAddNode().Wait();
  if (!out.status.ok()) return out.status;
  return out.node;
}

Status AccessControlEngine::RefreshPolicies() {
  return SubmitRefreshPolicies().Wait().status;
}

// ---- Queued mutation front end ----------------------------------------------

WriteTicket AccessControlEngine::SubmitAddEdge(NodeId src, NodeId dst,
                                               const std::string& label) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddEdge;
  op.src = src;
  op.dst = dst;
  op.by_name = true;
  op.label_name = label;
  return write_queue_->Submit(std::move(op));
}

WriteTicket AccessControlEngine::SubmitAddEdge(NodeId src, NodeId dst,
                                               LabelId label) {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddEdge;
  op.src = src;
  op.dst = dst;
  op.label = label;
  return write_queue_->Submit(std::move(op));
}

WriteTicket AccessControlEngine::SubmitRemoveEdge(NodeId src, NodeId dst,
                                                  const std::string& label) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdge;
  op.src = src;
  op.dst = dst;
  op.by_name = true;
  op.label_name = label;
  return write_queue_->Submit(std::move(op));
}

WriteTicket AccessControlEngine::SubmitRemoveEdge(NodeId src, NodeId dst,
                                                  LabelId label) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemoveEdge;
  op.src = src;
  op.dst = dst;
  op.label = label;
  return write_queue_->Submit(std::move(op));
}

WriteTicket AccessControlEngine::SubmitAddNode() {
  WriteOp op;
  op.kind = WriteOp::Kind::kAddNode;
  return write_queue_->Submit(std::move(op));
}

WriteTicket AccessControlEngine::SubmitRefreshPolicies() {
  WriteOp op;
  op.kind = WriteOp::Kind::kRefreshPolicies;
  return write_queue_->Submit(std::move(op));
}

storage::WalRecord AccessControlEngine::MakeWalRecordLocked(
    storage::WalRecord::Kind kind, NodeId src, NodeId dst,
    LabelId label) const {
  storage::WalRecord rec;
  rec.kind = kind;
  // The stamp is read *after* the mutation staged, so it names the state
  // the record produced; replay applies records strictly above the
  // bundle's stamp, which names the state the bundle captured.
  rec.generation = snapshot_generation_.load(std::memory_order_relaxed);
  rec.overlay_version = overlay_.version();
  rec.src = src;
  rec.dst = dst;
  // Edge records carry the label *name*: a label interned after the
  // bundle was saved has no id in the bundle's dictionary, and replay
  // re-interns through the AddEdge staging path.
  if (label != kInvalidLabel) rec.label = graph_->labels().ToString(label);
  return rec;
}

Status AccessControlEngine::WalCommitBatchLocked(
    std::span<const storage::WalRecord> recs) {
  if (!durable_ || wal_replaying_ || recs.empty()) return OkStatus();
  return wal_.AppendBatch(recs);
}

Status AccessControlEngine::ApplyOneLocked(
    const WriteOp& op, WriteOutcome* out,
    std::vector<storage::WalRecord>* wal_batch) {
  SARGUS_RETURN_IF_ERROR(CheckMutable());
  switch (op.kind) {
    case WriteOp::Kind::kAddEdge: {
      LabelId id = op.label;
      if (op.by_name) {
        // Validate fully *before* interning: a failed AddEdge must
        // leave the graph (including its label dictionary) untouched.
        SARGUS_RETURN_IF_ERROR(CheckEndpoints(op.src, op.dst));
        id = graph_->labels().Lookup(op.label_name);
        if (id == kInvalidLabel) {
          id = mutable_graph_->labels().Intern(op.label_name);
          if (id == kInvalidLabel) {
            return Status::ResourceExhausted("AddEdge: label dictionary full");
          }
        }
      } else if (id >= graph_->labels().size()) {
        return Status::InvalidArgument("AddEdge: unknown label id");
      }
      SARGUS_RETURN_IF_ERROR(StageAddEdge(op.src, op.dst, id));
      if (wal_batch != nullptr) {
        wal_batch->push_back(MakeWalRecordLocked(
            storage::WalRecord::Kind::kAddEdge, op.src, op.dst, id));
      }
      return OkStatus();
    }
    case WriteOp::Kind::kRemoveEdge: {
      LabelId id = op.label;
      if (op.by_name) {
        id = graph_->labels().Lookup(op.label_name);
        if (id == kInvalidLabel) {
          return Status::NotFound("RemoveEdge: unknown label '" +
                                  op.label_name + "'");
        }
      } else if (id >= graph_->labels().size()) {
        return Status::NotFound("RemoveEdge: unknown label id");
      }
      SARGUS_RETURN_IF_ERROR(StageRemoveEdge(op.src, op.dst, id));
      if (wal_batch != nullptr) {
        wal_batch->push_back(MakeWalRecordLocked(
            storage::WalRecord::Kind::kRemoveEdge, op.src, op.dst, id));
      }
      return OkStatus();
    }
    case WriteOp::Kind::kAddNode: {
      const NodeId id = static_cast<NodeId>(LogicalNumNodesLocked());
      (void)overlay_.StageNode();
      if (wal_batch != nullptr) {
        wal_batch->push_back(MakeWalRecordLocked(
            storage::WalRecord::Kind::kAddNode, 0, 0, kInvalidLabel));
      }
      out->node = id;
      return OkStatus();
    }
    case WriteOp::Kind::kRefreshPolicies:
      break;  // handled by ApplyWriteBatch (needs no mutable graph)
  }
  return Status::InvalidArgument("unhandled write op kind");
}

void AccessControlEngine::ApplyWriteBatch(std::span<const WriteOp> ops,
                                          WriteOutcome* outcomes) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::vector<storage::WalRecord> wal_batch;
  std::vector<storage::WalRecord>* wal_sink = nullptr;
  if (durable_ && !wal_replaying_) {
    wal_batch.reserve(ops.size());
    wal_sink = &wal_batch;
  }
  // What a failed WAL commit rolls back to (the overlay comes from the
  // published view, see below).
  const auto policy_before = policy_;
  bool any_graph_mutation = false;
  bool policy_refreshed = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    WriteOutcome& out = outcomes[i];
    if (ops[i].kind == WriteOp::Kind::kRefreshPolicies) {
      // Policy refresh needs built indexes but not the mutable-graph
      // constructor.
      if (!built_) {
        out.status = Status::FailedPrecondition(
            "RefreshPolicies: call RebuildIndexes() first");
      } else {
        out.status = OkStatus();
        if (RefreshPolicySnapshotIfStale()) {
          policy_refreshed = true;
          if (wal_sink != nullptr) {
            wal_sink->push_back(MakeWalRecordLocked(
                storage::WalRecord::Kind::kPolicyRefresh, 0, 0,
                kInvalidLabel));
          }
        }
      }
    } else {
      out.status = ApplyOneLocked(ops[i], &out, wal_sink);
      if (out.status.ok()) any_graph_mutation = true;
    }
    // Per-op stamp, read right after the op staged — identical to the
    // stamp its WAL record carries (failed ops get the stamp of the
    // state that rejected them).
    out.generation = snapshot_generation_.load(std::memory_order_relaxed);
    out.overlay_version = overlay_.version();
  }

  // The group commit: one gathered WAL write + one fsync for every
  // record the batch produced, *before* any ticket observes OK.
  const Status wal_status = WalCommitBatchLocked(wal_batch);
  if (!wal_status.ok()) {
    // An acknowledged mutation must be WAL-durable. Fail every op that
    // believed it committed and put the overlay and policy snapshot
    // back as they were: a failed ticket's op never surfaces on a later
    // publish. (Labels it interned stay; ids only grow.) The WAL cut the
    // torn batch off, and no view is published here.
    for (size_t i = 0; i < ops.size(); ++i) {
      if (outcomes[i].status.ok()) outcomes[i].status = wal_status;
    }
    // Every committed batch, compaction completion and rebuild publishes
    // before it lets go of mutation_mu_ (a failed rebuild leaves the
    // engine unbuilt, so nothing stages after it), so the published
    // view's frozen copy is the overlay as this batch found it.
    // Restoring from it keeps the copy off the commit path.
    {
      std::lock_guard<std::mutex> view_lock(view_mu_);
      overlay_ = view_->overlay();
    }
    policy_ = policy_before;
    return;
  }

  if (any_graph_mutation) {
    // One publication (and at most one compaction kick) for the whole
    // batch — the amortization the queue exists for.
    FinishMutation();
  } else if (policy_refreshed) {
    PublishView();
  }
}

bool AccessControlEngine::EdgeInBaseLocked(NodeId src, NodeId dst,
                                           LabelId label) const {
  // The CSR is the base snapshot, so membership never needs the graph's
  // triple index (which a reopen leaves stale). Nodes past the
  // snapshot's count (staged adds) cannot have base edges.
  if (src >= csr_->NumNodes()) return false;
  const auto range = csr_->OutWithLabel(src, label);
  const auto it = std::lower_bound(
      range.begin(), range.end(), dst,
      [](const CsrSnapshot::Entry& e, NodeId d) { return e.other < d; });
  return it != range.end() && it->other == dst;
}

Status AccessControlEngine::StageAddEdge(NodeId src, NodeId dst,
                                         LabelId label) {
  SARGUS_RETURN_IF_ERROR(CheckEndpoints(src, dst));
  const bool in_base = EdgeInBaseLocked(src, dst, label);
  if (in_base) {
    // Present in the snapshot: visible unless masked by a staged remove.
    (void)overlay_.UnstageRemove(src, dst, label);
  } else {
    (void)overlay_.StageAdd(src, dst, label);  // idempotent
  }
  return OkStatus();
}

Status AccessControlEngine::StageRemoveEdge(NodeId src, NodeId dst,
                                            LabelId label) {
  if (!overlay_.UnstageAdd(src, dst, label)) {
    const bool in_base = EdgeInBaseLocked(src, dst, label);
    if (!in_base || overlay_.IsStagedRemove(src, dst, label)) {
      return Status::NotFound("RemoveEdge: no such logical edge");
    }
    (void)overlay_.StageRemove(src, dst, label);
  }
  return OkStatus();
}

void AccessControlEngine::FinishMutation() {
  if (effective_compact_threshold_ != 0 &&
      overlay_.size() >= effective_compact_threshold_ && !building_) {
    // Kick the build and fall through: the staged mutation must be
    // visible now, on a view over the *current* snapshot.
    StartBackgroundCompactionLocked();
  }
  // Pick up any rules/resources registered since the last publish, then
  // publish a view carrying the new frozen overlay.
  (void)RefreshPolicySnapshotIfStale();
  PublishView();
}

// ---- Compaction -------------------------------------------------------------

void AccessControlEngine::FoldOverlayIntoGraph(const DeltaOverlay& frozen) {
  // Nodes first (staged edges may name them), then removals, then
  // additions: a triple removed and added back must lose its old slot
  // before the add, or the graph would coalesce the add onto it. The
  // CSR names no slot, so the order additions get slots in is free.
  if (frozen.num_staged_nodes() > 0) {
    (void)mutable_graph_->AddNodes(frozen.num_staged_nodes());
  }
  frozen.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
    auto id = mutable_graph_->FindEdge(t.src, t.dst, t.label);
    if (id.has_value()) (void)mutable_graph_->RemoveEdge(*id);
  });
  frozen.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    (void)mutable_graph_->AddEdge(t.src, t.dst, t.label);
  });
}

void AccessControlEngine::StartBackgroundCompactionLocked() {
  frozen_ = overlay_;  // the freeze: an O(overlay) copy, flat in |V|
  building_ = true;
  if (!comp_thread_.joinable()) {
    comp_thread_ = std::thread(&AccessControlEngine::CompactionWorker, this);
  }
  comp_cv_.notify_all();
}

void AccessControlEngine::FinishCompactionLocked(
    std::shared_ptr<const CsrSnapshot> csr) {
  FoldOverlayIntoGraph(frozen_);
  csr_ = std::move(csr);
  snapshot_generation_.fetch_add(1, std::memory_order_release);
  // Rebase the live overlay onto the new snapshot: what remains is
  // what was staged since the freeze. Its version carries on, and the
  // generation just moved, so (generation, version) stamps stay unique.
  overlay_ = overlay_.Since(frozen_);
  ++full_compactions_;
  last_compaction_status_ = OkStatus();

  // The policy snapshot is reused as is: rebuilding it would read the
  // store, and rule registration on the user's thread must not race this
  // thread (store changes surface at the next external write-path
  // publish).
  RecomputeEffectiveThreshold();
  PublishView();

  if (durable_) {
    // The fold rewrote the graph and rebased the overlay; the previous
    // bundle no longer covers the on-disk WAL's history, so publish a
    // fresh one (and truncate the WAL it covers) before releasing the
    // writer lock. Readers never take mutation_mu_, so this stays off
    // the serving path. A failed save degrades durability, not serving —
    // recorded like a failed build.
    const Status saved = SaveSnapshotLocked();
    if (!saved.ok()) last_compaction_status_ = saved;
  }

  // Chain a follow-up build when the leftovers still demand one (an
  // explicit Compact() arrived mid-build, or they already trip the
  // threshold); the writer never has to re-trigger. building_ stays true
  // across the chain, so WaitForCompaction() drains all of it.
  const bool chain =
      !overlay_.empty() &&
      (compact_requested_ || (effective_compact_threshold_ != 0 &&
                              overlay_.size() >= effective_compact_threshold_));
  compact_requested_ = false;
  if (chain) {
    StartBackgroundCompactionLocked();
  } else {
    frozen_ = DeltaOverlay();
    building_ = false;
  }
}

void AccessControlEngine::CompactionWorker() {
  std::unique_lock<std::mutex> lock(mutation_mu_);
  for (;;) {
    comp_cv_.wait(lock, [&] { return comp_shutdown_ || building_; });
    if (!building_) return;  // shutdown with nothing left to drain
    lock.unlock();
    if (comp_build_hook_) comp_build_hook_();
    // The expensive part, off every lock: the writer keeps staging
    // mutations, readers keep serving published views. The graph and
    // frozen_ are stable during the build — staging writes neither, and
    // only this thread folds or clears building_.
    auto csr = std::make_shared<const CsrSnapshot>(
        CsrSnapshot::Build(*graph_, frozen_));
    lock.lock();
    FinishCompactionLocked(std::move(csr));
    comp_cv_.notify_all();
  }
}

Status AccessControlEngine::Compact() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  SARGUS_RETURN_IF_ERROR(CheckMutable());
  if (overlay_.empty()) return OkStatus();
  if (building_) {
    // A build is in flight; have its completion chain a follow-up that
    // folds everything staged meanwhile. WaitForCompaction() drains
    // the whole chain.
    compact_requested_ = true;
    return OkStatus();
  }
  StartBackgroundCompactionLocked();
  return OkStatus();
}

void AccessControlEngine::WaitForCompaction() {
  std::unique_lock<std::mutex> lock(mutation_mu_);
  comp_cv_.wait(lock, [&] { return !building_; });
}

bool AccessControlEngine::compaction_in_flight() const {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return building_;
}

// ---- Durability -------------------------------------------------------------

Status AccessControlEngine::SaveSnapshotLocked() {
  if (!durable_) {
    return Status::FailedPrecondition(
        "SaveSnapshot: call EnableDurability() first");
  }
  storage::BundlePayload payload;
  payload.graph = graph_;
  payload.csr = csr_.get();
  payload.overlay = &overlay_;
  payload.stamp = {snapshot_generation_.load(std::memory_order_relaxed),
                   overlay_.version()};
  payload.compact_threshold = effective_compact_threshold_;
  SARGUS_RETURN_IF_ERROR(
      storage::WriteBundle(BundlePath(durability_dir_), payload));
  // The bundle serializes the overlay too, so every WAL record at or
  // below its stamp is covered — the file is pure history now.
  if (durability_.truncate_wal_on_save && wal_.is_open()) {
    return wal_.Truncate();
  }
  return OkStatus();
}

Status AccessControlEngine::SaveSnapshot() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return SaveSnapshotLocked();
}

Status AccessControlEngine::EnableDurability(const std::string& dir,
                                             DurabilityOptions durability) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  if (!built_) {
    return Status::FailedPrecondition(
        "EnableDurability: call RebuildIndexes() first");
  }
  if (mutable_graph_ == nullptr) {
    return Status::FailedPrecondition(
        "EnableDurability requires the mutable-graph constructor");
  }
  SARGUS_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  durability_ = durability;
  durability_dir_ = dir;
  SARGUS_ASSIGN_OR_RETURN(wal_,
                          storage::WalWriter::Open(WalPath(dir), durability.wal_sync));
  durable_ = true;
  // Publish a bundle covering the current state so the directory is
  // consistent (and any stale WAL records are covered) from here on.
  const Status saved = SaveSnapshotLocked();
  if (!saved.ok()) {
    durable_ = false;
    return saved;
  }
  return OkStatus();
}

Status AccessControlEngine::ReplayWal(std::span<const storage::WalRecord> records,
                                      const storage::SnapshotStamp& covered) {
  // Convert the uncovered suffix into WriteOps and push them through the
  // group-commit body in bounded batches: recovery pays one published
  // view per batch instead of one per record. Edge records replay by
  // label *name* (re-interning exactly like the original call did).
  std::vector<WriteOp> ops;
  ops.reserve(records.size());
  for (const auto& rec : records) {
    const storage::SnapshotStamp stamp{rec.generation, rec.overlay_version};
    if (stamp <= covered) continue;  // bundle already captured this record
    WriteOp op;
    switch (rec.kind) {
      case storage::WalRecord::Kind::kAddEdge:
        op.kind = WriteOp::Kind::kAddEdge;
        op.src = rec.src;
        op.dst = rec.dst;
        op.by_name = true;
        op.label_name = rec.label;
        break;
      case storage::WalRecord::Kind::kRemoveEdge:
        op.kind = WriteOp::Kind::kRemoveEdge;
        op.src = rec.src;
        op.dst = rec.dst;
        op.by_name = true;
        op.label_name = rec.label;
        break;
      case storage::WalRecord::Kind::kAddNode:
        op.kind = WriteOp::Kind::kAddNode;
        break;
      case storage::WalRecord::Kind::kPolicyRefresh:
        op.kind = WriteOp::Kind::kRefreshPolicies;
        break;
    }
    ops.push_back(std::move(op));
  }
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    wal_replaying_ = true;  // suppress WAL re-appends
  }
  Status status = OkStatus();
  const size_t batch = MutationQueue::kMaxBatch;
  std::vector<WriteOutcome> outcomes;
  for (size_t off = 0; off < ops.size() && status.ok(); off += batch) {
    const size_t n = std::min(batch, ops.size() - off);
    outcomes.assign(n, WriteOutcome{});
    ApplyWriteBatch(std::span<const WriteOp>(ops.data() + off, n),
                    outcomes.data());
    for (size_t i = 0; i < n && status.ok(); ++i) status = outcomes[i].status;
  }
  {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    wal_replaying_ = false;
  }
  if (!status.ok()) {
    return Status::DataLoss("wal replay failed: " + status.ToString());
  }
  return OkStatus();
}

Result<std::unique_ptr<AccessControlEngine>> AccessControlEngine::OpenFromDir(
    const std::string& dir, SocialGraph* graph, const PolicyStore& store,
    EngineOptions options, DurabilityOptions durability) {
  if (graph == nullptr) {
    return Status::InvalidArgument("OpenFromDir: graph must be non-null");
  }
  SARGUS_ASSIGN_OR_RETURN(storage::LoadedBundle loaded,
                          storage::LoadBundle(BundlePath(dir)));

  *graph = std::move(loaded.graph);
  auto engine = std::unique_ptr<AccessControlEngine>(
      new AccessControlEngine(*graph, store, options));
  {
    std::lock_guard<std::mutex> lock(engine->mutation_mu_);
    engine->csr_ = std::move(loaded.csr);
    engine->overlay_ = std::move(loaded.overlay);
    engine->snapshot_generation_.store(loaded.stamp.generation,
                                       std::memory_order_release);
    engine->policy_ = PolicySnapshot::Build(store, *graph);
    engine->built_ = true;
    engine->RecomputeEffectiveThreshold();
    engine->PublishView();
  }

  // Replay whatever the bundle does not cover. A missing WAL is a fresh
  // directory; header-level damage is unrecoverable (we cannot know what
  // was acknowledged); a torn *tail* is expected after a crash — replay
  // the clean prefix and truncate the tear on reopen.
  int64_t resume_size = -1;
  auto wal_contents = storage::ReadWal(WalPath(dir));
  if (wal_contents.ok()) {
    SARGUS_RETURN_IF_ERROR(
        engine->ReplayWal(wal_contents->records, loaded.stamp));
    resume_size = static_cast<int64_t>(wal_contents->valid_bytes);
  } else if (wal_contents.status().code() != StatusCode::kNotFound) {
    return wal_contents.status();
  }

  {
    std::lock_guard<std::mutex> lock(engine->mutation_mu_);
    engine->durability_ = durability;
    engine->durability_dir_ = dir;
    SARGUS_ASSIGN_OR_RETURN(
        engine->wal_,
        storage::WalWriter::Open(WalPath(dir), durability.wal_sync,
                                 resume_size));
    engine->durable_ = true;
  }
  return engine;
}

// ---- Read path --------------------------------------------------------------

void AccessControlEngine::PushAuditLocked(const AccessDecision& decision)
    const {
  if (audit_.size() < options_.audit_capacity) {
    audit_.push_back(decision);
  } else {
    audit_[audit_next_] = decision;
    audit_wrapped_ = true;
  }
  audit_next_ = (audit_next_ + 1) % options_.audit_capacity;
}

void AccessControlEngine::RecordAudit(const AccessDecision& decision) const {
  if (options_.audit_capacity == 0) return;
  std::lock_guard<std::mutex> lock(audit_mu_);
  PushAuditLocked(decision);
}

Result<AccessDecision> AccessControlEngine::CheckAccess(
    const AccessRequest& request) const {
  auto view = AcquireReadView();
  if (view == nullptr) {
    return Status::FailedPrecondition(
        "CheckAccess: call RebuildIndexes() first");
  }
  auto decision = view->CheckAccess(request);
  if (decision.ok()) RecordAudit(*decision);
  return decision;
}

std::vector<Result<AccessDecision>> AccessControlEngine::CheckAccessBatch(
    std::span<const AccessRequest> requests) const {
  auto view = AcquireReadView();
  if (view == nullptr) {
    std::vector<Result<AccessDecision>> out;
    out.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      out.push_back(Status::FailedPrecondition(
          "CheckAccess: call RebuildIndexes() first"));
    }
    return out;
  }
  auto out = view->CheckAccessBatch(requests);
  if (options_.audit_capacity > 0) {
    // One ring acquisition for the whole batch, not one per decision.
    std::lock_guard<std::mutex> lock(audit_mu_);
    for (const auto& decision : out) {
      if (decision.ok()) PushAuditLocked(*decision);
    }
  }
  return out;
}

std::vector<AccessDecision> AccessControlEngine::AuditTrail() const {
  std::lock_guard<std::mutex> lock(audit_mu_);
  std::vector<AccessDecision> out;
  if (!audit_wrapped_) {
    out = audit_;
  } else {
    out.reserve(audit_.size());
    for (size_t i = 0; i < audit_.size(); ++i) {
      out.push_back(audit_[(audit_next_ + i) % audit_.size()]);
    }
  }
  return out;
}

}  // namespace sargus
