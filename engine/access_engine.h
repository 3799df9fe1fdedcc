#ifndef SARGUS_ENGINE_ACCESS_ENGINE_H_
#define SARGUS_ENGINE_ACCESS_ENGINE_H_

/// \file access_engine.h
/// \brief AccessControlEngine: the write path + view publisher.
///
/// The engine wires a SocialGraph and a PolicyStore to one CSR snapshot,
/// served by online BFS, and splits the API into two halves:
///
///  * a **read path** served by immutable AccessReadViews (see
///    read_view.h): `CheckAccess(AccessRequest)` / `CheckAccessBatch`
///    acquire the current view (lock-free in steady state via a
///    per-thread cache), decide lock-free against its frozen (CSR
///    snapshot + overlay + compiled rules) bundle, and record the
///    decision in the audit ring;
///    `AcquireReadView()` hands the view out directly for callers that
///    want to pin one state across many calls (or skip the audit ring's
///    mutex entirely);
///  * a **write path** — RebuildIndexes, AddEdge/RemoveEdge, AddNode,
///    Compact, RefreshPolicies — that builds the *next* view off the
///    serving path and publishes it with an atomic swap. In-flight
///    readers drain on the old view, which keeps answering against its
///    frozen state for as long as anyone holds it.
///
/// Lifecycle: construct, RebuildIndexes(), serve. Graph mutations go
/// through the engine's AddEdge/RemoveEdge/AddNode (requires the
/// mutable-graph constructor): each is an O(overlay) staged write — a
/// DeltaOverlay delta plus a republished view carrying a frozen overlay
/// copy — visible to the very next acquired view, never a rebuild
/// (bench_dynamic.cc charts the cost model: flat in |V|, linear only in
/// the bounded overlay size). When the overlay exceeds the effective
/// compaction threshold (EngineOptions::compact_threshold; the default
/// scales as max(1024, |E|/16)), the engine automatically Compact()s.
/// Every request is decided by online product-space BFS over the CSR
/// merged with the view's overlay. The paper's precomputed evaluators
/// live in the separate sargus_paper library, which serving never links.
///
/// Compaction model (double-buffered, see docs/ARCHITECTURE.md):
/// `Compact()` — explicit or threshold-triggered — freezes a copy of the
/// overlay and returns immediately; a dedicated compaction thread builds
/// the next CsrSnapshot against graph ⊕ frozen-overlay while the writer
/// keeps staging mutations into the live overlay. On completion the
/// compaction thread briefly takes the writer lock, folds the frozen
/// overlay into the SocialGraph, swaps in the new CSR, rebases the live
/// overlay onto the new snapshot (DeltaOverlay::Since: what was staged
/// since the freeze), and publishes — so neither readers nor the writer
/// ever stall on an index rebuild. `WaitForCompaction()` blocks until
/// the pipeline is idle, so synchronous compaction is `Compact()`
/// followed by `WaitForCompaction()` (tests and benchmarks use it for
/// determinism).
///
/// Snapshot-consistency contract: every published view owns the pairing
/// between its snapshot CSR and its frozen overlay. While a view's
/// overlay is non-empty, online search merges the overlay into every
/// neighbor expansion, so decisions match a rebuild over the logical
/// graph. Mutating the SocialGraph directly (rather than through the
/// engine) breaks this pairing; call RebuildIndexes again if you must.
///
/// Node growth: `AddNode()` stages a node addition through the overlay —
/// the returned id is queryable (as requester, resource owner, or edge
/// endpoint of further staged mutations) on the very next view, no
/// RebuildIndexes required — and compaction folds staged nodes into the
/// SocialGraph with the same ids. Staged nodes carry no attributes until
/// folded. Views published *before* the AddNode reject the new id with
/// kInvalidArgument (their scratch arrays are sized to their own frozen
/// snapshot), as does any request naming a node the serving view has
/// never seen.
///
/// Thread-safety contract (multi-writer / multi-reader):
///
///  * READERS — `CheckAccess`, `CheckAccessBatch`, `AcquireReadView`,
///    `AuditTrail` and every AccessReadView method are safe to call from
///    any number of threads concurrently, including concurrently with
///    writers and with the compaction thread. The view read path
///    takes no lock; the engine facade additionally locks a small mutex
///    per decision to feed the audit ring (set audit_capacity = 0 to
///    remove that too).
///  * MUTATIONS — `AddEdge`, `RemoveEdge`, `AddNode`, `RefreshPolicies`
///    (and their Submit* siblings) are safe to call from any number of
///    threads concurrently. Every mutation is routed through the
///    engine's MutationQueue (engine/write_queue.h): SubmitX() enqueues
///    and returns a WriteTicket, and the synchronous calls are
///    SubmitX().Wait(), so concurrent callers are serialized by
///    submission order and committed in group-commit batches (one WAL
///    fsync + one published view per batch).
///  * CONTROL PLANE — `RebuildIndexes`, `Compact`, `WaitForCompaction`,
///    `EnableDurability`, `SaveSnapshot` remain one-at-a-time calls:
///    externally serialize them against each other. They are safe
///    concurrently with queued mutations (everything meets on the
///    internal writer lock), but RebuildIndexes discards staged state,
///    so interleaving it with in-flight submissions is almost never
///    what you want — FlushWrites() first. The engine's own compaction
///    thread acts as an additional *internal* writer only for the brief
///    completion swap; the internal mutex serializes it against the
///    mutation path, so writer calls remain safe (and cheap — the
///    expensive build runs outside any lock) while a compaction is in
///    flight.
///  * OUT OF SCOPE — mutating the SocialGraph or PolicyStore objects
///    directly (AddNode, SetAttribute, AddRuleFromPaths, ...) while
///    readers are in flight is not synchronized by the engine; quiesce
///    readers (or serialize externally) and follow with
///    RebuildIndexes/RefreshPolicies. Compaction is safe concurrently
///    with readers because in-flight views read the graph only through
///    size-bounded attribute-column lookups, which folding staged nodes
///    and edges never disturbs.
///
/// Generation counters: snapshot_generation() increments whenever a new
/// CSR is published (RebuildIndexes and every completed
/// compaction), and overlay_version() on every staged mutation. A
/// compaction keeps the version as it was (the rebased overlay carries
/// it on) and bumps the generation, so (generation, version) pairs
/// uniquely name every published logical state. Both are frozen into
/// each published view and stamped into every AccessDecision, so
/// callers (and the reader/mutator stress tests) can tell exactly which
/// published state a decision saw. The engine-level accessors read writer-side state —
/// call them from the (quiesced — WaitForCompaction) writer, or read
/// the stamps off a view.
///
/// Policy binding happens at publication, keyed by stable RuleId: every
/// distinct rule path is bound and its hop automaton compiled once per
/// PolicySnapshot (see read_view.h), so the request path performs no
/// PathExpression::ToString(), Bind, or evaluator construction — only
/// array lookups. The CSR's in-side (csr.h) is built only for a policy
/// with a backward step, before the first view that pairs the two is
/// published: by the compaction thread off-lock for its own build, and
/// under the writer lock at a rebuild, a reopen, or the refresh that
/// brings in the first backward rule. Rules added to the
/// store after the last publish are invisible to served decisions until
/// the next *external* write-path call republishes (any mutation does,
/// or call RefreshPolicies() explicitly; a background-compaction
/// completion deliberately reuses the frozen policy snapshot rather than
/// racing the store).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "engine/policy.h"
#include "engine/read_view.h"
#include "engine/write_queue.h"
#include "graph/delta_overlay.h"
#include "storage/wal.h"

namespace sargus {

namespace storage {
struct SnapshotStamp;  // snapshot_format.h
}  // namespace storage

/// Durability configuration (storage/ subsystem; see the "Durability &
/// recovery" section of docs/ARCHITECTURE.md). An engine with
/// EnableDurability attached logs every mutation batch to an append-only
/// WAL and serializes its whole serving state (graph + overlay + CSR)
/// into an atomic snapshot bundle, so OpenFromDir restores a serving
/// engine without rebuilding the CSR.
struct DurabilityOptions {
  /// fdatasync once per group-commit batch (default): tickets complete
  /// after the batch sync, so an acknowledged mutation survives a
  /// crash. kNever trades the tail for append speed; reopen never
  /// corrupts either way (a torn tail — torn batch included — is
  /// detected and truncated).
  storage::WalSyncPolicy wal_sync = storage::WalSyncPolicy::kEveryRecord;
  /// Truncate the WAL once a bundle covering it is durably published.
  /// Tests turn this off to exercise the crash window between "bundle
  /// renamed into place" and "WAL truncated" — recovery must skip the
  /// covered records either way.
  bool truncate_wal_on_save = true;
};

class AccessControlEngine {
 public:
  /// `graph` and `store` must outlive the engine. The engine never
  /// mutates either; AddEdge/RemoveEdge/AddNode/Compact are unavailable
  /// (they return kFailedPrecondition) because compaction must write the
  /// graph.
  AccessControlEngine(const SocialGraph& graph, const PolicyStore& store,
                      EngineOptions options = {});

  /// Mutable-graph constructor: enables AddEdge/RemoveEdge/AddNode/
  /// Compact. The engine only writes `graph` when a compaction folds the
  /// staged overlay in — with one narrow exception: AddEdge with a label
  /// *name* not yet interned interns it after full validation
  /// (snapshot-safe: label ids only grow, so no index observes it).
  AccessControlEngine(SocialGraph& graph, const PolicyStore& store,
                      EngineOptions options = {});

  /// Drains any in-flight compaction (its result is still published),
  /// then stops the compaction thread.
  ~AccessControlEngine();

  AccessControlEngine(const AccessControlEngine&) = delete;
  AccessControlEngine& operator=(const AccessControlEngine&) = delete;

  // ---- Write path (thread-safe mutations; control plane externally
  // serialized — see file comment) ------------------------------------------

  /// (Re)builds the CSR snapshot and the compiled policies and
  /// publishes a fresh view. Over a frozen graph the snapshot is not
  /// built but adopted: the engine serves the graph's own CsrSnapshot. Call after construction (and after mutating
  /// the graph *outside* the engine). Waits out any in-flight
  /// compaction, then discards any staged overlay mutations — the
  /// overlay is defined relative to the snapshot being replaced; use
  /// Compact() to fold pending mutations in instead of dropping them.
  /// On failure the previously published view (if any) keeps serving.
  Status RebuildIndexes();

  /// Stages edge src -[label]-> dst as added and publishes a view that
  /// sees it (SubmitAddEdge().Wait()). O(overlay size) — flat in |V| —
  /// and never blocks on a rebuild, even when it trips the threshold.
  /// Idempotent when the logical edge already exists. Interns an unknown
  /// label name. kInvalidArgument for out-of-range
  /// endpoints, kFailedPrecondition before RebuildIndexes or on a
  /// const-graph engine. (Mutable-graph constructor only.)
  Status AddEdge(NodeId src, NodeId dst, const std::string& label);
  Status AddEdge(NodeId src, NodeId dst, LabelId label);

  /// Stages the logical edge src -[label]-> dst as removed (withdrawing
  /// a pending add, or masking a base edge) and publishes. kNotFound
  /// when the logical edge does not exist.
  Status RemoveEdge(NodeId src, NodeId dst, const std::string& label);
  Status RemoveEdge(NodeId src, NodeId dst, LabelId label);

  /// Stages a node addition and publishes a view on which the returned
  /// id is immediately usable — no RebuildIndexes. The id is stable: a
  /// later compaction folds the node into the SocialGraph under the
  /// same id. Note RebuildIndexes() discards staged mutations including
  /// staged nodes (use Compact() to persist them first).
  Result<NodeId> AddNode();

  /// Folds every staged mutation into the SocialGraph, clears the
  /// overlay, installs a fresh CSR, and publishes. No-op on an
  /// empty overlay. Returns as soon as the frozen inputs are captured —
  /// the build, fold and publish happen on the compaction thread
  /// (WaitForCompaction() for synchronous semantics); a second Compact()
  /// while one is in flight makes its completion chain a follow-up that
  /// folds everything staged meanwhile. Views acquired before and after
  /// see the same logical graph; only the cost profile changes (the
  /// overlay merge goes away). Old views stay valid: they answer against their frozen
  /// snapshot + overlay for as long as they are held.
  Status Compact();

  /// Blocks until no compaction is building or completing. After this
  /// returns (with no interleaved writer calls), the last requested
  /// compaction's effects — folded graph, fresh snapshot, rebased
  /// overlay — are published.
  void WaitForCompaction();

  /// True while the compaction thread owns an in-flight build.
  bool compaction_in_flight() const;

  /// Rebinds the policy snapshot if the PolicyStore changed since the
  /// last publish, and publishes a view that sees it. No-op when the
  /// store is unchanged. (Any mutation republishes too — this is for
  /// policy-only changes.)
  Status RefreshPolicies();

  // ---- Async mutation surface (thread-safe from any thread) ---------------
  //
  // SubmitX() enqueues the mutation on the engine's MutationQueue and
  // returns a future-backed WriteTicket immediately; the dedicated
  // writer thread group-commits queued mutations in batches (one WAL
  // fsync + one published view per batch — see engine/write_queue.h).
  // ticket.Wait() returns the Status the synchronous call above
  // reports (it is exactly SubmitX().Wait()), plus the (generation,
  // overlay_version) stamp the mutation landed in.

  WriteTicket SubmitAddEdge(NodeId src, NodeId dst, const std::string& label);
  WriteTicket SubmitAddEdge(NodeId src, NodeId dst, LabelId label);
  WriteTicket SubmitRemoveEdge(NodeId src, NodeId dst,
                               const std::string& label);
  WriteTicket SubmitRemoveEdge(NodeId src, NodeId dst, LabelId label);
  /// Outcome carries the assigned id in WriteOutcome::node.
  WriteTicket SubmitAddNode();
  WriteTicket SubmitRefreshPolicies();

  /// Blocks until every mutation submitted before the call has been
  /// committed (or refused). Call before control-plane operations that
  /// discard staged state (RebuildIndexes) and before reading
  /// writer-side introspection accessors from a non-writer thread.
  void FlushWrites() { write_queue_->Flush(); }

  /// The engine-owned MPSC queue (stats(), PauseForTesting()).
  MutationQueue& write_queue() { return *write_queue_; }

  // ---- Durability (write path; externally serialized like the rest) -------

  /// Attaches a durability directory: saves an initial bundle covering
  /// the current state, opens (or creates) the WAL, and from here on
  /// logs every mutation before it returns. Requires built indexes and
  /// the mutable-graph constructor. Idempotent in effect: calling it on
  /// a directory with stale files simply publishes a fresh bundle that
  /// covers everything.
  Status EnableDurability(const std::string& dir,
                          DurabilityOptions durability = {});

  /// Serializes the current serving state into the bundle (atomic
  /// replace) and truncates the WAL it covers (unless the truncate knob
  /// is off). A durable engine also saves at every compaction completion
  /// and RebuildIndexes: folds rewrite the graph and rebase the overlay,
  /// so the old bundle would stop covering the WAL's history.
  Status SaveSnapshot();

  /// Restores an engine from a durability directory: read + verify the
  /// bundle (pread in bounded chunks, never a whole-file mapping),
  /// adopt its graph into `*graph` and its CSR/overlay into the engine
  /// (no index computation). The bundle stores each edge once, in the
  /// CSR, and `*graph` comes back frozen over it (graph/social_graph.h),
  /// sharing that one snapshot with the engine: its edge ids are CSR
  /// positions, so slot ids from before the save survive a reopen only
  /// if the saved graph was frozen too. Then replay the WAL tail whose
  /// (generation, version) stamps the bundle does not cover, truncate
  /// any torn WAL tail, and reopen the WAL for appending. The first
  /// CheckAccess works immediately — no RebuildIndexes. Policies are
  /// not persisted: re-register them on `store` and call
  /// RefreshPolicies(). kDataLoss on corruption.
  static Result<std::unique_ptr<AccessControlEngine>> OpenFromDir(
      const std::string& dir, SocialGraph* graph, const PolicyStore& store,
      EngineOptions options = {}, DurabilityOptions durability = {});

  bool durable() const { return durable_; }
  /// Current WAL file size in bytes (tests/benchmarks).
  uint64_t wal_size_bytes() const {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    return wal_.is_open() ? wal_.size() : 0;
  }
  /// WAL records appended / fsyncs issued by appends since durability
  /// was enabled — the "one fsync per group-commit batch" tests read
  /// the pair. FlushWrites() first when producers are in flight.
  uint64_t wal_append_count() const {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    return wal_.is_open() ? wal_.append_count() : 0;
  }
  uint64_t wal_sync_count() const {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    return wal_.is_open() ? wal_.sync_count() : 0;
  }

  // ---- Read path (thread-safe, lock-free except the audit ring) -----------

  /// The currently published view, or null before the first successful
  /// RebuildIndexes. Lock-free in steady state: each thread caches the
  /// view it last acquired, keyed by an atomic publication sequence, so
  /// the publication mutex is touched only on the first acquire after a
  /// republication. Pin the result to answer many requests against one
  /// frozen state — and to skip the audit ring.
  std::shared_ptr<const AccessReadView> AcquireReadView() const;

  /// Decides `request` against the current view and records the decision
  /// in the audit ring. Thread-safe; concurrent with one writer.
  Result<AccessDecision> CheckAccess(const AccessRequest& request) const;

  /// Batch decision against one view acquisition and one scratch
  /// context; results are positional (out[i] answers requests[i]). See
  /// AccessReadView::CheckAccessBatch.
  std::vector<Result<AccessDecision>> CheckAccessBatch(
      std::span<const AccessRequest> requests) const;

  /// Most recent decisions, oldest first (bounded by audit_capacity).
  /// Thread-safe.
  std::vector<AccessDecision> AuditTrail() const;

  // ---- Introspection (writer-side state; see file comment) ----------------

  /// The pending-mutation set (empty once compacted). Writer-side: the
  /// master copy mutations stage into, not the frozen copy views carry.
  const DeltaOverlay& overlay() const { return overlay_; }

  /// Bumped on every published CSR (RebuildIndexes and every
  /// completed compaction). Safe to read from any thread.
  uint64_t snapshot_generation() const {
    return snapshot_generation_.load(std::memory_order_acquire);
  }
  /// Forwarded DeltaOverlay::version() of the writer-side overlay.
  uint64_t overlay_version() const { return overlay_.version(); }

  bool indexes_built() const { return built_; }
  const EngineOptions& options() const { return options_; }

  /// The threshold auto-compaction actually uses: the configured value,
  /// or max(1024, |E|/16) re-derived from each snapshot under the
  /// kCompactThresholdAuto default. 0 = auto-compaction off.
  size_t effective_compact_threshold() const {
    return effective_compact_threshold_;
  }

  /// Completed compactions (writer-side; for tests and benchmarks).
  uint64_t full_compactions() const { return full_compactions_; }
  /// Always 0: every compaction is a full build. Kept only because
  /// bench/e2e/churn_write.cc reads it; drop it with that reader.
  uint64_t incremental_compactions() const { return 0; }

  /// Outcome of the most recently *finished* background compaction.
  /// The build itself cannot fail; with durability attached, the bundle
  /// save that follows the fold can, and Compact() has returned long
  /// before, so a failed save (serving continues; durability degrades)
  /// is only visible here — check it after WaitForCompaction(). Thread-safe.
  Status last_compaction_status() const {
    std::lock_guard<std::mutex> lock(mutation_mu_);
    return last_compaction_status_;
  }

  /// Test hook: runs on the compaction thread with the new CSR once the
  /// off-lock part of the build (and of its in-side derivation) is done,
  /// before the completion takes the writer lock. Lets tests hold a
  /// compaction open deterministically while the writer stages
  /// straddling mutations. Set before triggering the compaction; not
  /// synchronized against an in-flight one.
  void SetCompactionBuildHookForTesting(
      std::function<void(const CsrSnapshot&)> hook) {
    comp_build_hook_ = std::move(hook);
  }

 private:
  friend class MutationQueue;  // calls ApplyWriteBatch from the writer thread

  /// Builds a view from the current snapshots + overlay and publishes it
  /// (release store; readers acquire).
  void PublishView();
  /// Rebuilds policy_ when the store's rule/resource counts moved;
  /// returns true when it did.
  bool RefreshPolicySnapshotIfStale();
  /// Pushes an already-made decision into the audit ring (thread-safe).
  void RecordAudit(const AccessDecision& decision) const;
  /// Ring push; caller holds audit_mu_ and checked audit_capacity > 0.
  void PushAuditLocked(const AccessDecision& decision) const;

  /// Shared AddEdge/RemoveEdge staging logic after label resolution.
  Status StageAddEdge(NodeId src, NodeId dst, LabelId label);
  Status StageRemoveEdge(NodeId src, NodeId dst, LabelId label);

  /// The group-commit body, called by the MutationQueue writer thread
  /// (and by WAL replay): applies `ops` in order under ONE mutation_mu_
  /// acquisition, collecting each op's WAL record as it stages, then
  /// appends the whole record batch with one Wal::AppendBatch (one
  /// fsync) and publishes ONE view. outcomes[i] receives op i's status
  /// and the per-op (generation, overlay_version) stamp — identical to
  /// the stamp op i's WAL record carries. Errors are isolated per op
  /// (a bad op fails only its own outcome) except a failed WAL commit,
  /// which overwrites every previously-OK outcome in the batch and
  /// rolls the writer state back to where the batch started.
  void ApplyWriteBatch(std::span<const WriteOp> ops, WriteOutcome* outcomes);
  /// Stages one op (no WAL, no publish); fills `out`'s stamp/node and
  /// appends the op's WAL record to `wal_batch` on success. Caller
  /// holds mutation_mu_.
  Status ApplyOneLocked(const WriteOp& op, WriteOutcome* out,
                        std::vector<storage::WalRecord>* wal_batch);
  /// Builds one stamped record from the current writer state. Caller
  /// holds mutation_mu_; pass kInvalidLabel for label-less kinds.
  storage::WalRecord MakeWalRecordLocked(storage::WalRecord::Kind kind,
                                         NodeId src, NodeId dst,
                                         LabelId label) const;
  /// Appends `recs` with one gathered write + at most one fsync
  /// (Wal::AppendBatch). No-op unless durable (and not mid-replay).
  /// Caller holds mutation_mu_.
  Status WalCommitBatchLocked(std::span<const storage::WalRecord> recs);

  /// Is (src, dst, label) a live edge of the base snapshot? A binary
  /// search in the CSR's (label, other)-sorted out-range; the graph's
  /// triple index is never consulted, so a freshly opened bundle never
  /// pays its rebuild on the WAL-replay path.
  bool EdgeInBaseLocked(NodeId src, NodeId dst, LabelId label) const;
  /// Post-staging tail: kick compaction at threshold, publish.
  void FinishMutation();
  /// Mutation-entry guard: mutable graph + built indexes.
  Status CheckMutable() const;
  /// Staged endpoints must lie inside the logical node range (snapshot
  /// + staged node additions).
  Status CheckEndpoints(NodeId src, NodeId dst) const;
  size_t LogicalNumNodesLocked() const;

  /// Applies `frozen` to the mutable graph: staged nodes first, then
  /// removals, then additions, so a triple removed and re-added is not
  /// coalesced onto its old slot.
  void FoldOverlayIntoGraph(const DeltaOverlay& frozen);
  /// Freezes the overlay into frozen_, sets building_, starts/wakes the
  /// compaction thread. Caller holds mutation_mu_.
  void StartBackgroundCompactionLocked();
  /// Completion: fold, swap CSRs, rebase the overlay, publish, save.
  /// Runs on the compaction thread under mutation_mu_. Freezes again
  /// right away when the leftovers must compact too (an explicit
  /// Compact() arrived mid-build, or they already exceed the
  /// threshold) — building_ stays set, so WaitForCompaction() drains
  /// the whole chain.
  void FinishCompactionLocked(std::shared_ptr<const CsrSnapshot> csr);
  /// Re-derives effective_compact_threshold_ from the current snapshot.
  void RecomputeEffectiveThreshold();
  /// SaveSnapshot body; caller holds mutation_mu_.
  Status SaveSnapshotLocked();
  /// Re-applies the uncovered suffix of `records` through
  /// ApplyWriteBatch in bounded batches (with WAL re-appends
  /// suppressed), so recovery pays one view publication per batch
  /// instead of one per record. OpenFromDir only.
  Status ReplayWal(std::span<const storage::WalRecord> records,
                   const storage::SnapshotStamp& covered);
  /// RebuildIndexes body; caller holds mutation_mu_.
  Status RebuildIndexesLocked();
  /// Dedicated compaction-thread main loop.
  void CompactionWorker();

  const SocialGraph* graph_;
  /// Non-null only for the mutable-graph constructor; written solely by
  /// compaction folds.
  SocialGraph* mutable_graph_ = nullptr;
  const PolicyStore* store_;
  EngineOptions options_;

  bool built_ = false;
  std::atomic<uint64_t> snapshot_generation_{0};
  size_t effective_compact_threshold_ = 0;
  uint64_t full_compactions_ = 0;

  /// Writer-side pending mutations relative to the current snapshot.
  /// Each publish freezes a copy into the view; readers never touch
  /// this object.
  DeltaOverlay overlay_;

  /// Immutable snapshots shared by published views (see read_view.h).
  std::shared_ptr<const CsrSnapshot> csr_;
  std::shared_ptr<const PolicySnapshot> policy_;

  /// Serializes writer-side state between the external writer and the
  /// compaction thread. External write-path calls hold it for their
  /// whole (cheap) body; the compaction thread holds it to wait for work
  /// and for the completion swap — never during the build itself.
  mutable std::mutex mutation_mu_;

  /// Compaction-thread machinery, all guarded by mutation_mu_ and
  /// signalled on comp_cv_; the worker is started lazily on the first
  /// background compaction. building_ is set from the freeze until the
  /// last completion of a chain; frozen_ (the overlay the build folds)
  /// is written only while building_ is clear or by the worker, so the
  /// worker reads it off the lock during the build.
  DeltaOverlay frozen_;
  bool building_ = false;
  /// Explicit Compact() arrived while a build was in flight: fold the
  /// leftovers in a chained compaction at completion.
  bool compact_requested_ = false;
  bool comp_shutdown_ = false;
  std::condition_variable comp_cv_;
  std::thread comp_thread_;
  std::function<void(const CsrSnapshot&)> comp_build_hook_;
  Status last_compaction_status_ = OkStatus();  // guarded by mutation_mu_

  /// View publication. std::atomic<std::shared_ptr> would be the
  /// textbook spelling, but libstdc++'s implementation guards the raw
  /// pointer with an embedded spinlock TSan cannot see through, so the
  /// stress suite would drown in false positives. Instead: the slot is
  /// a plain shared_ptr behind a mutex, and `publish_seq_` (bumped
  /// after every store, release order) lets AcquireReadView serve a
  /// per-thread cached copy without touching the mutex until the next
  /// republication. Distinct engines at a recycled address are told
  /// apart by `engine_id_`.
  const uint64_t engine_id_;
  std::atomic<uint64_t> publish_seq_{0};
  mutable std::mutex view_mu_;
  std::shared_ptr<const AccessReadView> view_;  // guarded by view_mu_

  /// Durability state. Written under mutation_mu_ (setup happens before
  /// the engine is shared); WAL appends run inside ApplyWriteBatch,
  /// which already holds mutation_mu_.
  bool durable_ = false;
  bool wal_replaying_ = false;
  std::string durability_dir_;
  DurabilityOptions durability_;
  storage::WalWriter wal_;

  /// The MPSC write front end (engine/write_queue.h). Constructed with
  /// the engine (its writer thread starts lazily on the first Submit);
  /// the destructor shuts it down *before* the compaction thread, since
  /// applying a batch can kick a compaction.
  std::unique_ptr<MutationQueue> write_queue_;

  /// Audit ring, shared by all reader threads.
  mutable std::mutex audit_mu_;
  mutable std::vector<AccessDecision> audit_;
  mutable size_t audit_next_ = 0;
  mutable bool audit_wrapped_ = false;
};

}  // namespace sargus

#endif  // SARGUS_ENGINE_ACCESS_ENGINE_H_
