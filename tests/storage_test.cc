#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "engine/access_engine.h"
#include "shard/wire.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"
#include "storage/wal.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using storage::WalRecord;
using testing_util::MakeDiamond;

// ---- Scoped temp directory --------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sargus_storage_test_XXXXXX";
    path_ = mkdtemp(tmpl);
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    // Best-effort recursive cleanup (flat directories only).
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)system(cmd.c_str());
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- Checksum golden values -------------------------------------------------

// Pinned against an independent FNV-1a-64 implementation. Both the wire
// protocol and the storage formats hash through common/checksum.h; these
// constants keep anyone from "fixing" the shared function in a way that
// silently invalidates every bundle and WAL on disk.
TEST(Checksum, GoldenValues) {
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("hello", 5), 0xa430d84680aabd0bULL);
  EXPECT_EQ(Fnv1a64("sargus", 6), 0x6099bfb64f529ef2ULL);
  std::vector<uint8_t> all(256);
  for (size_t i = 0; i < 256; ++i) all[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Fnv1a64(all.data(), all.size()), 0x4242dc5249c33625ULL);
}

// The eight-lane striped variant bundle sections use is pinned the same
// way: these values freeze the lane interleave (byte i -> lane i % 8)
// and the little-endian digest-of-digests combine. A short input also
// pins the tail path, where fewer than eight lanes consume a byte.
TEST(Checksum, StripedGoldenValues) {
  EXPECT_EQ(StripedFnv1a64(nullptr, 0), 0xaf3449a2699d5925ULL);
  EXPECT_EQ(StripedFnv1a64("a", 1), 0xccbe2a2b8f6076f1ULL);
  EXPECT_EQ(StripedFnv1a64("sargus", 6), 0x31360b7e66d49632ULL);
  std::vector<uint8_t> all(256);
  for (size_t i = 0; i < 256; ++i) all[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(StripedFnv1a64(all.data(), all.size()), 0x86c25f65d9721d98ULL);
}

// The wire framing layer must keep using the same hash: its trailing
// checksum over the frame body equals common/checksum.h's answer.
TEST(Checksum, WireFramesUseTheSharedFnv) {
  wire::CheckRequest req;
  req.requester = 7;
  req.resource = 3;
  req.want_witness = 1;
  const std::vector<uint8_t> frame = wire::Encode(req);
  ASSERT_GT(frame.size(), 8u);
  const std::span<const uint8_t> body(frame.data(), frame.size() - 8);
  uint64_t trailer = 0;
  std::memcpy(&trailer, frame.data() + frame.size() - 8, 8);
  EXPECT_EQ(trailer, Fnv1a64(body));
}

// ---- WAL --------------------------------------------------------------------

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> recs;
  recs.push_back({WalRecord::Kind::kAddEdge, 1, 5, 10, 20, "friend"});
  recs.push_back({WalRecord::Kind::kRemoveEdge, 1, 6, 10, 20, "friend"});
  recs.push_back({WalRecord::Kind::kAddNode, 1, 7, 0, 0, ""});
  recs.push_back({WalRecord::Kind::kPolicyRefresh, 2, 0, 0, 0, ""});
  recs.push_back({WalRecord::Kind::kAddEdge, 2, 1, 3, 4, ""});  // empty label
  return recs;
}

/// One-record group commit (the writer has no single-record append).
Status AppendOne(storage::WalWriter& w, const WalRecord& rec) {
  return w.AppendBatch(std::span<const WalRecord>(&rec, 1));
}

void ExpectRecordsEq(const std::vector<WalRecord>& got,
                     const std::vector<WalRecord>& want, size_t want_count) {
  ASSERT_EQ(got.size(), want_count);
  for (size_t i = 0; i < want_count; ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].generation, want[i].generation) << i;
    EXPECT_EQ(got[i].overlay_version, want[i].overlay_version) << i;
    EXPECT_EQ(got[i].src, want[i].src) << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << i;
    EXPECT_EQ(got[i].label, want[i].label) << i;
  }
}

TEST(Wal, RoundTrip) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (const auto& r : recs) ASSERT_TRUE(AppendOne(*w, r).ok());
  }
  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->tail_status.ok());
  ExpectRecordsEq(contents->records, recs, recs.size());
}

TEST(Wal, MissingFileIsNotFound) {
  TempDir dir;
  auto contents = storage::ReadWal(dir.File("absent.log"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST(Wal, TornTailIsTruncatedOnReopen) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok());
    for (const auto& r : recs) ASSERT_TRUE(AppendOne(*w, r).ok());
  }
  // Tear the last record: drop its final byte (the checksum's tail).
  auto bytes = ReadAll(path);
  bytes.pop_back();
  WriteAll(path, bytes);

  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->tail_status.code(), StatusCode::kDataLoss);
  ExpectRecordsEq(contents->records, recs, recs.size() - 1);

  // A recovering writer resumes at valid_bytes; the torn bytes are gone
  // and a fresh append lands cleanly after the surviving prefix.
  auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever,
                                    static_cast<int64_t>(contents->valid_bytes));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(AppendOne(*w, recs[0]).ok());
  auto again = storage::ReadWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->tail_status.ok());
  ASSERT_EQ(again->records.size(), recs.size());
  EXPECT_EQ(again->records.back().label, recs[0].label);
}

TEST(Wal, HeaderDamageIsInvalidArgument) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(AppendOne(*w, SampleRecords()[0]).ok());
  }
  auto bytes = ReadAll(path);
  bytes[3] ^= 0x40;  // magic
  WriteAll(path, bytes);
  auto contents = storage::ReadWal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wal, TruncateResetsToHeader) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
  ASSERT_TRUE(w.ok());
  for (const auto& r : SampleRecords()) ASSERT_TRUE(AppendOne(*w, r).ok());
  ASSERT_TRUE(w->Truncate().ok());
  EXPECT_EQ(w->size(), storage::kWalFileHeaderBytes);
  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->tail_status.ok());
  EXPECT_TRUE(contents->records.empty());
}

// A batch round-trips byte-identically to the same records committed
// one at a time, and the fsync accounting matches the policy table:
// kEveryRecord syncs once per batch (nothing in a batch is acknowledged
// before AppendBatch returns); kNever never syncs.
TEST(Wal, AppendBatchRoundTripAndSyncCounters) {
  TempDir dir;
  const auto recs = SampleRecords();

  {
    const std::string path = dir.File("every.log");
    auto w = storage::WalWriter::Open(path,
                                      storage::WalSyncPolicy::kEveryRecord);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->AppendBatch(recs).ok());
    EXPECT_EQ(w->append_count(), recs.size());
    EXPECT_EQ(w->sync_count(), 1u);
    ASSERT_TRUE(w->AppendBatch({}).ok());  // empty batch: no write, no sync
    EXPECT_EQ(w->append_count(), recs.size());
    EXPECT_EQ(w->sync_count(), 1u);
    ASSERT_TRUE(AppendOne(*w, recs[0]).ok());  // a batch of one: one sync
    EXPECT_EQ(w->append_count(), recs.size() + 1);
    EXPECT_EQ(w->sync_count(), 2u);

    auto contents = storage::ReadWal(path);
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents->tail_status.ok());
    ASSERT_EQ(contents->records.size(), recs.size() + 1);
    ExpectRecordsEq(std::vector<WalRecord>(
                        contents->records.begin(),
                        contents->records.begin() +
                            static_cast<std::ptrdiff_t>(recs.size())),
                    recs, recs.size());
  }
  {
    const std::string path = dir.File("never.log");
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(AppendOne(*w, recs[0]).ok());
    ASSERT_TRUE(w->AppendBatch(recs).ok());
    EXPECT_EQ(w->append_count(), recs.size() + 1);
    EXPECT_EQ(w->sync_count(), 0u);
  }

  // A batch's bytes are identical to the same records committed one at
  // a time — record boundaries inside the batch are preserved.
  EXPECT_EQ(ReadAll(dir.File("never.log")), [&] {
    const std::string path = dir.File("singles.log");
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    EXPECT_TRUE(w.ok());
    EXPECT_TRUE(AppendOne(*w, recs[0]).ok());
    for (const auto& r : recs) EXPECT_TRUE(AppendOne(*w, r).ok());
    return ReadAll(path);
  }());
}

// A torn tail *inside* an AppendBatch truncates to the last whole
// record of the batch — a surviving batch prefix is safe because
// nothing was acknowledged before the full batch synced.
TEST(Wal, TornBatchTailTruncatesToLastWholeRecord) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->AppendBatch(recs).ok());
  }
  // Chop the file mid-way into the batch's fourth record: the third
  // record's end is the last whole-record boundary.
  size_t third_end = storage::kWalFileHeaderBytes;
  for (int i = 0; i < 3; ++i) {
    third_end += storage::EncodeWalRecord(recs[i]).size();
  }
  auto bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), third_end + 4);
  bytes.resize(third_end + 4);  // a dangling length prefix, no payload
  WriteAll(path, bytes);

  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->tail_status.ok());
  EXPECT_EQ(contents->valid_bytes, third_end);
  ExpectRecordsEq(contents->records, recs, 3);

  // A recovering writer resumes at the boundary and a fresh batch lands
  // cleanly after the surviving prefix.
  auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kEveryRecord,
                                    static_cast<int64_t>(contents->valid_bytes));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w->AppendBatch(recs).ok());
  auto again = storage::ReadWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->tail_status.ok());
  EXPECT_EQ(again->records.size(), 3 + recs.size());
}

// ---- Bundle round trip ------------------------------------------------------

// Decision-level equality over every (requester, resource) pair: the
// recovered engine must answer byte-identically (grant bit, owner bit,
// matched rule) to the live one.
void ExpectDecisionEquivalence(const AccessControlEngine& live,
                               const AccessControlEngine& recovered,
                               size_t num_nodes, size_t num_resources) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (ResourceId res = 0; res < num_resources; ++res) {
      auto a = live.CheckAccess({.requester = v, .resource = res});
      auto b = recovered.CheckAccess({.requester = v, .resource = res});
      ASSERT_EQ(a.ok(), b.ok()) << "v=" << v << " res=" << res;
      if (!a.ok()) continue;
      EXPECT_EQ(a->granted, b->granted) << "v=" << v << " res=" << res;
      EXPECT_EQ(a->owner_access, b->owner_access)
          << "v=" << v << " res=" << res;
      EXPECT_EQ(a->matched_rule, b->matched_rule)
          << "v=" << v << " res=" << res;
    }
  }
}

TEST(Bundle, RoundTripDiamondNoRebuild) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
  const ResourceId note = store.RegisterResource(2, "note");
  ASSERT_TRUE(store.AddRuleFromPaths(note, {"friend[1,3]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The whole point: the first CheckAccess works with no RebuildIndexes.
  EXPECT_TRUE((*reopened)->indexes_built());
  EXPECT_TRUE((*reopened)->durable());
  EXPECT_EQ((*reopened)->snapshot_generation(), engine.snapshot_generation());
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                            store.NumResources());
}

TEST(Bundle, RoundTripPreservesWalTail) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  // Mutations after the save live only in the WAL: a brand-new node
  // wired into the audience, an interned-later label, and a removal.
  auto n = engine.AddNode();
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(engine.AddEdge(2, *n, "colleague").ok());
  ASSERT_TRUE(engine.AddEdge(*n, 3, "mentor").ok());  // new label
  ASSERT_TRUE(engine.RemoveEdge(4, 3, "colleague").ok());
  EXPECT_GT(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes() + 1,
                            store.NumResources());

  // The recovered engine keeps logging: one more mutation, one more
  // reopen, still equivalent.
  ASSERT_TRUE((*reopened)->AddEdge(0, *n, "friend").ok());
  ASSERT_TRUE(engine.AddEdge(0, *n, "friend").ok());
  SocialGraph g3;
  auto again = AccessControlEngine::OpenFromDir(dir.path(), &g3, store);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectDecisionEquivalence(engine, **again, g.NumNodes() + 1,
                            store.NumResources());
}

TEST(Bundle, ExplicitSaveTruncatesWal) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
  ASSERT_TRUE(engine.AddEdge(0, 3, "friend").ok());
  EXPECT_GT(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  EXPECT_EQ(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok());
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                            store.NumResources());
}

TEST(Bundle, MissingBundleIsNotFound) {
  TempDir dir;
  SocialGraph g;
  PolicyStore store;
  auto r = AccessControlEngine::OpenFromDir(dir.path(), &g, store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Bundle, OpenValidatesOptionsAgainstFlags) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  // Save under the default configuration: no closure.
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  SocialGraph g2;
  EngineOptions closure;
  closure.use_closure_prefilter = true;
  auto need_closure =
      AccessControlEngine::OpenFromDir(dir.path(), &g2, store, closure);
  ASSERT_FALSE(need_closure.ok());
  EXPECT_EQ(need_closure.status().code(), StatusCode::kFailedPrecondition);

  // The configuration that saved it opens fine.
  auto ok = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ExpectDecisionEquivalence(engine, **ok, g.NumNodes(), store.NumResources());
}

// Version 2 dropped the base-table section, version 3 the oracle's
// interval labels, version 4 the oracle section, version 5 the line-graph
// and cluster sections. A bundle whose resealed header says version 1 to
// 4, or whose section table names a retired kind 3 to 6 (here: a
// well-formed extra entry aliasing the graph section's checksummed
// bytes), is refused outright — never half-adopted.
TEST(Bundle, RefusesVersionOneAndRetiredTablesSection) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
  const std::string bundle_path = dir.File(storage::kSnapshotFileName);
  const std::vector<uint8_t> pristine = ReadAll(bundle_path);
  auto info = storage::ReadBundleInfo(bundle_path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 5u);
  for (const auto& section : info->sections) {
    const uint32_t kind = static_cast<uint32_t>(section.kind);
    EXPECT_TRUE(kind < 3 || kind > 6) << kind;
  }
  EXPECT_EQ(info->flags & 0b11, 0u);  // the retired join-stack flags
  const size_t num_sections = info->sections.size();
  ASSERT_LT(num_sections, storage::kBundleMaxSections);

  auto poke_u32 = [](std::vector<uint8_t>& bytes, size_t at, uint32_t v) {
    std::memcpy(bytes.data() + at, &v, sizeof v);
  };
  auto reseal = [](std::vector<uint8_t>& bytes) {
    const uint64_t sum = Fnv1a64(bytes.data(), storage::kBundlePageSize - 8);
    std::memcpy(bytes.data() + storage::kBundlePageSize - 8, &sum, sizeof sum);
  };
  std::vector<uint8_t> version1 = pristine;
  poke_u32(version1, 8, 1);
  reseal(version1);
  // Version 2 still carried interval labels in the oracle section.
  std::vector<uint8_t> version2 = pristine;
  poke_u32(version2, 8, 2);
  reseal(version2);
  // Version 3 still carried the oracle section.
  std::vector<uint8_t> version3 = pristine;
  poke_u32(version3, 8, 3);
  reseal(version3);
  // Version 4 still carried the line-graph and cluster sections.
  std::vector<uint8_t> version4 = pristine;
  poke_u32(version4, 8, 4);
  reseal(version4);

  auto with_retired_kind = [&](uint32_t kind) {
    std::vector<uint8_t> bytes = pristine;
    const size_t entry = storage::kBundleSectionTableOffset +
                         num_sections * storage::kBundleSectionEntryBytes;
    std::memcpy(bytes.data() + entry,
                bytes.data() + storage::kBundleSectionTableOffset,
                storage::kBundleSectionEntryBytes);
    poke_u32(bytes, entry, kind);
    poke_u32(bytes, 56, static_cast<uint32_t>(num_sections + 1));
    reseal(bytes);
    return bytes;
  };
  const std::vector<uint8_t> line_graph_kind = with_retired_kind(3);
  const std::vector<uint8_t> oracle_kind = with_retired_kind(4);
  const std::vector<uint8_t> cluster_kind = with_retired_kind(5);
  const std::vector<uint8_t> tables_kind = with_retired_kind(6);

  const std::pair<const char*, const std::vector<uint8_t>*> cases[] = {
      {"version 1", &version1},
      {"version 2", &version2},
      {"version 3", &version3},
      {"version 4", &version4},
      {"section kind 3", &line_graph_kind},
      {"section kind 4", &oracle_kind},
      {"section kind 5", &cluster_kind},
      {"section kind 6", &tables_kind}};
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    WriteAll(bundle_path, *bytes);
    auto loaded = storage::LoadBundle(bundle_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    SocialGraph g2;
    auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  }
}

// Randomized equivalence across all three graph families: generate,
// attach policies, mutate (adds, removes, node growth), save at an
// arbitrary point, keep mutating so a WAL tail exists, reopen, compare
// every decision.
TEST(Bundle, RandomizedRoundTripEquivalence) {
  struct Case {
    const char* name;
    SocialGraph graph;
  };
  std::vector<Case> cases;
  {
    auto er = GenerateErdosRenyi(
        {.base = {.num_nodes = 120, .seed = 11}, .avg_out_degree = 3.0});
    ASSERT_TRUE(er.ok());
    cases.push_back({"er", std::move(*er)});
    auto ba = GenerateBarabasiAlbert(
        {.base = {.num_nodes = 100, .seed = 12}, .edges_per_node = 3});
    ASSERT_TRUE(ba.ok());
    cases.push_back({"ba", std::move(*ba)});
    auto ws = GenerateWattsStrogatz({.base = {.num_nodes = 100, .seed = 13},
                                     .neighbors_per_side = 2,
                                     .rewire_probability = 0.2});
    ASSERT_TRUE(ws.ok());
    cases.push_back({"ws", std::move(*ws)});
  }

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    PolicyStore store;
    const size_t n = c.graph.NumNodes();
    for (int i = 0; i < 4; ++i) {
      const ResourceId res =
          store.RegisterResource(static_cast<NodeId>(i * 7 % n), "res");
      ASSERT_TRUE(store
                      .AddRuleFromPaths(
                          res, {i % 2 == 0 ? "friend[1,2]"
                                           : "friend[1]/colleague[1,2]"})
                      .ok());
    }

    AccessControlEngine engine(c.graph, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

    Rng rng(1000 + c.graph.NumEdges());
    const char* labels[] = {"friend", "colleague", "family"};
    auto mutate_once = [&](size_t logical_nodes) {
      const uint64_t pick = rng.NextBounded(10);
      const NodeId src = static_cast<NodeId>(rng.NextBounded(logical_nodes));
      const NodeId dst = static_cast<NodeId>(rng.NextBounded(logical_nodes));
      if (pick < 6) {
        ASSERT_TRUE(engine.AddEdge(src, dst, labels[rng.NextBounded(3)]).ok());
      } else if (pick < 8) {
        // Removal may legitimately miss; both engines see the same miss.
        (void)engine.RemoveEdge(src, dst, labels[rng.NextBounded(3)]);
      } else {
        auto added = engine.AddNode();
        ASSERT_TRUE(added.ok());
      }
    };

    size_t logical = n;
    for (int i = 0; i < 40; ++i) {
      mutate_once(logical);
      logical = engine.overlay().num_staged_nodes() + n;
    }
    ASSERT_TRUE(engine.SaveSnapshot().ok());  // bundle mid-sequence
    for (int i = 0; i < 40; ++i) {
      mutate_once(logical);
      logical = engine.overlay().num_staged_nodes() + n;
    }
    engine.WaitForCompaction();  // quiesce before comparing writer state

    SocialGraph recovered_graph;
    auto reopened =
        AccessControlEngine::OpenFromDir(dir.path(), &recovered_graph, store);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectDecisionEquivalence(engine, **reopened, logical,
                              store.NumResources());
  }
}

// ---- Recovery ordering ------------------------------------------------------

// The crash window: a bundle is durably published but the process dies
// before the WAL truncation lands. Reopen must skip every covered record
// — double-applying the RemoveEdge below would fail (the logical edge is
// already gone) and double-applying the AddEdge would resurrect it.
TEST(Recovery, SkipsRecordsCoveredByTheBundle) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  DurabilityOptions no_truncate;
  no_truncate.truncate_wal_on_save = false;  // simulate dying pre-truncate
  ASSERT_TRUE(engine.EnableDurability(dir.path(), no_truncate).ok());

  ASSERT_TRUE(engine.AddEdge(0, 3, "friend").ok());
  ASSERT_TRUE(engine.RemoveEdge(0, 3, "friend").ok());
  ASSERT_TRUE(engine.RemoveEdge(4, 3, "colleague").ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  // Crash window "closed over": records above are covered but still on
  // disk. Stamp a couple of uncovered ones after.
  ASSERT_TRUE(engine.AddEdge(4, 3, "colleague").ok());
  ASSERT_TRUE(engine.AddEdge(1, 3, "colleague").ok());
  EXPECT_GT(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                            store.NumResources());

  // Sanity on the oracle itself: the WAL really does hold both covered
  // and uncovered records.
  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records.size(), 5u);
}

// A failed group commit leaves no trace. A file-size limit a few bytes
// above the WAL's size makes the first batch's write tear; the WAL must
// cut the torn bytes off and the engine must roll the failed op's
// staging back. Once the limit is lifted, a second batch is
// acknowledged — and both the live engine and a reopen see the second
// edge and not the first. Runs in a child: the limit is process-wide.
TEST(Recovery, FailedGroupCommitLeavesNoTrace) {
  TempDir dir;
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes: 0 pass; 10 setup; 11 the capped commit succeeded;
    // 12 the uncapped commit failed; 13 live engine wrong; 14 reopen
    // failed; 15 reopened engine wrong.
    SocialGraph g = MakeDiamond();
    PolicyStore store;
    const ResourceId photo = store.RegisterResource(0, "photo");
    const ResourceId note = store.RegisterResource(3, "note");
    if (!store.AddRuleFromPaths(photo, {"friend[1]"}).ok() ||
        !store.AddRuleFromPaths(note, {"friend[1]"}).ok()) {
      _exit(10);
    }
    // 0 -friend-> 3 (the failed op) would admit 3 to the photo;
    // 3 -friend-> 5 (the acknowledged one) admits 5 to the note.
    auto sees_only_second = [&](const AccessControlEngine& e) {
      auto first = e.CheckAccess({.requester = 3, .resource = photo});
      auto second = e.CheckAccess({.requester = 5, .resource = note});
      return first.ok() && !first->granted && second.ok() && second->granted;
    };
    AccessControlEngine engine(g, store);
    if (!engine.RebuildIndexes().ok() ||
        !engine.EnableDurability(dir.path()).ok()) {
      _exit(10);
    }
    signal(SIGXFSZ, SIG_IGN);  // an over-limit write fails with EFBIG
    rlimit unlimited;
    if (getrlimit(RLIMIT_FSIZE, &unlimited) != 0) _exit(10);
    rlimit capped = unlimited;
    capped.rlim_cur = engine.wal_size_bytes() + 8;
    if (setrlimit(RLIMIT_FSIZE, &capped) != 0) _exit(10);
    if (engine.SubmitAddEdge(0, 3, "friend").Wait().status.ok()) _exit(11);
    if (setrlimit(RLIMIT_FSIZE, &unlimited) != 0) _exit(10);
    if (!engine.SubmitAddEdge(3, 5, "friend").Wait().status.ok()) _exit(12);
    if (!sees_only_second(engine)) _exit(13);
    SocialGraph g2;
    auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
    if (!reopened.ok()) _exit(14);
    _exit(sees_only_second(**reopened) ? 0 : 15);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "see the exit-code legend above";
}

// SIGKILL the WAL-appending process mid-stream, reopen, and verify the
// recovered engine agrees with a mirror engine driven by what an
// independent WAL read says survived. Every record the child saw
// acknowledged (kEveryRecord sync) must be present.
TEST(Recovery, KillAndReopenReplaysAckedRecords) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,3]"}).ok());

  storage::SnapshotStamp saved_stamp;
  {
    AccessControlEngine engine(g, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
    saved_stamp = {engine.snapshot_generation(), engine.overlay_version()};
  }

  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: commit fsynced one-record batches forever, ack each on the
    // pipe. The
    // parent SIGKILLs us mid-stream; no cleanup must be needed for the
    // log to stay recoverable.
    close(pipefd[0]);
    auto w = storage::WalWriter::Open(dir.File(storage::kWalFileName),
                                      storage::WalSyncPolicy::kEveryRecord);
    if (!w.ok()) _exit(1);
    for (uint32_t i = 0;; ++i) {
      WalRecord rec;
      rec.kind = WalRecord::Kind::kAddEdge;
      rec.generation = saved_stamp.generation;
      rec.overlay_version = saved_stamp.overlay_version + 1 + i;
      rec.src = i % 6;
      rec.dst = (i + 2) % 6;
      rec.label = "friend";
      if (!AppendOne(*w, rec).ok()) _exit(2);
      const char ack = 1;
      if (write(pipefd[1], &ack, 1) != 1) _exit(3);
    }
  }
  close(pipefd[1]);
  // Let a handful of acknowledged appends land, then kill mid-stream.
  char acks[8];
  size_t got = 0;
  while (got < sizeof(acks)) {
    const ssize_t n = read(pipefd[0], acks + got, sizeof(acks) - got);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  close(pipefd[0]);

  // Independent oracle: read the surviving log directly and drive a
  // plain in-memory engine with it.
  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_GE(wal->records.size(), got) << "an acked (fsynced) record is gone";

  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  for (const auto& rec : wal->records) {
    ASSERT_TRUE(mirror.AddEdge(rec.src, rec.dst, rec.label).ok());
  }

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(mirror, **reopened, mirror_graph.NumNodes(),
                            store.NumResources());
}

// The group-commit variant of the harness above: the child appends
// whole batches under the default sync policy (one fsync per
// AppendBatch) and acks per *batch*. SIGKILL can land mid-batch-write, leaving a
// torn batch tail; reopen must keep every acked batch intact and
// truncate the tail to the last whole record. A surviving prefix of the
// unacked batch is fine — nothing in it was acknowledged.
TEST(Recovery, KillAndReopenKeepsAckedGroupCommitBatches) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,3]"}).ok());

  storage::SnapshotStamp saved_stamp;
  {
    AccessControlEngine engine(g, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
    saved_stamp = {engine.snapshot_generation(), engine.overlay_version()};
  }

  constexpr uint32_t kBatchSize = 4;
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(pipefd[0]);
    auto w = storage::WalWriter::Open(dir.File(storage::kWalFileName),
                                      DurabilityOptions{}.wal_sync);
    if (!w.ok()) _exit(1);
    for (uint32_t b = 0;; ++b) {
      std::vector<WalRecord> batch;
      for (uint32_t j = 0; j < kBatchSize; ++j) {
        const uint32_t i = b * kBatchSize + j;
        WalRecord rec;
        rec.kind = WalRecord::Kind::kAddEdge;
        rec.generation = saved_stamp.generation;
        rec.overlay_version = saved_stamp.overlay_version + 1 + i;
        rec.src = i % 6;
        rec.dst = (i + 2) % 6;
        rec.label = "friend";
        batch.push_back(rec);
      }
      if (!w->AppendBatch(batch).ok()) _exit(2);
      const char ack = 1;  // the whole batch is fsynced: ack it
      if (write(pipefd[1], &ack, 1) != 1) _exit(3);
    }
  }
  close(pipefd[1]);
  char acks[6];
  size_t acked_batches = 0;
  while (acked_batches < sizeof(acks)) {
    const ssize_t n =
        read(pipefd[0], acks + acked_batches, sizeof(acks) - acked_batches);
    ASSERT_GT(n, 0);
    acked_batches += static_cast<size_t>(n);
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  close(pipefd[0]);

  // Every record of every acked batch survives; whatever follows is a
  // clean prefix of the next batch (possibly with a detected torn tail,
  // which a reopen truncates at valid_bytes — never mid-record).
  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_GE(wal->records.size(), acked_batches * kBatchSize)
      << "a record from an acked (group-committed) batch is gone";
  for (size_t i = 0; i < wal->records.size(); ++i) {
    EXPECT_EQ(wal->records[i].overlay_version,
              saved_stamp.overlay_version + 1 + i)
        << "surviving records are not a clean prefix";
  }

  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  for (const auto& rec : wal->records) {
    ASSERT_TRUE(mirror.AddEdge(rec.src, rec.dst, rec.label).ok());
  }

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(mirror, **reopened, mirror_graph.NumNodes(),
                            store.NumResources());
}

// ---- Corruption matrix ------------------------------------------------------

// Every single-bit flip over the bundle must surface as an explicit
// Status or leave the load byte-for-byte equivalent (flips in
// inter-section zero padding are outside every checksum and harmless) —
// never a crash, never silently different state.
TEST(Corruption, BundleBitFlipMatrix) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  const std::string bundle_path = dir.File(storage::kSnapshotFileName);
  const std::vector<uint8_t> pristine = ReadAll(bundle_path);
  ASSERT_FALSE(pristine.empty());

  // Canonical re-serialization of the pristine load: the equivalence
  // oracle for flips that slip through (padding only).
  const std::string canon_path = dir.File("canon");
  {
    auto loaded = storage::LoadBundle(bundle_path);
    ASSERT_TRUE(loaded.ok());
    storage::BundlePayload payload;
    payload.graph = &loaded->graph;
    payload.indexes = loaded->indexes.get();
    payload.overlay = &loaded->overlay;
    payload.stamp = loaded->stamp;
    payload.compact_threshold = loaded->compact_threshold;
    ASSERT_TRUE(storage::WriteBundle(canon_path, payload).ok());
  }
  const std::vector<uint8_t> canon = ReadAll(canon_path);
  ASSERT_EQ(canon, pristine) << "serialization is not deterministic";

  // Every byte of the header page and of every section's byte range is
  // under a checksum; only inter-section zero padding is not.
  auto info = storage::ReadBundleInfo(bundle_path);
  ASSERT_TRUE(info.ok());
  auto covered = [&](size_t at) {
    if (at < storage::kBundlePageSize) return true;  // header + its checksum
    for (const auto& s : info->sections) {
      if (at >= s.offset && at < s.offset + s.size) return true;
    }
    return false;
  };

  const std::string corrupt_path = dir.File("corrupt");
  Rng rng(0xC0FFEE);
  int detected = 0, harmless = 0;
  constexpr int kFlips = 6000;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<uint8_t> bytes = pristine;
    const size_t at = rng.NextBounded(bytes.size());
    bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    WriteAll(corrupt_path, bytes);
    auto loaded = storage::LoadBundle(corrupt_path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << "flip at byte " << at << ": " << loaded.status().ToString();
      ++detected;
      continue;
    }
    // The flip went undetected: it must have landed in padding, and the
    // loaded state must be byte-identical to the pristine one.
    EXPECT_FALSE(covered(at))
        << "flip at checksummed byte " << at << " loaded anyway";
    storage::BundlePayload payload;
    payload.graph = &loaded->graph;
    payload.indexes = loaded->indexes.get();
    payload.overlay = &loaded->overlay;
    payload.stamp = loaded->stamp;
    payload.compact_threshold = loaded->compact_threshold;
    ASSERT_TRUE(storage::WriteBundle(corrupt_path, payload).ok());
    EXPECT_EQ(ReadAll(corrupt_path), canon)
        << "undetected flip at byte " << at << " changed the loaded state";
    ++harmless;
  }
  EXPECT_GT(detected, 0);
  EXPECT_EQ(detected + harmless, kFlips);
}

// WAL flips: every byte of the log is covered (header validation or a
// record checksum), so any flip must either fail the header check or
// shorten the clean prefix — the surviving records must be an exact
// prefix of the originals.
TEST(Corruption, WalBitFlipMatrix) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  std::vector<WalRecord> recs;
  {
    auto w = storage::WalWriter::Open(path, storage::WalSyncPolicy::kNever);
    ASSERT_TRUE(w.ok());
    Rng seed_rng(7);
    for (int i = 0; i < 20; ++i) {
      WalRecord rec;
      rec.kind = static_cast<WalRecord::Kind>(1 + seed_rng.NextBounded(4));
      rec.generation = seed_rng.NextBounded(4);
      rec.overlay_version = i;
      if (rec.kind == WalRecord::Kind::kAddEdge ||
          rec.kind == WalRecord::Kind::kRemoveEdge) {
        // Only edge records carry endpoints; the codec drops them for
        // the other kinds, so only set them where they round-trip.
        rec.src = static_cast<NodeId>(seed_rng.NextBounded(100));
        rec.dst = static_cast<NodeId>(seed_rng.NextBounded(100));
        rec.label = seed_rng.NextBool(0.5) ? "friend" : "colleague";
      }
      ASSERT_TRUE(AppendOne(*w, rec).ok());
      recs.push_back(rec);
    }
  }
  const std::vector<uint8_t> pristine = ReadAll(path);

  Rng rng(0xBADF00D);
  constexpr int kFlips = 5000;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<uint8_t> bytes = pristine;
    const size_t at = rng.NextBounded(bytes.size());
    bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    WriteAll(path, bytes);
    auto contents = storage::ReadWal(path);
    if (!contents.ok()) {
      // Header damage only.
      EXPECT_LT(at, storage::kWalFileHeaderBytes) << "flip at byte " << at;
      EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    // Some record absorbed the flip: the scan must have stopped there.
    EXPECT_FALSE(contents->tail_status.ok()) << "flip at byte " << at;
    ASSERT_LT(contents->records.size(), recs.size());
    ExpectRecordsEq(contents->records, recs, contents->records.size());
  }
}

}  // namespace
}  // namespace sargus
