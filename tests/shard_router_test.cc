#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "engine/access_engine.h"
#include "shard/executor_transport.h"
#include "shard/partitioner.h"
#include "shard/router.h"
#include "shard/wire.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using testing_util::MakeDiamond;

/// Options for a fault-free router whose decisions a test asserts
/// exactly: no per-attempt deadline and no op budget, so a slow
/// executor hop on a loaded or sanitized build cannot surface as a
/// spurious kDeadlineExceeded.
RouterOptions ExactRouterOptions(uint32_t num_shards) {
  RouterOptions opts;
  opts.partition.num_shards = num_shards;
  opts.robustness.call_deadline_ms = 0;
  opts.robustness.op_budget_ms = 0;
  return opts;
}

void ExpectAgrees(const Result<AccessDecision>& got,
                  const Result<AccessDecision>& want,
                  const std::string& context) {
  ASSERT_EQ(got.ok(), want.ok())
      << context << " got=" << got.status().ToString()
      << " want=" << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    return;
  }
  EXPECT_EQ(got->granted, want->granted) << context;
  EXPECT_EQ(got->owner_access, want->owner_access) << context;
}

// ---- Partitioner ----------------------------------------------------------

TEST(Partitioner, ContiguousRangesCoverEveryNode) {
  ErdosRenyiSpec spec;
  spec.base.num_nodes = 10;
  auto g = GenerateErdosRenyi(spec);
  ASSERT_TRUE(g.ok());
  PartitionOptions opts;
  opts.num_shards = 3;
  opts.strategy = PartitionStrategy::kContiguous;
  auto part = GraphPartitioner::Partition(*g, opts);
  ASSERT_TRUE(part.ok());
  ASSERT_EQ(part->shard_of.size(), 10u);
  // Contiguous: shard ids are non-decreasing in node order.
  for (size_t v = 1; v < part->shard_of.size(); ++v) {
    EXPECT_LE(part->shard_of[v - 1], part->shard_of[v]);
  }
  size_t covered = 0;
  for (const auto& members : part->members) covered += members.size();
  EXPECT_EQ(covered, 10u);
}

TEST(Partitioner, CommunityIsDeterministic) {
  BarabasiAlbertSpec spec;
  spec.base.num_nodes = 64;
  auto g = GenerateBarabasiAlbert(spec);
  ASSERT_TRUE(g.ok());
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.strategy = PartitionStrategy::kCommunity;
  auto a = GraphPartitioner::Partition(*g, opts);
  auto b = GraphPartitioner::Partition(*g, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shard_of, b->shard_of);
  size_t covered = 0;
  for (const auto& members : a->members) covered += members.size();
  EXPECT_EQ(covered, 64u);
}

TEST(Partitioner, ZeroShardsRejected) {
  SocialGraph g = MakeDiamond();
  PartitionOptions opts;
  opts.num_shards = 0;
  EXPECT_EQ(GraphPartitioner::Partition(g, opts).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Wire round trips -----------------------------------------------------

/// A batch check reply whose entries cover every reply shape: an
/// in-band error, a grant with matched rule, work, stamp and witness,
/// and an all-default deny.
wire::BatchCheckReply MakeBatchReply() {
  wire::CheckReply err;
  err.status_code = wire::PackStatus(Status::NotFound("nope"));
  err.error = "nope";
  wire::CheckReply granted;
  granted.granted = 1;
  granted.has_matched_rule = 1;
  granted.matched_rule = 5;
  granted.pairs_visited = 123456;
  granted.stamp = {9, 42};
  granted.witness = {1, 2, 3};
  return {.replies = {err, granted, wire::CheckReply{}}};
}

TEST(Wire, CheckRoundTrip) {
  // A check crosses the seam only as a batch entry, so each request and
  // reply shape round-trips alone inside a one-entry batch frame.
  const wire::BatchCheckRequest req = {
      .requests = {{.requester = 7, .resource = 3, .want_witness = 1}}};
  auto decoded = wire::DecodeBatchCheckRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  for (const wire::CheckReply& entry : MakeBatchReply().replies) {
    const wire::BatchCheckReply rep = {.replies = {entry}};
    auto decoded_rep = wire::DecodeBatchCheckReply(wire::Encode(rep));
    ASSERT_TRUE(decoded_rep.ok());
    EXPECT_EQ(*decoded_rep, rep);
  }
}

TEST(Wire, BatchRoundTrip) {
  wire::BatchCheckRequest req;
  req.requests.push_back({.requester = 1, .resource = 0});
  req.requests.push_back({.requester = 2, .resource = 9, .want_witness = 1});
  req.requests.push_back({.requester = 7, .resource = 3, .want_witness = 1});
  auto decoded = wire::DecodeBatchCheckRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  // The empty vector round-trips too, and so does every reply shape in
  // one frame.
  for (const wire::BatchCheckReply& rep :
       {wire::BatchCheckReply{}, MakeBatchReply()}) {
    auto decoded_rep = wire::DecodeBatchCheckReply(wire::Encode(rep));
    ASSERT_TRUE(decoded_rep.ok());
    EXPECT_EQ(*decoded_rep, rep);
  }
}

/// A walk frame of `n` walks, each different, with non-trivial fields.
wire::WalkRequest MakeWalkFrame(size_t n) {
  wire::WalkRequest req;
  for (size_t i = 0; i < n; ++i) {
    wire::Walk walk;
    walk.rule = static_cast<RuleId>(4 + i);
    walk.path = static_cast<uint32_t>(i);
    walk.requester = static_cast<NodeId>(11 + i);
    walk.owner = 6;
    if (i % 2 == 1) {
      walk.seed = wire::WalkSeed::kFrontier;
      walk.frontier = {{10, 2, 3}, {static_cast<NodeId>(20 + i), 0, 5}};
    }
    req.walks.push_back(std::move(walk));
  }
  return req;
}

/// The positional reply to a MakeWalkFrame(n).
wire::WalkReply MakeWalkReply(size_t n) {
  wire::WalkReply rep;
  for (size_t i = 0; i < n; ++i) {
    wire::WalkResult result;
    result.accepted = i == 1 ? 1 : 0;
    result.exports = {{static_cast<NodeId>(3 + i), 1, 2}};
    result.pairs_visited = 77 + i;
    if (i == 2) {
      result.status_code = wire::PackStatus(Status::InvalidArgument("bad"));
      result.error = "bad";
      result.exports.clear();
    }
    rep.results.push_back(std::move(result));
  }
  rep.stamp = {1, 2};
  return rep;
}

TEST(Wire, WalkRoundTrip) {
  // v5 walk frames are positional lists: empty, single and multi-walk
  // frames all round-trip, and so do their replies.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    const wire::WalkRequest req = MakeWalkFrame(n);
    auto decoded = wire::DecodeWalkRequest(wire::Encode(req));
    ASSERT_TRUE(decoded.ok()) << n;
    EXPECT_EQ(*decoded, req);
    EXPECT_EQ(decoded->walks.size(), n);

    const wire::WalkReply rep = MakeWalkReply(n);
    auto decoded_rep = wire::DecodeWalkReply(wire::Encode(rep));
    ASSERT_TRUE(decoded_rep.ok()) << n;
    EXPECT_EQ(*decoded_rep, rep);
    EXPECT_EQ(decoded_rep->results.size(), n);
  }
}

TEST(Wire, MutateRoundTrip) {
  wire::MutateRequest req;
  req.op = wire::MutateOp::kRemoveEdge;
  req.src = 5;
  req.dst = 6;
  req.label = 4;
  auto decoded = wire::DecodeMutateRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);
  // kAddNode carries no label; the field round-trips as the sentinel.
  const wire::MutateRequest add_node{.op = wire::MutateOp::kAddNode};
  auto decoded_node = wire::DecodeMutateRequest(wire::Encode(add_node));
  ASSERT_TRUE(decoded_node.ok());
  EXPECT_EQ(*decoded_node, add_node);

  wire::MutateReply rep;
  rep.new_node = 99;
  rep.stamp = {3, 4};
  auto decoded_rep = wire::DecodeMutateReply(wire::Encode(rep));
  ASSERT_TRUE(decoded_rep.ok());
  EXPECT_EQ(*decoded_rep, rep);
}

TEST(Wire, RejectsCorruptFrames) {
  std::vector<uint8_t> bytes = wire::Encode(
      wire::BatchCheckRequest{.requests = {{.requester = 7, .resource = 3}}});
  // Bad magic.
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(wire::DecodeBatchCheckRequest(bad_magic).status().code(),
            StatusCode::kInvalidArgument);
  // Unknown version.
  auto bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_EQ(wire::DecodeBatchCheckRequest(bad_version).status().code(),
            StatusCode::kInvalidArgument);
  // A protocol-2 header: its evaluator byte numbered five choices.
  auto protocol2 = bytes;
  protocol2[4] = 2;
  EXPECT_EQ(wire::DecodeBatchCheckRequest(protocol2).status().code(),
            StatusCode::kInvalidArgument);
  // Frames of older protocols, or of retired message types, with the
  // checksum intact: decoders refuse them rather than misread them.
  auto old_frame = [](uint8_t version, uint8_t type,
                      std::span<const uint8_t> body) {
    std::vector<uint8_t> frame = {0x53, 0x47, 0x52, 0x57, version, 0, 0, 0,
                                  type};
    for (const uint8_t b : body) frame.push_back(b);
    const uint64_t sum = Fnv1a64(frame);
    for (int i = 0; i < 8; ++i) frame.push_back(uint8_t(sum >> (8 * i)));
    return frame;
  };
  const auto type_byte = [](wire::MsgType t) { return uint8_t(t); };
  // A v3 check entry carried two evaluator-override bytes after
  // want_witness: requester 7, resource 3, want_witness 0, override
  // {1, kOnlineBfs}. Refused inside a batch.
  const std::vector<uint8_t> v3_check = {7, 0, 0, 0, 3, 0, 0, 0, 0, 1, 1};
  std::vector<uint8_t> v3_batch = {1, 0, 0, 0};
  v3_batch.insert(v3_batch.end(), v3_check.begin(), v3_check.end());
  const Status v3_status =
      wire::DecodeBatchCheckRequest(
          old_frame(3, type_byte(wire::MsgType::kBatchCheckRequest), v3_batch))
          .status();
  EXPECT_EQ(v3_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v3_status.message().find("protocol version 3"),
            std::string::npos)
      << v3_status.ToString();
  EXPECT_EQ(wire::ParseMessage(old_frame(3, 1, v3_check)).status().code(),
            StatusCode::kInvalidArgument);
  // A v4 walk frame carried exactly one walk and no item count: rule 4,
  // path 1, requester 11, seed kOwnerStarts, owner 6, empty frontier.
  EXPECT_EQ(wire::kProtocolVersion, 6u);
  const std::vector<uint8_t> v4_walk = {4, 0, 0, 0, 1, 0, 0, 0, 11, 0, 0, 0,
                                        0, 6, 0, 0, 0, 0, 0, 0, 0};
  const auto v4_frame =
      old_frame(4, type_byte(wire::MsgType::kWalkRequest), v4_walk);
  const Status v4_status = wire::DecodeWalkRequest(v4_frame).status();
  EXPECT_EQ(v4_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v4_status.message().find("protocol version 4"),
            std::string::npos)
      << v4_status.ToString();
  EXPECT_EQ(wire::ParseMessage(v4_frame).status().code(),
            StatusCode::kInvalidArgument);
  // A v5 mutate frame ended in a label-name string: kAddEdge 5 -> 6,
  // label kInvalidLabel, name "friend".
  const std::vector<uint8_t> v5_mutate = {
      0, 5, 0, 0, 0, 6, 0, 0, 0, 0xFF, 0xFF,      // op, src, dst, label
      6, 0, 0, 0, 'f', 'r', 'i', 'e', 'n', 'd'};  // name length, name
  const auto v5_frame =
      old_frame(5, type_byte(wire::MsgType::kMutateRequest), v5_mutate);
  const Status v5_status = wire::DecodeMutateRequest(v5_frame).status();
  EXPECT_EQ(v5_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(v5_status.message().find("protocol version 5"),
            std::string::npos)
      << v5_status.ToString();
  EXPECT_EQ(wire::ParseMessage(v5_frame).status().code(),
            StatusCode::kInvalidArgument);
  // Types 1 and 2 were the single-check request and reply; under v6 they
  // are unknown types, whatever the payload.
  const std::vector<uint8_t> check_body = {7, 0, 0, 0, 3, 0, 0, 0, 1};
  for (const uint8_t retired : {uint8_t{1}, uint8_t{2}}) {
    const Status st =
        wire::ParseMessage(old_frame(6, retired, check_body)).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << int(retired);
    EXPECT_NE(st.message().find("unknown message type"), std::string::npos)
        << st.ToString();
  }
  // Wrong message type for the decoder.
  EXPECT_FALSE(wire::DecodeWalkRequest(bytes).ok());
  // Truncation at every prefix length must error, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        wire::DecodeBatchCheckRequest(std::span(bytes.data(), len)).ok());
  }
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeBatchCheckRequest(padded).ok());
}

TEST(Wire, ErrorFrameRoundTrip) {
  wire::ErrorFrame f;
  f.status_code = wire::PackStatus(Status::Unavailable("shard 2 unreachable"));
  f.message = "shard 2 unreachable";
  auto decoded = wire::DecodeErrorFrame(wire::Encode(f));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, f);
  const Status s = wire::StatusFromErrorFrame(*decoded);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "shard 2 unreachable");

  // An OK error frame is meaningless; the decoder refuses to produce one.
  wire::ErrorFrame ok_frame;
  ok_frame.status_code = 0;
  ok_frame.message = "fine";
  EXPECT_EQ(wire::DecodeErrorFrame(wire::Encode(ok_frame)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Wire, ChecksumCatchesEverySingleBitFlip) {
  // The v2 trailing checksum covers the entire frame: any single-bit
  // flip — header, type byte, payload, or the checksum itself — must be
  // a clean parse error, never a silently misread message.
  const std::vector<std::vector<uint8_t>> frames = {
      wire::Encode(MakeWalkReply(2)), wire::Encode(MakeBatchReply())};
  for (const std::vector<uint8_t>& bytes : frames) {
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = bytes;
        flipped[byte] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_FALSE(wire::ParseMessage(flipped).ok())
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(Wire, ParseMessageDispatchesEveryType) {
  auto parse = [](const std::vector<uint8_t>& bytes) {
    auto m = wire::ParseMessage(bytes);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(*m);
  };
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckRequest>(
      parse(wire::Encode(wire::BatchCheckRequest{}))));
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckRequest>(parse(
      wire::Encode(wire::BatchCheckRequest{.requests = {{.requester = 1}}}))));
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckReply>(
      parse(wire::Encode(wire::BatchCheckReply{}))));
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckReply>(
      parse(wire::Encode(MakeBatchReply()))));
  EXPECT_TRUE(std::holds_alternative<wire::WalkRequest>(
      parse(wire::Encode(wire::WalkRequest{}))));
  EXPECT_TRUE(std::holds_alternative<wire::WalkReply>(
      parse(wire::Encode(wire::WalkReply{}))));
  EXPECT_TRUE(std::holds_alternative<wire::MutateRequest>(
      parse(wire::Encode(wire::MutateRequest{}))));
  EXPECT_TRUE(std::holds_alternative<wire::MutateReply>(
      parse(wire::Encode(wire::MutateReply{}))));
  wire::ErrorFrame ef;
  ef.status_code = wire::PackStatus(Status::Internal("x"));
  EXPECT_TRUE(std::holds_alternative<wire::ErrorFrame>(
      parse(wire::Encode(ef))));
  EXPECT_FALSE(wire::ParseMessage({}).ok());
}

TEST(Wire, ParseMessageFuzz10k) {
  // One valid frame of every message type, with non-trivial payloads.
  std::vector<std::vector<uint8_t>> pool;
  pool.push_back(wire::Encode(wire::BatchCheckRequest{
      .requests = {{.requester = 5, .resource = 2, .want_witness = 1}}}));
  wire::BatchCheckRequest breq;
  breq.requests = {{.requester = 1}, {.requester = 2, .resource = 1}};
  pool.push_back(wire::Encode(breq));
  const wire::BatchCheckReply brep = MakeBatchReply();
  pool.push_back(wire::Encode(brep));
  pool.push_back(
      wire::Encode(wire::BatchCheckReply{.replies = {brep.replies[1]}}));
  for (const size_t walks : {size_t{1}, size_t{3}}) {
    pool.push_back(wire::Encode(MakeWalkFrame(walks)));
    pool.push_back(wire::Encode(MakeWalkReply(walks)));
  }
  wire::MutateRequest mreq;
  mreq.op = wire::MutateOp::kAddEdge;
  mreq.src = 5;
  mreq.dst = 6;
  mreq.label = 3;
  pool.push_back(wire::Encode(mreq));
  wire::MutateReply mrep;
  mrep.new_node = 99;
  pool.push_back(wire::Encode(mrep));
  wire::ErrorFrame ef;
  ef.status_code = wire::PackStatus(Status::Unavailable("boom"));
  ef.message = "boom";
  pool.push_back(wire::Encode(ef));

  Rng rng(0xF0221D);
  int accepted = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<uint8_t> bytes;
    if (iter % 5 == 4) {
      // Pure random garbage of random length (possibly empty).
      bytes.resize(rng.NextBounded(64));
      for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
    } else {
      // 1-4 seeded mutations of a valid frame.
      bytes = pool[rng.NextBounded(pool.size())];
      const uint64_t mutations = 1 + rng.NextBounded(4);
      for (uint64_t m = 0; m < mutations; ++m) {
        switch (rng.NextBounded(4)) {
          case 0:  // flip one bit
            if (!bytes.empty()) {
              bytes[rng.NextBounded(bytes.size())] ^=
                  static_cast<uint8_t>(1u << rng.NextBounded(8));
            }
            break;
          case 1:  // zero one byte
            if (!bytes.empty()) bytes[rng.NextBounded(bytes.size())] = 0;
            break;
          case 2:  // truncate
            if (!bytes.empty()) bytes.resize(rng.NextBounded(bytes.size()));
            break;
          default: {  // append garbage
            const uint64_t extra = 1 + rng.NextBounded(4);
            for (uint64_t i = 0; i < extra; ++i) {
              bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
            }
            break;
          }
        }
      }
    }
    auto parsed = wire::ParseMessage(bytes);
    if (parsed.ok()) {
      // Only a mutation sequence that reproduced a pool frame byte-for-
      // byte may be accepted (e.g. the same bit flipped twice); the
      // checksum makes accepting genuinely mutated bytes a 2^-64 event.
      bool is_original = false;
      for (const auto& original : pool) is_original |= (bytes == original);
      EXPECT_TRUE(is_original) << "iteration " << iter;
      ++accepted;
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "iteration " << iter;
    }
  }
  // Sanity: the harness really was feeding almost-always-invalid frames.
  EXPECT_LT(accepted, 500);
}

// ---- Router: one contract at every shard count ----------------------------

TEST(ShardRouter, SingleShardAgreesWithPlainEngine) {
  SocialGraph g = MakeDiamond();
  SocialGraph plain_graph = g;
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  ShardRouter router(g, store, ExactRouterOptions(1));
  ASSERT_TRUE(router.Build().ok());
  ASSERT_EQ(router.num_shards(), 1u);
  AccessControlEngine plain(plain_graph, store);
  ASSERT_TRUE(plain.RebuildIndexes().ok());

  // An N = 1 router is one copied shard behind the executor: every
  // decision matches a plain engine over the same graph, witness and
  // stamps included, and the stamp is the one shard's view stamp.
  const auto expect_same = [&](const Result<AccessDecision>& routed,
                               const Result<AccessDecision>& direct,
                               const std::string& context) {
    ASSERT_TRUE(routed.ok()) << context << " " << routed.status().ToString();
    ASSERT_TRUE(direct.ok()) << context;
    EXPECT_EQ(routed->granted, direct->granted) << context;
    EXPECT_EQ(routed->owner_access, direct->owner_access) << context;
    EXPECT_EQ(routed->matched_rule, direct->matched_rule) << context;
    EXPECT_EQ(routed->witness, direct->witness) << context;
    EXPECT_EQ(routed->snapshot_generation, direct->snapshot_generation)
        << context;
    EXPECT_EQ(routed->overlay_version, direct->overlay_version) << context;
    EXPECT_EQ(routed->snapshot_generation,
              router.shard(0).ViewStamp().snapshot_generation)
        << context;
    EXPECT_EQ(std::string(routed->evaluator_name).rfind("shard-", 0), 0u)
        << context;
  };
  const auto compare_all = [&](const std::string& phase) {
    std::vector<AccessRequest> batch;
    for (NodeId r = 0; r < router.topology()->shard_of.size(); ++r) {
      batch.push_back({.requester = r, .resource = photo, .want_witness = true});
    }
    for (const AccessRequest& req : batch) {
      expect_same(router.CheckAccess(req), plain.CheckAccess(req),
                  phase + " requester " + std::to_string(req.requester));
    }
    const auto routed = router.CheckAccessBatch(batch);
    const auto direct = plain.CheckAccessBatch(batch);
    ASSERT_EQ(routed.size(), batch.size());
    ASSERT_EQ(direct.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      expect_same(routed[i], direct[i], phase + " batch slot " +
                                            std::to_string(i));
    }
  };

  compare_all("initial");
  auto initial = router.CheckAccess({.requester = 3, .resource = photo});
  ASSERT_TRUE(initial.ok());
  EXPECT_TRUE(initial->granted);

  // Mutations go through the executor to the shard copy.
  ASSERT_TRUE(router.AddEdge(3, 0, "friend").ok());
  ASSERT_TRUE(plain.AddEdge(3, 0, "friend").ok());
  ASSERT_TRUE(router.RemoveEdge(1, 5, "colleague").ok());
  ASSERT_TRUE(plain.RemoveEdge(1, 5, "colleague").ok());
  auto added = router.AddNode();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 6u);
  auto plain_added = plain.AddNode();
  ASSERT_TRUE(plain_added.ok());
  EXPECT_EQ(*plain_added, *added);
  EXPECT_EQ(router.topology()->shard_of.size(), 7u);
  ASSERT_TRUE(router.AddEdge(0, 6, "friend").ok());
  ASSERT_TRUE(plain.AddEdge(0, 6, "friend").ok());
  compare_all("after-mutations");

  ASSERT_TRUE(router.CompactAll().ok());
  ASSERT_TRUE(plain.Compact().ok());
  plain.WaitForCompaction();
  compare_all("after-compaction");
}

/// Every live (src, dst, label) triple of `g`, sorted.
std::vector<std::tuple<NodeId, NodeId, LabelId>> EdgeSet(const SocialGraph& g) {
  std::vector<std::tuple<NodeId, NodeId, LabelId>> out;
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    const Edge& edge = g.edge(e);
    out.emplace_back(edge.src, edge.dst, edge.label);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ShardRouter, CallerGraphNeverWritten) {
  for (uint32_t shards : {1u, 4u}) {
    const std::string tag = "shards=" + std::to_string(shards);
    SocialGraph g = MakeDiamond();
    PolicyStore store;
    const ResourceId photo = store.RegisterResource(0, "photo");
    ASSERT_TRUE(
        store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
    const ResourceId wall = store.RegisterResource(2, "wall");
    ASSERT_TRUE(store.AddRuleFromPaths(wall, {"friend[1,3]"}).ok());
    const size_t nodes_before = g.NumNodes();
    const size_t labels_before = g.labels().size();
    const auto edges_before = EdgeSet(g);

    ShardRouter router(g, store, ExactRouterOptions(shards));
    ASSERT_TRUE(router.Build().ok()) << tag;
    SocialGraph mirror_graph = g;
    AccessControlEngine mirror(mirror_graph, store);
    ASSERT_TRUE(mirror.RebuildIndexes().ok());

    // The same mutations on both sides: a base edge removed, new edges
    // (one under a label the caller's graph never interned, added and
    // removed again), and a node with an edge to it. Then a compaction,
    // which at N = 1 used to fold all of it into the caller's graph.
    ASSERT_TRUE(router.RemoveEdge(2, 3, "colleague").ok()) << tag;
    ASSERT_TRUE(mirror.RemoveEdge(2, 3, "colleague").ok());
    ASSERT_TRUE(router.AddEdge(3, 2, "friend").ok()) << tag;
    ASSERT_TRUE(mirror.AddEdge(3, 2, "friend").ok());
    ASSERT_TRUE(router.AddEdge(1, 3, "mentor").ok()) << tag;
    ASSERT_TRUE(router.RemoveEdge(1, 3, "mentor").ok()) << tag;
    auto node = router.AddNode();
    ASSERT_TRUE(node.ok()) << tag;
    auto mirror_node = mirror.AddNode();
    ASSERT_TRUE(mirror_node.ok());
    EXPECT_EQ(*node, *mirror_node) << tag;
    ASSERT_TRUE(router.AddEdge(2, *node, "friend").ok()) << tag;
    ASSERT_TRUE(mirror.AddEdge(2, *node, "friend").ok());
    ASSERT_TRUE(router.CompactAll().ok()) << tag;

    EXPECT_EQ(g.NumNodes(), nodes_before) << tag;
    EXPECT_EQ(g.labels().size(), labels_before) << tag;
    EXPECT_EQ(EdgeSet(g), edges_before) << tag;

    for (const ResourceId res : {photo, wall}) {
      for (NodeId r = 0; r <= *node; ++r) {
        const AccessRequest req{.requester = r, .resource = res};
        ExpectAgrees(router.CheckAccess(req), mirror.CheckAccess(req),
                     tag + " resource " + std::to_string(res) +
                         " requester " + std::to_string(r));
      }
    }
  }
}

// ---- Router: oracle agreement ---------------------------------------------

struct Workload {
  SocialGraph graph;
  PolicyStore store;
  std::vector<ResourceId> resources;
};

Workload MakeWorkload(SocialGraph g) {
  Workload w;
  w.graph = std::move(g);
  const size_t n = w.graph.NumNodes();
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,3]"},
      {"friend[1,2]/colleague[1,2]"},
      {"colleague-[1,2]"},
      {"friend[1,2]{age>=18}"},
      {"family[1,4]"},
  };
  for (size_t i = 0; i < 10; ++i) {
    const NodeId owner = static_cast<NodeId>((i * 37 + 11) % n);
    const ResourceId r =
        w.store.RegisterResource(owner, "res" + std::to_string(i));
    EXPECT_TRUE(
        w.store.AddRuleFromPaths(r, rule_sets[i % rule_sets.size()]).ok());
    if (i % 3 == 0) {
      EXPECT_TRUE(w.store.AddRuleFromPaths(r, {"colleague[1,2]"}).ok());
    }
    w.resources.push_back(r);
  }
  return w;
}

void RunOracleComparison(Result<SocialGraph> generated,
                         PartitionStrategy strategy, uint32_t num_shards,
                         const std::string& tag) {
  ASSERT_TRUE(generated.ok());
  Workload w = MakeWorkload(std::move(*generated));
  SocialGraph oracle_graph = w.graph;  // copy before the router partitions

  RouterOptions opts = ExactRouterOptions(num_shards);
  opts.partition.strategy = strategy;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok()) << tag;
  AccessControlEngine oracle(oracle_graph, w.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  const size_t n = oracle_graph.NumNodes();
  Rng rng(0xC0FFEE ^ num_shards);
  auto compare_random = [&](int rounds, const std::string& phase) {
    for (int i = 0; i < rounds; ++i) {
      AccessRequest req;
      req.requester = static_cast<NodeId>(rng.NextBounded(n));
      req.resource = w.resources[rng.NextBounded(w.resources.size())];
      ExpectAgrees(router.CheckAccess(req), oracle.CheckAccess(req),
                   tag + "/" + phase + " requester=" +
                       std::to_string(req.requester) +
                       " resource=" + std::to_string(req.resource));
    }
  };
  compare_random(120, "initial");

  // Batch path agrees element-wise with the oracle too.
  std::vector<AccessRequest> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back({.requester = static_cast<NodeId>(rng.NextBounded(n)),
                     .resource =
                         w.resources[rng.NextBounded(w.resources.size())]});
  }
  const auto routed = router.CheckAccessBatch(batch);
  const auto expected = oracle.CheckAccessBatch(batch);
  ASSERT_EQ(routed.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectAgrees(routed[i], expected[i], tag + "/batch slot " +
                                             std::to_string(i));
  }

  // Mid-sequence mutations, preferring edges that cross shard cuts;
  // mirror every mutation into the oracle.
  const auto topo = router.topology();
  std::vector<std::pair<NodeId, NodeId>> added;
  for (int t = 0; t < 400 && added.size() < 8; ++t) {
    const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
    if (a == b) continue;
    if (num_shards > 1 && topo->shard_of[a] == topo->shard_of[b]) continue;
    ASSERT_TRUE(router.AddEdge(a, b, "friend").ok()) << tag;
    ASSERT_TRUE(oracle.AddEdge(a, b, "friend").ok());
    added.push_back({a, b});
  }
  EXPECT_FALSE(added.empty()) << tag;
  compare_random(80, "after-add");

  // Remove half of them again (cut shrinks back).
  for (size_t i = 0; i < added.size(); i += 2) {
    ASSERT_TRUE(router.RemoveEdge(added[i].first, added[i].second, "friend")
                    .ok())
        << tag;
    ASSERT_TRUE(
        oracle.RemoveEdge(added[i].first, added[i].second, "friend").ok());
  }
  compare_random(80, "after-remove");
}

Result<SocialGraph> SmallEr(uint64_t seed) {
  ErdosRenyiSpec spec;
  spec.base.num_nodes = 60;
  spec.base.seed = seed;
  spec.avg_out_degree = 3.0;
  return GenerateErdosRenyi(spec);
}

Result<SocialGraph> SmallBa(uint64_t seed) {
  BarabasiAlbertSpec spec;
  spec.base.num_nodes = 60;
  spec.base.seed = seed;
  spec.edges_per_node = 2;
  return GenerateBarabasiAlbert(spec);
}

Result<SocialGraph> SmallWs(uint64_t seed) {
  WattsStrogatzSpec spec;
  spec.base.num_nodes = 48;
  spec.base.seed = seed;
  return GenerateWattsStrogatz(spec);
}

TEST(ShardRouterOracle, ErdosRenyiContiguous) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunOracleComparison(SmallEr(shards), PartitionStrategy::kContiguous,
                        shards, "er/contig/" + std::to_string(shards));
  }
}

TEST(ShardRouterOracle, BarabasiAlbertContiguous) {
  for (uint32_t shards : {2u, 4u, 7u}) {
    RunOracleComparison(SmallBa(shards), PartitionStrategy::kContiguous,
                        shards, "ba/contig/" + std::to_string(shards));
  }
}

TEST(ShardRouterOracle, WattsStrogatzCommunity) {
  for (uint32_t shards : {2u, 4u, 7u}) {
    RunOracleComparison(SmallWs(shards), PartitionStrategy::kCommunity,
                        shards, "ws/community/" + std::to_string(shards));
  }
}

TEST(ShardRouterOracle, BarabasiAlbertCommunityFrontierExchange) {
  // Community shards over a BA graph: the paths that leave the owner's
  // shard go through frontier rounds, and every answer still agrees.
  auto g = SmallBa(99);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  SocialGraph oracle_graph = w.graph;
  RouterOptions opts = ExactRouterOptions(4);
  opts.partition.strategy = PartitionStrategy::kCommunity;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());
  AccessControlEngine oracle(oracle_graph, w.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    AccessRequest req;
    req.requester =
        static_cast<NodeId>(rng.NextBounded(oracle_graph.NumNodes()));
    req.resource = w.resources[rng.NextBounded(w.resources.size())];
    ExpectAgrees(router.CheckAccess(req), oracle.CheckAccess(req),
                 "community slot " + std::to_string(i));
  }
  const RouterCounters c = router.counters();
  EXPECT_GT(c.fallback_walks, 0u);
  EXPECT_GE(c.fallback_rounds, c.fallback_walks);
}

TEST(ShardRouter, AddNodeKeepsShardsAligned) {
  auto g = SmallEr(3);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  ShardRouter router(w.graph, w.store, ExactRouterOptions(3));
  ASSERT_TRUE(router.Build().ok());

  const size_t before = router.topology()->shard_of.size();
  auto id = router.AddNode();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, before);
  EXPECT_EQ(router.topology()->shard_of.size(), before + 1);
  // The new node is reachable through the normal mutation + check path.
  const ResourceId res = w.resources[0];
  const NodeId owner = w.store.resource(res).owner;
  ASSERT_TRUE(router.AddEdge(owner, *id, "friend").ok());
  auto d = router.CheckAccess({.requester = *id, .resource = res});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->granted);
}

// ---- Router: concurrent readers + one writer (TSan target) ----------------

TEST(ShardRouterConcurrency, ReadersRaceOneWriter) {
  auto g = SmallBa(17);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 4;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  const size_t n = router.topology()->shard_of.size();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<AccessRequest> batch;
      while (!stop.load(std::memory_order_acquire)) {
        AccessRequest req;
        req.requester = static_cast<NodeId>(rng.NextBounded(n));
        req.resource = w.resources[rng.NextBounded(w.resources.size())];
        if (rng.NextBool(0.2)) {
          batch.assign(3, req);
          for (const auto& d : router.CheckAccessBatch(batch)) {
            EXPECT_TRUE(d.ok() ||
                        d.status().code() != StatusCode::kInternal);
          }
        } else {
          auto d = router.CheckAccess(req);
          EXPECT_TRUE(d.ok() || d.status().code() != StatusCode::kInternal);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  {
    Rng rng(42);
    for (int step = 0; step < 60; ++step) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a == b) continue;
      if (step % 3 == 2) {
        (void)router.RemoveEdge(a, b, "friend");
      } else {
        (void)router.AddEdge(a, b, "friend");
      }
    }
  }
  // Let the readers observe the final state for a moment.
  while (reads.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(router.counters().checks, 0u);
}

// ---- Transport: the router's executor, fault injection, circuit breaker ----

// The 8-node / 2-shard chain fixture shared by the transport tests:
// nodes 0-3 on shard 0, 4-7 on shard 1, chain 0 -f-> 4 -f-> 5 -f-> 1,
// resource at node 0 guarded by friend[1,3]. Requester 1 is granted
// through two cut crossings; requester 3 never is.
struct ChainFixture {
  SocialGraph graph;
  PolicyStore store;
  ResourceId res = 0;
};

ChainFixture MakeChain() {
  ChainFixture f;
  f.graph.AddNodes(8);
  EXPECT_TRUE(f.graph.AddEdge(0, 4, "friend").ok());
  EXPECT_TRUE(f.graph.AddEdge(4, 5, "friend").ok());
  EXPECT_TRUE(f.graph.AddEdge(5, 1, "friend").ok());
  f.res = f.store.RegisterResource(0, "res");
  EXPECT_TRUE(f.store.AddRuleFromPaths(f.res, {"friend[1,3]"}).ok());
  return f;
}

/// A one-request batch frame: how a single check crosses the seam.
wire::BatchCheckRequest OneCheck(NodeId requester, ResourceId resource) {
  return {.requests = {ToWire(
              AccessRequest{.requester = requester, .resource = resource})}};
}

/// Size of a shard's label dictionary.
size_t NumLabels(const ShardEngine& shard) {
  return shard.engine().AcquireReadView()->graph().labels().size();
}

TEST(ShardTransport, RouterTransportMatchesDirect) {
  // Every router's data plane is the thread-per-shard executor, N = 1
  // included; a call through it returns exactly what the engine returns
  // directly, and a deadline already in the past is refused.
  for (uint32_t shards : {1u, 2u}) {
    auto g = SmallEr(21);
    ASSERT_TRUE(g.ok());
    Workload w = MakeWorkload(std::move(*g));
    ShardRouter router(w.graph, w.store, ExactRouterOptions(shards));
    ASSERT_TRUE(router.Build().ok());

    auto* transport = dynamic_cast<ThreadedTransport*>(&router.transport());
    ASSERT_NE(transport, nullptr) << "shards=" << shards;
    ASSERT_EQ(transport->num_shards(), shards);
    const wire::BatchCheckRequest req = OneCheck(9, w.resources[0]);
    for (uint32_t s = 0; s < shards; ++s) {
      const wire::BatchCheckReply direct = router.shard(s).CheckBatch(req);
      auto through = transport->Call(s, req, {});
      ASSERT_TRUE(through.ok()) << through.status().ToString();
      EXPECT_EQ(*through, direct);
    }
    TransportCallOptions past;
    past.deadline_ms = 1;
    EXPECT_EQ(transport->Call(0, req, past).status().code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST(ShardTransport, HandleFrameDispatch) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
  ShardRouter router(g, store);
  ASSERT_TRUE(router.Build().ok());
  ShardEngine& shard = router.shard(0);

  // A valid request frame comes back as the encoded reply the typed
  // handler produces.
  const wire::BatchCheckRequest req = OneCheck(3, photo);
  auto reply =
      wire::DecodeBatchCheckReply(shard.HandleFrame(wire::Encode(req)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, shard.CheckBatch(req));
  ASSERT_EQ(reply->replies.size(), 1u);
  EXPECT_EQ(reply->replies[0].granted, 1);

  // A multi-walk frame comes back positionally: one result per walk,
  // all against one view. Requester 3 is reached, 4 is not, and a walk
  // naming a rule the shard does not know fails alone.
  wire::WalkRequest walks;
  for (const NodeId requester : {NodeId{3}, NodeId{4}}) {
    walks.walks.push_back({.rule = 0,
                           .path = 0,
                           .requester = requester,
                           .seed = wire::WalkSeed::kOwnerStarts,
                           .owner = 0,
                           .frontier = {}});
  }
  walks.walks.push_back({.rule = 99,
                         .path = 0,
                         .requester = 3,
                         .seed = wire::WalkSeed::kOwnerStarts,
                         .owner = 0,
                         .frontier = {}});
  auto walked =
      wire::DecodeWalkReply(shard.HandleFrame(wire::Encode(walks)));
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(*walked, shard.ExpandFrontier(walks));
  ASSERT_EQ(walked->results.size(), 3u);
  EXPECT_EQ(walked->results[0].status_code, 0);
  EXPECT_EQ(walked->results[0].accepted, 1);
  EXPECT_EQ(walked->results[1].status_code, 0);
  EXPECT_EQ(walked->results[1].accepted, 0);
  EXPECT_EQ(walked->results[2].status_code,
            wire::PackStatus(Status::InvalidArgument("")));
  EXPECT_EQ(walked->stamp, shard.ViewStamp());

  // Mutations through the byte path take the writer path too.
  wire::MutateRequest mreq;
  mreq.op = wire::MutateOp::kAddEdge;
  mreq.src = 3;
  mreq.dst = 0;
  mreq.label = shard.LookupLabel("friend");
  ASSERT_NE(mreq.label, kInvalidLabel);
  auto mrep = wire::DecodeMutateReply(shard.HandleFrame(wire::Encode(mreq)));
  ASSERT_TRUE(mrep.ok());
  EXPECT_EQ(mrep->status_code, 0);

  // Garbage comes back as a decodable error frame, never a crash.
  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  auto err = wire::DecodeErrorFrame(shard.HandleFrame(garbage));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(wire::StatusFromErrorFrame(*err).code(),
            StatusCode::kInvalidArgument);

  // A reply frame is not a valid thing to SEND a shard.
  auto not_request = wire::DecodeErrorFrame(
      shard.HandleFrame(wire::Encode(wire::BatchCheckReply{})));
  ASSERT_TRUE(not_request.ok());
  EXPECT_EQ(wire::StatusFromErrorFrame(*not_request).code(),
            StatusCode::kInvalidArgument);

  // A frame names a label only by an id every shard knows. On two
  // shards, a byte-level mutate naming an id none knows — the sentinel,
  // or the next id to be minted — is refused in-band and interns
  // nothing, so the dictionaries stay aligned and the router's next
  // fresh label resolves to one id on every shard.
  ShardRouter two(g, store, ExactRouterOptions(2));
  ASSERT_TRUE(two.Build().ok());
  const size_t labels = NumLabels(two.shard(0));
  ASSERT_EQ(NumLabels(two.shard(1)), labels);
  for (const LabelId unknown : {kInvalidLabel, static_cast<LabelId>(labels)}) {
    const wire::MutateRequest bad{
        .op = wire::MutateOp::kAddEdge, .src = 3, .dst = 0, .label = unknown};
    auto refused =
        wire::DecodeMutateReply(two.shard(0).HandleFrame(wire::Encode(bad)));
    ASSERT_TRUE(refused.ok()) << refused.status().ToString();
    EXPECT_EQ(refused->status_code,
              wire::PackStatus(Status::InvalidArgument("")))
        << "label " << unknown << ": " << refused->error;
    EXPECT_EQ(NumLabels(two.shard(0)), labels) << "label " << unknown;
    EXPECT_EQ(NumLabels(two.shard(1)), labels) << "label " << unknown;
  }
  const Status fresh = two.AddEdge(3, 0, "fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.ToString();
  const LabelId fresh_id = two.shard(0).LookupLabel("fresh");
  EXPECT_NE(fresh_id, kInvalidLabel);
  EXPECT_EQ(two.shard(1).LookupLabel("fresh"), fresh_id);
}

TEST(ShardTransport, FaultInjectionDeterministic) {
  auto g = SmallBa(7);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 2;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  struct Trace {
    std::vector<int> outcomes;
    std::vector<uint64_t> counters;
  };
  auto drive = [&](uint64_t seed) {
    FaultInjectionTransport t(
        std::make_unique<ThreadedTransport>(
            std::vector<ShardEngine*>{&router.shard(0), &router.shard(1)}),
        seed);
    ShardFaultProfile p;
    p.delay_probability = 0.3;
    p.drop_probability = 0.2;
    p.error_probability = 0.1;
    p.corrupt_probability = 0.1;
    p.delay_min_ms = 5;
    p.delay_max_ms = 20;
    t.SetProfile(0, p);
    t.SetProfile(1, p);
    Trace trace;
    for (int i = 0; i < 200; ++i) {
      TransportCallOptions call;
      call.deadline_ms = t.NowMs() + 10;  // delays over 10ms blow this
      const wire::BatchCheckRequest req =
          OneCheck(static_cast<NodeId>(i % 60),
                   w.resources[static_cast<size_t>(i) % w.resources.size()]);
      auto r = t.Call(static_cast<uint32_t>(i % 2), req, call);
      if (!r.ok()) {
        // The transport error contract: nothing but these two codes.
        EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable ||
                    r.status().code() == StatusCode::kDeadlineExceeded)
            << r.status().ToString();
      }
      trace.outcomes.push_back(r.ok() ? 0
                                      : static_cast<int>(r.status().code()));
    }
    for (uint32_t s = 0; s < 2; ++s) {
      const FaultCounters c = t.counters(s);
      trace.counters.insert(trace.counters.end(),
                            {c.calls, c.drops, c.error_replies, c.corrupts,
                             c.corrupt_survived, c.delays, c.deadline_hits});
    }
    return trace;
  };

  const Trace a = drive(42);
  const Trace b = drive(42);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.counters, b.counters);
  const Trace c = drive(43);
  EXPECT_NE(a.outcomes, c.outcomes);

  // The seeded run really exercised every fault kind somewhere.
  const auto total = [&](size_t field) {
    return a.counters[field] + a.counters[field + 7];
  };
  EXPECT_GT(total(1), 0u);  // drops
  EXPECT_GT(total(2), 0u);  // error replies
  EXPECT_GT(total(3), 0u);  // corrupts
  EXPECT_GT(total(5), 0u);  // delays
  EXPECT_GT(total(6), 0u);  // deadline hits
}

TEST(ShardTransport, CircuitBreakerStateMachine) {
  ShardHealthTracker breaker(2, /*failure_threshold=*/3, /*open_ms=*/100);
  const uint64_t now = 1000;
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowCall(0, now));

  // A success resets the consecutive-failure streak.
  breaker.RecordFailure(0, now);
  breaker.RecordFailure(0, now);
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(0), 2u);
  breaker.RecordSuccess(0);
  EXPECT_EQ(breaker.consecutive_failures(0), 0u);

  // Three consecutive failures trip it open; calls fail fast.
  breaker.RecordFailure(0, now);
  breaker.RecordFailure(0, now);
  breaker.RecordFailure(0, now);
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.AllowCall(0, now + 50));
  // Shard 1 is untouched.
  EXPECT_TRUE(breaker.AllowCall(1, now));

  // Window elapsed: exactly one half-open probe gets through.
  EXPECT_TRUE(breaker.AllowCall(0, now + 101));
  EXPECT_EQ(breaker.state(0), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowCall(0, now + 102));  // probe already in flight

  // The probe fails: re-open for a full window.
  breaker.RecordFailure(0, now + 103);
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.AllowCall(0, now + 150));

  // The next probe succeeds: closed again, calls flow without gating.
  EXPECT_TRUE(breaker.AllowCall(0, now + 204));
  breaker.RecordSuccess(0);
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_TRUE(breaker.AllowCall(0, now + 205));
  EXPECT_TRUE(breaker.AllowCall(0, now + 205));
}

TEST(ShardTransport, RouterRetriesTransientFaults) {
  ChainFixture f = MakeChain();
  RouterOptions opts;
  opts.partition.num_shards = 2;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  FaultInjectionTransport* fault = nullptr;
  opts.transport_decorator =
      [&fault](std::unique_ptr<ShardTransport> inner)
      -> std::unique_ptr<ShardTransport> {
    auto t = std::make_unique<FaultInjectionTransport>(std::move(inner), 1);
    fault = t.get();
    return t;
  };
  ShardRouter router(f.graph, f.store, opts);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_NE(fault, nullptr);

  // Shard 0's first two data-plane calls drop; the retry loop absorbs
  // the storm and the decision is exact.
  fault->AddSchedule({.shard = 0, .first_call = 0, .last_call = 1,
                      .kind = FaultKind::kDrop});
  const AccessRequest req{.requester = 1, .resource = f.res};
  auto d = router.CheckAccess(req);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->granted);
  RouterCounters c = router.counters();
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.unavailable_errors, 0u);
  EXPECT_EQ(fault->counters(0).drops, 2u);
  // That check used exactly two shard-0 calls after the drops: the
  // owner sub-batch (attempt 3) and the phase-one walk frame.
  EXPECT_EQ(fault->counters(0).calls, 4u);

  // A storm longer than max_attempts exhausts the retries: an explicit
  // kUnavailable, and three consecutive failures open the breaker.
  fault->AddSchedule({.shard = 0, .first_call = 4, .last_call = 6,
                      .kind = FaultKind::kDrop});
  auto failed = router.CheckAccess(req);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  c = router.counters();
  EXPECT_EQ(c.unavailable_errors, 1u);
  EXPECT_EQ(c.breaker_opens, 1u);
  EXPECT_EQ(router.health().state(0), BreakerState::kOpen);

  // While open, the router fails fast without touching the transport.
  const uint64_t calls_before = fault->counters(0).calls;
  auto fast = router.CheckAccess(req);
  EXPECT_EQ(fast.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault->counters(0).calls, calls_before);

  // The open window elapses on the VIRTUAL clock; the half-open probe
  // succeeds and service resumes.
  fault->SleepMs(200);
  auto recovered = router.CheckAccess(req);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->granted);
  EXPECT_EQ(router.health().state(0), BreakerState::kClosed);

  // A shard slower than the per-attempt deadline times out explicitly.
  ShardFaultProfile slow;
  slow.delay_probability = 1.0;
  slow.delay_min_ms = 60;  // call_deadline_ms default is 50
  slow.delay_max_ms = 60;
  fault->SetProfile(0, slow);
  auto timed_out = router.CheckAccess(req);
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  c = router.counters();
  EXPECT_GE(c.timeouts, 3u);
  // failed + the fail-fast check + this timeout, and nothing else.
  EXPECT_EQ(c.unavailable_errors, 3u);
}

// ---- Threaded executor transport: direct unit coverage ---------------------

TEST(ShardTransport, ThreadedExecutorMatchesSyncAndCountsQueue) {
  auto g = SmallEr(31);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 2;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  ThreadedTransport transport({&router.shard(0), &router.shard(1)});
  ASSERT_EQ(transport.num_shards(), 2u);

  // Sync calls through the executor return exactly what the engine
  // returns directly.
  const wire::BatchCheckRequest req = OneCheck(9, w.resources[0]);
  for (uint32_t s = 0; s < 2; ++s) {
    const wire::BatchCheckReply direct = router.shard(s).CheckBatch(req);
    auto through = transport.Call(s, req, {});
    ASSERT_TRUE(through.ok()) << through.status().ToString();
    EXPECT_EQ(*through, direct);
  }

  // The async surface: scatter one ticket per shard, then gather — the
  // replies are the same ones the sync path produces.
  wire::BatchCheckRequest breq;
  for (int i = 0; i < 5; ++i) {
    breq.requests.push_back(ToWire(AccessRequest{
        .requester = static_cast<NodeId>(i),
        .resource = w.resources[static_cast<size_t>(i) % w.resources.size()]}));
  }
  auto t0 = transport.Submit(0, breq, {});
  auto t1 = transport.Submit(1, breq, {});
  ASSERT_TRUE(t0.valid());
  ASSERT_TRUE(t1.valid());
  auto r0 = t0.Wait();
  auto r1 = t1.Wait();
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r0, router.shard(0).CheckBatch(breq));
  EXPECT_EQ(*r1, router.shard(1).CheckBatch(breq));

  // A deadline already in the past never reaches the engine: the job is
  // refused worker-side (or submit-side) as an explicit timeout.
  TransportCallOptions past;
  past.deadline_ms = 1;
  EXPECT_EQ(transport.Call(0, req, past).status().code(),
            StatusCode::kDeadlineExceeded);

  // Queue accounting: everything submitted was either executed or
  // cancelled, and the past-deadline call shows up as a cancellation.
  // The caller-side timeout returns before the worker books the drop,
  // so give the queue a moment to drain.
  ThreadedTransport::QueueStats stats = transport.queue_stats(0);
  for (int spin = 0;
       spin < 2000 && stats.submitted != stats.executed + stats.cancelled;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = transport.queue_stats(0);
  }
  EXPECT_GT(stats.submitted, 0u);
  EXPECT_GT(stats.executed, 0u);
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_EQ(stats.submitted, stats.executed + stats.cancelled);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ShardTransport, ThreadedExecutorMutateIsFailStop) {
  ChainFixture f = MakeChain();
  RouterOptions opts;
  opts.partition.num_shards = 2;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  ShardRouter router(f.graph, f.store, opts);
  ASSERT_TRUE(router.Build().ok());

  ThreadedTransport transport({&router.shard(0), &router.shard(1)});
  const wire::Stamp before = router.shard(0).ViewStamp();

  // A mutation whose deadline has already passed is refused BEFORE the
  // engine call — the shard's published state must not move.
  wire::MutateRequest mreq;
  mreq.op = wire::MutateOp::kAddEdge;
  mreq.src = 1;
  mreq.dst = 2;
  mreq.label = router.shard(0).LookupLabel("friend");
  ASSERT_NE(mreq.label, kInvalidLabel);
  TransportCallOptions past;
  past.deadline_ms = 1;
  EXPECT_EQ(transport.Call(0, mreq, past).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(router.shard(0).ViewStamp(), before);

  // Without a deadline the same mutation applies and the stamp moves.
  auto ok = transport.Call(0, mreq, {});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->status_code, 0);
  EXPECT_NE(router.shard(0).ViewStamp(), before);

  // A mutation already dispatched when its deadline passes is waited
  // out, never abandoned: the caller gets the applied reply, not a
  // timeout for a mutation that did apply.
  ThreadedTransportOptions slow;
  slow.pre_dispatch_hook = [](uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  ThreadedTransport slow_transport({&router.shard(0), &router.shard(1)},
                                   slow);
  wire::MutateRequest late = mreq;
  late.dst = 3;
  const wire::Stamp before_late = router.shard(0).ViewStamp();
  TransportCallOptions soon;
  soon.deadline_ms = slow_transport.NowMs() + 200;
  auto applied = slow_transport.Call(0, late, soon);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->status_code, 0);
  EXPECT_NE(router.shard(0).ViewStamp(), before_late);
}

/// Parks a ThreadedTransport worker inside pre_dispatch_hook until
/// Release(); AwaitParked() returns once the worker is parked. After
/// Release() the hook returns at once.
struct WorkerPark {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;

  void Hook() {
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(ShardTransport, ThreadedExecutorQueueFullPastDeadlineIsCancelled) {
  ChainFixture f = MakeChain();
  ShardRouter router(f.graph, f.store, ExactRouterOptions(1));
  ASSERT_TRUE(router.Build().ok());
  WorkerPark park;
  ThreadedTransport transport(
      {&router.shard(0)},
      {.pre_dispatch_hook = [&park](uint32_t) { park.Hook(); }});
  const wire::BatchCheckRequest req = OneCheck(1, f.res);

  // Park the worker inside its first job, then fill the queue behind it.
  auto first = transport.Submit(0, req, {});
  park.AwaitParked();
  std::vector<TransportTicket<wire::BatchCheckReply>> queued;
  for (size_t i = 0; i < ThreadedTransport::kQueueCapacity; ++i) {
    queued.push_back(transport.Submit(0, req, {}));
  }
  const ThreadedTransport::QueueStats full = transport.queue_stats(0);
  EXPECT_EQ(full.submitted, ThreadedTransport::kQueueCapacity + 1);
  EXPECT_EQ(full.cancelled, 0u);

  // The queue stays full past this Submit's deadline: the job is never
  // enqueued and its ticket is born kDeadlineExceeded.
  auto late = transport.Submit(0, req, {.deadline_ms = transport.NowMs() + 20});
  EXPECT_EQ(late.Wait().status().code(), StatusCode::kDeadlineExceeded);
  const ThreadedTransport::QueueStats refused = transport.queue_stats(0);
  EXPECT_EQ(refused.cancelled, full.cancelled + 1);
  EXPECT_EQ(refused.submitted, full.submitted);

  // Released, the worker runs every queued job normally.
  park.Release();
  const wire::BatchCheckReply direct = router.shard(0).CheckBatch(req);
  auto r = first.Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, direct);
  for (auto& ticket : queued) {
    auto q = ticket.Wait();
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(*q, direct);
  }
  const ThreadedTransport::QueueStats drained = transport.queue_stats(0);
  EXPECT_EQ(drained.executed, drained.submitted);
  EXPECT_EQ(drained.cancelled, 1u);
  EXPECT_EQ(drained.rejected, 0u);
}

TEST(ShardTransport, ThreadedExecutorShutdownFailsQueuedTickets) {
  ChainFixture f = MakeChain();
  ShardRouter router(f.graph, f.store, ExactRouterOptions(1));
  ASSERT_TRUE(router.Build().ok());
  WorkerPark park;
  auto transport = std::make_unique<ThreadedTransport>(
      std::vector<ShardEngine*>{&router.shard(0)},
      ThreadedTransportOptions{
          .pre_dispatch_hook = [&park](uint32_t) { park.Hook(); }});
  const wire::BatchCheckRequest req = OneCheck(1, f.res);

  auto first = transport->Submit(0, req, {});
  park.AwaitParked();
  std::vector<TransportTicket<wire::BatchCheckReply>> queued;
  for (size_t i = 0; i < ThreadedTransport::kQueueCapacity; ++i) {
    queued.push_back(transport->Submit(0, req, {}));
  }

  // One more Submit (no deadline) blocks on the full queue until the
  // destructor's shutdown flag wakes it, refused. Only after that is
  // the worker released, so every queued job is still queued when the
  // worker sees shutdown: the drain is deterministic.
  ThreadedTransport* raw = transport.get();
  TransportTicket<wire::BatchCheckReply> blocked;
  std::thread producer([&] { blocked = raw->Submit(0, req, {}); });
  std::thread destroyer([&] { transport.reset(); });
  producer.join();
  park.Release();
  destroyer.join();

  // The job already executing finishes; nothing else ran, and no ticket
  // hangs or throws.
  auto r = first.Wait();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, router.shard(0).CheckBatch(req));
  EXPECT_EQ(blocked.Wait().status().code(), StatusCode::kUnavailable);
  for (auto& ticket : queued) {
    EXPECT_EQ(ticket.Wait().status().code(), StatusCode::kUnavailable);
  }
}

// ---- Backoff jitter: a pure function of call content -----------------------

TEST(ShardTransport, BackoffJitterIgnoresUnrelatedTraffic) {
  // The retry backoff jitter must be derived from the call's CONTENT
  // (shard, request identity, attempt) — never from a router-wide draw
  // counter — or concurrent fan-out would reshuffle every later draw
  // and identical runs would sleep differently. Observable form: the
  // virtual-clock cost of absorbing the same two-drop storm for the
  // same request is identical no matter how much unrelated traffic ran
  // first.
  auto run = [](int warmup_checks) -> uint64_t {
    ChainFixture f = MakeChain();
    RouterOptions opts;
    opts.partition.num_shards = 2;
    opts.partition.strategy = PartitionStrategy::kContiguous;
    opts.robustness.backoff_base_ms = 8;
    opts.robustness.backoff_max_ms = 64;
    opts.robustness.backoff_jitter = 0.9;  // big enough to see a reshuffle
    FaultInjectionTransport* fault = nullptr;
    opts.transport_decorator =
        [&fault](std::unique_ptr<ShardTransport> inner)
        -> std::unique_ptr<ShardTransport> {
      auto t = std::make_unique<FaultInjectionTransport>(std::move(inner), 1);
      fault = t.get();
      return t;
    };
    ShardRouter router(f.graph, f.store, opts);
    EXPECT_TRUE(router.Build().ok());
    if (fault == nullptr) return 0;

    // Unrelated fault-free traffic (used to advance the shared jitter
    // sequence; must be irrelevant now).
    for (int i = 0; i < warmup_checks; ++i) {
      auto d = router.CheckAccess({.requester = 6, .resource = f.res});
      EXPECT_TRUE(d.ok()) << d.status().ToString();
    }

    // Drop the measured call's first two shard-0 attempts; the two
    // backoff sleeps land on the decorator's virtual clock.
    const uint64_t calls = fault->counters(0).calls;
    fault->AddSchedule({.shard = 0, .first_call = calls,
                        .last_call = calls + 1, .kind = FaultKind::kDrop});
    const uint64_t before = fault->NowMs();
    auto d = router.CheckAccess({.requester = 1, .resource = f.res});
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    if (d.ok()) {
      EXPECT_TRUE(d->granted);
    }
    return fault->NowMs() - before;
  };

  const uint64_t quiet = run(0);
  EXPECT_GT(quiet, 0u);            // the two backoffs really slept
  EXPECT_EQ(run(0), quiet);        // repeatable from scratch
  EXPECT_EQ(run(7), quiet);        // …and independent of prior traffic
  EXPECT_EQ(run(23), quiet);
}

// ---- Parallel fan-out: run-to-run agreement wall ----------------------------

// Byte-level agreement between two independently built routers over
// copies of the same graph: not just the verdict but every field a
// caller can see — stamps, witness, matched rule, evaluator, work
// counters. Both run the same scatter-gather code over the same call
// sets on their own executor workers, so anything short of
// byte-identity means the outcome depends on how the workers
// interleaved: a concurrency bug.
void ExpectIdenticalDecision(const Result<AccessDecision>& a,
                             const Result<AccessDecision>& b,
                             const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context << " a=" << a.status().ToString()
                            << " b=" << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << context;
    return;
  }
  EXPECT_EQ(a->granted, b->granted) << context;
  EXPECT_EQ(a->owner_access, b->owner_access) << context;
  EXPECT_EQ(a->matched_rule, b->matched_rule) << context;
  EXPECT_EQ(a->witness, b->witness) << context;
  EXPECT_EQ(a->evaluator_name, b->evaluator_name) << context;
  EXPECT_EQ(a->snapshot_generation, b->snapshot_generation) << context;
  EXPECT_EQ(a->overlay_version, b->overlay_version) << context;
  EXPECT_EQ(a->stats.pairs_visited, b->stats.pairs_visited) << context;
}

/// The two routers did the same work, not just reached the same
/// verdicts.
void ExpectSameWork(const RouterCounters& a, const RouterCounters& b,
                    const std::string& context) {
  EXPECT_EQ(a.checks, b.checks) << context;
  EXPECT_EQ(a.cross_shard_checks, b.cross_shard_checks) << context;
  EXPECT_EQ(a.local_conclusive, b.local_conclusive) << context;
  EXPECT_EQ(a.fallback_walks, b.fallback_walks) << context;
  EXPECT_EQ(a.cross_fallback_walks, b.cross_fallback_walks) << context;
  EXPECT_EQ(a.fallback_rounds, b.fallback_rounds) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  EXPECT_EQ(a.unavailable_errors, b.unavailable_errors) << context;
}

void RunParallelAgreement(Result<SocialGraph> generated,
                          PartitionStrategy strategy, uint32_t num_shards,
                          const std::string& tag) {
  ASSERT_TRUE(generated.ok());
  Workload w = MakeWorkload(std::move(*generated));
  SocialGraph graph_b = w.graph;  // copies before partitioning
  SocialGraph oracle_graph = w.graph;

  RouterOptions opts = ExactRouterOptions(num_shards);
  opts.partition.strategy = strategy;
  ShardRouter router_a(w.graph, w.store, opts);
  ASSERT_TRUE(router_a.Build().ok()) << tag;
  ShardRouter router_b(graph_b, w.store, opts);
  ASSERT_TRUE(router_b.Build().ok()) << tag;
  AccessControlEngine oracle(oracle_graph, w.store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  const size_t n = oracle_graph.NumNodes();
  Rng rng(0xFA40 ^ num_shards);
  auto compare_singles = [&](int rounds, const std::string& phase) {
    for (int i = 0; i < rounds; ++i) {
      AccessRequest req;
      req.requester = static_cast<NodeId>(rng.NextBounded(n));
      req.resource = w.resources[rng.NextBounded(w.resources.size())];
      req.want_witness = (i % 3 == 0);
      const std::string ctx = tag + "/" + phase + " slot " +
                              std::to_string(i) +
                              " requester=" + std::to_string(req.requester) +
                              " resource=" + std::to_string(req.resource);
      const auto a = router_a.CheckAccess(req);
      ExpectIdenticalDecision(a, router_b.CheckAccess(req), ctx);
      ExpectAgrees(a, oracle.CheckAccess(req), ctx + " (oracle)");
    }
  };
  auto compare_batch = [&](const std::string& phase) {
    std::vector<AccessRequest> batch;
    for (int i = 0; i < 48; ++i) {
      batch.push_back(
          {.requester = static_cast<NodeId>(rng.NextBounded(n)),
           .resource = w.resources[rng.NextBounded(w.resources.size())],
           .want_witness = (i % 4 == 0)});
    }
    const auto a = router_a.CheckAccessBatch(batch);
    const auto b = router_b.CheckAccessBatch(batch);
    ASSERT_EQ(a.size(), batch.size()) << tag;
    ASSERT_EQ(b.size(), batch.size()) << tag;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string ctx =
          tag + "/" + phase + " batch slot " + std::to_string(i);
      ExpectIdenticalDecision(a[i], b[i], ctx);
      ExpectAgrees(a[i], oracle.CheckAccess(batch[i]), ctx + " (oracle)");
    }
  };

  compare_singles(90, "initial");
  compare_batch("initial");

  // Mid-stream mutations, preferring cross-cut edges, mirrored into all
  // three: the stamps keep moving in lockstep.
  const auto topo = router_a.topology();
  std::vector<std::pair<NodeId, NodeId>> added;
  for (int t = 0; t < 400 && added.size() < 6; ++t) {
    const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
    if (a == b) continue;
    if (num_shards > 1 && topo->shard_of[a] == topo->shard_of[b]) continue;
    ASSERT_TRUE(router_a.AddEdge(a, b, "friend").ok()) << tag;
    ASSERT_TRUE(router_b.AddEdge(a, b, "friend").ok()) << tag;
    ASSERT_TRUE(oracle.AddEdge(a, b, "friend").ok());
    added.push_back({a, b});
  }
  EXPECT_FALSE(added.empty()) << tag;
  compare_singles(60, "after-add");
  compare_batch("after-add");

  for (size_t i = 0; i < added.size(); i += 2) {
    const auto [src, dst] = added[i];
    ASSERT_TRUE(router_a.RemoveEdge(src, dst, "friend").ok()) << tag;
    ASSERT_TRUE(router_b.RemoveEdge(src, dst, "friend").ok()) << tag;
    ASSERT_TRUE(oracle.RemoveEdge(src, dst, "friend").ok());
  }
  compare_singles(60, "after-remove");
  compare_batch("after-remove");

  ExpectSameWork(router_a.counters(), router_b.counters(), tag);
}

TEST(ShardParallelAgreement, ErdosRenyiContiguous) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunParallelAgreement(SmallEr(40 + shards), PartitionStrategy::kContiguous,
                         shards, "er/contig/" + std::to_string(shards));
  }
}

TEST(ShardParallelAgreement, BarabasiAlbertContiguous) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunParallelAgreement(SmallBa(40 + shards), PartitionStrategy::kContiguous,
                         shards, "ba/contig/" + std::to_string(shards));
  }
}

TEST(ShardParallelAgreement, WattsStrogatzCommunity) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunParallelAgreement(SmallWs(40 + shards), PartitionStrategy::kCommunity,
                         shards, "ws/community/" + std::to_string(shards));
  }
}

TEST(ShardParallelAgreement, BarabasiAlbertCommunityFrontierRounds) {
  // Every path that leaves the owner's shard takes frontier rounds,
  // which scatter all shards in parallel — the hardest surface to keep
  // byte-identical across runs, for single checks and for batches.
  auto build = [] {
    auto g = SmallBa(99);
    EXPECT_TRUE(g.ok());
    auto w = std::make_unique<Workload>(MakeWorkload(std::move(*g)));
    RouterOptions opts = ExactRouterOptions(4);
    opts.partition.strategy = PartitionStrategy::kCommunity;
    auto router = std::make_unique<ShardRouter>(w->graph, w->store, opts);
    EXPECT_TRUE(router->Build().ok());
    return std::make_pair(std::move(w), std::move(router));
  };
  auto [wa, router_a] = build();
  auto [wb, router_b] = build();

  Rng rng(5);
  const size_t n = wa->graph.NumNodes();
  for (int i = 0; i < 150; ++i) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(rng.NextBounded(n));
    req.resource = wa->resources[rng.NextBounded(wa->resources.size())];
    ExpectIdenticalDecision(router_a->CheckAccess(req),
                            router_b->CheckAccess(req),
                            "community slot " + std::to_string(i));
  }
  std::vector<AccessRequest> batch;
  for (int i = 0; i < 48; ++i) {
    batch.push_back(
        {.requester = static_cast<NodeId>(rng.NextBounded(n)),
         .resource = wa->resources[rng.NextBounded(wa->resources.size())]});
  }
  const auto a = router_a->CheckAccessBatch(batch);
  const auto b = router_b->CheckAccessBatch(batch);
  ASSERT_EQ(a.size(), batch.size());
  ASSERT_EQ(b.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectIdenticalDecision(a[i], b[i],
                            "community batch slot " + std::to_string(i));
  }
  EXPECT_GT(router_a->counters().fallback_walks, 0u);
  ExpectSameWork(router_a->counters(), router_b->counters(), "community");
}

// ---- One batch procedure: rule order, blackouts, frames per round ---------

TEST(ShardRouter, MatchedRuleIsFirstReachingRule) {
  // Two contiguous shards over 8 nodes: 0-3 on shard 0, 4-7 on shard 1.
  // Rule A (friend[1,3]) reaches requester 1 only through 4 -> 5, an
  // edge inside shard 1, so it grants after a frontier round. Rule B
  // (colleague[1]) reaches 1 over the owner shard's own edge 0 -> 1, so
  // the owner phase grants it. matched_rule is still A: the first rule,
  // in the resource's order, with a reaching path.
  SocialGraph g;
  g.AddNodes(8);
  ASSERT_TRUE(g.AddEdge(0, 4, "friend").ok());
  ASSERT_TRUE(g.AddEdge(4, 5, "friend").ok());
  ASSERT_TRUE(g.AddEdge(5, 1, "friend").ok());
  ASSERT_TRUE(g.AddEdge(0, 1, "colleague").ok());
  ASSERT_TRUE(g.AddEdge(0, 2, "colleague").ok());
  PolicyStore store;
  const ResourceId res = store.RegisterResource(0, "res");
  const std::vector<std::string> rule_text = {"friend[1,3]", "colleague[1]"};
  std::vector<RuleId> rules;
  for (const std::string& text : rule_text) {
    auto rule = store.AddRuleFromPaths(res, {text});
    ASSERT_TRUE(rule.ok());
    rules.push_back(*rule);
  }

  RouterOptions opts = ExactRouterOptions(2);
  opts.partition.strategy = PartitionStrategy::kContiguous;
  ShardRouter router(g, store, opts);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_EQ(router.topology()->shard_of[5], 1u);

  // Brute force: the first rule whose path matches.
  const CsrSnapshot csr = CsrSnapshot::Build(g);
  const auto brute = [&](NodeId requester) -> std::optional<RuleId> {
    for (size_t k = 0; k < rules.size(); ++k) {
      if (testing_util::BruteForceMatch(
              g, csr, testing_util::MustBind(g, rule_text[k]), 0, requester)) {
        return rules[k];
      }
    }
    return std::nullopt;
  };
  ASSERT_EQ(brute(1), rules[0]);
  ASSERT_EQ(brute(2), rules[1]);
  ASSERT_EQ(brute(3), std::nullopt);

  std::vector<AccessRequest> batch;
  for (const NodeId r : {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{1}}) {
    batch.push_back({.requester = r, .resource = res});
  }
  const auto batched = router.CheckAccessBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const NodeId r = batch[i].requester;
    const auto single = router.CheckAccess(batch[i]);
    for (const auto* d : {&single, &batched[i]}) {
      ASSERT_TRUE(d->ok()) << "requester " << r << " "
                           << d->status().ToString();
      EXPECT_EQ((*d)->granted, brute(r).has_value()) << "requester " << r;
      EXPECT_EQ((*d)->matched_rule, brute(r)) << "requester " << r;
    }
  }
  EXPECT_GT(router.counters().fallback_walks, 0u);
}

TEST(ShardRouter, UnboundRuleErrsOnlyWhenNothingGrants) {
  // "enemy" is never interned, so the first rule fails to bind on every
  // shard. Its error is masked when the second rule grants across
  // shards (requester 1) and surfaces when nothing grants (requester 3),
  // as on a plain engine.
  SocialGraph g;
  g.AddNodes(8);
  ASSERT_TRUE(g.AddEdge(0, 4, "friend").ok());
  ASSERT_TRUE(g.AddEdge(4, 5, "friend").ok());
  ASSERT_TRUE(g.AddEdge(5, 1, "friend").ok());
  PolicyStore store;
  const ResourceId res = store.RegisterResource(0, "res");
  ASSERT_TRUE(store.AddRuleFromPaths(res, {"enemy[1]"}).ok());
  auto second = store.AddRuleFromPaths(res, {"friend[1,3]"});
  ASSERT_TRUE(second.ok());
  SocialGraph oracle_graph = g;
  AccessControlEngine oracle(oracle_graph, store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());
  RouterOptions opts = ExactRouterOptions(2);
  opts.partition.strategy = PartitionStrategy::kContiguous;
  ShardRouter router(g, store, opts);
  ASSERT_TRUE(router.Build().ok());

  const std::vector<AccessRequest> batch = {{.requester = 1, .resource = res},
                                            {.requester = 3, .resource = res}};
  const auto batched = router.CheckAccessBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto want = oracle.CheckAccess(batch[i]);
    const auto single = router.CheckAccess(batch[i]);
    for (const auto* got : {&single, &batched[i]}) {
      ExpectAgrees(*got, want, "slot " + std::to_string(i));
      if (got->ok()) {
        EXPECT_EQ((*got)->matched_rule, want->matched_rule);
      }
    }
  }
  ASSERT_TRUE(batched[0].ok());
  EXPECT_EQ(batched[0]->matched_rule, *second);
  EXPECT_EQ(batched[1].status().code(), StatusCode::kNotFound);
}

TEST(ShardRouter, OwnerBlackoutInsideBatch) {
  // Four contiguous shards of 10 nodes. Shard 0 shares no edge with any
  // other shard; shards 1-3 are chained by cut edges, so their checks
  // cross shards without ever needing shard 0. With shard 0 dark, the
  // slots it owns fail explicitly and every other slot is exact.
  constexpr uint32_t kShards = 4;
  SocialGraph g;
  g.AddNodes(40);
  for (uint32_t s = 0; s < kShards; ++s) {
    const NodeId base = 10 * s;
    ASSERT_TRUE(g.AddEdge(base, base + 1, "friend").ok());
    ASSERT_TRUE(g.AddEdge(base + 1, base + 2, "friend").ok());
  }
  ASSERT_TRUE(g.AddEdge(11, 21, "friend").ok());
  ASSERT_TRUE(g.AddEdge(21, 31, "friend").ok());
  PolicyStore store;
  std::vector<ResourceId> res;
  for (uint32_t s = 0; s < kShards; ++s) {
    res.push_back(store.RegisterResource(10 * s, "res" + std::to_string(s)));
    ASSERT_TRUE(store.AddRuleFromPaths(res.back(), {"friend[1,3]"}).ok());
  }
  SocialGraph oracle_graph = g;
  AccessControlEngine oracle(oracle_graph, store);
  ASSERT_TRUE(oracle.RebuildIndexes().ok());

  RouterOptions opts = ExactRouterOptions(kShards);
  opts.partition.strategy = PartitionStrategy::kContiguous;
  FaultInjectionTransport* fault = nullptr;
  opts.transport_decorator =
      [&fault](std::unique_ptr<ShardTransport> inner)
      -> std::unique_ptr<ShardTransport> {
    auto t = std::make_unique<FaultInjectionTransport>(std::move(inner), 3);
    fault = t.get();
    return t;
  };
  ShardRouter router(g, store, opts);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_NE(fault, nullptr);
  fault->Blackout(0, true);

  // Per shard: two local grants and a deny; plus 31, which resource 1
  // reaches only through a frontier round (10 -> 11 -> 21 -> 31).
  std::vector<AccessRequest> batch;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (const NodeId offset : {NodeId{1}, NodeId{2}, NodeId{5}}) {
      batch.push_back({.requester = 10 * s + offset, .resource = res[s]});
    }
  }
  batch.push_back({.requester = 31, .resource = res[1]});
  const RouterCounters before = router.counters();
  const auto decisions = router.CheckAccessBatch(batch);
  ASSERT_EQ(decisions.size(), batch.size());
  uint64_t refused = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string ctx = "slot " + std::to_string(i);
    if (batch[i].resource == res[0]) {
      ++refused;
      EXPECT_EQ(decisions[i].status().code(), StatusCode::kUnavailable) << ctx;
      continue;
    }
    const auto want = oracle.CheckAccess(batch[i]);
    ASSERT_TRUE(want.ok()) << ctx;
    ASSERT_TRUE(decisions[i].ok()) << ctx << " "
                                   << decisions[i].status().ToString();
    EXPECT_EQ(decisions[i]->granted, want->granted) << ctx;
    EXPECT_EQ(decisions[i]->matched_rule, want->matched_rule) << ctx;
  }
  ASSERT_TRUE(decisions.back().ok());
  EXPECT_TRUE(decisions.back()->granted);
  EXPECT_EQ(decisions.back()->evaluator_name, "shard-frontier");
  const RouterCounters after = router.counters();
  EXPECT_EQ(refused, 3u);
  EXPECT_EQ(after.unavailable_errors - before.unavailable_errors, refused);
}

TEST(ShardRouter, BatchRunsAtMostOneFramePerShardPerRound) {
  // One 16-request batch on 4 shards runs at most shards x (2 + rounds)
  // executor jobs: one owner sub-batch and one phase-one walk frame per
  // shard, then at most one frame per shard per frontier round. A
  // slot's walks take the same rounds in a batch as alone, so the
  // batch's round count is at most the largest per-check fallback_rounds
  // of its requests checked one by one.
  constexpr uint32_t kShards = 4;
  constexpr size_t kBatch = 16;
  auto g = SmallBa(61);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts = ExactRouterOptions(kShards);
  opts.partition.strategy = PartitionStrategy::kContiguous;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());
  const auto* transport =
      dynamic_cast<const ThreadedTransport*>(&router.transport());
  ASSERT_NE(transport, nullptr);
  const auto jobs = [&] {
    uint64_t total = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      total += transport->queue_stats(s).executed;
    }
    return total;
  };

  Rng rng(0xF4A3E);
  const size_t n = w.graph.NumNodes();
  std::vector<AccessRequest> batch;
  for (size_t i = 0; i < kBatch; ++i) {
    batch.push_back({.requester = static_cast<NodeId>(rng.NextBounded(n)),
                     .resource = w.resources[rng.NextBounded(
                         w.resources.size())]});
  }
  uint64_t rounds = 0;
  const uint64_t singles_before = jobs();
  for (const AccessRequest& req : batch) {
    const uint64_t r0 = router.counters().fallback_rounds;
    ASSERT_TRUE(router.CheckAccess(req).ok());
    rounds = std::max(rounds, router.counters().fallback_rounds - r0);
  }
  const uint64_t single_jobs = jobs() - singles_before;
  ASSERT_GT(rounds, 0u) << "the batch should need a frontier round";

  const uint64_t batch_before = jobs();
  const auto decisions = router.CheckAccessBatch(batch);
  const uint64_t batch_jobs = jobs() - batch_before;
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectAgrees(decisions[i], router.CheckAccess(batch[i]),
                 "slot " + std::to_string(i));
  }
  EXPECT_LE(batch_jobs, kShards * (2 + rounds))
      << "rounds " << rounds << ", singles ran " << single_jobs << " jobs";
  EXPECT_LT(batch_jobs, single_jobs);
}

TEST(ShardRouter, FullLabelDictionaryIsResourceExhausted) {
  // With every shard's label dictionary full, a by-name AddEdge of a new
  // label is refused by the router itself, as a plain engine refuses it:
  // kResourceExhausted, no shard frame, and the dictionaries stay equal.
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]"}).ok());
  ShardRouter router(g, store, ExactRouterOptions(2));
  ASSERT_TRUE(router.Build().ok());
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    uint32_t i = 0;
    while (router.shard(s).InternLabel("filler" + std::to_string(i)) !=
           kInvalidLabel) {
      ++i;
    }
  }
  const size_t full = NumLabels(router.shard(0));
  EXPECT_EQ(full, size_t{kInvalidLabel});

  const Status st = router.AddEdge(3, 0, "overflow");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(NumLabels(router.shard(s)), full) << "shard " << s;
    EXPECT_EQ(router.shard(s).LookupLabel("overflow"), kInvalidLabel);
  }
  // A label the dictionaries already hold still goes through.
  EXPECT_TRUE(router.AddEdge(3, 0, "friend").ok());
}

}  // namespace
}  // namespace sargus
