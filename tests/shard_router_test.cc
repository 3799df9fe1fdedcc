#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

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
  // Every reported cut edge genuinely crosses shards.
  for (const Edge& e : part->cut_edges) {
    EXPECT_NE(part->shard_of[e.src], part->shard_of[e.dst]);
  }
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
  for (const Edge& e : a->cut_edges) {
    EXPECT_NE(a->shard_of[e.src], a->shard_of[e.dst]);
  }
}

TEST(Partitioner, ZeroShardsRejected) {
  SocialGraph g = MakeDiamond();
  PartitionOptions opts;
  opts.num_shards = 0;
  EXPECT_EQ(GraphPartitioner::Partition(g, opts).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Wire round trips -----------------------------------------------------

TEST(Wire, CheckRoundTrip) {
  wire::CheckRequest req;
  req.requester = 7;
  req.resource = 3;
  req.want_witness = 1;
  req.has_evaluator_override = 1;
  req.evaluator_override = 2;
  auto decoded = wire::DecodeCheckRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  wire::CheckReply rep;
  rep.granted = 1;
  rep.has_matched_rule = 1;
  rep.matched_rule = 5;
  rep.pairs_visited = 123456;
  rep.stamp = {9, 42};
  rep.witness = {1, 2, 3};
  auto decoded_rep = wire::DecodeCheckReply(wire::Encode(rep));
  ASSERT_TRUE(decoded_rep.ok());
  EXPECT_EQ(*decoded_rep, rep);

  wire::CheckReply err;
  err.status_code = wire::PackStatus(Status::NotFound("nope"));
  err.error = "nope";
  auto decoded_err = wire::DecodeCheckReply(wire::Encode(err));
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_EQ(*decoded_err, err);
}

TEST(Wire, BatchRoundTrip) {
  wire::BatchCheckRequest req;
  req.requests.push_back({.requester = 1, .resource = 0});
  req.requests.push_back({.requester = 2, .resource = 9, .want_witness = 1});
  auto decoded = wire::DecodeBatchCheckRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  wire::BatchCheckReply rep;  // empty vector round-trips too
  auto decoded_rep = wire::DecodeBatchCheckReply(wire::Encode(rep));
  ASSERT_TRUE(decoded_rep.ok());
  EXPECT_EQ(*decoded_rep, rep);
}

TEST(Wire, WalkRoundTrip) {
  wire::WalkRequest req;
  req.rule = 4;
  req.path = 1;
  req.requester = 11;
  req.seed = wire::WalkSeed::kFrontier;
  req.owner = 6;
  req.frontier = {{10, 2, 3}, {20, 0, 5}};
  auto decoded = wire::DecodeWalkRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  wire::WalkReply rep;
  rep.accepted = 1;
  rep.exports = {{3, 1, 2}};
  rep.pairs_visited = 77;
  rep.stamp = {1, 2};
  auto decoded_rep = wire::DecodeWalkReply(wire::Encode(rep));
  ASSERT_TRUE(decoded_rep.ok());
  EXPECT_EQ(*decoded_rep, rep);
}

TEST(Wire, MutateRoundTrip) {
  wire::MutateRequest req;
  req.op = wire::MutateOp::kRemoveEdge;
  req.src = 5;
  req.dst = 6;
  req.label = kInvalidLabel;
  req.label_name = "friend";
  auto decoded = wire::DecodeMutateRequest(wire::Encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, req);

  wire::MutateReply rep;
  rep.new_node = 99;
  rep.stamp = {3, 4};
  auto decoded_rep = wire::DecodeMutateReply(wire::Encode(rep));
  ASSERT_TRUE(decoded_rep.ok());
  EXPECT_EQ(*decoded_rep, rep);
}

TEST(Wire, RejectsCorruptFrames) {
  std::vector<uint8_t> bytes = wire::Encode(wire::CheckRequest{});
  // Bad magic.
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(wire::DecodeCheckRequest(bad_magic).status().code(),
            StatusCode::kInvalidArgument);
  // Unknown version.
  auto bad_version = bytes;
  bad_version[4] = 0xEE;
  EXPECT_EQ(wire::DecodeCheckRequest(bad_version).status().code(),
            StatusCode::kInvalidArgument);
  // A protocol-2 header: its evaluator byte numbered five choices.
  auto protocol2 = bytes;
  protocol2[4] = 2;
  EXPECT_EQ(wire::DecodeCheckRequest(protocol2).status().code(),
            StatusCode::kInvalidArgument);
  // Correctly checksummed frames whose override fields name no
  // EvaluatorChoice, alone and inside a batch.
  const wire::CheckRequest past_last{.has_evaluator_override = 1,
                                     .evaluator_override = 9};
  const wire::CheckRequest flag_not_bool{.has_evaluator_override = 2};
  for (const wire::CheckRequest& bad : {past_last, flag_not_bool}) {
    EXPECT_EQ(wire::DecodeCheckRequest(wire::Encode(bad)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(wire::DecodeBatchCheckRequest(
                  wire::Encode(wire::BatchCheckRequest{{{}, bad}}))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // Wrong message type for the decoder.
  EXPECT_FALSE(wire::DecodeWalkRequest(bytes).ok());
  // Truncation at every prefix length must error, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        wire::DecodeCheckRequest(std::span(bytes.data(), len)).ok());
  }
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeCheckRequest(padded).ok());
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
  // a clean decode error, never a silently misread message.
  wire::WalkReply rep;
  rep.exports = {{3, 1, 2}, {9, 0, 4}};
  rep.pairs_visited = 501;
  rep.stamp = {7, 13};
  const std::vector<uint8_t> bytes = wire::Encode(rep);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(wire::DecodeWalkReply(flipped).ok())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Wire, ParseMessageDispatchesEveryType) {
  auto parse = [](const std::vector<uint8_t>& bytes) {
    auto m = wire::ParseMessage(bytes);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(*m);
  };
  EXPECT_TRUE(std::holds_alternative<wire::CheckRequest>(
      parse(wire::Encode(wire::CheckRequest{.requester = 1}))));
  EXPECT_TRUE(std::holds_alternative<wire::CheckReply>(
      parse(wire::Encode(wire::CheckReply{}))));
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckRequest>(
      parse(wire::Encode(wire::BatchCheckRequest{}))));
  EXPECT_TRUE(std::holds_alternative<wire::BatchCheckReply>(
      parse(wire::Encode(wire::BatchCheckReply{}))));
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
  pool.push_back(wire::Encode(wire::CheckRequest{
      .requester = 5, .resource = 2, .want_witness = 1}));
  wire::CheckReply crep;
  crep.granted = 1;
  crep.witness = {1, 2, 3};
  crep.stamp = {3, 4};
  pool.push_back(wire::Encode(crep));
  wire::BatchCheckRequest breq;
  breq.requests = {{.requester = 1}, {.requester = 2, .resource = 1}};
  pool.push_back(wire::Encode(breq));
  wire::BatchCheckReply brep;
  brep.replies = {crep, wire::CheckReply{}};
  pool.push_back(wire::Encode(brep));
  wire::WalkRequest wreq;
  wreq.rule = 4;
  wreq.seed = wire::WalkSeed::kFrontier;
  wreq.frontier = {{10, 2, 3}, {20, 0, 5}};
  pool.push_back(wire::Encode(wreq));
  wire::WalkReply wrep;
  wrep.exports = {{3, 1, 2}};
  wrep.pairs_visited = 77;
  pool.push_back(wire::Encode(wrep));
  wire::MutateRequest mreq;
  mreq.op = wire::MutateOp::kAddEdge;
  mreq.src = 5;
  mreq.dst = 6;
  mreq.label_name = "friend";
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

// ---- Router: single-shard passthrough -------------------------------------

TEST(ShardRouter, SingleShardPassthroughStamps) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  ShardRouter router(g, store);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_EQ(router.num_shards(), 1u);

  // The passthrough serves the SAME engine the shard wraps: decisions
  // carry that engine's own view stamps, byte-identical to calling it
  // directly — no router-level stamp rewriting.
  const AccessRequest req{.requester = 3, .resource = photo};
  auto direct = router.shard(0).engine().CheckAccess(req);
  auto routed = router.CheckAccess(req);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(routed.ok());
  EXPECT_TRUE(routed->granted);
  EXPECT_EQ(routed->granted, direct->granted);
  EXPECT_EQ(routed->snapshot_generation, direct->snapshot_generation);
  EXPECT_EQ(routed->overlay_version, direct->overlay_version);
  EXPECT_EQ(routed->evaluator_name, direct->evaluator_name);

  const std::vector<AccessRequest> batch{req, {.requester = 2,
                                               .resource = photo}};
  auto direct_batch = router.shard(0).engine().CheckAccessBatch(batch);
  auto routed_batch = router.CheckAccessBatch(batch);
  ASSERT_EQ(routed_batch.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(routed_batch[i].ok());
    ASSERT_TRUE(direct_batch[i].ok());
    EXPECT_EQ(routed_batch[i]->granted, direct_batch[i]->granted);
    EXPECT_EQ(routed_batch[i]->snapshot_generation,
              direct_batch[i]->snapshot_generation);
    EXPECT_EQ(routed_batch[i]->overlay_version,
              direct_batch[i]->overlay_version);
  }

  // Mutations pass straight through too.
  ASSERT_TRUE(router.AddEdge(3, 0, "friend").ok());
  auto now_granted = router.CheckAccess({.requester = 3, .resource = photo});
  ASSERT_TRUE(now_granted.ok());
  EXPECT_TRUE(now_granted->granted);
  auto added = router.AddNode();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 6u);
  EXPECT_EQ(router.topology()->shard_of.size(), 7u);
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

void RunOracleComparison(Result<SocialGraph> generated,
                         PartitionStrategy strategy, uint32_t num_shards,
                         const std::string& tag) {
  ASSERT_TRUE(generated.ok());
  Workload w = MakeWorkload(std::move(*generated));
  SocialGraph oracle_graph = w.graph;  // copy before the router partitions

  RouterOptions opts;
  opts.partition.num_shards = num_shards;
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

  // Fresh summaries must not change any answer.
  ASSERT_TRUE(router.RefreshSummaries().ok()) << tag;
  compare_random(80, "after-refresh");
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

TEST(ShardRouterOracle, BarabasiAlbertCommunityNoSummaries) {
  // Same agreement with summaries disabled: every cross-shard path goes
  // through the frontier-exchange fallback.
  auto g = SmallBa(99);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  SocialGraph oracle_graph = w.graph;
  RouterOptions opts;
  opts.partition.num_shards = 4;
  opts.partition.strategy = PartitionStrategy::kCommunity;
  opts.build_summaries = false;
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
                 "nosummary slot " + std::to_string(i));
  }
  const RouterCounters c = router.counters();
  // With summaries disabled, any path evaluation that outlives phase
  // one must have gone through frontier exchange (never a stale-summary
  // detour, because there are no summaries to find stale).
  EXPECT_GT(c.fallback_walks, 0u);
  EXPECT_EQ(c.stale_summary_fallbacks, 0u);
}

// ---- Router: forced fallback + counters -----------------------------------

TEST(ShardRouter, StaleSummaryFallsBackThenRecovers) {
  // Two contiguous shards over 8 nodes: 0-3 on shard 0, 4-7 on shard 1.
  // Chain 0 -f-> 4 -f-> 5 -f-> 1 needs three hops crossing the cut twice.
  SocialGraph g;
  g.AddNodes(8);
  ASSERT_TRUE(g.AddEdge(0, 4, "friend").ok());
  ASSERT_TRUE(g.AddEdge(4, 5, "friend").ok());
  ASSERT_TRUE(g.AddEdge(5, 1, "friend").ok());
  PolicyStore store;
  const ResourceId res = store.RegisterResource(0, "res");
  ASSERT_TRUE(store.AddRuleFromPaths(res, {"friend[1,3]"}).ok());

  RouterOptions opts;
  opts.partition.num_shards = 2;
  opts.partition.strategy = PartitionStrategy::kContiguous;
  ShardRouter router(g, store, opts);
  ASSERT_TRUE(router.Build().ok());
  ASSERT_EQ(router.topology()->shard_of[0], 0u);
  ASSERT_EQ(router.topology()->shard_of[5], 1u);

  // Fresh summaries: the cross-shard grant resolves without fallback.
  auto granted = router.CheckAccess({.requester = 1, .resource = res});
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->granted);
  RouterCounters c = router.counters();
  EXPECT_EQ(c.fallback_walks, 0u);
  EXPECT_GT(c.cross_shard_checks, 0u);

  // An interior mutation on shard 1 (5 -> 6 stays inside the shard)
  // dirties its summary stamp; the next cross-shard check must fall back
  // to frontier exchange — and still answer correctly.
  ASSERT_TRUE(router.AddEdge(5, 6, "friend").ok());
  granted = router.CheckAccess({.requester = 1, .resource = res});
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->granted);
  c = router.counters();
  EXPECT_GT(c.fallback_walks, 0u);
  EXPECT_GT(c.stale_summary_fallbacks, 0u);
  const uint64_t fallbacks_before = c.fallback_walks;

  // Rebuilt summaries: fallback count stops moving.
  ASSERT_TRUE(router.RefreshSummaries().ok());
  granted = router.CheckAccess({.requester = 1, .resource = res});
  ASSERT_TRUE(granted.ok());
  EXPECT_TRUE(granted->granted);
  // Requester 6 is now reachable in two hops as well.
  auto six = router.CheckAccess({.requester = 6, .resource = res});
  ASSERT_TRUE(six.ok());
  EXPECT_TRUE(six->granted);
  // And node 3 never was.
  auto three = router.CheckAccess({.requester = 3, .resource = res});
  ASSERT_TRUE(three.ok());
  EXPECT_FALSE(three->granted);
  c = router.counters();
  EXPECT_EQ(c.fallback_walks, fallbacks_before);
  EXPECT_GT(c.summary_resolved, 0u);
}

TEST(ShardRouter, AddNodeKeepsShardsAligned) {
  auto g = SmallEr(3);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 3;
  ShardRouter router(w.graph, w.store, opts);
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
      if (step % 10 == 9) ASSERT_TRUE(router.RefreshSummaries().ok());
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

// ---- Transport: in-process path, fault injection, circuit breaker ----------

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

TEST(ShardTransport, InProcessMatchesDirect) {
  auto g = SmallEr(21);
  ASSERT_TRUE(g.ok());
  Workload w = MakeWorkload(std::move(*g));
  RouterOptions opts;
  opts.partition.num_shards = 2;
  ShardRouter router(w.graph, w.store, opts);
  ASSERT_TRUE(router.Build().ok());

  InProcessTransport transport({&router.shard(0), &router.shard(1)});
  ASSERT_EQ(transport.num_shards(), 2u);
  const wire::CheckRequest req =
      ToWire(AccessRequest{.requester = 9, .resource = w.resources[0]});
  for (uint32_t s = 0; s < 2; ++s) {
    const wire::CheckReply direct = router.shard(s).Check(req);
    auto through = transport.Call(s, req, {});
    ASSERT_TRUE(through.ok());
    EXPECT_EQ(*through, direct);
  }
  // A deadline in the past fails cleanly before touching the shard.
  TransportCallOptions past;
  past.deadline_ms = 1;
  EXPECT_EQ(transport.Call(0, req, past).status().code(),
            StatusCode::kDeadlineExceeded);
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
  const wire::CheckRequest req =
      ToWire(AccessRequest{.requester = 3, .resource = photo});
  auto reply = wire::DecodeCheckReply(shard.HandleFrame(wire::Encode(req)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, shard.Check(req));
  EXPECT_EQ(reply->granted, 1);

  // Handed over in process (no decoder ran), an override byte past the
  // last EvaluatorChoice reaches no engine: the check fails, and so does
  // every slot of a batch carrying it, as its decoded frame would.
  wire::CheckRequest bad_override = req;
  bad_override.has_evaluator_override = 1;
  bad_override.evaluator_override = 9;
  EXPECT_EQ(wire::UnpackStatus(shard.Check(bad_override).status_code, "")
                .code(),
            StatusCode::kInvalidArgument);
  const wire::BatchCheckReply batch =
      shard.CheckBatch(wire::BatchCheckRequest{{req, bad_override}});
  ASSERT_EQ(batch.replies.size(), 2u);
  for (const wire::CheckReply& slot : batch.replies) {
    EXPECT_EQ(wire::UnpackStatus(slot.status_code, "").code(),
              StatusCode::kInvalidArgument);
  }

  // Mutations through the byte path take the writer path too.
  wire::MutateRequest mreq;
  mreq.op = wire::MutateOp::kAddEdge;
  mreq.src = 3;
  mreq.dst = 0;
  mreq.label_name = "friend";
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
  auto not_request =
      wire::DecodeErrorFrame(shard.HandleFrame(wire::Encode(wire::CheckReply{})));
  ASSERT_TRUE(not_request.ok());
  EXPECT_EQ(wire::StatusFromErrorFrame(*not_request).code(),
            StatusCode::kInvalidArgument);
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
        std::make_unique<InProcessTransport>(
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
      const wire::CheckRequest req = ToWire(AccessRequest{
          .requester = static_cast<NodeId>(i % 60),
          .resource = w.resources[static_cast<size_t>(i) %
                                  w.resources.size()]});
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
  opts.robustness.allow_degraded = false;  // crisp error assertions
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
  // the storm and the decision is exact (and not marked degraded).
  fault->AddSchedule({.shard = 0, .first_call = 0, .last_call = 1,
                      .kind = FaultKind::kDrop});
  const AccessRequest req{.requester = 1, .resource = f.res};
  auto d = router.CheckAccess(req);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->granted);
  EXPECT_TRUE(d->degraded_reason.empty());
  RouterCounters c = router.counters();
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.unavailable_errors, 0u);
  EXPECT_EQ(fault->counters(0).drops, 2u);
  // That check used exactly two shard-0 calls after the drops: the
  // local-phase Check (attempt 3) and the phase-one walk.
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
  const wire::CheckRequest req =
      ToWire(AccessRequest{.requester = 9, .resource = w.resources[0]});
  for (uint32_t s = 0; s < 2; ++s) {
    const wire::CheckReply direct = router.shard(s).Check(req);
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
  mreq.label_name = "friend";
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
    opts.robustness.allow_degraded = false;
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
    if (d.ok()) EXPECT_TRUE(d->granted);
    return fault->NowMs() - before;
  };

  const uint64_t quiet = run(0);
  EXPECT_GT(quiet, 0u);            // the two backoffs really slept
  EXPECT_EQ(run(0), quiet);        // repeatable from scratch
  EXPECT_EQ(run(7), quiet);        // …and independent of prior traffic
  EXPECT_EQ(run(23), quiet);
}

// ---- Parallel fan-out: serial-vs-threaded agreement wall -------------------

// Byte-level agreement between the serial (InProcessTransport) and the
// threaded (ThreadedTransport) router: not just the verdict but every
// field a caller can see — stamps, witness, matched rule, evaluator,
// work counters. Both routers run the identical scatter-gather code
// over the identical call sets, so anything short of byte-identity is
// a concurrency bug.
void ExpectIdenticalDecision(const Result<AccessDecision>& threaded,
                             const Result<AccessDecision>& serial,
                             const std::string& context) {
  ASSERT_EQ(threaded.ok(), serial.ok())
      << context << " threaded=" << threaded.status().ToString()
      << " serial=" << serial.status().ToString();
  if (!threaded.ok()) {
    EXPECT_EQ(threaded.status().code(), serial.status().code()) << context;
    return;
  }
  EXPECT_EQ(threaded->granted, serial->granted) << context;
  EXPECT_EQ(threaded->owner_access, serial->owner_access) << context;
  EXPECT_EQ(threaded->matched_rule, serial->matched_rule) << context;
  EXPECT_EQ(threaded->witness, serial->witness) << context;
  EXPECT_EQ(threaded->evaluator_name, serial->evaluator_name) << context;
  EXPECT_EQ(threaded->snapshot_generation, serial->snapshot_generation)
      << context;
  EXPECT_EQ(threaded->overlay_version, serial->overlay_version) << context;
  EXPECT_EQ(threaded->degraded_reason, serial->degraded_reason) << context;
  EXPECT_EQ(threaded->stats.pairs_visited, serial->stats.pairs_visited)
      << context;
}

void RunParallelAgreement(Result<SocialGraph> generated,
                          PartitionStrategy strategy, uint32_t num_shards,
                          const std::string& tag) {
  ASSERT_TRUE(generated.ok());
  Workload w = MakeWorkload(std::move(*generated));
  SocialGraph threaded_graph = w.graph;  // copies before partitioning
  SocialGraph oracle_graph = w.graph;

  RouterOptions base;
  base.partition.num_shards = num_shards;
  base.partition.strategy = strategy;
  // No per-attempt deadlines: a loaded CI box must not turn a slow
  // scheduler tick into a spurious timeout on either side.
  base.robustness.call_deadline_ms = 0;
  base.robustness.op_budget_ms = 0;

  RouterOptions serial_opts = base;
  // Identity decorator: routes even an N == 1 serial router through the
  // transport, mirroring how threaded_transport disables passthrough —
  // the two sides must take the same code path everywhere.
  serial_opts.transport_decorator =
      [](std::unique_ptr<ShardTransport> inner)
      -> std::unique_ptr<ShardTransport> { return inner; };
  RouterOptions threaded_opts = base;
  threaded_opts.threaded_transport = true;

  ShardRouter serial_router(w.graph, w.store, serial_opts);
  ASSERT_TRUE(serial_router.Build().ok()) << tag;
  ShardRouter threaded_router(threaded_graph, w.store, threaded_opts);
  ASSERT_TRUE(threaded_router.Build().ok()) << tag;
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
      const auto t = threaded_router.CheckAccess(req);
      ExpectIdenticalDecision(t, serial_router.CheckAccess(req), ctx);
      ExpectAgrees(t, oracle.CheckAccess(req), ctx + " (oracle)");
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
    const auto threaded = threaded_router.CheckAccessBatch(batch);
    const auto serial = serial_router.CheckAccessBatch(batch);
    ASSERT_EQ(threaded.size(), batch.size()) << tag;
    ASSERT_EQ(serial.size(), batch.size()) << tag;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string ctx =
          tag + "/" + phase + " batch slot " + std::to_string(i);
      ExpectIdenticalDecision(threaded[i], serial[i], ctx);
      ExpectAgrees(threaded[i], oracle.CheckAccess(batch[i]),
                   ctx + " (oracle)");
    }
  };

  compare_singles(90, "initial");
  compare_batch("initial");

  // Mid-stream mutations, preferring cross-cut edges, mirrored into all
  // three: the stamps keep moving in lockstep.
  const auto topo = serial_router.topology();
  std::vector<std::pair<NodeId, NodeId>> added;
  for (int t = 0; t < 400 && added.size() < 6; ++t) {
    const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
    if (a == b) continue;
    if (num_shards > 1 && topo->shard_of[a] == topo->shard_of[b]) continue;
    ASSERT_TRUE(serial_router.AddEdge(a, b, "friend").ok()) << tag;
    ASSERT_TRUE(threaded_router.AddEdge(a, b, "friend").ok()) << tag;
    ASSERT_TRUE(oracle.AddEdge(a, b, "friend").ok());
    added.push_back({a, b});
  }
  EXPECT_FALSE(added.empty()) << tag;
  compare_singles(60, "after-add");
  compare_batch("after-add");

  for (size_t i = 0; i < added.size(); i += 2) {
    ASSERT_TRUE(
        serial_router.RemoveEdge(added[i].first, added[i].second, "friend")
            .ok())
        << tag;
    ASSERT_TRUE(
        threaded_router.RemoveEdge(added[i].first, added[i].second, "friend")
            .ok())
        << tag;
    ASSERT_TRUE(
        oracle.RemoveEdge(added[i].first, added[i].second, "friend").ok());
  }
  compare_singles(60, "after-remove");

  ASSERT_TRUE(serial_router.RefreshSummaries().ok()) << tag;
  ASSERT_TRUE(threaded_router.RefreshSummaries().ok()) << tag;
  compare_singles(40, "after-refresh");
  compare_batch("after-refresh");

  // The routers agree they did the same amount of work, not just that
  // they reached the same verdicts.
  const RouterCounters sc = serial_router.counters();
  const RouterCounters tc = threaded_router.counters();
  EXPECT_EQ(tc.checks, sc.checks) << tag;
  EXPECT_EQ(tc.cross_shard_checks, sc.cross_shard_checks) << tag;
  EXPECT_EQ(tc.local_conclusive, sc.local_conclusive) << tag;
  EXPECT_EQ(tc.summary_resolved, sc.summary_resolved) << tag;
  EXPECT_EQ(tc.fallback_walks, sc.fallback_walks) << tag;
  EXPECT_EQ(tc.fallback_rounds, sc.fallback_rounds) << tag;
  EXPECT_EQ(tc.retries, sc.retries) << tag;
  EXPECT_EQ(tc.unavailable_errors, sc.unavailable_errors) << tag;
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

TEST(ShardParallelAgreement, NoSummariesForcesParallelFallbackRounds) {
  // With summaries disabled every cross-shard path takes the frontier-
  // exchange fallback, whose rounds now scatter all shards in parallel
  // — the hardest surface to keep byte-identical.
  auto run = [](bool threaded) {
    auto g = SmallBa(99);
    EXPECT_TRUE(g.ok());
    auto w = std::make_unique<Workload>(MakeWorkload(std::move(*g)));
    RouterOptions opts;
    opts.partition.num_shards = 4;
    opts.partition.strategy = PartitionStrategy::kCommunity;
    opts.build_summaries = false;
    opts.robustness.call_deadline_ms = 0;
    opts.robustness.op_budget_ms = 0;
    opts.threaded_transport = threaded;
    if (!threaded) {
      opts.transport_decorator =
          [](std::unique_ptr<ShardTransport> inner)
          -> std::unique_ptr<ShardTransport> { return inner; };
    }
    auto router = std::make_unique<ShardRouter>(w->graph, w->store, opts);
    EXPECT_TRUE(router->Build().ok());
    return std::make_pair(std::move(w), std::move(router));
  };
  auto [sw, serial] = run(false);
  auto [tw, threaded] = run(true);

  Rng rng(5);
  const size_t n = sw->graph.NumNodes();
  for (int i = 0; i < 150; ++i) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(rng.NextBounded(n));
    req.resource = sw->resources[rng.NextBounded(sw->resources.size())];
    ExpectIdenticalDecision(threaded->CheckAccess(req),
                            serial->CheckAccess(req),
                            "nosummary slot " + std::to_string(i));
  }
  const RouterCounters sc = serial->counters();
  const RouterCounters tc = threaded->counters();
  EXPECT_GT(tc.fallback_walks, 0u);
  EXPECT_EQ(tc.fallback_walks, sc.fallback_walks);
  EXPECT_EQ(tc.fallback_rounds, sc.fallback_rounds);
}

}  // namespace
}  // namespace sargus
