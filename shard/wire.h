#ifndef SARGUS_SHARD_WIRE_H_
#define SARGUS_SHARD_WIRE_H_

/// \file wire.h
/// \brief The router <-> shard messages: plain structs of PODs and flat
/// vectors, no pointers.
///
/// Every message the ShardRouter exchanges with a ShardEngine is one of
/// the structs below. They cross the seam as typed values: the
/// transports (shard/transport.h) pass them to the shard in-process and
/// hand the typed reply back, so nothing is ever encoded to bytes.
/// Evaluation errors travel in-band, packed into each reply's
/// status_code/error pair (PackStatus/UnpackStatus). A transport that
/// crosses a process boundary would add a byte encoding of these
/// structs; none exists today.
///
/// Identifier convention: node, label, resource, rule and automaton
/// state ids in wire messages are GLOBAL — every shard graph keeps the
/// full node id space and identical dictionaries (graph/subgraph.h),
/// and every shard compiles identical policy snapshots, so a
/// (node, state) frontier entry produced by one shard seeds a walk on
/// any other with no translation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/automaton.h"

namespace sargus::wire {

/// The (snapshot_generation, overlay_version) pair identifying the
/// published shard state a reply was produced against.
struct Stamp {
  uint64_t snapshot_generation = 0;
  uint64_t overlay_version = 0;
  bool operator==(const Stamp&) const = default;
};

/// One mid-walk product configuration shipped between shards: the walk
/// paused at `node` in automaton state `state` with `residual_hops`
/// edges of budget left (the sum of max-hops of the remaining steps —
/// derivable from `state` alone, carried explicitly so both sides can
/// cross-check that they compiled the same automaton; a receiver
/// rejects a mismatch, which would mean diverged policy or label
/// dictionaries).
struct FrontierEntry {
  NodeId node = 0;
  uint32_t state = 0;
  uint32_t residual_hops = 0;
  bool operator==(const FrontierEntry&) const = default;
};

/// Residual hop budget per automaton state: the value FrontierEntry
/// carries. residual[s] = sum of max_hops over steps >= StepOf(s),
/// minus the hops already consumed within StepOf(s). Always >= 1 for a
/// live (non-accept) state.
std::vector<uint32_t> ResidualHopBudgets(const HopAutomaton& nfa);

// ---- CheckAccess ----------------------------------------------------------

/// One entry of a batch check frame (there is no single-check frame).
struct CheckRequest {
  NodeId requester = 0;
  ResourceId resource = 0;
  uint8_t want_witness = 0;
  bool operator==(const CheckRequest&) const = default;
};

struct CheckReply {
  /// sargus StatusCode; non-zero means the request failed and only
  /// `error` is meaningful.
  uint8_t status_code = 0;
  std::string error;
  uint8_t granted = 0;
  uint8_t owner_access = 0;
  uint8_t has_matched_rule = 0;
  RuleId matched_rule = 0;
  uint64_t pairs_visited = 0;
  Stamp stamp;
  std::vector<NodeId> witness;
  bool operator==(const CheckReply&) const = default;
};

struct BatchCheckRequest {
  std::vector<CheckRequest> requests;
  bool operator==(const BatchCheckRequest&) const = default;
};

struct BatchCheckReply {
  /// Positional: replies[i] answers requests[i].
  std::vector<CheckReply> replies;
  bool operator==(const BatchCheckReply&) const = default;
};

// ---- Frontier walks (cross-shard evaluation) ------------------------------

enum class WalkSeed : uint8_t {
  /// Seed the automaton start closure at `owner` (phase one: the walk
  /// that begins at the resource owner on its home shard).
  kOwnerStarts = 0,
  /// Seed the explicit `frontier` (frontier rounds: resume
  /// configurations another shard exported).
  kFrontier = 1,
};

/// One product-space walk for one (rule, path) of one check.
struct Walk {
  RuleId rule = 0;
  /// Path index within the rule (a rule is a disjunction of paths).
  uint32_t path = 0;
  NodeId requester = 0;
  WalkSeed seed = WalkSeed::kOwnerStarts;
  NodeId owner = 0;
  std::vector<FrontierEntry> frontier;
  bool operator==(const Walk&) const = default;
};

/// What one walk found.
struct WalkResult {
  uint8_t status_code = 0;
  std::string error;
  /// An accepting edge landed on `requester` inside this shard's local
  /// graph — a global grant (local edges are a subset of global edges).
  uint8_t accepted = 0;
  /// Every fresh configuration the walk pushed at a node this shard
  /// does not own — the entry points into other shards. Deduplicated
  /// within one result by the walk's visited set.
  std::vector<FrontierEntry> exports;
  uint64_t pairs_visited = 0;
  bool operator==(const WalkResult&) const = default;
};

struct WalkRequest {
  std::vector<Walk> walks;
  bool operator==(const WalkRequest&) const = default;
};

struct WalkReply {
  /// Positional: results[i] answers walks[i].
  std::vector<WalkResult> results;
  /// The one read view every walk of the frame ran against.
  Stamp stamp;
  bool operator==(const WalkReply&) const = default;
};

// ---- Mutations ------------------------------------------------------------

enum class MutateOp : uint8_t {
  kAddEdge = 0,
  kRemoveEdge = 1,
  kAddNode = 2,
};

struct MutateRequest {
  MutateOp op = MutateOp::kAddEdge;
  NodeId src = 0;
  NodeId dst = 0;
  /// An id the router pre-interned into every shard, so ids stay aligned
  /// across shards; a shard refuses an id its dictionary lacks
  /// (kInvalidArgument on add, kNotFound on remove). Unused by kAddNode.
  LabelId label = kInvalidLabel;
  bool operator==(const MutateRequest&) const = default;
};

struct MutateReply {
  uint8_t status_code = 0;
  std::string error;
  /// The id assigned by kAddNode (kInvalidNode otherwise).
  NodeId new_node = kInvalidNode;
  /// Writer-side stamps after the mutation.
  Stamp stamp;
  bool operator==(const MutateReply&) const = default;
};

// ---- Status packing -------------------------------------------------------

uint8_t PackStatus(const Status& status);
Status UnpackStatus(uint8_t code, std::string error);

}  // namespace sargus::wire

#endif  // SARGUS_SHARD_WIRE_H_
